//! Abstract layer state.
//!
//! "The abstract state `a` is generally used in our layered approach to
//! summarize in-memory data structures from lower layers. It is not just a
//! ghost state, because it affects program execution when making primitive
//! calls" (§3.1). Examples from the paper: the ownership-status map of the
//! push/pull model (Fig. 6), and the logical thread-control-block and
//! thread-queue arrays `a.tcbp` / `a.tdqp` of §4.2.
//!
//! We represent an abstract state as a named record of [`Val`] fields.
//! Indexed families (e.g. one logical queue per queue id) use
//! [`AbsState::field_at`] naming.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::val::{Val, ValError};

/// A named record of abstract-state fields.
///
/// The field map is shared copy-on-write: cloning (every machine fork does)
/// bumps a reference count, and the first write to a shared state copies
/// the map.
///
/// # Examples
///
/// ```
/// use ccal_core::abs::AbsState;
/// use ccal_core::val::Val;
///
/// let mut a = AbsState::new();
/// a.set("curid", Val::Int(3));
/// assert_eq!(a.get_int("curid")?, 3);
/// # Ok::<(), ccal_core::abs::AbsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AbsState {
    fields: Arc<BTreeMap<String, Val>>,
}

impl AbsState {
    /// Creates an empty abstract state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets field `name` to `value`, returning the previous value if any.
    pub fn set(&mut self, name: &str, value: Val) -> Option<Val> {
        Arc::make_mut(&mut self.fields).insert(name.to_owned(), value)
    }

    /// Reads field `name`.
    ///
    /// # Errors
    ///
    /// [`AbsError::Missing`] if the field does not exist.
    pub fn get(&self, name: &str) -> Result<&Val, AbsError> {
        self.fields
            .get(name)
            .ok_or_else(|| AbsError::Missing(name.to_owned()))
    }

    /// Reads field `name`, defaulting to `Val::Undef` when absent.
    pub fn get_or_undef(&self, name: &str) -> Val {
        self.fields.get(name).cloned().unwrap_or(Val::Undef)
    }

    /// Reads an integer field.
    ///
    /// # Errors
    ///
    /// [`AbsError::Missing`] if absent, [`AbsError::Val`] if not an `Int`.
    pub fn get_int(&self, name: &str) -> Result<i64, AbsError> {
        Ok(self.get(name)?.as_int()?)
    }

    /// Reads a list field, cloning it.
    ///
    /// # Errors
    ///
    /// [`AbsError::Missing`] if absent, [`AbsError::Val`] if not a `List`.
    pub fn get_list(&self, name: &str) -> Result<Vec<Val>, AbsError> {
        Ok(self.get(name)?.as_list()?.to_vec())
    }

    /// Applies `f` to the current value of field `name` (or `Val::Undef` if
    /// absent) and stores the result.
    ///
    /// # Errors
    ///
    /// Propagates the error returned by `f`.
    pub fn update<F>(&mut self, name: &str, f: F) -> Result<(), AbsError>
    where
        F: FnOnce(Val) -> Result<Val, AbsError>,
    {
        let current = self.get_or_undef(name);
        let next = f(current)?;
        self.set(name, next);
        Ok(())
    }

    /// The canonical name of the `index`-th member of the indexed field
    /// family `base` — e.g. `field_at("tdqp", 3)` is the logical queue
    /// `a.tdqp 3` of §4.2.
    pub fn field_at(base: &str, index: i64) -> String {
        format!("{base}[{index}]")
    }

    /// Whether a field exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.contains_key(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Val)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the state has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Merges `other` into `self`; fields of `other` win on collision.
    /// Used when layer interfaces are joined by horizontal composition.
    pub fn merged_with(mut self, other: &AbsState) -> AbsState {
        let fields = Arc::make_mut(&mut self.fields);
        for (k, v) in other.iter() {
            fields.insert(k.to_owned(), v.clone());
        }
        self
    }
}

impl fmt::Display for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// Error produced by abstract-state access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsError {
    /// The named field does not exist.
    Missing(String),
    /// A field had the wrong dynamic type.
    Val(ValError),
    /// A domain-specific invariant on the abstract state failed.
    Invalid(String),
}

impl fmt::Display for AbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsError::Missing(name) => write!(f, "abstract state has no field `{name}`"),
            AbsError::Val(e) => write!(f, "abstract state field: {e}"),
            AbsError::Invalid(msg) => write!(f, "abstract state invalid: {msg}"),
        }
    }
}

impl std::error::Error for AbsError {}

impl From<ValError> for AbsError {
    fn from(e: ValError) -> Self {
        AbsError::Val(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut a = AbsState::new();
        assert!(a.set("x", Val::Int(1)).is_none());
        assert_eq!(a.set("x", Val::Int(2)), Some(Val::Int(1)));
        assert_eq!(a.get_int("x").unwrap(), 2);
    }

    #[test]
    fn missing_field_errors() {
        let a = AbsState::new();
        assert_eq!(a.get("nope").unwrap_err(), AbsError::Missing("nope".into()));
        assert!(a.get_or_undef("nope").is_undef());
    }

    #[test]
    fn type_errors_propagate() {
        let mut a = AbsState::new();
        a.set("x", Val::Bool(true));
        assert!(matches!(a.get_int("x").unwrap_err(), AbsError::Val(_)));
    }

    #[test]
    fn update_applies_function() {
        let mut a = AbsState::new();
        a.set("n", Val::Int(5));
        a.update("n", |v| {
            Ok(Val::Int(v.as_int().map_err(AbsError::from)? + 1))
        })
        .unwrap();
        assert_eq!(a.get_int("n").unwrap(), 6);
    }

    #[test]
    fn indexed_field_names() {
        assert_eq!(AbsState::field_at("tdqp", 3), "tdqp[3]");
    }

    #[test]
    fn clones_copy_on_write() {
        let mut a = AbsState::new();
        a.set("x", Val::Int(1));
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.fields, &b.fields), "a clone shares the map");
        b.set("x", Val::Int(2));
        assert_eq!(
            a.get_int("x").unwrap(),
            1,
            "writing the clone leaves the original"
        );
        assert_eq!(b.get_int("x").unwrap(), 2);
        let c = a.clone();
        a.set("y", Val::Int(3));
        assert!(!c.contains("y"), "writing the original leaves the clone");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = AbsState::new();
        a.set("x", Val::Int(1));
        a.set("y", Val::Int(2));
        let mut b = AbsState::new();
        b.set("x", Val::Int(10));
        let m = a.merged_with(&b);
        assert_eq!(m.get_int("x").unwrap(), 10);
        assert_eq!(m.get_int("y").unwrap(), 2);
    }
}
