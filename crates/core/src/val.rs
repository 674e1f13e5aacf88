//! Machine and abstract-state values.
//!
//! The paper's machines carry memory values `v` and abstract states `a`
//! (Fig. 7). We use a single small value universe for registers, memory
//! cells, primitive arguments/returns, event payloads and abstract-state
//! fields; structured abstract state (e.g. the logical thread-queue list of
//! §4.2) is represented with [`Val::List`].

use std::fmt;

use crate::id::{Loc, Pid, QId};

/// A dynamic value: the `Val` universe of Fig. 7 enriched with the list and
/// string values needed by abstract layer states.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Val {
    /// The undefined value `vundef` (Fig. 7): contents of uninitialised
    /// memory.
    #[default]
    Undef,
    /// The unit value returned by `void` primitives.
    Unit,
    /// A machine integer. We use a mathematical `i64` at the layer level;
    /// bounded 32-bit arithmetic is the machine substrate's concern (the
    /// ticket-lock overflow argument of §4.1 is exercised there).
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A pointer to location `b`.
    Loc(Loc),
    /// A symbolic name (used for function pointers and diagnostic payloads).
    Str(String),
    /// A finite list, used for logical queue contents and memory snapshots.
    List(Vec<Val>),
}

impl Val {
    /// Interprets the value as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`ValError::Type`] if the value is not an [`Val::Int`].
    pub fn as_int(&self) -> Result<i64, ValError> {
        match self {
            Val::Int(i) => Ok(*i),
            other => Err(ValError::type_error("Int", other)),
        }
    }

    /// Interprets the value as a boolean. Integers are *not* implicitly
    /// coerced; the ClightX front end performs explicit comparisons.
    ///
    /// # Errors
    ///
    /// Returns [`ValError::Type`] if the value is not a [`Val::Bool`].
    pub fn as_bool(&self) -> Result<bool, ValError> {
        match self {
            Val::Bool(b) => Ok(*b),
            other => Err(ValError::type_error("Bool", other)),
        }
    }

    /// Interprets the value as a location.
    ///
    /// # Errors
    ///
    /// Returns [`ValError::Type`] if the value is not a [`Val::Loc`].
    pub fn as_loc(&self) -> Result<Loc, ValError> {
        match self {
            Val::Loc(loc) => Ok(*loc),
            other => Err(ValError::type_error("Loc", other)),
        }
    }

    /// Interprets the value as a list, borrowing its elements.
    ///
    /// # Errors
    ///
    /// Returns [`ValError::Type`] if the value is not a [`Val::List`].
    pub fn as_list(&self) -> Result<&[Val], ValError> {
        match self {
            Val::List(items) => Ok(items),
            other => Err(ValError::type_error("List", other)),
        }
    }

    /// Whether the value is `Undef`.
    pub fn is_undef(&self) -> bool {
        matches!(self, Val::Undef)
    }
}

impl From<i64> for Val {
    fn from(i: i64) -> Self {
        Val::Int(i)
    }
}

impl From<bool> for Val {
    fn from(b: bool) -> Self {
        Val::Bool(b)
    }
}

impl From<Loc> for Val {
    fn from(loc: Loc) -> Self {
        Val::Loc(loc)
    }
}

impl From<QId> for Val {
    fn from(q: QId) -> Self {
        Val::Int(i64::from(q.0))
    }
}

impl From<Pid> for Val {
    fn from(p: Pid) -> Self {
        Val::Int(i64::from(p.0))
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Self {
        Val::Str(s.to_owned())
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Undef => write!(f, "undef"),
            Val::Unit => write!(f, "()"),
            Val::Int(i) => write!(f, "{i}"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Loc(l) => write!(f, "{l}"),
            Val::Str(s) => write!(f, "{s:?}"),
            Val::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Error produced by dynamic value inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValError {
    /// A value had the wrong dynamic type.
    Type {
        /// The expected variant name.
        expected: &'static str,
        /// Debug rendering of the value found.
        found: String,
    },
}

impl ValError {
    fn type_error(expected: &'static str, found: &Val) -> Self {
        ValError::Type {
            expected,
            found: format!("{found}"),
        }
    }
}

impl fmt::Display for ValError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValError::Type { expected, found } => {
                write!(f, "expected {expected} value, found {found}")
            }
        }
    }
}

impl std::error::Error for ValError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        let v = Val::from(42_i64);
        assert_eq!(v.as_int().unwrap(), 42);
        assert!(v.as_bool().is_err());
    }

    #[test]
    fn bool_round_trip() {
        assert!(Val::from(true).as_bool().unwrap());
        assert!(Val::Int(1).as_bool().is_err(), "no implicit coercion");
    }

    #[test]
    fn loc_round_trip() {
        let v = Val::from(Loc(9));
        assert_eq!(v.as_loc().unwrap(), Loc(9));
    }

    #[test]
    fn list_borrowing() {
        let v = Val::List(vec![Val::Int(1), Val::Int(2)]);
        assert_eq!(v.as_list().unwrap().len(), 2);
    }

    #[test]
    fn default_is_undef() {
        assert!(Val::default().is_undef());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Val::List(vec![Val::Int(1), Val::Unit]).to_string(),
            "[1, ()]"
        );
        assert_eq!(Val::Undef.to_string(), "undef");
    }

    #[test]
    fn type_error_reports_expected_and_found() {
        let err = Val::Unit.as_int().unwrap_err();
        assert_eq!(
            err,
            ValError::Type {
                expected: "Int",
                found: "()".into()
            }
        );
        assert!(err.to_string().contains("expected Int"));
    }
}
