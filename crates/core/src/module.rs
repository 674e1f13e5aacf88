//! Program modules and module linking.
//!
//! "The implementation `M` is a program module written in assembly (or C)"
//! (§2). A [`Module`] is a named collection of function implementations;
//! each function is represented as a [`PrimSpec`] whose [`PrimRun`] runs
//! the function body *over the module's underlay* — a ClightX interpreter
//! run, an assembly interpreter run, or a native Rust strategy.
//!
//! `⊕` is the linking operator over modules ([`Module::link`], §2), and
//! [`Module::install`] builds the machine on which `P ⊕ M` executes: the
//! underlay interface extended with the module's functions as callable
//! code.
//!
//! [`PrimRun`]: crate::layer::PrimRun

use std::collections::BTreeMap;
use std::fmt;

use crate::layer::{LayerInterface, PrimSpec};
use crate::machine::MachineError;

/// The source language a module function was written in (Fig. 2 shows C
/// and assembly layers side by side; native functions are Rust-level
/// strategies used for specs and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lang {
    /// ClightX (the C-like layered language, §5.5).
    C,
    /// The toy x86-like layered assembly.
    Asm,
    /// A native Rust implementation.
    Native,
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lang::C => write!(f, "C"),
            Lang::Asm => write!(f, "asm"),
            Lang::Native => write!(f, "native"),
        }
    }
}

/// One module function: a language tag plus its executable body.
#[derive(Debug, Clone)]
pub struct ModuleFn {
    /// Source language of the body.
    pub lang: Lang,
    /// The executable body, runnable over the module's underlay.
    pub spec: PrimSpec,
}

/// A program module `M`: a finite map from function names to bodies.
///
/// # Examples
///
/// ```
/// use ccal_core::module::{Lang, Module};
/// use ccal_core::layer::PrimSpec;
/// use ccal_core::val::Val;
///
/// let m1 = Module::new("M1")
///     .with_fn(Lang::Native, PrimSpec::private("id", |_, args| {
///         Ok(args.first().cloned().unwrap_or(Val::Unit))
///     }));
/// let m2 = Module::new("M2");
/// let linked = m1.link(&m2)?;
/// assert!(linked.contains("id"));
/// # Ok::<(), ccal_core::machine::MachineError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// The module's name (for diagnostics; linking concatenates names).
    pub name: String,
    fns: BTreeMap<String, ModuleFn>,
}

impl Module {
    /// Creates an empty module — the `∅` of the layer calculus (Fig. 9).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            fns: BTreeMap::new(),
        }
    }

    /// Adds a function; the function's name is the spec's name.
    pub fn with_fn(mut self, lang: Lang, spec: PrimSpec) -> Self {
        self.fns
            .insert(spec.name().to_owned(), ModuleFn { lang, spec });
        self
    }

    /// Whether the module implements `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }

    /// The function named `name`, if implemented.
    pub fn get(&self, name: &str) -> Option<&ModuleFn> {
        self.fns.get(name)
    }

    /// Function names, sorted.
    pub fn fn_names(&self) -> Vec<&str> {
        self.fns.keys().map(String::as_str).collect()
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the module is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// The linking operator `M ⊕ N` (§2).
    ///
    /// # Errors
    ///
    /// [`MachineError::DuplicatePrim`] if both modules implement the same
    /// function.
    pub fn link(&self, other: &Module) -> Result<Module, MachineError> {
        let mut fns = self.fns.clone();
        for (k, v) in &other.fns {
            if fns.insert(k.clone(), v.clone()).is_some() {
                return Err(MachineError::DuplicatePrim {
                    prim: k.clone(),
                    iface: format!("{} ⊕ {}", self.name, other.name),
                });
            }
        }
        Ok(Module {
            name: format!("{} ⊕ {}", self.name, other.name),
            fns,
        })
    }

    /// Builds the machine interface on which `P ⊕ M` runs over `underlay`:
    /// the underlay extended with this module's functions as callable
    /// code. Module functions resolve their own calls against the
    /// *extended* interface, so intra-module calls (e.g. `foo` calling
    /// `acq` when `M1 ⊕ M2` is installed over `L0`, Fig. 3) work, and so
    /// do calls to underlay primitives.
    ///
    /// # Errors
    ///
    /// [`MachineError::DuplicatePrim`] if a function name collides with an
    /// underlay primitive.
    pub fn install(&self, underlay: &LayerInterface) -> Result<LayerInterface, MachineError> {
        let mut builder = LayerInterface::builder(&format!("{}+{}", underlay.name, self.name));
        let as_iface = {
            let mut b = LayerInterface::builder(&self.name);
            for f in self.fns.values() {
                b = b.prim(f.spec.clone());
            }
            b.build()
        };
        let joined = underlay.join(&as_iface)?;
        builder = builder
            .conditions(underlay.conditions.clone())
            .init_abs(underlay.init_abs.clone());
        for name in joined.prim_names() {
            builder = builder.prim(joined.prim(name)?.clone());
        }
        Ok(builder.critical(underlay.critical().clone()).build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvContext;
    use crate::event::EventKind;
    use crate::id::Pid;
    use crate::machine::LayerMachine;
    use crate::strategy::RoundRobinScheduler;
    use crate::val::Val;
    use std::sync::Arc;

    fn base() -> LayerInterface {
        LayerInterface::builder("L0")
            .prim(PrimSpec::atomic("ping", |ctx, _| {
                ctx.emit(EventKind::Prim("ping".into(), vec![]));
                Ok(Val::Unit)
            }))
            .build()
    }

    #[test]
    fn link_merges_and_rejects_duplicates() {
        let a =
            Module::new("A").with_fn(Lang::Native, PrimSpec::private("f", |_, _| Ok(Val::Unit)));
        let b =
            Module::new("B").with_fn(Lang::Native, PrimSpec::private("g", |_, _| Ok(Val::Unit)));
        let ab = a.link(&b).unwrap();
        assert_eq!(ab.fn_names(), vec!["f", "g"]);
        assert!(ab.link(&a).is_err());
    }

    #[test]
    fn installed_module_fn_can_call_underlay_prims() {
        use crate::layer::{PrimRun, PrimStep, SubCall};

        struct CallsPing {
            sub: Option<SubCall>,
        }
        impl PrimRun for CallsPing {
            fn resume(
                &mut self,
                ctx: &mut crate::layer::PrimCtx<'_>,
            ) -> Result<PrimStep, MachineError> {
                if self.sub.is_none() {
                    self.sub = Some(SubCall::start(ctx, "ping", vec![])?);
                }
                match self.sub.as_mut().unwrap().step(ctx)? {
                    Some(_) => Ok(PrimStep::Done(Val::Int(7))),
                    None => Ok(PrimStep::Query),
                }
            }
        }
        let m = Module::new("M").with_fn(
            Lang::Native,
            PrimSpec::strategy("wrapper", true, |_, _| Box::new(CallsPing { sub: None })),
        );
        let extended = m.install(&base()).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
        let mut machine = LayerMachine::new(extended, Pid(1), env);
        let ret = machine.call_prim("wrapper", &[]).unwrap();
        assert_eq!(ret, Val::Int(7));
        assert_eq!(machine.log().count_by(Pid(1)), 1, "ping event recorded");
    }

    #[test]
    fn install_rejects_name_collisions() {
        let m = Module::new("M").with_fn(
            Lang::Native,
            PrimSpec::private("ping", |_, _| Ok(Val::Unit)),
        );
        assert!(m.install(&base()).is_err());
    }

    #[test]
    fn empty_module_installs_as_identity() {
        let m = Module::new("∅");
        let extended = m.install(&base()).unwrap();
        assert_eq!(extended.prim_names(), vec!["ping"]);
    }
}
