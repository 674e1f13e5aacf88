//! # ccal-clightx — the C-like layered source language
//!
//! ClightX is the C side of CCAL's "layered concurrent programming in both
//! C and assembly" (§1): module implementations such as the ticket lock's
//! `acq`/`rel` (Figs. 3, 10) and the queuing lock (Fig. 11) are written in
//! a small C subset, interpreted directly over a layer interface for
//! source-level verification, and compiled to layered assembly by
//! `ccal-compcertx`.
//!
//! Pipeline: [`parser`] (surface syntax) → [`lower`] (call hoisting,
//! short-circuit and loop desugaring) → [`check`] (static well-formedness)
//! → execution. Execution has two bit-identical tiers: the tree-walking
//! interpreter [`interp`] and the compiled tier ([`compile`] slot-resolves
//! to [`bytecode`], run by the [`vm`]), selected per instantiation via
//! `ccal_core::prefix::bytecode_effective` (the compiled tier unless a
//! `BytecodeOverride` — a test hook — forces the interpreter).
//!
//! The one-call entry point is [`clightx_module`], which yields a core
//! `Module` ready for `install`/`check_fun`:
//!
//! ```
//! use ccal_clightx::clightx_module;
//!
//! let m = clightx_module(
//!     "M1",
//!     r#"
//!     void acq(int b) {
//!         int my_t = fai_t(b);
//!         while (get_n(b) != my_t) {}
//!         hold(b);
//!     }
//!     void rel(int b) { inc_n(b); }
//!     "#,
//! )?;
//! assert_eq!(m.fn_names(), vec!["acq", "rel"]);
//! # Ok::<(), ccal_clightx::CError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod check;
pub mod compile;
pub mod interp;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod vm;

pub use ast::{BinOp, CFunction, CModule, Expr, Ident, Stmt, UnOp};
pub use bytecode::{CompiledFn, CompiledModule};
pub use check::{check_function, check_module, CheckError};
pub use compile::{compile_module, CompileError};
pub use interp::{clightx_module, module_from_lowered, CRun};
pub use lower::{lower_function, lower_module};
pub use parser::{parse_module, ParseError};
pub use pretty::{print_function, print_module};
pub use vm::VmRun;

/// A front-end error: parse failure or static-check failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CError {
    /// The source failed to parse.
    Parse(ParseError),
    /// The module failed static checking.
    Check(Vec<CheckError>),
}

impl std::fmt::Display for CError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CError::Parse(e) => write!(f, "{e}"),
            CError::Check(es) => {
                writeln!(f, "{} static error(s):", es.len())?;
                for e in es {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CError {}

impl From<ParseError> for CError {
    fn from(e: ParseError) -> Self {
        CError::Parse(e)
    }
}

impl From<Vec<CheckError>> for CError {
    fn from(es: Vec<CheckError>) -> Self {
        CError::Check(es)
    }
}
