//! The layered assembly language.
//!
//! A small x86-flavoured register machine (Fig. 7: `AsmFn ∈ List x86Instr`,
//! `AsmModule ∈ Loc ⇀ AsmFn`). It is the target of the CompCertX compiler
//! (`ccal-compcertx`) and the language in which hand-written layer code
//! (e.g. context switch, §5.1) is expressed. Primitive calls
//! ([`Instr::PrimCall`]) invoke the ambient layer interface — "primitive
//! calls ... directly specify the semantics of function `f` from underlying
//! layers" (§3.1).
//!
//! ## Calling convention
//!
//! Up to three arguments are passed in `EAX`, `EBX`, `ECX`; the return
//! value comes back in `EAX`. Each function activation gets a fresh frame
//! of `frame_slots` local slots (its CompCert-style stack block); the
//! operand stack is per-activation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ccal_core::id::Loc;
use ccal_core::layer::PrimSpec;
use ccal_core::module::{Lang, Module};

/// General-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// Accumulator; first argument and return value.
    EAX,
    /// Second argument.
    EBX,
    /// Third argument.
    ECX,
    /// Scratch.
    EDX,
    /// Scratch.
    ESI,
    /// Scratch.
    EDI,
}

impl Reg {
    /// All registers, in index order.
    pub const ALL: [Reg; 6] = [Reg::EAX, Reg::EBX, Reg::ECX, Reg::EDX, Reg::ESI, Reg::EDI];

    /// The register's index into a register file.
    pub fn index(self) -> usize {
        match self {
            Reg::EAX => 0,
            Reg::EBX => 1,
            Reg::ECX => 2,
            Reg::EDX => 3,
            Reg::ESI => 4,
            Reg::EDI => 5,
        }
    }

    /// The register carrying argument `i` of the calling convention.
    pub fn arg(i: usize) -> Option<Reg> {
        match i {
            0 => Some(Reg::EAX),
            1 => Some(Reg::EBX),
            2 => Some(Reg::ECX),
            _ => None,
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reg::EAX => "eax",
            Reg::EBX => "ebx",
            Reg::ECX => "ecx",
            Reg::EDX => "edx",
            Reg::ESI => "esi",
            Reg::EDI => "edi",
        };
        write!(f, "{s}")
    }
}

/// Comparison conditions for `Jcc`/`Setcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluates the condition on the signed difference `lhs - rhs`.
    pub fn eval(self, diff: i64) -> bool {
        match self {
            Cond::Eq => diff == 0,
            Cond::Ne => diff != 0,
            Cond::Lt => diff < 0,
            Cond::Le => diff <= 0,
            Cond::Gt => diff > 0,
            Cond::Ge => diff >= 0,
        }
    }

    /// The negated condition.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "l",
            Cond::Le => "le",
            Cond::Gt => "g",
            Cond::Ge => "ge",
        };
        write!(f, "{s}")
    }
}

/// Instruction operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate integer.
    Imm(i64),
    /// An immediate location (shared-object handle) — the assembly image
    /// of ClightX's `#N` literals.
    LocImm(Loc),
    /// A frame-local slot of the current activation.
    Slot(u32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "${i}"),
            Operand::LocImm(l) => write!(f, "${l}"),
            Operand::Slot(s) => write!(f, "[fp+{s}]"),
        }
    }
}

/// Instructions. Jump targets are absolute instruction indices within the
/// function (the compiler resolves labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst ← src`.
    Mov(Reg, Operand),
    /// `slot ← src`.
    StoreSlot(u32, Reg),
    /// `dst ← dst + src` (wrapping 64-bit).
    Add(Reg, Operand),
    /// `dst ← dst - src`.
    Sub(Reg, Operand),
    /// `dst ← dst * src`.
    Mul(Reg, Operand),
    /// `dst ← dst / src` (C truncating division; stuck on zero divisor).
    Div(Reg, Operand),
    /// `dst ← dst % src` (C remainder; stuck on zero divisor).
    Rem(Reg, Operand),
    /// Compare `lhs - rhs` and set the flags.
    Cmp(Reg, Operand),
    /// `dst ← (flags satisfy cond) ? 1 : 0`.
    Setcc(Cond, Reg),
    /// Unconditional jump.
    Jmp(usize),
    /// Conditional jump on the flags.
    Jcc(Cond, usize),
    /// Call another assembly function of the same module (arguments per the
    /// calling convention, result in `EAX`).
    Call(String),
    /// Call a primitive of the ambient layer interface with the given
    /// arity; arguments per the calling convention, result in `EAX`.
    PrimCall(String, u8),
    /// Push a register onto the operand stack.
    Push(Reg),
    /// Pop the operand stack into a register.
    Pop(Reg),
    /// Return from the current activation (result in `EAX`).
    Ret,
    /// Return from a `void` activation: the result is the unit value, not
    /// whatever `EAX` holds (so `void` C functions and their compilations
    /// agree observationally).
    RetVoid,
    /// No operation.
    Nop,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Mov(r, o) => write!(f, "mov {r}, {o}"),
            Instr::StoreSlot(s, r) => write!(f, "mov [fp+{s}], {r}"),
            Instr::Add(r, o) => write!(f, "add {r}, {o}"),
            Instr::Sub(r, o) => write!(f, "sub {r}, {o}"),
            Instr::Mul(r, o) => write!(f, "imul {r}, {o}"),
            Instr::Div(r, o) => write!(f, "idiv {r}, {o}"),
            Instr::Rem(r, o) => write!(f, "irem {r}, {o}"),
            Instr::Cmp(r, o) => write!(f, "cmp {r}, {o}"),
            Instr::Setcc(c, r) => write!(f, "set{c} {r}"),
            Instr::Jmp(t) => write!(f, "jmp .{t}"),
            Instr::Jcc(c, t) => write!(f, "j{c} .{t}"),
            Instr::Call(name) => write!(f, "call {name}"),
            Instr::PrimCall(name, n) => write!(f, "primcall {name}/{n}"),
            Instr::Push(r) => write!(f, "push {r}"),
            Instr::Pop(r) => write!(f, "pop {r}"),
            Instr::Ret => write!(f, "ret"),
            Instr::RetVoid => write!(f, "ret.void"),
            Instr::Nop => write!(f, "nop"),
        }
    }
}

/// An assembly function: arity, frame size in local slots, and code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmFunction {
    /// The function's name.
    pub name: String,
    /// Number of parameters (≤ 3, per the calling convention).
    pub arity: u8,
    /// Number of frame-local slots.
    pub frame_slots: u32,
    /// The instruction sequence.
    pub code: Vec<Instr>,
}

impl AsmFunction {
    /// Creates a function.
    ///
    /// # Panics
    ///
    /// Panics if `arity > 3`.
    pub fn new(name: &str, arity: u8, frame_slots: u32, code: Vec<Instr>) -> Self {
        assert!(arity <= 3, "calling convention passes at most 3 arguments");
        Self {
            name: name.to_owned(),
            arity,
            frame_slots,
            code,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

impl fmt::Display for AsmFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}/{} (frame {}):",
            self.name, self.arity, self.frame_slots
        )?;
        for (i, ins) in self.code.iter().enumerate() {
            writeln!(f, "  {i:3}: {ins}")?;
        }
        Ok(())
    }
}

/// A collection of assembly functions (Fig. 7's `AsmModule`).
#[derive(Debug, Clone, Default)]
pub struct AsmModule {
    funcs: BTreeMap<String, Arc<AsmFunction>>,
}

impl AsmModule {
    /// An empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function (replacing any previous one of the same name).
    pub fn with_fn(mut self, func: AsmFunction) -> Self {
        self.funcs.insert(func.name.clone(), Arc::new(func));
        self
    }

    /// Looks up a function.
    pub fn get(&self, name: &str) -> Option<&Arc<AsmFunction>> {
        self.funcs.get(name)
    }

    /// Function names, sorted.
    pub fn fn_names(&self) -> Vec<&str> {
        self.funcs.keys().map(String::as_str).collect()
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Wraps function `name` as a layer-primitive spec whose run executes
    /// the assembly on the ambient interface.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist.
    pub fn fn_spec(&self, name: &str) -> PrimSpec {
        let module = Arc::new(self.clone());
        let func = self
            .funcs
            .get(name)
            .unwrap_or_else(|| panic!("assembly module has no function `{name}`"))
            .clone();
        PrimSpec::strategy(name, true, move |_pid, args| {
            Box::new(crate::exec::AsmRun::new(module.clone(), func.clone(), args))
        })
    }

    /// Converts the whole module into a core [`Module`] whose functions
    /// run over their underlay.
    pub fn as_core_module(&self, name: &str) -> Module {
        let mut m = Module::new(name);
        for fname in self.fn_names() {
            m = m.with_fn(Lang::Asm, self.fn_spec(fname));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_and_negate() {
        assert!(Cond::Lt.eval(-1));
        assert!(!Cond::Lt.eval(0));
        assert!(Cond::Ge.eval(0));
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            for d in [-2, 0, 3] {
                assert_eq!(c.eval(d), !c.negate().eval(d));
            }
        }
    }

    #[test]
    fn reg_arg_mapping() {
        assert_eq!(Reg::arg(0), Some(Reg::EAX));
        assert_eq!(Reg::arg(2), Some(Reg::ECX));
        assert_eq!(Reg::arg(3), None);
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn arity_is_bounded() {
        let _ = AsmFunction::new("f", 4, 0, vec![]);
    }

    #[test]
    fn module_lookup_and_names() {
        let m = AsmModule::new()
            .with_fn(AsmFunction::new("f", 0, 0, vec![Instr::Ret]))
            .with_fn(AsmFunction::new("g", 1, 2, vec![Instr::Ret]));
        assert_eq!(m.fn_names(), vec!["f", "g"]);
        assert_eq!(m.get("f").unwrap().arity, 0);
        assert!(m.get("h").is_none());
    }

    #[test]
    fn display_renders_listing() {
        let f = AsmFunction::new(
            "f",
            1,
            1,
            vec![Instr::Mov(Reg::EBX, Operand::Imm(2)), Instr::Ret],
        );
        let s = f.to_string();
        assert!(s.contains("mov ebx, $2"));
        assert!(s.contains("ret"));
    }
}
