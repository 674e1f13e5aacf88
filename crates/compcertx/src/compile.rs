//! The CompCertX code generator: lowered ClightX → layered assembly.
//!
//! "We have also developed a new thread-safe version of the CompCertX
//! compiler that can compile certified concurrent C layers into assembly
//! layers" (§1). The generator is a classic one-pass accumulator scheme:
//! expressions evaluate into `EAX` using the operand stack for
//! temporaries; locals live in frame slots; control flow compiles to
//! conditional jumps with backpatched targets. Calls follow the
//! register calling convention (`EAX`/`EBX`/`ECX`), compiling to
//! [`Instr::Call`] for same-module functions and [`Instr::PrimCall`] for
//! layer primitives.
//!
//! Where the Coq CompCertX carries a correctness proof, this one is paired
//! with *translation validation* ([`crate::validate`]): each compiled
//! function is simulation-checked against its source on the layer machine.

use std::collections::BTreeMap;
use std::fmt;

use ccal_clightx::ast::{BinOp, CFunction, CModule, Expr, Stmt, UnOp};
use ccal_clightx::lower::stmt_is_lowered;
use ccal_machine::asm::{AsmFunction, AsmModule, Cond, Instr, Operand, Reg};

/// A compilation error (source assumed parsed, lowered and checked; these
/// are the residual structural limits of the target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A function has more parameters than the calling convention allows.
    TooManyParams {
        /// Offending function.
        func: String,
        /// Its parameter count.
        count: usize,
    },
    /// A call passes more arguments than the calling convention allows.
    TooManyArgs {
        /// The callee.
        callee: String,
        /// The argument count.
        count: usize,
    },
    /// The function body was not in lowered form.
    NotLowered {
        /// Offending function.
        func: String,
    },
    /// `break` outside a loop (should have been caught statically).
    BreakOutsideLoop {
        /// Offending function.
        func: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyParams { func, count } => {
                write!(
                    f,
                    "`{func}` has {count} parameters; the convention allows 3"
                )
            }
            CompileError::TooManyArgs { callee, count } => {
                write!(
                    f,
                    "call to `{callee}` passes {count} arguments; the convention allows 3"
                )
            }
            CompileError::NotLowered { func } => {
                write!(f, "`{func}` is not in lowered form")
            }
            CompileError::BreakOutsideLoop { func } => {
                write!(f, "`{func}` has a break outside any loop")
            }
        }
    }
}

impl std::error::Error for CompileError {}

struct FnCompiler<'a> {
    module: &'a CModule,
    func: &'a CFunction,
    slots: BTreeMap<&'a str, u32>,
    code: Vec<Instr>,
    /// Stack of loops: (start pc, indices of pending break jumps).
    loops: Vec<(usize, Vec<usize>)>,
}

impl<'a> FnCompiler<'a> {
    fn slot(&self, name: &str) -> u32 {
        *self
            .slots
            .get(name)
            .unwrap_or_else(|| panic!("unknown variable `{name}` survived static checks"))
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn cond_of(op: BinOp) -> Option<Cond> {
        match op {
            BinOp::Eq => Some(Cond::Eq),
            BinOp::Ne => Some(Cond::Ne),
            BinOp::Lt => Some(Cond::Lt),
            BinOp::Le => Some(Cond::Le),
            BinOp::Gt => Some(Cond::Gt),
            BinOp::Ge => Some(Cond::Ge),
            _ => None,
        }
    }

    /// Compiles `e` to leave its value in `EAX`.
    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Int(i) => {
                self.emit(Instr::Mov(Reg::EAX, Operand::Imm(*i)));
            }
            Expr::LocConst(l) => {
                self.emit(Instr::Mov(Reg::EAX, Operand::LocImm(*l)));
            }
            Expr::Var(x) => {
                let s = self.slot(x);
                self.emit(Instr::Mov(Reg::EAX, Operand::Slot(s)));
            }
            Expr::Unop(UnOp::Not, a) => {
                self.expr(a)?;
                self.emit(Instr::Cmp(Reg::EAX, Operand::Imm(0)));
                self.emit(Instr::Setcc(Cond::Eq, Reg::EAX));
            }
            Expr::Unop(UnOp::Neg, a) => {
                self.expr(a)?;
                self.emit(Instr::Mul(Reg::EAX, Operand::Imm(-1)));
            }
            Expr::Binop(op, a, b) => {
                self.expr(a)?;
                self.emit(Instr::Push(Reg::EAX));
                self.expr(b)?;
                self.emit(Instr::Mov(Reg::EBX, Operand::Reg(Reg::EAX)));
                self.emit(Instr::Pop(Reg::EAX));
                if let Some(cond) = Self::cond_of(*op) {
                    self.emit(Instr::Cmp(Reg::EAX, Operand::Reg(Reg::EBX)));
                    self.emit(Instr::Setcc(cond, Reg::EAX));
                } else {
                    let rhs = Operand::Reg(Reg::EBX);
                    let instr = match op {
                        BinOp::Add => Instr::Add(Reg::EAX, rhs),
                        BinOp::Sub => Instr::Sub(Reg::EAX, rhs),
                        BinOp::Mul => Instr::Mul(Reg::EAX, rhs),
                        BinOp::Div => Instr::Div(Reg::EAX, rhs),
                        BinOp::Rem => Instr::Rem(Reg::EAX, rhs),
                        _ => unreachable!("logical ops removed by lowering"),
                    };
                    self.emit(instr);
                }
            }
            Expr::Call(..) => unreachable!("calls hoisted by lowering"),
        }
        Ok(())
    }

    fn call(
        &mut self,
        dst: &Option<ccal_clightx::Ident>,
        name: &str,
        args: &[Expr],
    ) -> Result<(), CompileError> {
        if args.len() > 3 {
            return Err(CompileError::TooManyArgs {
                callee: name.to_owned(),
                count: args.len(),
            });
        }
        for a in args {
            self.expr(a)?;
            self.emit(Instr::Push(Reg::EAX));
        }
        for i in (0..args.len()).rev() {
            let reg = Reg::arg(i).expect("≤ 3 args");
            self.emit(Instr::Pop(reg));
        }
        if self.module.get(name).is_some() {
            self.emit(Instr::Call(name.to_owned()));
        } else {
            self.emit(Instr::PrimCall(name.to_owned(), args.len() as u8));
        }
        if let Some(dst) = dst {
            let s = self.slot(dst);
            self.emit(Instr::StoreSlot(s, Reg::EAX));
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Skip => {}
            Stmt::Assign(x, e) => {
                self.expr(e)?;
                let slot = self.slot(x);
                self.emit(Instr::StoreSlot(slot, Reg::EAX));
            }
            Stmt::Call(dst, name, args) => self.call(dst, name, args)?,
            Stmt::Block(v) => {
                for s in v {
                    self.stmt(s)?;
                }
            }
            Stmt::If(c, t, e) => {
                self.expr(c)?;
                self.emit(Instr::Cmp(Reg::EAX, Operand::Imm(0)));
                let jump_to_else = self.emit(Instr::Jcc(Cond::Eq, usize::MAX));
                self.stmt(t)?;
                let jump_to_end = self.emit(Instr::Jmp(usize::MAX));
                let else_pc = self.code.len();
                self.code[jump_to_else] = Instr::Jcc(Cond::Eq, else_pc);
                self.stmt(e)?;
                let end_pc = self.code.len();
                self.code[jump_to_end] = Instr::Jmp(end_pc);
            }
            Stmt::Loop(body) => {
                let start = self.code.len();
                self.loops.push((start, Vec::new()));
                self.stmt(body)?;
                self.emit(Instr::Jmp(start));
                let (_, breaks) = self.loops.pop().expect("loop stack balanced");
                let end = self.code.len();
                for b in breaks {
                    self.code[b] = Instr::Jmp(end);
                }
            }
            Stmt::Break => {
                let jump = self.emit(Instr::Jmp(usize::MAX));
                match self.loops.last_mut() {
                    Some((_, breaks)) => breaks.push(jump),
                    None => {
                        return Err(CompileError::BreakOutsideLoop {
                            func: self.func.name.clone(),
                        });
                    }
                }
            }
            Stmt::While(..) => {
                return Err(CompileError::NotLowered {
                    func: self.func.name.clone(),
                });
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Instr::Ret);
                    }
                    None => {
                        self.emit(Instr::RetVoid);
                    }
                };
            }
        }
        Ok(())
    }
}

/// Compiles one lowered ClightX function.
///
/// # Errors
///
/// [`CompileError`] on calling-convention or form violations.
pub fn compile_function(module: &CModule, func: &CFunction) -> Result<AsmFunction, CompileError> {
    if func.params.len() > 3 {
        return Err(CompileError::TooManyParams {
            func: func.name.clone(),
            count: func.params.len(),
        });
    }
    if !stmt_is_lowered(&func.body) {
        return Err(CompileError::NotLowered {
            func: func.name.clone(),
        });
    }
    let mut slots = BTreeMap::new();
    for (i, p) in func.params.iter().chain(func.locals.iter()).enumerate() {
        slots.insert(p.as_str(), i as u32);
    }
    let frame_slots = slots.len() as u32;
    let mut fc = FnCompiler {
        module,
        func,
        slots,
        code: Vec::new(),
        loops: Vec::new(),
    };
    // Prologue: spill register arguments into their frame slots.
    for (i, p) in func.params.iter().enumerate() {
        let reg = Reg::arg(i).expect("≤ 3 params");
        let slot = fc.slot(p);
        fc.emit(Instr::StoreSlot(slot, reg));
    }
    fc.stmt(&func.body)?;
    // Epilogue: implicit void return for fall-through paths.
    fc.emit(Instr::RetVoid);
    Ok(AsmFunction::new(
        &func.name,
        func.params.len() as u8,
        frame_slots,
        fc.code,
    ))
}

/// Compiles a whole lowered module.
///
/// # Errors
///
/// The first [`CompileError`] encountered.
pub fn compile_module(module: &CModule) -> Result<AsmModule, CompileError> {
    let mut out = AsmModule::new();
    for f in module.iter() {
        out = out.with_fn(compile_function(module, f)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_clightx::lower::lower_module;
    use ccal_clightx::parser::parse_module;
    use ccal_core::env::EnvContext;
    use ccal_core::id::Pid;
    use ccal_core::layer::LayerInterface;
    use ccal_core::machine::LayerMachine;
    use ccal_core::strategy::RoundRobinScheduler;
    use ccal_core::val::Val;
    use std::sync::Arc;

    fn compile_src(src: &str) -> AsmModule {
        let lowered = lower_module(&parse_module(src).unwrap());
        ccal_clightx::check::check_module(&lowered).unwrap();
        compile_module(&lowered).unwrap()
    }

    fn run_asm(asm: &AsmModule, name: &str, args: &[Val]) -> Val {
        let iface = LayerInterface::builder("L").build();
        let extended = asm.as_core_module("asm").install(&iface).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let mut m = LayerMachine::new(extended, Pid(0), env);
        m.call_prim(name, args).unwrap()
    }

    #[test]
    fn compiles_arithmetic() {
        let asm = compile_src("int f(int x, int y) { return (x + y) * 2 - x / y; }");
        assert_eq!(
            run_asm(&asm, "f", &[Val::Int(7), Val::Int(3)]),
            Val::Int(18)
        );
    }

    #[test]
    fn compiles_conditionals() {
        let asm = compile_src("int max(int a, int b) { if (a > b) { return a; } return b; }");
        assert_eq!(
            run_asm(&asm, "max", &[Val::Int(4), Val::Int(9)]),
            Val::Int(9)
        );
        assert_eq!(
            run_asm(&asm, "max", &[Val::Int(9), Val::Int(4)]),
            Val::Int(9)
        );
    }

    #[test]
    fn compiles_loops_with_break() {
        let asm = compile_src(
            r#"
            int first_square_above(int n) {
                int i = 0;
                while (1) {
                    i = i + 1;
                    if (i * i > n) { break; }
                }
                return i;
            }
            "#,
        );
        assert_eq!(
            run_asm(&asm, "first_square_above", &[Val::Int(20)]),
            Val::Int(5)
        );
    }

    #[test]
    fn compiles_internal_calls_and_recursion() {
        let asm = compile_src(
            r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            "#,
        );
        assert_eq!(run_asm(&asm, "fib", &[Val::Int(10)]), Val::Int(55));
    }

    #[test]
    fn void_functions_compile_to_ret_void() {
        let asm = compile_src("void f() { }");
        assert_eq!(run_asm(&asm, "f", &[]), Val::Unit);
    }

    #[test]
    fn rejects_too_many_params() {
        let lowered =
            lower_module(&parse_module("int f(int a, int b, int c, int d) { return a; }").unwrap());
        assert!(matches!(
            compile_module(&lowered),
            Err(CompileError::TooManyParams { .. })
        ));
    }

    #[test]
    fn compiles_logical_operators_via_lowering() {
        let asm = compile_src("int f(int a, int b) { return a > 0 && b > 0; }");
        assert_eq!(run_asm(&asm, "f", &[Val::Int(1), Val::Int(1)]), Val::Int(1));
        assert_eq!(run_asm(&asm, "f", &[Val::Int(1), Val::Int(0)]), Val::Int(0));
        assert_eq!(run_asm(&asm, "f", &[Val::Int(0), Val::Int(5)]), Val::Int(0));
    }
}
