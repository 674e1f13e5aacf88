//! The bytecode VM: the compiled execution tier for ClightX primitives.
//!
//! [`VmRun`] drives [`crate::bytecode`] code produced by
//! [`crate::compile::compile_module`]. Its state is deliberately compact —
//! a stack of `(pc, regs)` frames over `Arc`-shared code — so
//! [`PrimRun::fork_run`] (the workhorse of the prefix-sharing and
//! query-point snapshot machinery in `ccal_core::explore`) copies a few flat
//! register vectors instead of a tree-walking work stack.
//!
//! Semantics are shared with the interpreter ([`crate::interp`]): the
//! same value helpers, the same step budget, the same external-call
//! suspension through [`SubCall`] — so verdicts, logs, and error strings
//! are bit-identical between tiers, and only the step *count* differs
//! (which is precisely what the B6 experiment measures via
//! [`ccal_core::prefix::record_prim_steps`]).

use std::sync::Arc;

use ccal_core::engine::{self, Counter};
use ccal_core::layer::{PrimCtx, PrimRun, PrimStep, SubCall};
use ccal_core::machine::MachineError;
use ccal_core::val::Val;

use crate::bytecode::{CallTarget, CompiledFn, CompiledModule, Inst, Operand};
use crate::interp::{apply_binop, apply_unop, truthy, STEP_BUDGET};

#[derive(Debug, Clone)]
struct VmFrame {
    func: Arc<CompiledFn>,
    pc: u32,
    regs: Box<[Val]>,
    /// The *caller's* slot receiving this frame's return value.
    ret_dst: Option<u16>,
}

impl VmFrame {
    fn new(
        func: Arc<CompiledFn>,
        args: &[Val],
        ret_dst: Option<u16>,
    ) -> Result<Self, MachineError> {
        if args.len() != func.arity() {
            return Err(MachineError::Stuck(format!(
                "{} expects {} arguments, got {}",
                func.name,
                func.arity(),
                args.len()
            )));
        }
        let mut regs = vec![Val::Undef; func.nslots as usize].into_boxed_slice();
        // Parameter binding then local re-initialisation, in declaration
        // order — replicating the interpreter's map-insertion semantics
        // for duplicate and shadowing names.
        for (slot, v) in func.param_slots.iter().zip(args) {
            regs[*slot as usize] = v.clone();
        }
        for slot in &func.local_slots {
            regs[*slot as usize] = Val::Undef;
        }
        Ok(Self {
            func,
            pc: 0,
            regs,
            ret_dst,
        })
    }
}

fn read(regs: &[Val], o: &Operand) -> Val {
    match o {
        Operand::Const(v) => v.clone(),
        Operand::Slot(s) => regs[*s as usize].clone(),
    }
}

/// What a frame-crossing instruction asks the outer loop to do.
enum Flow {
    Next,
    Call {
        dst: Option<u16>,
        target: CallTarget,
        vals: Vec<Val>,
    },
    Ret(Val),
}

/// A resumable bytecode run of one compiled function (plus nested
/// activations). The VM counterpart of [`crate::interp::CRun`].
pub struct VmRun {
    module: Arc<CompiledModule>,
    frames: Vec<VmFrame>,
    pending: Option<(SubCall, Option<u16>)>,
    budget: u64,
    /// Budget at the last [`PrimRun::resume`] return, for batched
    /// intra-primitive step accounting.
    reported: u64,
    init_error: Option<MachineError>,
    result: Option<Val>,
}

impl VmRun {
    /// Starts a run of function `fid` of `module` with arguments.
    pub fn new(module: Arc<CompiledModule>, fid: u32, args: Vec<Val>) -> Self {
        let func = module.func(fid).clone();
        let (frames, init_error) = match VmFrame::new(func, &args, None) {
            Ok(f) => (vec![f], None),
            Err(e) => (Vec::new(), Some(e)),
        };
        Self {
            module,
            frames,
            pending: None,
            budget: STEP_BUDGET,
            reported: STEP_BUDGET,
            init_error,
            result: None,
        }
    }

    /// Pops the current frame delivering `ret`; returns the final result
    /// if that was the outermost frame.
    fn pop_frame(&mut self, ret: Val) -> Option<Val> {
        let frame = self.frames.pop().expect("active frame");
        match self.frames.last_mut() {
            Some(caller) => {
                if let Some(dst) = frame.ret_dst {
                    caller.regs[dst as usize] = ret;
                }
                None
            }
            None => Some(ret),
        }
    }

    fn resume_inner(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if let Some(e) = self.init_error.take() {
            return Err(e);
        }
        if let Some(v) = &self.result {
            return Ok(PrimStep::Done(v.clone()));
        }
        loop {
            if let Some((sub, dst)) = self.pending.as_mut() {
                match sub.step(ctx)? {
                    None => return Ok(PrimStep::Query),
                    Some(v) => {
                        if let Some(dst) = dst.take() {
                            self.frames.last_mut().expect("active frame").regs[dst as usize] = v;
                        }
                        self.pending = None;
                    }
                }
            }
            let flow = {
                let frame = self.frames.last_mut().expect("active frame");
                let VmFrame { func, pc, regs, .. } = frame;
                match func.code.get(*pc as usize) {
                    // Fell off the end: the frame completes with `Unit`,
                    // uncharged — the interpreter's drained work stack
                    // completes for free in exactly the same way.
                    None => Flow::Ret(Val::Unit),
                    Some(inst) => {
                        if self.budget == 0 {
                            return Err(MachineError::OutOfFuel {
                                budget: STEP_BUDGET,
                            });
                        }
                        self.budget -= 1;
                        *pc += 1;
                        match inst {
                            Inst::Mov { dst, src } => {
                                regs[*dst as usize] = read(regs, src);
                                Flow::Next
                            }
                            Inst::Unop { dst, op, src } => {
                                let v = apply_unop(*op, &read(regs, src))?;
                                regs[*dst as usize] = v;
                                Flow::Next
                            }
                            Inst::Binop { dst, op, a, b } => {
                                let va = read(regs, a);
                                let vb = read(regs, b);
                                regs[*dst as usize] = apply_binop(*op, &va, &vb)?;
                                Flow::Next
                            }
                            Inst::Jump { target } => {
                                *pc = *target;
                                Flow::Next
                            }
                            Inst::Branch {
                                cond,
                                expect,
                                target,
                            } => {
                                if truthy(&read(regs, cond))? == *expect {
                                    *pc = *target;
                                }
                                Flow::Next
                            }
                            Inst::CmpBranch {
                                op,
                                a,
                                b,
                                expect,
                                target,
                            } => {
                                let va = read(regs, a);
                                let vb = read(regs, b);
                                // Comparison results are always Int(0|1); truthy
                                // cannot fail here, apply_binop carries the
                                // coercion errors in interpreter order.
                                if truthy(&apply_binop(*op, &va, &vb)?)? == *expect {
                                    *pc = *target;
                                }
                                Flow::Next
                            }
                            Inst::Call { dst, target, args } => {
                                let vals: Vec<Val> = args.iter().map(|o| read(regs, o)).collect();
                                Flow::Call {
                                    dst: *dst,
                                    target: target.clone(),
                                    vals,
                                }
                            }
                            Inst::Return { src } => {
                                let v = match src {
                                    Some(o) => read(regs, o),
                                    None => Val::Unit,
                                };
                                Flow::Ret(v)
                            }
                        }
                    }
                }
            };
            match flow {
                Flow::Next => {}
                Flow::Call { dst, target, vals } => match target {
                    CallTarget::Internal(fid) => {
                        let callee = self.module.func(fid).clone();
                        self.frames.push(VmFrame::new(callee, &vals, dst)?);
                    }
                    CallTarget::External(name) => {
                        self.pending = Some((SubCall::start(ctx, &name, vals)?, dst));
                    }
                },
                Flow::Ret(v) => {
                    if let Some(out) = self.pop_frame(v) {
                        self.result = Some(out.clone());
                        return Ok(PrimStep::Done(out));
                    }
                }
            }
        }
    }
}

impl PrimRun for VmRun {
    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let r = self.resume_inner(ctx);
        let spent = self.reported - self.budget;
        if spent > 0 {
            engine::record(Counter::PrimSteps, spent);
            self.reported = self.budget;
        }
        r
    }

    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        let pending = match &self.pending {
            Some((sub, dst)) => Some((sub.fork()?, *dst)),
            None => None,
        };
        Some(Box::new(VmRun {
            module: self.module.clone(),
            frames: self.frames.clone(),
            pending,
            budget: self.budget,
            reported: self.reported,
            init_error: self.init_error.clone(),
            result: self.result.clone(),
        }))
    }
}

impl std::fmt::Debug for VmRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmRun")
            .field("frames", &self.frames.len())
            .field(
                "pc",
                &self.frames.last().map(|fr| (fr.func.name.clone(), fr.pc)),
            )
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_module;
    use crate::lower::lower_module;
    use crate::parser::parse_module;
    use ccal_core::env::EnvContext;
    use ccal_core::id::Pid;
    use ccal_core::layer::LayerInterface;
    use ccal_core::machine::LayerMachine;
    use ccal_core::strategy::RoundRobinScheduler;

    fn run_vm(src: &str, name: &str, args: &[Val]) -> Result<Val, MachineError> {
        let lowered = lower_module(&parse_module(src).unwrap());
        let compiled = Arc::new(compile_module(&lowered).unwrap());
        let fid = compiled.fn_index(name).unwrap();
        let m = ccal_core::module::Module::new("M").with_fn(
            ccal_core::module::Lang::C,
            ccal_core::layer::PrimSpec::strategy(name, true, move |_pid, args| {
                Box::new(VmRun::new(compiled.clone(), fid, args))
            }),
        );
        let iface = LayerInterface::builder("L").build();
        let extended = m.install(&iface).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
        let mut machine = LayerMachine::new(extended, Pid(0), env);
        machine.call_prim(name, args)
    }

    #[test]
    fn computes_arithmetic() {
        assert_eq!(
            run_vm("int f(int x) { return x * 3 - 1; }", "f", &[Val::Int(4)]).unwrap(),
            Val::Int(11)
        );
    }

    #[test]
    fn loops_sum_like_the_interpreter() {
        let src = r#"
            int sum_to(int n) {
                int acc = 0;
                int i = 1;
                while (i <= n) { acc = acc + i; i = i + 1; }
                return acc;
            }
        "#;
        assert_eq!(
            run_vm(src, "sum_to", &[Val::Int(10)]).unwrap(),
            Val::Int(55)
        );
    }

    #[test]
    fn recursion_works() {
        let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }";
        assert_eq!(run_vm(src, "fact", &[Val::Int(6)]).unwrap(), Val::Int(720));
    }

    #[test]
    fn division_by_zero_matches_interpreter_error() {
        let err = run_vm("int f(int x) { return 1 / x; }", "f", &[Val::Int(0)]).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn infinite_pure_loop_exhausts_budget() {
        assert!(matches!(
            run_vm("void f() { while (1) {} }", "f", &[]),
            Err(MachineError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn arity_mismatch_matches_interpreter_message() {
        let err = run_vm("int f(int x) { return x; }", "f", &[]).unwrap_err();
        assert!(err.to_string().contains("f expects 1 arguments, got 0"));
    }
}
