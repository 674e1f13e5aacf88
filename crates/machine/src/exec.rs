//! The assembly interpreter, as a resumable layer computation.
//!
//! [`AsmRun`] executes an [`AsmFunction`] over an ambient layer interface:
//! ordinary instructions are the "silent" program transitions of §3.1
//! (they change only registers and frame-private state), while
//! [`Instr::PrimCall`] invokes a layer primitive, whose query points bubble
//! up through [`PrimRun::resume`] so any number of participants'
//! executions can interleave there — and only there, matching §3.2's
//! interleaving granularity.

use std::sync::Arc;

use ccal_core::layer::{PrimCtx, PrimRun, PrimStep, SubCall};
use ccal_core::machine::MachineError;
use ccal_core::val::Val;

use crate::asm::{AsmFunction, AsmModule, Instr, Operand, Reg};

/// Instruction budget per activation tree, guarding against loops that
/// contain no query points.
const INSTR_BUDGET: u64 = 1_000_000;

#[derive(Debug, Clone)]
struct Frame {
    func: Arc<AsmFunction>,
    pc: usize,
    regs: [Val; 6],
    slots: Vec<Val>,
    stack: Vec<Val>,
    /// Last comparison result (`lhs - rhs`) for `Jcc`/`Setcc`.
    flags: i64,
}

impl Frame {
    fn new(func: Arc<AsmFunction>, args: &[Val]) -> Result<Self, MachineError> {
        if args.len() != func.arity as usize {
            return Err(MachineError::Stuck(format!(
                "{} expects {} arguments, got {}",
                func.name,
                func.arity,
                args.len()
            )));
        }
        let mut regs: [Val; 6] = Default::default();
        for (i, v) in args.iter().enumerate() {
            regs[Reg::arg(i).expect("arity ≤ 3").index()] = v.clone();
        }
        let slots = vec![Val::Undef; func.frame_slots as usize];
        Ok(Self {
            func,
            pc: 0,
            regs,
            slots,
            stack: Vec::new(),
            flags: 0,
        })
    }

    fn reg(&self, r: Reg) -> Val {
        self.regs[r.index()].clone()
    }

    fn set_reg(&mut self, r: Reg, v: Val) {
        self.regs[r.index()] = v;
    }

    fn operand(&self, o: &Operand) -> Result<Val, MachineError> {
        match o {
            Operand::Reg(r) => Ok(self.reg(*r)),
            Operand::Imm(i) => Ok(Val::Int(*i)),
            Operand::LocImm(l) => Ok(Val::Loc(*l)),
            Operand::Slot(s) => self.slots.get(*s as usize).cloned().ok_or_else(|| {
                MachineError::Stuck(format!("{}: bad frame slot {s}", self.func.name))
            }),
        }
    }
}

/// A resumable run of one assembly function (plus its nested activations).
pub struct AsmRun {
    module: Arc<AsmModule>,
    frames: Vec<Frame>,
    pending: Option<SubCall>,
    budget: u64,
    init_error: Option<MachineError>,
    result: Option<Val>,
}

impl AsmRun {
    /// Starts a run of `func` (from `module`) with the given arguments.
    pub fn new(module: Arc<AsmModule>, func: Arc<AsmFunction>, args: Vec<Val>) -> Self {
        let (frames, init_error) = match Frame::new(func, &args) {
            Ok(f) => (vec![f], None),
            Err(e) => (Vec::new(), Some(e)),
        };
        Self {
            module,
            frames,
            pending: None,
            budget: INSTR_BUDGET,
            init_error,
            result: None,
        }
    }

    fn top(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("non-empty frame stack")
    }

    fn arith<F: FnOnce(i64, i64) -> i64>(
        &mut self,
        dst: Reg,
        src: &Operand,
        f: F,
    ) -> Result<(), MachineError> {
        let rhs = self.top().operand(src)?.as_int()?;
        let lhs = self.top().reg(dst).as_int()?;
        self.top().set_reg(dst, Val::Int(f(lhs, rhs)));
        Ok(())
    }
}

impl PrimRun for AsmRun {
    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if let Some(e) = self.init_error.take() {
            return Err(e);
        }
        if let Some(v) = &self.result {
            return Ok(PrimStep::Done(v.clone()));
        }
        loop {
            // Drive a pending primitive call first.
            if let Some(sub) = self.pending.as_mut() {
                match sub.step(ctx)? {
                    None => return Ok(PrimStep::Query),
                    Some(v) => {
                        self.pending = None;
                        self.top().set_reg(Reg::EAX, v);
                    }
                }
            }
            if self.budget == 0 {
                return Err(MachineError::OutOfFuel {
                    budget: INSTR_BUDGET,
                });
            }
            self.budget -= 1;
            let frame = self.frames.last_mut().expect("active frame");
            let instr = match frame.func.code.get(frame.pc) {
                Some(i) => i.clone(),
                None => {
                    return Err(MachineError::Stuck(format!(
                        "{}: fell off the end of the code (pc {})",
                        frame.func.name, frame.pc
                    )));
                }
            };
            frame.pc += 1;
            match instr {
                Instr::Nop => {}
                Instr::Mov(dst, src) => {
                    let v = self.top().operand(&src)?;
                    self.top().set_reg(dst, v);
                }
                Instr::StoreSlot(slot, src) => {
                    let v = self.top().reg(src);
                    let name = self.top().func.name.clone();
                    match self.top().slots.get_mut(slot as usize) {
                        Some(s) => *s = v,
                        None => {
                            return Err(MachineError::Stuck(format!(
                                "{name}: bad frame slot {slot}"
                            )));
                        }
                    }
                }
                Instr::Add(dst, src) => self.arith(dst, &src, i64::wrapping_add)?,
                Instr::Sub(dst, src) => self.arith(dst, &src, i64::wrapping_sub)?,
                Instr::Mul(dst, src) => self.arith(dst, &src, i64::wrapping_mul)?,
                Instr::Div(dst, src) => {
                    let rhs = self.top().operand(&src)?.as_int()?;
                    if rhs == 0 {
                        return Err(MachineError::Stuck("division by zero".to_owned()));
                    }
                    let lhs = self.top().reg(dst).as_int()?;
                    self.top().set_reg(dst, Val::Int(lhs.wrapping_div(rhs)));
                }
                Instr::Rem(dst, src) => {
                    let rhs = self.top().operand(&src)?.as_int()?;
                    if rhs == 0 {
                        return Err(MachineError::Stuck("remainder by zero".to_owned()));
                    }
                    let lhs = self.top().reg(dst).as_int()?;
                    self.top().set_reg(dst, Val::Int(lhs.wrapping_rem(rhs)));
                }
                Instr::Cmp(lhs, rhs) => {
                    let r = self.top().operand(&rhs)?.as_int()?;
                    let l = self.top().reg(lhs).as_int()?;
                    self.top().flags = l.wrapping_sub(r);
                }
                Instr::Setcc(cond, dst) => {
                    let flags = self.top().flags;
                    self.top()
                        .set_reg(dst, Val::Int(i64::from(cond.eval(flags))));
                }
                Instr::Jmp(target) => {
                    self.top().pc = target;
                }
                Instr::Jcc(cond, target) => {
                    if cond.eval(self.top().flags) {
                        self.top().pc = target;
                    }
                }
                Instr::Push(r) => {
                    let v = self.top().reg(r);
                    self.top().stack.push(v);
                }
                Instr::Pop(r) => {
                    let v = self.top().stack.pop().ok_or_else(|| {
                        MachineError::Stuck("pop from empty operand stack".to_owned())
                    })?;
                    self.top().set_reg(r, v);
                }
                Instr::Call(name) => {
                    let callee = self.module.get(&name).cloned().ok_or_else(|| {
                        MachineError::Stuck(format!("call to unknown function `{name}`"))
                    })?;
                    let args: Vec<Val> = (0..callee.arity as usize)
                        .map(|i| self.top().reg(Reg::arg(i).expect("arity ≤ 3")))
                        .collect();
                    self.frames.push(Frame::new(callee, &args)?);
                }
                Instr::PrimCall(name, arity) => {
                    let args: Vec<Val> = (0..arity as usize)
                        .map(|i| self.top().reg(Reg::arg(i).expect("arity ≤ 3")))
                        .collect();
                    self.pending = Some(SubCall::start(ctx, &name, args)?);
                    // Loop back: the pending call is driven at the top.
                }
                Instr::RetVoid => {
                    self.frames.pop();
                    match self.frames.last_mut() {
                        Some(caller) => caller.set_reg(Reg::EAX, Val::Unit),
                        None => {
                            self.result = Some(Val::Unit);
                            return Ok(PrimStep::Done(Val::Unit));
                        }
                    }
                }
                Instr::Ret => {
                    let ret = self.top().reg(Reg::EAX);
                    self.frames.pop();
                    match self.frames.last_mut() {
                        Some(caller) => caller.set_reg(Reg::EAX, ret),
                        None => {
                            self.result = Some(ret.clone());
                            return Ok(PrimStep::Done(ret));
                        }
                    }
                }
            }
        }
    }

    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        let pending = match &self.pending {
            Some(sub) => Some(sub.fork()?),
            None => None,
        };
        Some(Box::new(AsmRun {
            module: self.module.clone(),
            frames: self.frames.clone(),
            pending,
            budget: self.budget,
            init_error: self.init_error.clone(),
            result: self.result.clone(),
        }))
    }
}

impl std::fmt::Debug for AsmRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsmRun")
            .field("frames", &self.frames.len())
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Cond;
    use ccal_core::env::EnvContext;
    use ccal_core::event::EventKind;
    use ccal_core::id::Pid;
    use ccal_core::layer::{LayerInterface, PrimSpec};
    use ccal_core::machine::LayerMachine;
    use ccal_core::strategy::RoundRobinScheduler;

    fn run_fn(iface: LayerInterface, module: &AsmModule, name: &str, args: &[Val]) -> Val {
        let extended = module.as_core_module("asm").install(&iface).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
        let mut m = LayerMachine::new(extended, Pid(0), env);
        m.call_prim(name, args).unwrap()
    }

    fn empty_iface() -> LayerInterface {
        LayerInterface::builder("L").build()
    }

    #[test]
    fn arithmetic_and_return() {
        // f(x) = x * 2 + 1
        let f = AsmFunction::new(
            "f",
            1,
            0,
            vec![
                Instr::Mul(Reg::EAX, Operand::Imm(2)),
                Instr::Add(Reg::EAX, Operand::Imm(1)),
                Instr::Ret,
            ],
        );
        let m = AsmModule::new().with_fn(f);
        assert_eq!(
            run_fn(empty_iface(), &m, "f", &[Val::Int(20)]),
            Val::Int(41)
        );
    }

    #[test]
    fn loops_with_jcc() {
        // sum(n) = 0 + 1 + ... + n, via a loop.
        let f = AsmFunction::new(
            "sum",
            1,
            0,
            vec![
                // ebx := acc = 0; loop: if eax <= 0 -> done
                Instr::Mov(Reg::EBX, Operand::Imm(0)),
                Instr::Cmp(Reg::EAX, Operand::Imm(0)), // 1
                Instr::Jcc(Cond::Le, 6),
                Instr::Add(Reg::EBX, Operand::Reg(Reg::EAX)),
                Instr::Sub(Reg::EAX, Operand::Imm(1)),
                Instr::Jmp(1),
                Instr::Mov(Reg::EAX, Operand::Reg(Reg::EBX)), // 6
                Instr::Ret,
            ],
        );
        let m = AsmModule::new().with_fn(f);
        assert_eq!(
            run_fn(empty_iface(), &m, "sum", &[Val::Int(10)]),
            Val::Int(55)
        );
    }

    #[test]
    fn frame_slots_are_private_per_activation() {
        // g(x) = slot0 = x; f(x) = g(x+1); returns slot0 of f unchanged.
        let f = AsmFunction::new(
            "f",
            1,
            1,
            vec![
                Instr::StoreSlot(0, Reg::EAX),
                Instr::Add(Reg::EAX, Operand::Imm(1)),
                Instr::Call("g".to_owned()),
                Instr::Mov(Reg::EAX, Operand::Slot(0)),
                Instr::Ret,
            ],
        );
        let g = AsmFunction::new(
            "g",
            1,
            1,
            vec![
                Instr::Mov(Reg::EDX, Operand::Imm(999)),
                Instr::StoreSlot(0, Reg::EDX),
                Instr::Ret,
            ],
        );
        let m = AsmModule::new().with_fn(f).with_fn(g);
        assert_eq!(run_fn(empty_iface(), &m, "f", &[Val::Int(5)]), Val::Int(5));
    }

    #[test]
    fn primcall_invokes_layer_primitive() {
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::atomic("double", |ctx, args| {
                ctx.emit(EventKind::Prim("double".into(), args.to_vec()));
                Ok(Val::Int(args[0].as_int()? * 2))
            }))
            .build();
        let f = AsmFunction::new(
            "f",
            1,
            0,
            vec![Instr::PrimCall("double".to_owned(), 1), Instr::Ret],
        );
        let m = AsmModule::new().with_fn(f);
        assert_eq!(run_fn(iface, &m, "f", &[Val::Int(21)]), Val::Int(42));
    }

    #[test]
    fn push_pop_round_trip() {
        let f = AsmFunction::new(
            "f",
            1,
            0,
            vec![
                Instr::Push(Reg::EAX),
                Instr::Mov(Reg::EAX, Operand::Imm(0)),
                Instr::Pop(Reg::EBX),
                Instr::Mov(Reg::EAX, Operand::Reg(Reg::EBX)),
                Instr::Ret,
            ],
        );
        let m = AsmModule::new().with_fn(f);
        assert_eq!(run_fn(empty_iface(), &m, "f", &[Val::Int(8)]), Val::Int(8));
    }

    #[test]
    fn wrong_arity_is_stuck() {
        let f = AsmFunction::new("f", 2, 0, vec![Instr::Ret]);
        let m = AsmModule::new().with_fn(f);
        let extended = m.as_core_module("asm").install(&empty_iface()).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let mut machine = LayerMachine::new(extended, Pid(0), env);
        assert!(matches!(
            machine.call_prim("f", &[Val::Int(1)]),
            Err(MachineError::Stuck(_))
        ));
    }

    #[test]
    fn falling_off_the_code_is_stuck() {
        let f = AsmFunction::new("f", 0, 0, vec![Instr::Nop]);
        let m = AsmModule::new().with_fn(f);
        let extended = m.as_core_module("asm").install(&empty_iface()).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let mut machine = LayerMachine::new(extended, Pid(0), env);
        assert!(matches!(
            machine.call_prim("f", &[]),
            Err(MachineError::Stuck(_))
        ));
    }
}
