//! The ClightX interpreter, as a resumable layer computation.
//!
//! [`CRun`] executes a lowered ClightX function over an ambient layer
//! interface. Pure statements are the silent transitions of §3.1; calls
//! to layer primitives suspend at the primitives' query points, which
//! bubble up through [`PrimRun::resume`] — so C-level module code
//! interleaves with other participants exactly where the machine model
//! says it can, and nowhere else.
//!
//! The interpreter is the *reference tier*: [`module_from_lowered`] also
//! compiles each module to flat bytecode ([`crate::compile`]) and, when
//! the instantiating thread's engine says so
//! ([`ccal_core::engine::Settings::bytecode`]), instantiates the
//! [`crate::vm::VmRun`] VM instead. Both tiers share the value semantics
//! in this module ([`truthy`], [`apply_unop`], [`apply_binop`]) so their
//! verdicts, logs, and error strings are bit-identical.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal_core::engine::{self, Counter};
use ccal_core::layer::{PrimCtx, PrimRun, PrimStep, SubCall};
use ccal_core::machine::MachineError;
use ccal_core::module::{Lang, Module};
use ccal_core::val::Val;

use crate::ast::{BinOp, CFunction, CModule, Expr, Ident, Stmt, UnOp};
use crate::lower::{lower_module, stmt_is_lowered};

/// Step budget per run, guarding against loops without query points.
/// Shared by both execution tiers ([`CRun`] and [`crate::vm::VmRun`]).
pub(crate) const STEP_BUDGET: u64 = 1_000_000;

/// Coerces a condition value to a boolean, C-style.
pub(crate) fn truthy(v: &Val) -> Result<bool, MachineError> {
    match v {
        Val::Int(i) => Ok(*i != 0),
        Val::Bool(b) => Ok(*b),
        other => Err(MachineError::Stuck(format!(
            "condition evaluated to non-integer value {other}"
        ))),
    }
}

/// Applies a unary operator. Shared by the interpreter and the VM so both
/// tiers agree on results and error strings.
pub(crate) fn apply_unop(op: UnOp, v: &Val) -> Result<Val, MachineError> {
    match op {
        UnOp::Not => Ok(Val::Int(i64::from(!truthy(v)?))),
        UnOp::Neg => Ok(Val::Int(v.as_int()?.wrapping_neg())),
    }
}

/// Applies a (lowered, non-logical) binary operator. The evaluation-order
/// contract both tiers rely on: `Eq`/`Ne` compare structurally without
/// coercion; everything else coerces the left value, then the right, then
/// checks for division by zero.
pub(crate) fn apply_binop(op: BinOp, va: &Val, vb: &Val) -> Result<Val, MachineError> {
    match op {
        BinOp::Eq => Ok(Val::Int(i64::from(va == vb))),
        BinOp::Ne => Ok(Val::Int(i64::from(va != vb))),
        _ => {
            let x = va.as_int()?;
            let y = vb.as_int()?;
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(MachineError::Stuck("division by zero".into()));
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(MachineError::Stuck("remainder by zero".into()));
                    }
                    x.wrapping_rem(y)
                }
                BinOp::Lt => i64::from(x < y),
                BinOp::Le => i64::from(x <= y),
                BinOp::Gt => i64::from(x > y),
                BinOp::Ge => i64::from(x >= y),
                BinOp::Eq | BinOp::Ne => unreachable!("handled above"),
                BinOp::And | BinOp::Or => {
                    return Err(MachineError::Stuck(
                        "short-circuit operator in lowered code".into(),
                    ));
                }
            };
            Ok(Val::Int(r))
        }
    }
}

fn eval(e: &Expr, locals: &BTreeMap<Ident, Val>) -> Result<Val, MachineError> {
    match e {
        Expr::Int(i) => Ok(Val::Int(*i)),
        Expr::LocConst(l) => Ok(Val::Loc(*l)),
        Expr::Var(x) => locals
            .get(x)
            .cloned()
            .ok_or_else(|| MachineError::Stuck(format!("use of undeclared variable `{x}`"))),
        Expr::Unop(op, a) => apply_unop(*op, &eval(a, locals)?),
        Expr::Binop(op, a, b) => {
            let va = eval(a, locals)?;
            let vb = eval(b, locals)?;
            apply_binop(*op, &va, &vb)
        }
        Expr::Call(name, _) => Err(MachineError::Stuck(format!(
            "call to `{name}` inside an expression: code was not lowered"
        ))),
    }
}

/// A loop body, exploded once into its statement sequence so every
/// iteration re-arms with reference-count bumps instead of a deep clone
/// of the body tree.
type LoopBody = Arc<[Arc<Stmt>]>;

fn explode_shared(body: &Stmt) -> LoopBody {
    match body {
        Stmt::Block(v) => v.iter().map(|s| Arc::new(s.clone())).collect(),
        s => std::iter::once(Arc::new(s.clone())).collect(),
    }
}

#[derive(Debug, Clone)]
enum WItem {
    /// A statement to execute. `Arc`-shared so loop iterations and block
    /// expansions push pointers, not tree clones.
    Stmt(Arc<Stmt>),
    /// Marker for an active loop; popped by `break`, re-armed on normal
    /// fall-through.
    Loop(LoopBody),
}

#[derive(Debug, Clone)]
struct CFrame {
    func: Arc<CFunction>,
    locals: BTreeMap<Ident, Val>,
    work: Vec<WItem>,
    /// Where the *caller* stores this frame's return value.
    ret_dst: Option<Ident>,
}

impl CFrame {
    fn new(
        func: Arc<CFunction>,
        args: &[Val],
        ret_dst: Option<Ident>,
    ) -> Result<Self, MachineError> {
        if args.len() != func.params.len() {
            return Err(MachineError::Stuck(format!(
                "{} expects {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut locals = BTreeMap::new();
        for (p, v) in func.params.iter().zip(args) {
            locals.insert(p.clone(), v.clone());
        }
        for l in &func.locals {
            locals.insert(l.clone(), Val::Undef);
        }
        let work = vec![WItem::Stmt(Arc::new(func.body.clone()))];
        Ok(Self {
            func,
            locals,
            work,
            ret_dst,
        })
    }
}

/// A resumable run of one ClightX function (plus nested activations).
pub struct CRun {
    module: Arc<CModule>,
    frames: Vec<CFrame>,
    pending: Option<(SubCall, Option<Ident>)>,
    budget: u64,
    /// Budget at the last [`PrimRun::resume`] return, for batched
    /// intra-primitive step accounting
    /// ([`ccal_core::prefix::record_prim_steps`]).
    reported: u64,
    init_error: Option<MachineError>,
    result: Option<Val>,
}

impl CRun {
    /// Starts a run of `func` (from the lowered `module`) with arguments.
    ///
    /// # Panics
    ///
    /// Panics if the function body is not in lowered form — construct runs
    /// through [`clightx_module`] or lower explicitly first.
    pub fn new(module: Arc<CModule>, func: Arc<CFunction>, args: Vec<Val>) -> Self {
        assert!(
            stmt_is_lowered(&func.body),
            "CRun requires lowered code; lower `{}` first",
            func.name
        );
        let (frames, init_error) = match CFrame::new(func, &args, None) {
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
                    caller.locals.insert(dst, ret);
                }
                None
            }
            None => Some(ret),
        }
    }

    fn do_break(&mut self) -> Result<(), MachineError> {
        let frame = self.frames.last_mut().expect("active frame");
        loop {
            match frame.work.pop() {
                Some(WItem::Loop(_)) => return Ok(()),
                Some(WItem::Stmt(_)) => {}
                None => {
                    return Err(MachineError::Stuck(format!(
                        "{}: break outside of a loop",
                        frame.func.name
                    )));
                }
            }
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
                            self.frames
                                .last_mut()
                                .expect("active frame")
                                .locals
                                .insert(dst, v);
                        }
                        self.pending = None;
                    }
                }
            }
            if self.budget == 0 {
                return Err(MachineError::OutOfFuel {
                    budget: STEP_BUDGET,
                });
            }
            self.budget -= 1;
            let frame = self.frames.last_mut().expect("active frame");
            let item = match frame.work.pop() {
                Some(item) => item,
                None => {
                    // Fell off the function body: implicit void return.
                    if let Some(v) = self.pop_frame(Val::Unit) {
                        self.result = Some(v.clone());
                        return Ok(PrimStep::Done(v));
                    }
                    continue;
                }
            };
            match item {
                WItem::Loop(body) => {
                    // Re-arm the loop and run its body again — pointer
                    // pushes only.
                    frame.work.push(WItem::Loop(body.clone()));
                    for s in body.iter().rev() {
                        frame.work.push(WItem::Stmt(s.clone()));
                    }
                }
                WItem::Stmt(rc) => match &*rc {
                    Stmt::Skip => {}
                    Stmt::Assign(x, e) => {
                        let v = eval(e, &frame.locals)?;
                        if !frame.locals.contains_key(x) {
                            return Err(MachineError::Stuck(format!(
                                "assignment to undeclared variable `{x}`"
                            )));
                        }
                        frame.locals.insert(x.clone(), v);
                    }
                    Stmt::Block(stmts) => {
                        for s in stmts.iter().rev() {
                            frame.work.push(WItem::Stmt(Arc::new(s.clone())));
                        }
                    }
                    Stmt::If(c, t, e) => {
                        let branch = if truthy(&eval(c, &frame.locals)?)? {
                            t
                        } else {
                            e
                        };
                        frame.work.push(WItem::Stmt(Arc::new((**branch).clone())));
                    }
                    Stmt::Loop(body) => {
                        let body = explode_shared(body);
                        frame.work.push(WItem::Loop(body.clone()));
                        for s in body.iter().rev() {
                            frame.work.push(WItem::Stmt(s.clone()));
                        }
                    }
                    Stmt::While(..) => {
                        return Err(MachineError::Stuck(
                            "while in lowered code (lowering bug)".into(),
                        ));
                    }
                    Stmt::Break => self.do_break()?,
                    Stmt::Return(e) => {
                        let v = match e {
                            Some(e) => eval(e, &frame.locals)?,
                            None => Val::Unit,
                        };
                        // Unwind this frame entirely.
                        frame.work.clear();
                        if let Some(v) = self.pop_frame(v) {
                            self.result = Some(v.clone());
                            return Ok(PrimStep::Done(v));
                        }
                    }
                    Stmt::Call(dst, name, args) => {
                        let mut vals = Vec::with_capacity(args.len());
                        for a in args {
                            vals.push(eval(a, &frame.locals)?);
                        }
                        if let Some(callee) = self.module.get(name).cloned() {
                            self.frames.push(CFrame::new(callee, &vals, dst.clone())?);
                        } else {
                            self.pending = Some((SubCall::start(ctx, name, vals)?, dst.clone()));
                        }
                    }
                },
            }
        }
    }
}

impl PrimRun for CRun {
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
            Some((sub, dst)) => Some((sub.fork()?, dst.clone())),
            None => None,
        };
        Some(Box::new(CRun {
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

impl std::fmt::Debug for CRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CRun")
            .field("frames", &self.frames.len())
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

/// Parses, lowers and statically checks ClightX source, returning a core
/// [`Module`] whose functions run interpretively over their underlay —
/// the C side of "layered concurrent programming in both C and assembly"
/// (§1).
///
/// # Errors
///
/// [`crate::CError`] on parse or static-check failure.
///
/// # Examples
///
/// ```
/// use ccal_clightx::clightx_module;
///
/// let m = clightx_module("M-add", "int add(int a, int b) { return a + b; }")?;
/// assert!(m.contains("add"));
/// # Ok::<(), ccal_clightx::CError>(())
/// ```
pub fn clightx_module(name: &str, src: &str) -> Result<Module, crate::CError> {
    let surface = crate::parser::parse_module(src)?;
    let lowered = lower_module(&surface);
    crate::check::check_module(&lowered)?;
    Ok(module_from_lowered(name, &lowered))
}

/// Wraps an already-lowered [`CModule`] as a core [`Module`].
///
/// The module is compiled to flat bytecode once, whole-module-or-nothing
/// ([`crate::compile::compile_module`]); each instantiation then picks the
/// execution tier from the instantiating thread's engine
/// ([`ccal_core::engine::Settings::bytecode`]). Modules
/// the compiler rejects (undeclared variables, stray `break`s — code the
/// static checker would refuse anyway) always run on the interpreter, so
/// their runtime error strings are unchanged.
pub fn module_from_lowered(name: &str, lowered: &CModule) -> Module {
    let shared_module = Arc::new(lowered.clone());
    let compiled = crate::compile::compile_module(lowered).ok().map(Arc::new);
    let mut m = Module::new(name);
    for f in lowered.iter() {
        let func = f.clone();
        let module = shared_module.clone();
        let vm_target = compiled
            .as_ref()
            .and_then(|cm| cm.fn_index(&f.name).map(|fid| (cm.clone(), fid)));
        let spec =
            ccal_core::layer::PrimSpec::strategy(
                &f.name,
                true,
                move |_pid, args| match &vm_target {
                    Some((cm, fid)) if engine::settings().bytecode => {
                        Box::new(crate::vm::VmRun::new(cm.clone(), *fid, args))
                    }
                    _ => Box::new(CRun::new(module.clone(), func.clone(), args)),
                },
            );
        m = m.with_fn(Lang::C, spec);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::env::EnvContext;
    use ccal_core::event::EventKind;
    use ccal_core::id::Pid;
    use ccal_core::layer::{LayerInterface, PrimSpec};
    use ccal_core::machine::LayerMachine;
    use ccal_core::strategy::RoundRobinScheduler;

    fn run(src: &str, name: &str, args: &[Val]) -> Result<Val, MachineError> {
        run_over(LayerInterface::builder("L").build(), src, name, args)
    }

    fn run_over(
        iface: LayerInterface,
        src: &str,
        name: &str,
        args: &[Val],
    ) -> Result<Val, MachineError> {
        let m = clightx_module("M", src).expect("valid source");
        let extended = m.install(&iface).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
        let mut machine = LayerMachine::new(extended, Pid(0), env);
        machine.call_prim(name, args)
    }

    #[test]
    fn computes_arithmetic() {
        assert_eq!(
            run("int f(int x) { return x * 3 - 1; }", "f", &[Val::Int(4)]).unwrap(),
            Val::Int(11)
        );
    }

    #[test]
    fn loops_and_breaks() {
        let src = r#"
            int sum_to(int n) {
                int acc = 0;
                int i = 1;
                while (i <= n) { acc = acc + i; i = i + 1; }
                return acc;
            }
        "#;
        assert_eq!(run(src, "sum_to", &[Val::Int(10)]).unwrap(), Val::Int(55));
    }

    #[test]
    fn internal_function_calls() {
        let src = r#"
            int double(int x) { return x + x; }
            int quad(int x) { int d = double(x); return double(d); }
        "#;
        assert_eq!(run(src, "quad", &[Val::Int(3)]).unwrap(), Val::Int(12));
    }

    #[test]
    fn recursion_works() {
        let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }";
        assert_eq!(run(src, "fact", &[Val::Int(6)]).unwrap(), Val::Int(720));
    }

    #[test]
    fn calls_layer_primitives_and_generates_events() {
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::atomic("tick", |ctx, _| {
                ctx.emit(EventKind::Prim("tick".into(), vec![]));
                let n = ctx
                    .log
                    .iter()
                    .filter(|e| matches!(&e.kind, EventKind::Prim(p, _) if p == "tick"))
                    .count();
                Ok(Val::Int(n as i64))
            }))
            .build();
        let src = "int f() { int a = tick(); int b = tick(); return a + b; }";
        assert_eq!(run_over(iface, src, "f", &[]).unwrap(), Val::Int(3));
    }

    #[test]
    fn short_circuit_does_not_call_rhs() {
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::atomic("boom", |_, _| {
                Err(MachineError::Stuck("boom called".into()))
            }))
            .build();
        let src = "int f() { return 0 && boom(); }";
        assert_eq!(run_over(iface, src, "f", &[]).unwrap(), Val::Int(0));
    }

    #[test]
    fn division_by_zero_is_stuck() {
        assert!(matches!(
            run("int f(int x) { return 1 / x; }", "f", &[Val::Int(0)]),
            Err(MachineError::Stuck(_))
        ));
    }

    #[test]
    fn void_functions_return_unit() {
        assert_eq!(run("void f() { }", "f", &[]).unwrap(), Val::Unit);
        assert_eq!(run("void f() { return; }", "f", &[]).unwrap(), Val::Unit);
    }

    #[test]
    fn infinite_pure_loop_exhausts_budget() {
        let src = "void f() { while (1) {} }";
        assert!(matches!(
            run(src, "f", &[]),
            Err(MachineError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn loc_literals_flow_to_prims() {
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::atomic("takes_loc", |_, args| {
                Ok(Val::Int(i64::from(args[0].as_loc()?.0)))
            }))
            .build();
        assert_eq!(
            run_over(iface, "int f() { return takes_loc(#9); }", "f", &[]).unwrap(),
            Val::Int(9)
        );
    }

    #[test]
    fn interpreter_tier_matches_results_when_forced() {
        // The same sources under an interpreter-tier engine must produce
        // the same values (the full differential matrix lives in the
        // `bytecode_differential` integration suite).
        let _interp = engine::Engine::new(engine::Settings {
            bytecode: false,
            ..engine::Settings::default()
        })
        .enter();
        assert_eq!(
            run("int f(int x) { return x * 3 - 1; }", "f", &[Val::Int(4)]).unwrap(),
            Val::Int(11)
        );
        let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }";
        assert_eq!(run(src, "fact", &[Val::Int(6)]).unwrap(), Val::Int(720));
    }
}
