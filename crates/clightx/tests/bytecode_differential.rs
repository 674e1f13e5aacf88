//! Differential testing of the two ClightX execution tiers.
//!
//! Random structured programs (generated as ASTs, not parsed — nested
//! control flow, bounded loops, layer-primitive calls) run through
//! parse-independent lowering, then through **both** tiers: the
//! tree-walking interpreter (`CRun`) and the compiled bytecode VM
//! (`VmRun`). Results must be bit-identical: same return value or same
//! error string, and the same emitted event log (primitive calls happen
//! at the same program points with the same arguments).

use std::sync::Arc;

use ccal_clightx::ast::{BinOp, CFunction, CModule, Expr, Stmt, UnOp};
use ccal_clightx::compile::compile_module;
use ccal_clightx::interp::CRun;
use ccal_clightx::lower::lower_module;
use ccal_clightx::vm::VmRun;
use ccal_core::engine::{Engine, Settings};
use ccal_core::env::EnvContext;
use ccal_core::event::EventKind;
use ccal_core::id::Pid;
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::machine::{LayerMachine, MachineError};
use ccal_core::strategy::RoundRobinScheduler;
use ccal_core::val::Val;
use proptest::prelude::*;

const VARS: [&str; 3] = ["x", "a", "b"];

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-9_i64..9).prop_map(Expr::Int),
        (0_usize..VARS.len()).prop_map(|i| Expr::var(VARS[i])),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Rem),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                ]
            )
                .prop_map(|(a, b, op)| Expr::Binop(op, Box::new(a), Box::new(b))),
            inner
                .clone()
                .prop_map(|a| Expr::Unop(UnOp::Not, Box::new(a))),
            inner.prop_map(|a| Expr::Unop(UnOp::Neg, Box::new(a))),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        Just(Stmt::Skip),
        (0_usize..VARS.len(), arb_expr()).prop_map(|(i, e)| Stmt::Assign(VARS[i].into(), e)),
        // A layer-primitive call: a query point the machine suspends at,
        // in both tiers.
        (0_usize..VARS.len())
            .prop_map(|i| Stmt::Call(Some(VARS[i].into()), "tick".into(), vec![],)),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Stmt::If(
                c,
                Box::new(t),
                Box::new(e)
            )),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Stmt::Block),
            // Bounded loop: while (a > 0) { a = a - 1; <body> }. Bodies
            // may reassign `a`, so a generated loop can diverge — both
            // tiers then exhaust their (identical) step budgets.
            inner.prop_map(|body| {
                Stmt::While(
                    Expr::Binop(BinOp::Gt, Box::new(Expr::var("a")), Box::new(Expr::Int(0))),
                    Box::new(Stmt::Block(vec![
                        Stmt::Assign(
                            "a".into(),
                            Expr::Binop(
                                BinOp::Sub,
                                Box::new(Expr::var("a")),
                                Box::new(Expr::Int(1)),
                            ),
                        ),
                        body,
                    ])),
                )
            }),
        ]
    })
}

fn tick_interface() -> LayerInterface {
    LayerInterface::builder("L")
        .prim(PrimSpec::atomic("tick", |ctx, _| {
            ctx.emit(EventKind::Prim("tick".into(), vec![]));
            let n = ctx
                .log
                .iter()
                .filter(|e| matches!(&e.kind, EventKind::Prim(p, _) if p == "tick"))
                .count();
            Ok(Val::Int(n as i64))
        }))
        .build()
}

/// Runs `f` of `module` on one tier; returns the outcome (value or error
/// string) plus the final log rendered to a string.
fn run_tier(module: &CModule, arg: i64, vm: bool) -> (Result<Val, String>, String) {
    let lowered = Arc::new(module.clone());
    let spec = if vm {
        let compiled = Arc::new(compile_module(module).expect("generated module compiles"));
        let fid = compiled.fn_index("f").expect("f exists");
        PrimSpec::strategy("f", true, move |_pid, args| {
            Box::new(VmRun::new(compiled.clone(), fid, args))
        })
    } else {
        let func = module.get("f").expect("f exists").clone();
        PrimSpec::strategy("f", true, move |_pid, args| {
            Box::new(CRun::new(lowered.clone(), func.clone(), args))
        })
    };
    let m = ccal_core::module::Module::new("M").with_fn(ccal_core::module::Lang::C, spec);
    let extended = m.install(&tick_interface()).unwrap();
    let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
    let mut machine = LayerMachine::new(extended, Pid(0), env);
    let res = machine
        .call_prim("f", &[Val::Int(arg)])
        .map_err(|e: MachineError| e.to_string());
    (res, format!("{}", machine.log()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vm_and_interpreter_agree(body in arb_stmt(), ret in arb_expr(), arg in -4_i64..5) {
        let f = CFunction {
            name: "f".into(),
            params: vec!["x".into()],
            locals: vec!["a".into(), "b".into()],
            body: Stmt::Block(vec![
                Stmt::Assign("a".into(), Expr::Int(5)),
                Stmt::Assign("b".into(), Expr::Int(0)),
                body,
                Stmt::Return(Some(ret)),
            ]),
            returns_value: true,
        };
        let module = lower_module(&CModule::new().with_fn(f));
        ccal_clightx::check::check_module(&module).expect("generated module is well-formed");
        let (interp_res, interp_log) = run_tier(&module, arg, false);
        let (vm_res, vm_log) = run_tier(&module, arg, true);
        prop_assert_eq!(&interp_res, &vm_res, "verdict diverged between tiers");
        prop_assert_eq!(&interp_log, &vm_log, "event log diverged between tiers");
    }
}

/// The tier toggle itself: `module_from_lowered` must dispatch to the VM
/// when the override says on and to the interpreter when off, with
/// identical observable behaviour either way.
#[test]
fn module_from_lowered_obeys_the_override() {
    let src = r#"
        int f(int x) {
            int acc = 0;
            while (x > 0) { acc = acc + tick(); x = x - 1; }
            return acc;
        }
    "#;
    let mut outcomes = Vec::new();
    for on in [true, false] {
        let _tier = Engine::new(Settings {
            bytecode: on,
            ..Settings::default()
        })
        .enter();
        let m = ccal_clightx::clightx_module("M", src).unwrap();
        let extended = m.install(&tick_interface()).unwrap();
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
        let mut machine = LayerMachine::new(extended, Pid(0), env);
        let res = machine.call_prim("f", &[Val::Int(3)]).unwrap();
        outcomes.push((res, format!("{}", machine.log())));
    }
    assert_eq!(outcomes[0], outcomes[1], "tiers diverged");
    assert_eq!(outcomes[0].0, Val::Int(6), "1 + 2 + 3 ticks");
}
