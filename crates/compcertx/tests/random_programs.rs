//! Translation validation on randomly *generated* (not parsed) programs:
//! structured statement trees with nested control flow, exercising the
//! code generator's jump patching, operand stack discipline and frame
//! layout far beyond the hand-written sources.

use ccal_clightx::ast::{BinOp, CFunction, CModule, Expr, Stmt, UnOp};
use ccal_clightx::lower::lower_module;
use ccal_compcertx::{compile_and_validate, ValidateOptions};
use ccal_core::contexts::ContextGen;
use ccal_core::id::Pid;
use ccal_core::layer::LayerInterface;
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
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
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
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Stmt::If(
                c,
                Box::new(t),
                Box::new(e)
            )),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Stmt::Block),
            // Bounded loop: while (a > 0) { a = a - 1; <body> } — always
            // terminates because the body cannot increase a above its
            // start (it may assign, so re-bound with a guard).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_programs_validate(body in arb_stmt(), ret in arb_expr()) {
        let f = CFunction {
            name: "f".into(),
            params: vec!["x".into()],
            locals: vec!["a".into(), "b".into()],
            body: Stmt::Block(vec![
                Stmt::Assign("a".into(), Expr::Int(5)),
                Stmt::Assign("b".into(), Expr::Int(0)),
                // Loop bodies may reassign `a`, so a generated loop can
                // diverge; both semantics then exhaust their budgets, a
                // matching failure class that validation accepts.
                body,
                Stmt::Return(Some(ret)),
            ]),
            returns_value: true,
        };
        let module = lower_module(&CModule::new().with_fn(f));
        ccal_clightx::check::check_module(&module).expect("generated module is well-formed");
        let iface = LayerInterface::builder("L").build();
        let opts = ValidateOptions::new(vec![ContextGen::new(vec![Pid(0)]).round_robin()])
            .with_workload("f", vec![vec![Val::Int(0)], vec![Val::Int(3)], vec![Val::Int(-2)]]);
        let compiled = compile_and_validate("M", &module, &iface, &opts)
            .expect("compiled code agrees with the interpreter");
        prop_assert!(compiled.certificate.total_cases() + count_skipped(&compiled) > 0);
    }
}

fn count_skipped(c: &ccal_compcertx::CompiledModule) -> usize {
    c.certificate
        .obligations()
        .iter()
        .map(|o| o.cases_skipped)
        .sum()
}
