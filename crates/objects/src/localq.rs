//! The local (sequential) queue: a doubly linked list refined to a
//! logical list.
//!
//! "The queue is represented as a logical list in the specification, while
//! it is implemented as a doubly linked list" (§6, Table 2's *Local
//! queue*). The implementation manipulates a node pool through private
//! (silent, §3.1) layer primitives; the specification keeps a `Val::List`
//! in the abstract state — precisely the paper's `a.tdqp` logical queues
//! (§4.2). Since no events are involved, refinement is checked on whole
//! operation scripts ([`ccal_verifier::check_sequence_refinement`]),
//! comparing every returned value.

use ccal_core::abs::AbsState;
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::machine::MachineError;
use ccal_core::val::Val;

/// The ClightX source of the doubly-linked-list queue (`-1` is the null
/// node).
pub const LOCALQ_SOURCE: &str = r#"
void enq_t(int q, int v) {
    int i = node_alloc();
    nd_set_val(i, v);
    nd_set_next(i, -1);
    int t = q_tail(q);
    nd_set_prev(i, t);
    if (t == -1) { q_set_head(q, i); } else { nd_set_next(t, i); }
    q_set_tail(q, i);
}
int deq_t(int q) {
    int h = q_head(q);
    if (h == -1) { return -1; }
    int n = nd_get_next(h);
    q_set_head(q, n);
    if (n == -1) { q_set_tail(q, -1); } else { nd_set_prev(n, -1); }
    return nd_get_val(h);
}
"#;

fn int_arg(args: &[Val], i: usize) -> Result<i64, MachineError> {
    args.get(i)
        .ok_or_else(|| MachineError::Stuck(format!("missing integer argument {i}")))?
        .as_int()
        .map_err(MachineError::from)
}

fn int_field(abs: &AbsState, key: &str, default: i64) -> i64 {
    match abs.get_or_undef(key) {
        Val::Int(i) => i,
        _ => default,
    }
}

/// The node-pool underlay: private accessors over the abstract state for
/// node next/prev/value links and per-queue head/tail indices. These are
/// the lower-layer structure accessors the paper's queue module is built
/// on (§4.2's `tcb`/`tdq` arrays).
pub fn node_pool_interface() -> LayerInterface {
    fn getter(name: &'static str, key: fn(i64) -> String) -> PrimSpec {
        PrimSpec::private(name, move |ctx, args| {
            let i = int_arg(args, 0)?;
            Ok(Val::Int(int_field(ctx.abs, &key(i), -1)))
        })
    }
    fn setter(name: &'static str, key: fn(i64) -> String) -> PrimSpec {
        PrimSpec::private(name, move |ctx, args| {
            let i = int_arg(args, 0)?;
            let v = int_arg(args, 1)?;
            ctx.abs.set(&key(i), Val::Int(v));
            Ok(Val::Unit)
        })
    }
    LayerInterface::builder("Lnode")
        .prim(PrimSpec::private("node_alloc", |ctx, _| {
            let n = int_field(ctx.abs, "nd_count", 0);
            ctx.abs.set("nd_count", Val::Int(n + 1));
            Ok(Val::Int(n))
        }))
        .prim(getter("nd_get_next", |i| format!("nd_next[{i}]")))
        .prim(setter("nd_set_next", |i| format!("nd_next[{i}]")))
        .prim(getter("nd_get_prev", |i| format!("nd_prev[{i}]")))
        .prim(setter("nd_set_prev", |i| format!("nd_prev[{i}]")))
        .prim(getter("nd_get_val", |i| format!("nd_val[{i}]")))
        .prim(setter("nd_set_val", |i| format!("nd_val[{i}]")))
        .prim(getter("q_head", |q| format!("q_head[{q}]")))
        .prim(setter("q_set_head", |q| format!("q_head[{q}]")))
        .prim(getter("q_tail", |q| format!("q_tail[{q}]")))
        .prim(setter("q_set_tail", |q| format!("q_tail[{q}]")))
        .build()
}

/// The logical-list specification interface: `enq_t`/`deq_t` over a
/// `Val::List` abstract field — the `σ_deQ_t` of §4.2 without the
/// ownership side conditions (this is the *local* queue; the shared
/// wrapper adds the lock discipline).
pub fn logical_queue_interface() -> LayerInterface {
    LayerInterface::builder("LqSpec")
        .prim(PrimSpec::private("enq_t", |ctx, args| {
            let q = int_arg(args, 0)?;
            let v = args
                .get(1)
                .cloned()
                .ok_or_else(|| MachineError::Stuck("enq_t needs a value".into()))?;
            let key = format!("lq[{q}]");
            let mut items = match ctx.abs.get_or_undef(&key) {
                Val::List(items) => items,
                _ => Vec::new(),
            };
            items.push(v);
            ctx.abs.set(&key, Val::List(items));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::private("deq_t", |ctx, args| {
            let q = int_arg(args, 0)?;
            let key = format!("lq[{q}]");
            let mut items = match ctx.abs.get_or_undef(&key) {
                Val::List(items) => items,
                _ => Vec::new(),
            };
            if items.is_empty() {
                return Ok(Val::Int(-1));
            }
            let front = items.remove(0);
            ctx.abs.set(&key, Val::List(items));
            Ok(front)
        }))
        .build()
}

/// The local queue implementation installed over the node pool, as a layer
/// interface ready for refinement checking.
///
/// # Errors
///
/// Front-end or linking errors from the embedded source.
pub fn localq_impl_interface() -> Result<LayerInterface, MachineError> {
    let m = ccal_clightx::clightx_module("Mlq", LOCALQ_SOURCE)
        .map_err(|e| MachineError::Stuck(format!("Mlq front-end: {e}")))?;
    m.install(&node_pool_interface())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use ccal_core::id::Pid;
    use ccal_core::sim::SimRelation;
    use ccal_verifier::check_sequence_refinement;

    fn scripts() -> Vec<ccal_verifier::OpScript> {
        let e = |q: i64, v: i64| ("enq_t".to_owned(), vec![Val::Int(q), Val::Int(v)]);
        let d = |q: i64| ("deq_t".to_owned(), vec![Val::Int(q)]);
        vec![
            vec![d(0)],                                        // deq from empty
            vec![e(0, 1), d(0), d(0)],                         // drain past empty
            vec![e(0, 1), e(0, 2), e(0, 3), d(0), d(0), d(0)], // FIFO order
            vec![e(0, 1), d(0), e(0, 2), e(0, 3), d(0), d(0)], // interleaved
            vec![e(0, 1), e(1, 9), d(1), d(0)],                // two queues
            vec![e(0, 1), e(0, 2), d(0), e(0, 3), d(0), d(0), d(0)],
        ]
    }

    #[test]
    fn dll_refines_logical_list_on_scripts() {
        let contexts = vec![ContextGen::new(vec![Pid(0)]).round_robin()];
        let ob = check_sequence_refinement(
            &localq_impl_interface().unwrap(),
            &logical_queue_interface(),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts(),
            200_000,
        )
        .unwrap();
        assert_eq!(ob.cases_checked, scripts().len());
    }

    #[test]
    fn dll_maintains_prev_links() {
        use ccal_core::env::EnvContext;
        use ccal_core::machine::LayerMachine;
        use ccal_core::strategy::RoundRobinScheduler;
        use std::sync::Arc;
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let mut m = LayerMachine::new(localq_impl_interface().unwrap(), Pid(0), env);
        for v in 1..=3 {
            m.call_prim("enq_t", &[Val::Int(0), Val::Int(v)]).unwrap();
        }
        // Node 1 (middle) has prev = 0 and next = 2.
        assert_eq!(m.abs.get_or_undef("nd_prev[1]"), Val::Int(0));
        assert_eq!(m.abs.get_or_undef("nd_next[1]"), Val::Int(2));
        // Dequeue the head; the new head's prev is cleared.
        assert_eq!(m.call_prim("deq_t", &[Val::Int(0)]).unwrap(), Val::Int(1));
        assert_eq!(m.abs.get_or_undef("nd_prev[1]"), Val::Int(-1));
    }

    proptest::proptest! {
        /// Random op scripts: the DLL implementation and the logical list
        /// agree on every returned value.
        #[test]
        fn random_scripts_agree(ops in proptest::collection::vec((0_i64..2, 0_i64..2, 1_i64..50), 0..14)) {
            let script: ccal_verifier::OpScript = ops
                .into_iter()
                .map(|(kind, q, v)| {
                    if kind == 0 {
                        ("enq_t".to_owned(), vec![Val::Int(q), Val::Int(v)])
                    } else {
                        ("deq_t".to_owned(), vec![Val::Int(q)])
                    }
                })
                .collect();
            let contexts = vec![ContextGen::new(vec![Pid(0)]).round_robin()];
            check_sequence_refinement(
                &localq_impl_interface().unwrap(),
                &logical_queue_interface(),
                &SimRelation::identity(),
                Pid(0),
                &contexts,
                &[script],
                200_000,
            )
            .unwrap();
        }
    }
}
