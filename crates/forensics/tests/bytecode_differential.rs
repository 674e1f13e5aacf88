//! Tier differential over the forensics pipeline: the seeded-bug
//! fixtures must produce the same verdicts, the same captured failing
//! cases (index, detail, reason, log — byte for byte; full list on the
//! serial engine, the deterministic index-least case under parallel
//! workers) and the same minimized artifacts whether ClightX primitives
//! run on the bytecode VM or the interpreter. The fixtures' objects are
//! strategy-backed, so the tier flag must be *inert* here — this is the
//! guard that flipping the execution tier perturbs nothing outside
//! ClightX dispatch.

use ccal_core::engine::{self, Engine, Settings};
use ccal_core::forensics::CaptureScope;
use ccal_forensics::{all_fixtures, investigate, RunConfig};

fn both_tiers<T, F>(f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let under = |bytecode| {
        let _tier = Engine::new(Settings {
            bytecode,
            ..Settings::default()
        })
        .enter();
        f()
    };
    let (on, off) = (under(true), under(false));
    assert_eq!(on, off, "compiled and interpreted tiers diverged");
    on
}

fn config_grid() -> Vec<RunConfig> {
    vec![
        RunConfig {
            workers: 1,
            dedup: false,
            por: false,
            prefix_share: false,
            deep_share: false,
        },
        RunConfig {
            workers: 2,
            dedup: true,
            por: true,
            prefix_share: true,
            deep_share: false,
        },
        RunConfig {
            workers: 2,
            dedup: true,
            por: true,
            prefix_share: true,
            deep_share: true,
        },
    ]
}

#[test]
fn fixture_verdicts_and_captures_are_tier_invariant() {
    for fx in all_fixtures() {
        for cfg in config_grid() {
            let (verdict, captured, first) = both_tiers(|| {
                let scope = CaptureScope::begin();
                let verdict = (fx.runner)(&(fx.contexts)(), &cfg);
                let captures = scope.take();
                // The engine's determinism contract covers the verdict
                // and the *index-least* failing case. With parallel
                // workers, which later failing cases were already
                // in-flight when the first failure short-circuited the
                // queue is thread-timing — not a tier property — so only
                // the serial config pins the full capture list.
                let canonical = if cfg.workers == 1 {
                    format!("{captures:?}")
                } else {
                    format!("{:?}", captures.iter().min_by_key(|c| c.case_index))
                };
                (verdict, !captures.is_empty(), canonical)
            });
            assert!(
                verdict.is_err(),
                "{}/{}: seeded bug went undetected",
                fx.checker,
                fx.object
            );
            assert!(captured, "{}/{}: no capture", fx.checker, fx.object);
            assert!(!first.is_empty());
        }
    }
}

#[test]
fn investigation_artifacts_are_tier_invariant() {
    for fx in all_fixtures() {
        let artifact = both_tiers(|| {
            let mut a = investigate(&fx, &RunConfig::replay())
                .unwrap_or_else(|e| panic!("{}/{}: {e}", fx.checker, fx.object));
            // The options fingerprint records the tier the investigation
            // ran under — the one field that is *supposed* to differ.
            // Everything else (context, evidence, shrink trajectory, file
            // name) must be bit-identical, so compare modulo that field.
            assert_eq!(a.options.bytecode, engine::settings().bytecode);
            a.options.bytecode = false;
            (a.file_name(), a.encode().pretty())
        });
        assert!(artifact.0.starts_with(fx.checker));
    }
}
