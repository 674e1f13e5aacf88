//! The correctness gate: every answer checked against hand-written
//! expectations. A mismatch counts as one failed request.

use ccal_certd::CertResponse;

/// A unit's case accounting: (checked, skipped, reduced).
type Cases = (usize, usize, usize);

/// Units the certd registry decomposes each stack into.
pub fn expected_units(stack: &str) -> Option<usize> {
    match stack {
        "ticket" => Some(9),
        "qlock" => Some(2),
        _ => None,
    }
}

/// The scratch fixture's known failing unit.
pub const SCRATCH_FAILING_UNIT: &str = "op";

/// What a certd answer must look like for the request that produced it.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Computed from an empty store.
    Cold,
    /// Answered from the stack manifest alone.
    Hit,
}

/// Checks a certd answer for `stack`.
///
/// # Errors
///
/// The first expectation the answer breaks.
pub fn check_certd(resp: &CertResponse, stack: &str, expect: Expect) -> Result<(), String> {
    if resp.stack != stack {
        return Err(format!("answered stack {} for {stack}", resp.stack));
    }
    if !resp.certified || resp.failure.is_some() {
        return Err(format!("{stack} not CERTIFIED: {:?}", resp.failed_unit));
    }
    let want = expected_units(stack).ok_or_else(|| format!("no expectation for {stack}"))?;
    if resp.units.len() != want {
        return Err(format!("{stack}: {} units, want {want}", resp.units.len()));
    }
    match expect {
        Expect::Cold => {
            if resp.manifest_hit || resp.cache_hits != 0 || resp.total_steps == 0 {
                return Err(format!("{stack} cold: answered without exploring"));
            }
            Ok(())
        }
        Expect::Hit => {
            if !resp.manifest_hit {
                return Err(format!("{stack}: not a manifest hit"));
            }
            if resp.total_steps != 0 {
                return Err(format!("{stack} hit: {} steps, want 0", resp.total_steps));
            }
            if !resp.units.iter().all(|u| u.cache_hit) {
                return Err(format!("{stack} hit: a unit was not a cache hit"));
            }
            Ok(())
        }
    }
}

/// Checks the scratch fixture: it must fail, at its known unit.
///
/// # Errors
///
/// A passing verdict, or a failure elsewhere.
pub fn check_scratch(resp: &CertResponse) -> Result<(), String> {
    if resp.certified || resp.failure.is_none() {
        return Err("scratch fixture was CERTIFIED, must FAIL".into());
    }
    match resp.failed_unit.as_deref() {
        Some(SCRATCH_FAILING_UNIT) => Ok(()),
        other => Err(format!(
            "scratch failed at {other:?}, want {SCRATCH_FAILING_UNIT}"
        )),
    }
}

/// Checks that an in-process replay of a request answered as the live
/// daemon did: verdict, provenance, steps and per-unit cases.
///
/// # Errors
///
/// The first difference.
pub fn check_same(live: &CertResponse, replay: &CertResponse) -> Result<(), String> {
    let summary = |r: &CertResponse| {
        (
            r.certified,
            r.failed_unit.clone(),
            r.manifest_hit,
            r.cache_hits,
            r.total_steps,
        )
    };
    if summary(live) != summary(replay) {
        return Err(format!(
            "replay {:?} != live {:?}",
            summary(replay),
            summary(live)
        ));
    }
    let units = |r: &CertResponse| -> Vec<(String, bool, Cases)> {
        r.units
            .iter()
            .map(|u| {
                (
                    u.unit.clone(),
                    u.cache_hit,
                    (u.cases_checked, u.cases_skipped, u.cases_reduced),
                )
            })
            .collect()
    };
    if units(live) != units(replay) {
        return Err(format!("{}: replay units differ from live", live.stack));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_certd::UnitReport;

    fn response(stack: &str, units: usize) -> CertResponse {
        CertResponse {
            stack: stack.into(),
            certified: true,
            failure: None,
            failed_unit: None,
            units: (0..units)
                .map(|i| UnitReport {
                    unit: format!("u{i}"),
                    cache_hit: true,
                    cases_checked: 10 + i,
                    ..UnitReport::default()
                })
                .collect(),
            cache_hits: units,
            manifest_hit: true,
            total_steps: 0,
        }
    }

    #[test]
    fn accepts_the_expected_answers() {
        let hit = response("qlock", 2);
        check_certd(&hit, "qlock", Expect::Hit).expect("a clean manifest hit");
        let ticket = response("ticket", 9);
        check_certd(&ticket, "ticket", Expect::Hit).expect("a clean manifest hit");
        check_same(&ticket, &ticket.clone()).expect("identical answers");
    }

    #[test]
    fn rejects_fabricated_wrong_answers() {
        let mut cold = response("ticket", 9);
        cold.manifest_hit = false;
        cold.cache_hits = 0;
        cold.total_steps = 100;
        check_certd(&cold, "ticket", Expect::Cold).expect("explored from scratch");
        assert!(check_certd(&response("ticket", 9), "ticket", Expect::Cold).is_err());

        let mut failed = cold.clone();
        failed.certified = false;
        failed.failed_unit = Some("funlift/acq".into());
        assert!(check_certd(&failed, "ticket", Expect::Cold).is_err());
        assert!(check_certd(&response("qlock", 3), "qlock", Expect::Hit).is_err());
        assert!(check_certd(&response("ticket", 9), "qlock", Expect::Hit).is_err());

        let mut stepped = response("qlock", 2);
        stepped.total_steps = 1;
        assert!(check_certd(&stepped, "qlock", Expect::Hit).is_err());
        let mut missed = response("qlock", 2);
        missed.manifest_hit = false;
        assert!(check_certd(&missed, "qlock", Expect::Hit).is_err());

        let mut replay = response("qlock", 2);
        replay.units[0].cases_checked += 1;
        assert!(check_same(&response("qlock", 2), &replay).is_err());

        let passing_scratch = response("scratch", 1);
        assert!(check_scratch(&passing_scratch).is_err());
        let mut wrong_unit = passing_scratch.clone();
        wrong_unit.certified = false;
        wrong_unit.failure = Some("counterexample".into());
        wrong_unit.failed_unit = Some("other".into());
        assert!(check_scratch(&wrong_unit).is_err());
        wrong_unit.failed_unit = Some(SCRATCH_FAILING_UNIT.into());
        check_scratch(&wrong_unit).expect("fails at its known unit");
    }
}
