//! Environment-context generation for bounded verification.
//!
//! The paper quantifies over *all* valid environment contexts; the Rust
//! reproduction checks obligations over a generated family of contexts:
//! every schedule prefix of a bounded length (optionally sampled when the
//! space is large), each combined with configurable environment-player
//! strategies and completed by a fair round-robin scheduler.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::env::EnvContext;
use crate::id::Pid;
use crate::por::{self, PidIndependence};
use crate::prefix::{self, ScheduleKey};
use crate::strategy::{ScriptScheduler, Strategy};

/// A generator of environment contexts.
///
/// # Examples
///
/// ```
/// use ccal_core::contexts::ContextGen;
/// use ccal_core::id::Pid;
///
/// let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(3);
/// let ctxs = gen.contexts();
/// assert_eq!(ctxs.len(), 8); // 2^3 schedule prefixes
/// ```
#[derive(Clone)]
pub struct ContextGen {
    /// The participant domain `D`.
    pub domain: Vec<Pid>,
    players: BTreeMap<Pid, Arc<dyn Strategy>>,
    schedule_len: usize,
    max_contexts: usize,
    fuel: u64,
    por: bool,
    /// The prefix-sharing family id: every context minted by this generator
    /// instance carries it in its [`ScheduleKey`], so lower-run outcomes
    /// never cross generator boundaries (different players, domain, or
    /// fuel). Cloning the generator keeps the family — a clone mints
    /// contexts identical to the original's.
    family: u64,
    /// Whether [`ContextGen::with_family`] pinned the family. Structural
    /// setters debug-assert against running *after* the pin: they would
    /// silently discard it (resetting to a fresh counter value), which is
    /// never what a caller pinning for cross-request sharing wants.
    pinned: bool,
}

impl ContextGen {
    /// Creates a generator over the given domain with no environment
    /// players (idle environment), schedule prefix length 4, and at most
    /// 256 contexts.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is empty.
    pub fn new(domain: Vec<Pid>) -> Self {
        assert!(!domain.is_empty(), "context domain must be non-empty");
        Self {
            domain,
            players: BTreeMap::new(),
            schedule_len: 4,
            max_contexts: 256,
            fuel: EnvContext::DEFAULT_FUEL,
            por: true,
            family: prefix::next_family(),
            pinned: false,
        }
    }

    fn reset_family(&mut self, setter: &str) {
        debug_assert!(
            !self.pinned,
            "ContextGen::{setter} after with_family would silently discard \
             the pinned prefix-sharing family; pin the family last"
        );
        self.family = prefix::next_family();
    }

    /// Sets the strategy of environment participant `pid` in every
    /// generated context. Starts a fresh prefix-sharing family: contexts
    /// minted before and after differ in behavior, so their lower-run
    /// outcomes must not be shared.
    pub fn with_player(mut self, pid: Pid, strategy: Arc<dyn Strategy>) -> Self {
        self.players.insert(pid, strategy);
        self.reset_family("with_player");
        self
    }

    /// Sets the enumerated schedule prefix length. The number of contexts
    /// is `|domain|^len` before capping. Starts a fresh prefix-sharing
    /// family (scripts of different lengths clamp consumed depths
    /// differently).
    pub fn with_schedule_len(mut self, len: usize) -> Self {
        self.schedule_len = len;
        self.reset_family("with_schedule_len");
        self
    }

    /// Caps the number of generated contexts; when the enumeration is
    /// larger, prefixes are sampled with a deterministic stride.
    pub fn with_max_contexts(mut self, max: usize) -> Self {
        self.max_contexts = max.max(1);
        self
    }

    /// Sets the per-query fuel (fairness bound) of generated contexts.
    /// Starts a fresh prefix-sharing family (the fuel bound is part of a
    /// run's behavior).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self.reset_family("with_fuel");
        self
    }

    /// Enables or disables partial-order-reduction marking (see
    /// [`crate::por`]). On by default.
    pub fn with_por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Pins the prefix-sharing family id instead of the process-local
    /// counter value, so *separately constructed* generators — across
    /// units, requests or processes — mint contexts whose schedule keys
    /// can share memoized runs. The caller asserts that every generator
    /// pinned to `family` is configured identically (domain, players,
    /// schedule length, fuel): the certification service derives the
    /// family from the unit's semantic sharing key
    /// ([`crate::fingerprint::share_key`]), which covers exactly those
    /// inputs. Call *last* — the structural builder methods reset the
    /// family to a fresh counter value, and debug-assert if invoked
    /// after a pin rather than discarding it silently.
    pub fn with_family(mut self, family: u64) -> Self {
        self.family = family;
        self.pinned = true;
        self
    }

    /// Total number of schedule prefixes before capping, saturating at
    /// `usize::MAX` when `|domain|^len` overflows (so huge configurations
    /// sample rather than panic or wrap).
    pub fn space_size(&self) -> usize {
        self.domain
            .len()
            .checked_pow(self.schedule_len.try_into().unwrap_or(u32::MAX))
            .unwrap_or(usize::MAX)
    }

    fn prefix(&self, mut index: usize) -> Vec<Pid> {
        let n = self.domain.len();
        let mut script = Vec::with_capacity(self.schedule_len);
        for _ in 0..self.schedule_len {
            script.push(self.domain[index % n]);
            index /= n;
        }
        script
    }

    fn make_context(&self, script: Vec<Pid>) -> EnvContext {
        let key = ScheduleKey::new(self.family, script.clone(), self.domain.len());
        let scheduler = ScriptScheduler::new(script, self.domain.clone());
        let mut env = EnvContext::new(Arc::new(scheduler))
            .with_fuel(self.fuel)
            .with_schedule_key(key);
        for (pid, s) in &self.players {
            env = env.with_player(*pid, s.clone());
        }
        env
    }

    /// The independence relation over this generator's domain, derived from
    /// the registered players' declared alphabets (pids without a player —
    /// e.g. the focused pid — are opaque and dependent with everything).
    pub fn independence(&self) -> PidIndependence {
        PidIndependence::from_players(&self.domain, &self.players)
    }

    /// Grid indices marked redundant by the partial-order reduction: the
    /// non-canonical members of each Mazurkiewicz trace class. Empty when
    /// POR is disabled, when the independence relation is trivial, or when
    /// the grid is sampled rather than fully enumerated (marking a sampled
    /// grid could drop a trace whose canonical representative was never
    /// sampled).
    fn por_marked_indices(&self, total: usize, take: usize) -> BTreeSet<usize> {
        if !self.por || take != total {
            return BTreeSet::new();
        }
        let ind = self.independence();
        if ind.is_trivial() {
            return BTreeSet::new();
        }
        let canonical = por::canonical_index_set(&self.domain, self.schedule_len, &ind);
        (0..total).filter(|i| !canonical.contains(i)).collect()
    }

    /// Generates the context family: every schedule prefix of the
    /// configured length (sampled deterministically when larger than the
    /// cap), each completed by fair round-robin.
    ///
    /// When the grid is fully enumerated and the partial-order reduction is
    /// on, contexts whose schedule prefix is trace-equivalent to a
    /// lower-indexed one are included but marked
    /// [`EnvContext::is_por_equivalent`] — checkers running with reduction
    /// skip them, and the full grid stays available for differential runs.
    ///
    /// Sampling (when the space exceeds the cap) spreads indices evenly
    /// across the whole range *and* varies the low digits: sample `k` takes
    /// index `⌊k·total/take⌋ + (k mod ⌊total/take⌋)`, which is strictly
    /// increasing and in range, and exercises both early and late schedule
    /// slots (a plain stride with the least-significant-digit-first
    /// encoding would hold the early slots constant).
    pub fn contexts(&self) -> Vec<EnvContext> {
        let total = self.space_size();
        let take = total.min(self.max_contexts);
        let marked = self.por_marked_indices(total, take);
        self.sample_indices(total, take)
            .into_iter()
            .map(|i| {
                let env = self.make_context(self.prefix(i));
                if marked.contains(&i) {
                    env.mark_por_equivalent()
                } else {
                    env
                }
            })
            .collect()
    }

    fn sample_indices(&self, total: usize, take: usize) -> Vec<usize> {
        if take == total {
            return (0..total).collect();
        }
        let bucket = (total / take).max(1);
        (0..take)
            .map(|k| (k as u128 * total as u128 / take as u128) as usize + (k % bucket))
            .collect()
    }

    /// A single fair round-robin context (no scripted prefix) — the
    /// cheapest smoke-test context.
    pub fn round_robin(&self) -> EnvContext {
        self.make_context(Vec::new())
    }
}

impl std::fmt::Debug for ContextGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextGen")
            .field("domain", &self.domain)
            .field("schedule_len", &self.schedule_len)
            .field("max_contexts", &self.max_contexts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PidSet;
    use crate::log::Log;

    #[test]
    fn enumerates_full_space_when_small() {
        let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(2);
        assert_eq!(gen.space_size(), 4);
        assert_eq!(gen.contexts().len(), 4);
    }

    #[test]
    fn caps_and_samples_large_spaces() {
        let gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
            .with_schedule_len(6)
            .with_max_contexts(10);
        let ctxs = gen.contexts();
        assert!(ctxs.len() <= 10);
        assert!(!ctxs.is_empty());
    }

    #[test]
    fn generated_contexts_are_usable() {
        let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(2);
        for env in gen.contexts() {
            let mut log = Log::new();
            let got = env
                .extend_until_focused(&PidSet::singleton(Pid(1)), &mut log)
                .unwrap();
            assert_eq!(got, Pid(1));
        }
    }

    #[test]
    fn space_size_saturates_instead_of_overflowing() {
        // Regression: `2usize.pow(64)` used to panic in debug builds and
        // wrap to 0 in release, making `contexts()` divide by zero.
        let gen = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(64)
            .with_max_contexts(8);
        assert_eq!(gen.space_size(), usize::MAX);
        assert_eq!(gen.contexts().len(), 8);
    }

    #[test]
    fn sampling_covers_first_and_last_schedule_slots() {
        // Regression: a plain index stride of `total/take` with the
        // least-significant-digit-first prefix encoding held the early
        // schedule slots constant (stride 256 ⇒ low 8 bits always zero)
        // and a truncating `step_by` never reached the tail.
        let gen = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(16)
            .with_max_contexts(256);
        let total = gen.space_size();
        let indices = gen.sample_indices(total, 256);
        assert_eq!(indices.len(), 256);
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256, "sampled indices are distinct");
        assert!(indices.iter().all(|&i| i < total));
        for slot in [0, 15] {
            let varied = indices
                .iter()
                .map(|&i| (i >> slot) & 1)
                .collect::<std::collections::BTreeSet<_>>();
            assert_eq!(varied.len(), 2, "schedule slot {slot} must vary");
        }
    }

    #[test]
    fn por_marks_only_non_canonical_contexts_on_full_grids() {
        use crate::id::Loc;
        use crate::strategy::ScratchPlayer;

        // Pids 1 and 2 are scratch players on disjoint locations; pid 0 is
        // opaque (focused). Classes collapse only across slots 1↔2.
        let gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
            .with_schedule_len(3)
            .with_player(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(50))))
            .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(51))))
            .with_por(true);
        let ctxs = gen.contexts();
        assert_eq!(ctxs.len(), 27, "the full grid is still generated");
        let marked = ctxs.iter().filter(|c| c.is_por_equivalent()).count();
        let expected_canonical =
            por::canonical_index_set(&gen.domain, 3, &gen.independence()).len();
        assert!(marked > 0, "independent players must yield pruning");
        assert_eq!(27 - marked, expected_canonical);

        // POR off, or a sampled grid, never marks.
        assert!(!gen
            .clone()
            .with_por(false)
            .contexts()
            .iter()
            .any(|c| c.is_por_equivalent()));
        assert!(!gen
            .with_max_contexts(10)
            .contexts()
            .iter()
            .any(|c| c.is_por_equivalent()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pin the family last")]
    fn structural_setter_after_family_pin_is_rejected() {
        let _ = ContextGen::new(vec![Pid(0)])
            .with_family(7)
            .with_schedule_len(2);
    }

    #[test]
    fn non_structural_setters_keep_a_pinned_family() {
        // with_por / with_max_contexts do not reset the family, so they
        // may legally follow a pin.
        let ctxs = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(1)
            .with_family(99)
            .with_por(false)
            .with_max_contexts(16)
            .contexts();
        assert!(ctxs
            .iter()
            .all(|c| c.schedule_key().unwrap().family() == 99));
    }

    #[test]
    fn distinct_prefixes_give_distinct_schedules() {
        let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(1);
        let ctxs = gen.contexts();
        let mut first_targets = Vec::new();
        for env in &ctxs {
            let mut log = Log::new();
            // Focused on both pids so the first sched event decides.
            let focused = PidSet::from_pids([Pid(0), Pid(1)]);
            let got = env.extend_until_focused(&focused, &mut log).unwrap();
            first_targets.push(got);
        }
        first_targets.sort_unstable();
        first_targets.dedup();
        assert_eq!(first_targets.len(), 2);
    }
}
