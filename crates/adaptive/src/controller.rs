//! The adaptive broadcaster and its evaluation harness.
//!
//! Each *epoch* is one broadcast cycle: requests arrive, each experiencing
//! the data wait `T(item)` of the current program (formula 1's per-item
//! term); the estimator ingests them; periodically the index tree and
//! allocation are rebuilt from the current estimates. The harness replays
//! identical request streams against three policies:
//!
//! * **static** — built once from the initial popularity, never rebuilt
//!   (what the paper's offline algorithm gives you),
//! * **adaptive** — EMA estimates + periodic rebuild (this crate),
//! * **oracle** — rebuilt every epoch from the true instantaneous
//!   popularity (the unattainable lower reference).

use crate::estimator::EmaEstimator;
use crate::stream::DriftingWorkload;
use bcast_core::{PublishHeuristic, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_types::Weight;

/// Which §4.2-style heuristic reallocates the broadcast on rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocHeuristic {
    /// The paper's Index Tree Sorting heuristic.
    Sorting,
    /// The frontier-greedy extension (better on large skewed instances;
    /// see EXPERIMENTS.md finding F3).
    #[default]
    Frontier,
}

/// Degraded-feedback configuration: when and how delivery-rate drops
/// (reported by the lossy serving engine's `BatchMetrics::delivery_rate`)
/// trigger an out-of-schedule rebuild.
///
/// Two guards keep fault *bursts* from causing rebuild storms:
///
/// * **hysteresis** — only `sustain_epochs` *consecutive* degraded epochs
///   trigger a rebuild, and one epoch at or above `recovered_rate` resets
///   the streak (rates between the two thresholds are neutral);
/// * **backoff** — after a degradation rebuild the trigger is locked out
///   for a cooldown that doubles on every consecutive degraded rebuild
///   (up to `max_cooldown_epochs`); a healthy epoch resets the backoff to
///   `cooldown_epochs` and clears any remaining lockout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Delivery rate below this marks an epoch as degraded.
    pub min_delivery_rate: f64,
    /// Delivery rate at or above this marks the channel healthy (resets
    /// the degraded streak and the cooldown backoff).
    pub recovered_rate: f64,
    /// Consecutive degraded epochs required before rebuilding.
    pub sustain_epochs: u32,
    /// Base lockout (in epochs) after a degradation rebuild.
    pub cooldown_epochs: u64,
    /// Cap for the doubling cooldown.
    pub max_cooldown_epochs: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            min_delivery_rate: 0.9,
            recovered_rate: 0.97,
            sustain_epochs: 3,
            cooldown_epochs: 8,
            max_cooldown_epochs: 64,
        }
    }
}

/// The mutable hysteresis/cooldown state machine behind a
/// [`DegradationPolicy`], extracted so every *tenant* of a multi-tenant
/// service owns an independent instance: one tenant's brownout escalating
/// its cooldown must never suppress a neighbor's rebuild. (The
/// [`AdaptiveBroadcaster`] embeds one; the serving loop keeps one per
/// tenant.)
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationTracker {
    policy: DegradationPolicy,
    /// Consecutive epochs with delivery rate below the degradation floor.
    degraded_streak: u32,
    /// Epochs the trigger is still locked out.
    cooldown_left: u64,
    /// Cooldown applied after the *next* degradation rebuild (doubles on
    /// consecutive degraded rebuilds, resets on recovery).
    next_cooldown: u64,
    degraded_rebuilds: u64,
}

impl DegradationTracker {
    /// A fresh tracker for `policy` (streak empty, no lockout).
    pub fn new(policy: DegradationPolicy) -> Self {
        DegradationTracker {
            policy,
            degraded_streak: 0,
            cooldown_left: 0,
            next_cooldown: policy.cooldown_epochs,
            degraded_rebuilds: 0,
        }
    }

    /// The policy this tracker enforces.
    pub fn policy(&self) -> &DegradationPolicy {
        &self.policy
    }

    /// Feeds one epoch's delivery rate. Returns `true` when the caller
    /// should rebuild *now* — the tracker has already recorded the rebuild
    /// (streak cleared, cooldown armed), so the caller only performs it.
    ///
    /// See [`DegradationPolicy`] for the hysteresis + backoff rules.
    pub fn observe(&mut self, delivery_rate: f64) -> bool {
        let d = self.policy;
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        }
        if delivery_rate < d.min_delivery_rate {
            self.degraded_streak = self.degraded_streak.saturating_add(1);
        } else if delivery_rate >= d.recovered_rate {
            // A healthy epoch clears the streak, the escalated backoff and
            // any remaining lockout — the lockout exists to pace rebuilds
            // *within* a degraded period, not to delay response to the
            // next one.
            self.degraded_streak = 0;
            self.next_cooldown = d.cooldown_epochs;
            self.cooldown_left = 0;
        }
        if self.degraded_streak >= d.sustain_epochs && self.cooldown_left == 0 {
            self.degraded_rebuilds += 1;
            self.degraded_streak = 0;
            self.cooldown_left = self.next_cooldown;
            self.next_cooldown = (self.next_cooldown.saturating_mul(2)).min(d.max_cooldown_epochs);
            return true;
        }
        false
    }

    /// Forgets all transient state (streak, lockout, escalated backoff)
    /// but keeps the lifetime rebuild count — a tenant re-joining after
    /// churn, or a channel re-provisioned out of band, starts with a
    /// clean slate instead of a stale cooldown.
    pub fn reset(&mut self) {
        self.degraded_streak = 0;
        self.cooldown_left = 0;
        self.next_cooldown = self.policy.cooldown_epochs;
    }

    /// Rebuilds this tracker has triggered.
    pub fn degraded_rebuilds(&self) -> u64 {
        self.degraded_rebuilds
    }

    /// Appends the tracker's mutable state (streak, lockout, escalated
    /// backoff, lifetime count) to `out` — the policy itself is immutable
    /// configuration and travels separately. Inverse of
    /// [`import_state`](DegradationTracker::import_state).
    pub fn export_state(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.degraded_streak));
        out.push(self.cooldown_left);
        out.push(self.next_cooldown);
        out.push(self.degraded_rebuilds);
    }

    /// Rebuilds a tracker for `policy` from a word stream written by
    /// [`export_state`](DegradationTracker::export_state), consuming
    /// exactly the words it reads. Fails closed on truncation.
    pub fn import_state(policy: DegradationPolicy, words: &mut &[u64]) -> Option<Self> {
        if words.len() < 4 {
            return None;
        }
        let (head, rest) = words.split_at(4);
        *words = rest;
        Some(DegradationTracker {
            policy,
            degraded_streak: u32::try_from(head[0]).ok()?,
            cooldown_left: head[1],
            next_cooldown: head[2],
            degraded_rebuilds: head[3],
        })
    }
}

/// Rebuild configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Rebuild the tree + allocation every this many epochs (`None` =
    /// never; the static policy).
    pub rebuild_every: Option<u64>,
    /// EMA decay for the estimator.
    pub alpha: f64,
    /// Index-tree fanout.
    pub fanout: usize,
    /// Broadcast channels.
    pub channels: usize,
    /// Allocation heuristic used at each rebuild.
    pub heuristic: AllocHeuristic,
    /// Delivery-rate feedback trigger (`None` = periodic rebuilds only).
    pub degradation: Option<DegradationPolicy>,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            rebuild_every: Some(4),
            alpha: 0.4,
            fanout: 4,
            channels: 2,
            heuristic: AllocHeuristic::default(),
            degradation: None,
        }
    }
}

/// A broadcast server that re-optimizes its program online.
#[derive(Debug)]
pub struct AdaptiveBroadcaster {
    policy: RebuildPolicy,
    estimator: EmaEstimator,
    /// Fused schedule-and-compile engine; its double-buffered program and
    /// heuristic scratch keep rebuilds allocation-free at steady state.
    publisher: Publisher,
    /// `wait_of[item]` — slot of the item's bucket in the current cycle.
    wait_of: Vec<f64>,
    /// Popularity snapshot the next rebuild consumes, overwritten in
    /// place by [`EmaEstimator::publish_weights`] (no per-rebuild clone).
    weights: Vec<Weight>,
    cycle_len: usize,
    epoch: u64,
    rebuilds: u64,
    /// Per-instance degradation state machine (`None` = no feedback path).
    degradation: Option<DegradationTracker>,
}

impl AdaptiveBroadcaster {
    /// Creates a broadcaster over `items` keyed items, building the initial
    /// program from `initial_weights`.
    ///
    /// # Panics
    /// Panics if `items == 0` or `initial_weights.len() != items`.
    pub fn new(items: usize, initial_weights: &[Weight], policy: RebuildPolicy) -> Self {
        assert!(items > 0, "need at least one item");
        assert_eq!(initial_weights.len(), items, "one weight per item");
        let mut this = AdaptiveBroadcaster {
            estimator: EmaEstimator::new(items, policy.alpha),
            publisher: Publisher::new(),
            wait_of: Vec::new(),
            weights: initial_weights.to_vec(),
            cycle_len: 0,
            epoch: 0,
            rebuilds: 0,
            degradation: policy.degradation.map(DegradationTracker::new),
            policy,
        };
        this.rebuild(initial_weights);
        this
    }

    /// Rebuild count (excluding the initial build... including it minus 1).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds - 1
    }

    /// Rebuilds triggered by the degraded-feedback path specifically.
    pub fn degraded_rebuilds(&self) -> u64 {
        self.degradation
            .as_ref()
            .map_or(0, DegradationTracker::degraded_rebuilds)
    }

    /// Current cycle length in slots.
    pub fn cycle_len(&self) -> usize {
        self.cycle_len
    }

    /// Expected data wait of `item` under the current program.
    pub fn wait_of(&self, item: usize) -> f64 {
        self.wait_of[item]
    }

    fn rebuild(&mut self, weights: &[Weight]) {
        // Alphabetic shape keeps items key-searchable across rebuilds.
        let tree = knary::build_weight_balanced(weights, self.policy.fanout).expect("items >= 1");
        let heuristic = match self.policy.heuristic {
            AllocHeuristic::Sorting => PublishHeuristic::Sorting,
            AllocHeuristic::Frontier => PublishHeuristic::Frontier,
        };
        // The fused pipeline schedules, validates and compiles the `T(Di)`
        // route tables in one pass, reusing the previous rebuild's buffers
        // (double-buffered program swap) — the estimator's per-item waits
        // come from the same tables the serving engine reads.
        let compiled = self
            .publisher
            .publish(
                &tree,
                self.policy.channels,
                heuristic,
                PublishOptions::default(),
            )
            .expect("heuristic schedules are feasible");
        // data_nodes() of an alphabetic tree is key order, so data node i
        // is item i.
        self.wait_of.clear();
        self.wait_of.resize(weights.len(), 0.0);
        for (item, &n) in tree.data_nodes().iter().enumerate() {
            debug_assert_eq!(
                tree.label(n)[1..].parse::<usize>().ok(),
                Some(item),
                "knary builders label data nodes D<key> in key order"
            );
            self.wait_of[item] = compiled
                .data_slot(n)
                .expect("compiled: all data routed")
                .wait() as f64;
        }
        self.cycle_len = compiled.cycle_len();
        self.rebuilds += 1;
    }

    /// Estimator-driven rebuild: refreshes the persistent weight
    /// snapshot from the estimator and rebuilds from it. The snapshot
    /// equals [`EmaEstimator::weights`] bit for bit whenever at least one
    /// epoch has rolled since construction; before any roll it keeps the
    /// initial weights instead of collapsing everything to the floor.
    fn rebuild_from_estimator(&mut self) {
        self.estimator.publish_weights(&mut self.weights);
        let w = std::mem::take(&mut self.weights);
        self.rebuild(&w);
        self.weights = w;
    }

    /// Serves one epoch of requests: returns their mean data wait under the
    /// current program, then ingests them and rebuilds if due.
    pub fn serve_epoch(&mut self, requests: &[usize]) -> f64 {
        let mean = if requests.is_empty() {
            0.0
        } else {
            requests.iter().map(|&i| self.wait_of[i]).sum::<f64>() / requests.len() as f64
        };
        for &i in requests {
            self.estimator.observe(i);
        }
        self.estimator.roll_epoch();
        self.epoch += 1;
        if let Some(every) = self.policy.rebuild_every {
            if self.epoch.is_multiple_of(every) {
                self.rebuild_from_estimator();
            }
        }
        mean
    }

    /// Feeds one epoch's delivery rate (the lossy serving engine's
    /// `BatchMetrics::delivery_rate`) into the degraded-feedback path.
    /// Returns `true` if this observation triggered a rebuild.
    ///
    /// See [`DegradationPolicy`] for the hysteresis + backoff rules; with
    /// no degradation policy configured this is a no-op.
    pub fn observe_delivery(&mut self, delivery_rate: f64) -> bool {
        let Some(tracker) = self.degradation.as_mut() else {
            return false;
        };
        if tracker.observe(delivery_rate) {
            self.rebuild_from_estimator();
            return true;
        }
        false
    }
}

/// Per-policy outcome of a drift comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Policy label.
    pub name: &'static str,
    /// Mean request wait across all epochs.
    pub mean_wait: f64,
    /// Mean wait per epoch (for plotting).
    pub per_epoch: Vec<f64>,
}

/// Replays `epochs × requests_per_epoch` drifting requests against the
/// static, adaptive and oracle policies, returning one report per policy
/// (in that order). All three see the *same* request stream.
pub fn run_comparison(
    workload: &mut DriftingWorkload,
    epochs: u64,
    requests_per_epoch: usize,
    policy: RebuildPolicy,
) -> Vec<PolicyReport> {
    let items = workload.len();
    let initial = workload.true_weights(1000.0);
    let mut static_b = AdaptiveBroadcaster::new(
        items,
        &initial,
        RebuildPolicy {
            rebuild_every: None,
            ..policy
        },
    );
    let mut adaptive_b = AdaptiveBroadcaster::new(items, &initial, policy);
    let mut oracle_b = AdaptiveBroadcaster::new(
        items,
        &initial,
        RebuildPolicy {
            rebuild_every: None, // rebuilt manually from true weights
            ..policy
        },
    );

    let mut reports: Vec<PolicyReport> = ["static", "adaptive", "oracle"]
        .into_iter()
        .map(|name| PolicyReport {
            name,
            mean_wait: 0.0,
            per_epoch: Vec::with_capacity(epochs as usize),
        })
        .collect();

    for _ in 0..epochs {
        let requests: Vec<usize> = (0..requests_per_epoch).map(|_| workload.sample()).collect();
        let s = static_b.serve_epoch(&requests);
        let a = adaptive_b.serve_epoch(&requests);
        let o = oracle_b.serve_epoch(&requests);
        // Oracle: rebuild from the *new* true distribution every epoch.
        workload.roll_epoch();
        oracle_b.rebuild(&workload.true_weights(1000.0));
        for (r, v) in reports.iter_mut().zip([s, a, o]) {
            r.per_epoch.push(v);
            r.mean_wait += v / epochs as f64;
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DriftKind;

    #[test]
    fn stationary_load_needs_no_adaptation() {
        // With no drift, static (built from the true weights) is already
        // right; adaptive must stay within a few percent of it.
        let mut w = DriftingWorkload::new(40, 1.0, DriftKind::Rotate { step: 0 }, 1, 5);
        let reports = run_comparison(&mut w, 40, 400, RebuildPolicy::default());
        let (s, a) = (reports[0].mean_wait, reports[1].mean_wait);
        assert!(
            a <= s * 1.10,
            "adaptive {a} should track static {s} on stationary load"
        );
    }

    #[test]
    fn adaptation_wins_under_drift() {
        let mut w = DriftingWorkload::new(60, 1.1, DriftKind::HotspotJump, 8, 11);
        let policy = RebuildPolicy {
            rebuild_every: Some(2),
            alpha: 0.6,
            ..RebuildPolicy::default()
        };
        let reports = run_comparison(&mut w, 120, 600, policy);
        let (s, a, o) = (
            reports[0].mean_wait,
            reports[1].mean_wait,
            reports[2].mean_wait,
        );
        assert!(a < s, "adaptive {a} must beat static {s} under drift");
        assert!(
            o <= a * 1.05,
            "oracle {o} should be at least as good as adaptive {a}"
        );
    }

    #[test]
    fn broadcaster_bookkeeping() {
        let w: Vec<Weight> = (1..=10u32).map(Weight::from).collect();
        let mut b = AdaptiveBroadcaster::new(10, &w, RebuildPolicy::default());
        assert_eq!(b.rebuilds(), 0);
        assert!(b.cycle_len() >= 10 / 2); // 10 data + index over 2 channels
        for item in 0..10 {
            assert!(b.wait_of(item) >= 1.0);
        }
        // Default policy rebuilds every 4 epochs.
        for _ in 0..8 {
            b.serve_epoch(&[0, 1, 2]);
        }
        assert_eq!(b.rebuilds(), 2);
    }

    #[test]
    fn empty_epoch_is_harmless() {
        let w: Vec<Weight> = (1..=4u32).map(Weight::from).collect();
        let mut b = AdaptiveBroadcaster::new(4, &w, RebuildPolicy::default());
        assert_eq!(b.serve_epoch(&[]), 0.0);
    }

    fn degradation_broadcaster(d: DegradationPolicy) -> AdaptiveBroadcaster {
        let w: Vec<Weight> = (1..=12u32).map(Weight::from).collect();
        AdaptiveBroadcaster::new(
            12,
            &w,
            RebuildPolicy {
                rebuild_every: None,
                degradation: Some(d),
                ..RebuildPolicy::default()
            },
        )
    }

    #[test]
    fn brief_dips_never_trigger_a_rebuild() {
        let mut b = degradation_broadcaster(DegradationPolicy::default());
        // Alternating bad/healthy epochs: the streak never reaches 3.
        for _ in 0..20 {
            assert!(!b.observe_delivery(0.5));
            assert!(!b.observe_delivery(0.99));
        }
        assert_eq!(b.degraded_rebuilds(), 0);
    }

    #[test]
    fn neutral_rates_do_not_reset_the_streak() {
        // Between min (0.9) and recovered (0.97) is hysteresis dead band.
        let mut b = degradation_broadcaster(DegradationPolicy::default());
        assert!(!b.observe_delivery(0.5));
        assert!(!b.observe_delivery(0.93)); // neutral: streak survives
        assert!(!b.observe_delivery(0.5));
        assert!(b.observe_delivery(0.5)); // third degraded epoch fires
        assert_eq!(b.degraded_rebuilds(), 1);
    }

    #[test]
    fn sustained_loss_rebuilds_with_doubling_cooldown() {
        let d = DegradationPolicy {
            min_delivery_rate: 0.9,
            recovered_rate: 0.97,
            sustain_epochs: 2,
            cooldown_epochs: 4,
            max_cooldown_epochs: 16,
        };
        let mut b = degradation_broadcaster(d);
        let mut rebuild_epochs = Vec::new();
        for epoch in 0..60u64 {
            if b.observe_delivery(0.4) {
                rebuild_epochs.push(epoch);
            }
        }
        // A permanent fault storm must not rebuild every sustain_epochs:
        // the doubling cooldown spreads rebuilds out (4, 8, 16, 16…).
        assert!(
            rebuild_epochs.len() <= 5,
            "rebuild storm: {rebuild_epochs:?}"
        );
        let gaps: Vec<u64> = rebuild_epochs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|g| g[1] >= g[0]),
            "cooldown must not shrink during a storm: {gaps:?}"
        );
        assert!(b.degraded_rebuilds() >= 2);
    }

    #[test]
    fn recovery_resets_the_cooldown_backoff() {
        let d = DegradationPolicy {
            min_delivery_rate: 0.9,
            recovered_rate: 0.97,
            sustain_epochs: 2,
            cooldown_epochs: 2,
            max_cooldown_epochs: 32,
        };
        let mut b = degradation_broadcaster(d);
        // First storm: escalate the backoff.
        for _ in 0..20 {
            b.observe_delivery(0.4);
        }
        let after_storm = b.degraded_rebuilds();
        assert!(after_storm >= 2);
        // Healthy stretch: backoff resets to the base cooldown.
        for _ in 0..5 {
            assert!(!b.observe_delivery(0.995));
        }
        // A fresh storm fires after sustain_epochs again (no stale
        // escalated cooldown in the way once the lockout has drained).
        let mut fired_at = None;
        for epoch in 0..10u64 {
            if b.observe_delivery(0.4) {
                fired_at = Some(epoch);
                break;
            }
        }
        assert_eq!(fired_at, Some(1), "sustain_epochs=2 → fire on 2nd epoch");
    }

    #[test]
    fn trackers_are_independent_per_tenant() {
        // The multi-tenant requirement: a brownout escalating tenant A's
        // cooldown must not delay tenant B's first rebuild.
        let d = DegradationPolicy {
            sustain_epochs: 2,
            cooldown_epochs: 4,
            ..DegradationPolicy::default()
        };
        let mut a = DegradationTracker::new(d);
        let mut b = DegradationTracker::new(d);
        // A endures a long storm (escalated backoff, several rebuilds).
        let mut a_rebuilds = 0;
        for _ in 0..30 {
            if a.observe(0.3) {
                a_rebuilds += 1;
            }
        }
        assert!(a_rebuilds >= 2);
        // B, pristine, fires after exactly sustain_epochs.
        assert!(!b.observe(0.3));
        assert!(b.observe(0.3));
        assert_eq!(b.degraded_rebuilds(), 1);
    }

    #[test]
    fn reset_clears_the_lockout_but_keeps_history() {
        let d = DegradationPolicy {
            sustain_epochs: 2,
            cooldown_epochs: 16,
            max_cooldown_epochs: 64,
            ..DegradationPolicy::default()
        };
        let mut t = DegradationTracker::new(d);
        assert!(!t.observe(0.3));
        assert!(t.observe(0.3));
        // Locked out for 16 epochs now; a churned-in tenant resets.
        t.reset();
        assert!(!t.observe(0.3));
        assert!(t.observe(0.3), "reset must drop the cooldown lockout");
        assert_eq!(t.degraded_rebuilds(), 2, "lifetime count survives reset");
        assert_eq!(t.policy(), &d);
    }

    #[test]
    fn no_policy_means_no_feedback() {
        let w: Vec<Weight> = (1..=6u32).map(Weight::from).collect();
        let mut b = AdaptiveBroadcaster::new(6, &w, RebuildPolicy::default());
        for _ in 0..10 {
            assert!(!b.observe_delivery(0.0));
        }
        assert_eq!(b.degraded_rebuilds(), 0);
    }
}
