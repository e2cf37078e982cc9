//! Access-frequency estimation from the request stream.
//!
//! The broadcast server cannot see true popularity; it sees requests (in
//! the paper's hybrid setting, the on-demand up-link misses used to
//! "re-estimate its access frequency" \[DCK97, SRB97\]). The standard
//! streaming estimator is an exponential moving average over per-epoch
//! request counts: cheap, O(items) memory, and tunably reactive via the
//! decay factor `alpha`.

use bcast_types::Weight;

/// Exponential-moving-average frequency estimator.
///
/// Counts requests within an *epoch* (one broadcast cycle, typically); at
/// each [`EmaEstimator::roll_epoch`] the running estimate becomes
/// `alpha · count + (1 - alpha) · previous`. Higher `alpha` reacts faster
/// but is noisier.
///
/// ```
/// use bcast_adaptive::EmaEstimator;
///
/// let mut est = EmaEstimator::new(2, 0.5);
/// est.observe(0);
/// est.observe(0);
/// est.roll_epoch();
/// assert_eq!(est.estimate(0), 1.0); // 0.5 · 2 + 0.5 · 0
/// assert_eq!(est.estimate(1), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EmaEstimator {
    alpha: f64,
    /// Per-epoch request counts. `u32` deliberately: an epoch is one
    /// serving slice (tens of thousands of requests), so 32 bits never
    /// saturate, and the half-size array keeps the per-request increment
    /// inside a smaller cache footprint on the serving hot path.
    counts: Vec<u32>,
    estimate: Vec<f64>,
    epochs: u64,
    /// Floored weights as of the last [`EmaEstimator::publish_weights`] —
    /// the published snapshot [`EmaEstimator::drift_since_publish`]
    /// measures against.
    published: Vec<f64>,
}

impl EmaEstimator {
    /// Creates an estimator over `items` item ids with decay `alpha ∈
    /// (0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is out of `(0, 1]` or `items == 0`.
    pub fn new(items: usize, alpha: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EmaEstimator {
            alpha,
            counts: vec![0; items],
            estimate: vec![0.0; items],
            epochs: 0,
            published: vec![f64::NAN; items], // NaN ⇒ nothing published yet
        }
    }

    /// Number of tracked items.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no items are tracked (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records one request for `item`. `#[inline]` because the serving
    /// loop calls this once per request from another crate, and the
    /// workspace builds without LTO — without the hint the counter bump
    /// would be an outlined cross-crate call on the hottest path.
    ///
    /// # Panics
    /// Panics on an out-of-range item id.
    #[inline]
    pub fn observe(&mut self, item: usize) {
        self.counts[item] += 1;
    }

    /// Ends the current epoch, folding its counts into the estimate.
    pub fn roll_epoch(&mut self) {
        for (est, cnt) in self.estimate.iter_mut().zip(&mut self.counts) {
            *est = self.alpha * (*cnt as f64) + (1.0 - self.alpha) * *est;
            *cnt = 0;
        }
        self.epochs += 1;
    }

    /// Hands a rebuild the current floored weights: overwrites `out` with
    /// [`weights`](EmaEstimator::weights) bit for bit, without allocating,
    /// and records them as the published snapshot
    /// [`drift_since_publish`](EmaEstimator::drift_since_publish)
    /// measures against. Before the first
    /// [`roll_epoch`](EmaEstimator::roll_epoch) there is no estimate yet,
    /// so both `out` and the snapshot are left untouched — a caller's boot
    /// weights survive a rebuild that fires before any epoch ends.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the number of tracked items.
    pub fn publish_weights(&mut self, out: &mut [Weight]) {
        assert_eq!(out.len(), self.estimate.len(), "one weight per item");
        if self.epochs == 0 {
            return;
        }
        for ((o, p), &est) in out.iter_mut().zip(&mut self.published).zip(&self.estimate) {
            let w = est.max(1e-6);
            *p = w;
            *o = Weight::new(w).expect("EMA of counts is finite, non-negative");
        }
    }

    /// Relative L1 drift of the current floored estimates against the
    /// published snapshot: `Σ|wᵢ − pᵢ| / Σ pᵢ`, or `f64::INFINITY` before
    /// the first [`publish_weights`](EmaEstimator::publish_weights)
    /// (nothing is published yet, so everything has drifted).
    ///
    /// This is the republish gate's input: a stationary stream's EMA
    /// fluctuates by sampling noise only (drift well under ~0.2 for
    /// realistic rates), while a genuine popularity shift moves the mass
    /// itself — so "republish only when drift exceeds a floor" skips the
    /// no-op rebuilds without ever missing a real change. O(items), no
    /// allocation, deterministic.
    pub fn drift_since_publish(&self) -> f64 {
        let mut moved = 0.0f64;
        let mut base = 0.0f64;
        for (est, pub_w) in self.estimate.iter().zip(&self.published) {
            if pub_w.is_nan() {
                return f64::INFINITY;
            }
            moved += (est.max(1e-6) - pub_w).abs();
            base += pub_w;
        }
        if base > 0.0 {
            moved / base
        } else {
            f64::INFINITY
        }
    }

    /// Epochs rolled so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Current estimates as allocation weights. A small floor keeps items
    /// that were never requested from collapsing to zero weight (they must
    /// remain broadcastable and tie-breakable).
    pub fn weights(&self) -> Vec<Weight> {
        self.estimate
            .iter()
            .map(|&e| Weight::new(e.max(1e-6)).expect("EMA of counts is finite, non-negative"))
            .collect()
    }

    /// Raw estimate for one item.
    pub fn estimate(&self, item: usize) -> f64 {
        self.estimate[item]
    }

    /// Appends the estimator's complete state to `out` as `u64` words —
    /// float bit patterns, never rounded values, so a restored estimator
    /// continues the exact trajectory of the original (the checkpoint
    /// path depends on this bit-identity). The inverse is
    /// [`import_state`](EmaEstimator::import_state).
    /// Mid-epoch counts are encoded sparsely (`item << 32 | count`,
    /// ascending): a checkpoint is taken at an epoch boundary where
    /// [`roll_epoch`](EmaEstimator::roll_epoch) has just zeroed them, so
    /// the dense array would be `items` words of zeros.
    pub fn export_state(&self, out: &mut Vec<u64>) {
        out.push(self.alpha.to_bits());
        out.push(self.counts.len() as u64);
        out.push(self.epochs);
        let occupied = self.counts.iter().filter(|&&c| c != 0).count();
        out.push(occupied as u64);
        out.extend(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| ((i as u64) << 32) | u64::from(c)),
        );
        out.extend(self.estimate.iter().map(|e| e.to_bits()));
        out.extend(self.published.iter().map(|p| p.to_bits()));
    }

    /// Rebuilds an estimator from a word stream written by
    /// [`export_state`](EmaEstimator::export_state), consuming exactly
    /// the words it reads from the front of `*words`. Fails closed:
    /// a truncated or structurally invalid stream yields `None`, never a
    /// half-restored estimator.
    pub fn import_state(words: &mut &[u64]) -> Option<EmaEstimator> {
        fn take<'a>(words: &mut &'a [u64], n: usize) -> Option<&'a [u64]> {
            if words.len() < n {
                return None;
            }
            let (head, rest) = words.split_at(n);
            *words = rest;
            Some(head)
        }
        let header = take(words, 4)?;
        let alpha = f64::from_bits(header[0]);
        let items = usize::try_from(header[1]).ok()?;
        let epochs = header[2];
        if !(alpha > 0.0 && alpha <= 1.0) || items == 0 {
            return None;
        }
        let occupied = usize::try_from(header[3]).ok()?;
        if occupied > items {
            return None;
        }
        let mut counts = vec![0u32; items];
        let mut prev: Option<usize> = None;
        for &pair in take(words, occupied)? {
            let i = usize::try_from(pair >> 32).ok()?;
            let c = pair as u32;
            if i >= items || prev.is_some_and(|p| p >= i) || c == 0 {
                return None;
            }
            prev = Some(i);
            counts[i] = c;
        }
        let estimate: Vec<f64> = take(words, items)?
            .iter()
            .map(|&w| f64::from_bits(w))
            .collect();
        let published: Vec<f64> = take(words, items)?
            .iter()
            .map(|&w| f64::from_bits(w))
            .collect();
        Some(EmaEstimator {
            alpha,
            counts,
            estimate,
            epochs,
            published,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn converges_to_stationary_rates() {
        let mut e = EmaEstimator::new(3, 0.3);
        for _ in 0..200 {
            for _ in 0..30 {
                e.observe(0);
            }
            for _ in 0..10 {
                e.observe(1);
            }
            e.roll_epoch();
        }
        assert!((e.estimate(0) - 30.0).abs() < 1e-6);
        assert!((e.estimate(1) - 10.0).abs() < 1e-6);
        assert!(e.estimate(2) < 1e-6);
        assert_eq!(e.epochs(), 200);
        // Weight floor keeps unseen items alive.
        assert!(e.weights()[2].get() > 0.0);
    }

    #[test]
    fn tracks_a_shift_within_a_few_epochs() {
        let mut e = EmaEstimator::new(2, 0.5);
        for _ in 0..20 {
            for _ in 0..10 {
                e.observe(0);
            }
            e.roll_epoch();
        }
        // Popularity flips to item 1.
        for _ in 0..6 {
            for _ in 0..10 {
                e.observe(1);
            }
            e.roll_epoch();
        }
        assert!(
            e.estimate(1) > e.estimate(0),
            "estimator should have crossed over: {} vs {}",
            e.estimate(1),
            e.estimate(0)
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let _ = EmaEstimator::new(1, 0.0);
    }

    #[test]
    fn published_weights_equal_weights_and_reset_drift() {
        let mut e = EmaEstimator::new(4, 0.5);
        let boot = vec![Weight::new(7.0).unwrap(); 4];
        let mut out = boot.clone();
        // No epoch rolled yet: the caller's boot weights survive and
        // nothing is published.
        e.publish_weights(&mut out);
        assert_eq!(out, boot);
        assert_eq!(e.drift_since_publish(), f64::INFINITY);
        for epoch in 0..5usize {
            for r in 0..=epoch % 4 {
                e.observe(r);
            }
            e.roll_epoch();
            e.publish_weights(&mut out);
            for (w, x) in out.iter().zip(e.weights()) {
                assert_eq!(w.get().to_bits(), x.get().to_bits());
            }
            assert_eq!(e.drift_since_publish(), 0.0, "epoch {epoch}");
        }
        // The snapshot holds until the next hand-off.
        e.observe(3);
        e.roll_epoch();
        assert!(e.drift_since_publish() > 0.0);
    }

    #[test]
    fn drift_tracks_mass_movement_not_noise() {
        let mut e = EmaEstimator::new(2, 0.5);
        // Nothing published yet: everything counts as drifted.
        assert_eq!(e.drift_since_publish(), f64::INFINITY);
        let mut out = e.weights();
        for _ in 0..30 {
            for _ in 0..10 {
                e.observe(0);
            }
            e.roll_epoch();
        }
        e.publish_weights(&mut out);
        // Converged stationary stream: estimates barely move after the
        // publish, so drift stays near zero.
        for _ in 0..3 {
            for _ in 0..10 {
                e.observe(0);
            }
            e.roll_epoch();
        }
        assert!(
            e.drift_since_publish() < 0.01,
            "{}",
            e.drift_since_publish()
        );
        // Popularity flip: the mass itself moves, drift jumps.
        for _ in 0..3 {
            for _ in 0..10 {
                e.observe(1);
            }
            e.roll_epoch();
        }
        assert!(e.drift_since_publish() > 0.5, "{}", e.drift_since_publish());
    }

    #[test]
    fn exported_state_restores_the_exact_trajectory() {
        let mut e = EmaEstimator::new(5, 0.4);
        let mut out = e.weights();
        for epoch in 0..13usize {
            for r in 0..(epoch % 4) + 1 {
                e.observe(r);
            }
            e.roll_epoch();
            if epoch == 6 {
                e.publish_weights(&mut out);
            }
        }
        // Mid-epoch counts survive too.
        e.observe(3);
        let mut words = Vec::new();
        e.export_state(&mut words);
        let mut cursor = &words[..];
        let mut back = EmaEstimator::import_state(&mut cursor).expect("valid stream");
        assert!(cursor.is_empty(), "import must consume exactly its words");
        // Same continuation: identical epochs, weights and drift after
        // more traffic on both copies.
        assert_eq!(back.epochs(), e.epochs());
        assert_eq!(
            back.drift_since_publish().to_bits(),
            e.drift_since_publish().to_bits()
        );
        for _ in 0..3 {
            e.observe(1);
            back.observe(1);
            e.roll_epoch();
            back.roll_epoch();
        }
        assert_eq!(
            back.drift_since_publish().to_bits(),
            e.drift_since_publish().to_bits()
        );
        let (ws_a, ws_b) = (e.weights(), back.weights());
        for (a, b) in ws_a.iter().zip(&ws_b) {
            assert_eq!(a.get().to_bits(), b.get().to_bits());
        }
        // Truncations fail closed at every cut.
        for cut in 0..words.len() {
            let mut cursor = &words[..cut];
            assert!(
                EmaEstimator::import_state(&mut cursor).is_none(),
                "cut {cut}"
            );
        }
    }

    proptest! {
        #[test]
        fn estimates_bounded_by_max_epoch_count(
            reqs in prop::collection::vec(0usize..4, 0..200),
            alpha in 0.05f64..1.0,
        ) {
            let mut e = EmaEstimator::new(4, alpha);
            let mut max_per_epoch = 0u64;
            for chunk in reqs.chunks(20) {
                for &r in chunk {
                    e.observe(r);
                }
                max_per_epoch = max_per_epoch.max(chunk.len() as u64);
                e.roll_epoch();
            }
            for i in 0..4 {
                prop_assert!(e.estimate(i) <= max_per_epoch as f64 + 1e-9);
                prop_assert!(e.estimate(i) >= 0.0);
            }
        }
    }
}
