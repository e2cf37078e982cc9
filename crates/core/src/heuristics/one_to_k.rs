//! The `1_To_k_BroadcastChannel` procedure (§4.2).
//!
//! Distributes a 1-channel broadcast (a sorted preorder sequence) over `k`
//! channels: the sequence is bucketed into per-level lists (nodes of the
//! same tree level, ascending sequence number); each level then fills one
//! slot with up to `k` nodes, and nodes that do not fit are *merged* into
//! the next level's list (by sequence number). The final list is dumped
//! `k` per slot.
//!
//! Two repairs over the paper's pseudocode, documented in DESIGN.md:
//!
//! * the inner loop's `i ≤ NumOfChannels` bound would write channel `k+1`;
//!   we fill exactly `k` channels per slot;
//! * after a merge, a deferred node and its own child can meet in one list;
//!   the paper's code would put them in the same slot (infeasible). We skip
//!   any node whose parent is not yet in a strictly earlier slot — it
//!   simply stays for a later slot.
//!
//! ## Zero-allocation engine
//!
//! [`distribute_into`] is the million-node entry point: it emits the slot
//! schedule straight into a reusable [`SlotPlan`], with every intermediate
//! (the inverse permutation, the per-level lists, the carry/pending
//! worklists) living in a [`DistributeScratch`] whose capacity survives
//! across rebuilds. The per-level lists are built by a counting sort over
//! tree levels — per-chunk histograms, prefix offsets, then a parallel
//! scatter in which each worker owns a contiguous band of levels (and
//! hence a contiguous region of the bucket array), so the result is
//! bit-identical at every thread count. The last level's dump — where the
//! deferral repair used to rescan the remaining list per slot, quadratic
//! once a subtree piles up behind an unplaced ancestor — runs off an
//! awake set ([`MinSeqSet`]) in near-linear time instead.

use crate::schedule::Schedule;
use crate::seqset::MinSeqSet;
use bcast_channel::SlotPlan;
use bcast_index_tree::IndexTree;
use bcast_types::NodeId;

/// Reusable buffers for [`distribute_into`]; capacity survives across
/// calls, so a steady-state distributor performs no heap allocation on the
/// single-threaded path.
#[derive(Debug, Default)]
pub struct DistributeScratch {
    /// `seq[n]` = position of node `n` in the input order.
    seq: Vec<u32>,
    /// Slot of each placed node this run; `u32::MAX` = unplaced.
    slot_of: Vec<u32>,
    /// Counting-sort histograms: one row of `depth + 1` level counts per
    /// worker (a single row sequentially); the sequential row doubles as
    /// the scatter cursors.
    counts: Vec<u32>,
    /// `level_starts[l] .. level_starts[l + 1]` bounds level `l`'s nodes
    /// inside `buckets`.
    level_starts: Vec<u32>,
    /// All nodes bucketed by level, ascending sequence within each level.
    buckets: Vec<NodeId>,
    /// Merge output: the current level's list fused with the carry.
    merged: Vec<NodeId>,
    /// Nodes deferred past the current level.
    carry: Vec<NodeId>,
    /// Nodes awaiting a slot within the current level.
    pending: Vec<NodeId>,
    /// Nodes deferred past the current slot.
    rest: Vec<NodeId>,
    /// Last-level dump: awake nodes (parent aired in a strictly earlier
    /// slot) keyed by sequence number.
    awake: MinSeqSet,
    /// Position-space child table for the dump:
    /// `pos_children[pos_starts[i] .. pos_starts[i + 1]]` holds the
    /// sequence numbers of the children of `order[i]`.
    pos_starts: Vec<u32>,
    /// See [`DistributeScratch::pos_starts`].
    pos_children: Vec<u32>,
    /// Positions placed in the slot being filled.
    slot_pos: Vec<u32>,
}

impl DistributeScratch {
    /// Empty scratch; the first call sizes the buffers to the tree.
    pub fn new() -> Self {
        DistributeScratch::default()
    }
}

/// Runs the procedure on `order` (a topological, preorder-style sequence of
/// all tree nodes) producing a feasible k-channel schedule. Convenience
/// wrapper over [`distribute_into`] with one-shot buffers.
///
/// # Panics
/// Panics if `order` is not a permutation of the tree's nodes or `k < 2`
/// (`k = 1` is the identity — callers use the sequence directly).
pub fn distribute(tree: &IndexTree, order: &[NodeId], k: usize) -> Schedule {
    let mut scratch = DistributeScratch::new();
    let mut plan = SlotPlan::new();
    distribute_into(tree, order, k, 1, &mut scratch, &mut plan);
    Schedule::from_plan(&plan)
}

/// Buckets `order` into per-level lists (`buckets` + `level_starts`) with
/// a counting sort: per-chunk histograms, prefix offsets, then a scatter.
/// With `threads > 1` the histogram chunks over the order and the scatter
/// assigns each worker a contiguous band of levels — one contiguous region
/// of `buckets` — while every worker scans the whole order in sequence
/// order, so each level's list is ascending in sequence number and the
/// output is bit-identical at any thread count.
fn bucket_levels(
    tree: &IndexTree,
    order: &[NodeId],
    threads: usize,
    counts: &mut Vec<u32>,
    level_starts: &mut Vec<u32>,
    buckets: &mut Vec<NodeId>,
) {
    let levels = tree.level_table();
    let num_levels = tree.depth() as usize + 1; // indexed by level; 0 unused
    let workers = threads.max(1).min(order.len().max(1));

    // Per-chunk histograms.
    counts.clear();
    counts.resize(workers * num_levels, 0);
    if workers <= 1 {
        for &n in order {
            counts[levels[n.index()] as usize] += 1;
        }
    } else {
        let chunk = order.len().div_ceil(workers);
        std::thread::scope(|s| {
            for (row, part) in counts.chunks_mut(num_levels).zip(order.chunks(chunk)) {
                s.spawn(move || {
                    for &n in part {
                        row[levels[n.index()] as usize] += 1;
                    }
                });
            }
        });
    }

    // Prefix offsets over the level totals.
    level_starts.clear();
    level_starts.resize(num_levels + 1, 0);
    for l in 0..num_levels {
        let total: u32 = (0..workers).map(|w| counts[w * num_levels + l]).sum();
        level_starts[l + 1] = level_starts[l] + total;
    }

    // Scatter.
    buckets.clear();
    buckets.resize(order.len(), NodeId(0));
    if workers <= 1 {
        // Reuse the histogram row as running cursors.
        counts[..num_levels].copy_from_slice(&level_starts[..num_levels]);
        for &n in order {
            let l = levels[n.index()] as usize;
            buckets[counts[l] as usize] = n;
            counts[l] += 1;
        }
    } else {
        // Contiguous level bands with roughly equal node counts; each band
        // is one contiguous `buckets` region handed to one worker.
        let starts: &[u32] = level_starts;
        let mut cuts = vec![0usize; workers + 1];
        cuts[workers] = num_levels;
        let mut l = 0usize;
        for (w, cut) in cuts.iter_mut().enumerate().take(workers).skip(1) {
            let target = (w * order.len()).div_ceil(workers);
            while l < num_levels && (starts[l] as usize) < target {
                l += 1;
            }
            *cut = l;
        }
        std::thread::scope(|s| {
            let mut tail: &mut [NodeId] = buckets;
            let mut base = 0usize;
            for w in 0..workers {
                let (lo, hi) = (cuts[w], cuts[w + 1]);
                let end = starts[hi] as usize;
                let (part, rest) = tail.split_at_mut(end - base);
                tail = rest;
                let part_base = base;
                base = end;
                if lo == hi {
                    continue;
                }
                s.spawn(move || {
                    let mut cursors: Vec<usize> =
                        (lo..hi).map(|lv| starts[lv] as usize - part_base).collect();
                    for &n in order {
                        let lv = levels[n.index()] as usize;
                        if (lo..hi).contains(&lv) {
                            part[cursors[lv - lo]] = n;
                            cursors[lv - lo] += 1;
                        }
                    }
                });
            }
        });
    }
}

/// The zero-allocation twin of [`distribute`]: emits the identical slot
/// schedule into `plan` (cleared first) using `scratch`'s reusable
/// buffers. `threads` shards the level bucketing (see [`DistributeScratch`]
/// docs); `threads ≤ 1` never spawns.
///
/// # Panics
/// Panics if `order` is not a permutation of the tree's nodes or `k < 2`.
pub fn distribute_into(
    tree: &IndexTree,
    order: &[NodeId],
    k: usize,
    threads: usize,
    scratch: &mut DistributeScratch,
    plan: &mut SlotPlan,
) {
    assert!(k >= 2, "k = 1 needs no distribution");
    assert_eq!(order.len(), tree.len(), "order must cover all nodes");
    let DistributeScratch {
        seq,
        slot_of,
        counts,
        level_starts,
        buckets,
        merged,
        carry,
        pending,
        rest,
        awake,
        pos_starts,
        pos_children,
        slot_pos,
    } = scratch;

    // Inverse permutation (and the duplicate check that makes it one).
    seq.clear();
    seq.resize(tree.len(), u32::MAX);
    for (i, &n) in order.iter().enumerate() {
        assert_eq!(
            seq[n.index()],
            u32::MAX,
            "order is not a permutation: node {n} appears twice"
        );
        seq[n.index()] = i as u32;
    }

    bucket_levels(tree, order, threads, counts, level_starts, buckets);

    slot_of.clear();
    slot_of.resize(tree.len(), u32::MAX);
    plan.clear();
    carry.clear();
    let depth = tree.depth() as usize;
    let mut slot = 0u32;
    for level in 1..=depth {
        // Merge the carry into this level's list by sequence number.
        let list = &buckets[level_starts[level] as usize..level_starts[level + 1] as usize];
        merged.clear();
        let (mut i, mut j) = (0, 0);
        while i < list.len() && j < carry.len() {
            if seq[list[i].index()] <= seq[carry[j].index()] {
                merged.push(list[i]);
                i += 1;
            } else {
                merged.push(carry[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&list[i..]);
        merged.extend_from_slice(&carry[j..]);
        carry.clear();

        let last_level = level == depth;
        std::mem::swap(pending, merged);
        if last_level {
            // Keep dumping. The final list holds every still-unplaced node
            // (each level above placed at most `k`), and each slot takes
            // the `k` smallest-sequence nodes whose parent aired in a
            // strictly earlier slot. Scanning the remaining list per slot
            // is quadratic when a subtree piles up behind an unplaced
            // ancestor, so the dump runs off an *awake set* keyed by
            // sequence number instead: a node enters the set once its
            // parent has aired (strictly earlier, so placing a node wakes
            // its children for the *next* slot), and each slot pops the
            // first `k` — the identical selection in near-linear time
            // (see [`MinSeqSet`]).
            //
            // The slot loop is a serial chain of data-dependent loads, so
            // the per-node child walk (CSR range, then each child's
            // sequence number) is hoisted into a *position-space* child
            // table built by two tight sequential passes up front — the
            // same cache misses, but overlapped by the CPU instead of
            // serialized behind each slot's pops.
            debug_assert!(carry.is_empty());
            pos_starts.clear();
            pos_starts.reserve(order.len() + 1);
            pos_starts.push(0);
            let mut total = 0u32;
            for &n in order {
                total += tree.child_range(n).len() as u32;
                pos_starts.push(total);
            }
            pos_children.clear();
            pos_children.resize(total as usize, 0);
            for (i, &n) in order.iter().enumerate() {
                let base = pos_starts[i] as usize;
                for (j, &c) in tree.children(n).iter().enumerate() {
                    pos_children[base + j] = seq[c.index()];
                }
            }
            awake.reset(order.len());
            for &n in pending.iter() {
                let ready = tree
                    .parent(n)
                    .is_none_or(|p| slot_of[p.index()] != u32::MAX);
                if ready {
                    awake.insert(seq[n.index()] as usize);
                }
            }
            let mut placed = 0usize;
            while !awake.is_empty() {
                slot_pos.clear();
                while plan.open_len() < k {
                    let Some(pos) = awake.pop_min() else {
                        break;
                    };
                    plan.push(order[pos]);
                    slot_pos.push(pos as u32);
                }
                placed += plan.open_len();
                plan.commit_slot();
                slot += 1;
                for &p in slot_pos.iter() {
                    let (a, b) = (
                        pos_starts[p as usize] as usize,
                        pos_starts[p as usize + 1] as usize,
                    );
                    for &cp in &pos_children[a..b] {
                        awake.insert(cp as usize);
                    }
                }
            }
            assert_eq!(
                placed,
                pending.len(),
                "topological order guarantees progress"
            );
            pending.clear();
        } else {
            // One slot per inner level; the remainder merges into the next
            // level's list.
            rest.clear();
            for &n in pending.iter() {
                let parent_ok = tree.parent(n).is_none_or(|p| slot_of[p.index()] < slot);
                if plan.open_len() < k && parent_ok {
                    plan.push(n);
                } else {
                    rest.push(n);
                }
            }
            if plan.open_len() > 0 {
                for &n in plan.open_members() {
                    slot_of[n.index()] = slot;
                }
                plan.commit_slot();
                slot += 1;
            }
            std::mem::swap(carry, rest);
        }
    }
    // The dump at the last level drains everything (asserted above), so no
    // trickle pass is needed: the level loop always ends on `last_level`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::sorting::sorted_preorder;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;

    #[test]
    fn paper_walkthrough_fig13_two_channels() {
        // Sorted order 1 2 A B 3 E 4 C D with k = 2:
        // slot1 {1}, slot2 {2,3}, slot3 {A,B} (E,4 deferred to level 4),
        // slot4 {E,4}, slot5 {C,D}.
        let t = builders::paper_example();
        let order = sorted_preorder(&t);
        let s = distribute(&t, &order, 2);
        let as_labels: Vec<Vec<String>> = s
            .slots()
            .iter()
            .map(|m| m.iter().map(|&n| t.label(n)).collect())
            .collect();
        assert_eq!(
            as_labels,
            vec![
                vec!["1"],
                vec!["2", "3"],
                vec!["A", "B"],
                vec!["E", "4"],
                vec!["C", "D"],
            ]
        );
        s.into_allocation(&t, 2).unwrap();
    }

    #[test]
    fn three_channels_shorten_the_cycle() {
        let t = builders::paper_example();
        let order = sorted_preorder(&t);
        let s2 = distribute(&t, &order, 2);
        let s3 = distribute(&t, &order, 3);
        assert!(s3.len() <= s2.len());
        s3.into_allocation(&t, 3).unwrap();
    }

    #[test]
    fn deferred_parent_never_shares_slot_with_child() {
        // A chain stresses the merge repair: every index node's child
        // follows immediately.
        use bcast_types::Weight;
        let w: Vec<Weight> = (1..=6u32).map(Weight::from).collect();
        let t = builders::chain(&w).unwrap();
        let order: Vec<NodeId> = t.preorder().to_vec();
        let s = distribute(&t, &order, 3);
        s.into_allocation(&t, 3).unwrap();
    }

    #[test]
    fn scratch_reuse_and_threads_are_bit_identical() {
        let cfg = RandomTreeConfig {
            data_nodes: 3_000,
            max_fanout: 5,
            weights: FrequencyDist::Zipf {
                theta: 0.9,
                scale: 400.0,
            },
        };
        let mut scratch = DistributeScratch::new();
        let mut plan = SlotPlan::new();
        for seed in 0..3u64 {
            let t = random_tree(&cfg, seed);
            let order = sorted_preorder(&t);
            let baseline = distribute(&t, &order, 3);
            for threads in [1usize, 2, 4, 7] {
                distribute_into(&t, &order, 3, threads, &mut scratch, &mut plan);
                assert_eq!(
                    Schedule::from_plan(&plan),
                    baseline,
                    "seed {seed}, threads {threads}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn always_feasible(n in 1usize..40, k in 2usize..6, seed in 0u64..500) {
            let cfg = RandomTreeConfig {
                data_nodes: n,
                max_fanout: 4,
                weights: FrequencyDist::Uniform { lo: 0.0, hi: 30.0 },
            };
            let t = random_tree(&cfg, seed);
            let s = distribute(&t, &sorted_preorder(&t), k);
            prop_assert_eq!(s.node_count(), t.len());
            s.into_allocation(&t, k).unwrap();
        }
    }
}
