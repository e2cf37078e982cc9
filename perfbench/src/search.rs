//! The paper's §3 best-first search, replayed in the traced run of
//! `drift_republish` on a fixed family of 12 full balanced 3-ary depth-4
//! trees (27 data nodes, Uniform[1,100) weights), `k = 2`, default
//! options (pruned, Packed bound, Property 1, sequential).
//!
//! No served path runs the search, and its wall time moved by up to 70%
//! between minutes on a shared host while the serve ops moved by a few
//! percent, so it is a per-layer replay, not an end-to-end workload. The
//! family is fixed and searched in whole passes, so every count it
//! reports repeats exactly.

use crate::trace::Tracer;
use crate::Outcome;
use bcast_channel::cost::data_wait_lower_bound;
use bcast_core::best_first::{self, BestFirstOptions};
use bcast_core::heuristics::sorting;
use bcast_index_tree::{builders, IndexTree};
use bcast_workloads::FrequencyDist;

const CHANNELS: usize = 2;
const FAMILY_SEED: u64 = 0xB0_0C5;

struct Sizes {
    family: usize,
    fanout: usize,
    depth: u32,
}

fn sizes(toy: bool) -> Sizes {
    if toy {
        Sizes {
            family: 4,
            fanout: 3,
            depth: 3,
        }
    } else {
        Sizes {
            family: 12,
            fanout: 3,
            depth: 4,
        }
    }
}

struct Instance {
    tree: IndexTree,
    lower: f64,
    heuristic: f64,
}

fn family(s: &Sizes) -> Vec<Instance> {
    let leaves = s.fanout.pow(s.depth - 1);
    (0..s.family as u64)
        .map(|i| {
            let weights =
                FrequencyDist::Uniform { lo: 1.0, hi: 100.0 }.sample(leaves, FAMILY_SEED + i);
            let tree = builders::full_balanced(s.fanout, s.depth, &weights).expect("valid shape");
            let lower = data_wait_lower_bound(&tree, CHANNELS);
            let heuristic = sorting::sorting_schedule(&tree, CHANNELS).average_data_wait(&tree);
            Instance {
                tree,
                lower,
                heuristic,
            }
        })
        .collect()
}

/// One pass of searches over the family, each timed as a `search` span,
/// with the workload's checks: the reported wait is the schedule's
/// recomputed formula-1 wait and lies between the analytic lower bound
/// and the sorting heuristic. Inserts the `search.*` metrics.
pub fn replay(toy: bool, tracer: &mut Tracer, out: &mut Outcome) {
    let instances = family(&sizes(toy));
    let opts = BestFirstOptions::default();
    // expanded, generated, table probes, table hits, bound work, bound
    // evaluations.
    let mut counters = [0u64; 6];
    let (mut searches, mut search_ms, mut peak_arena) = (0u64, 0.0, 0u64);
    for (op, inst) in instances.iter().enumerate() {
        out.attempted += 1;
        let span = tracer.begin("search", None, op as u64);
        let result = best_first::search(&inst.tree, CHANNELS, &opts);
        tracer.end(span);
        let Ok(r) = result else {
            out.fail("search hit a node limit it was not given");
            continue;
        };
        searches += 1;
        search_ms += tracer.duration_ns(span) as f64 / 1e6;
        let eps = 1e-9 * r.data_wait.abs().max(1.0);
        let recomputed = r.schedule.average_data_wait(&inst.tree);
        if r.data_wait.to_bits() != recomputed.to_bits() {
            out.fail("search data_wait differs from its schedule's recomputed wait");
        }
        if r.data_wait < inst.lower - eps || r.data_wait > inst.heuristic + eps {
            out.fail("optimum outside [lower bound, sorting heuristic]");
        }
        let st = r.stats;
        for (c, v) in counters.iter_mut().zip([
            r.nodes_expanded,
            r.nodes_generated,
            st.table_probes,
            st.table_hits,
            st.bound_work,
            st.bound_inc_updates + st.bound_full_evals,
        ]) {
            *c += v;
        }
        peak_arena = peak_arena.max(st.peak_arena_bytes);
    }
    let per_search = |c: u64| c as f64 / searches as f64;
    let m = &mut out.metrics;
    m.insert("search.expanded", per_search(counters[0]));
    m.insert("search.generated", per_search(counters[1]));
    m.insert(
        "search.expand_ratio",
        counters[0] as f64 / counters[1] as f64,
    );
    m.insert(
        "search.ns_per_expanded",
        search_ms * 1e6 / counters[0] as f64,
    );
    m.insert(
        "search.dominance_hit_rate",
        counters[3] as f64 / counters[2] as f64,
    );
    m.insert(
        "search.bound_work_per_state",
        counters[4] as f64 / counters[5] as f64,
    );
    m.insert("search.peak_arena_mb", peak_arena as f64 / (1 << 20) as f64);
    eprintln!(
        "search replay: {searches} searches, expanded {} generated {}",
        counters[0], counters[1]
    );
}
