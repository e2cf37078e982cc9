//! PR 2: the sequential pruned best-first search (Packed bound,
//! Property 1) on the fixed instances of `benches/search_strategies.rs` —
//! wall time and search counters, before vs after the incremental-bound +
//! interned dominance table change. The first run on a machine records
//! the `before` section; later runs only replace `after`.

use crate::report::extract_object;
use bcast_core::best_first::{self, BestFirstOptions};
use bcast_index_tree::{builders, IndexTree};
use bcast_workloads::FrequencyDist;
use std::time::Instant;

/// (name, tree, k, timed runs): mirrors the bench suite's instances.
fn instances() -> Vec<(String, IndexTree, usize, usize)> {
    let mut out = vec![("paper".to_string(), builders::paper_example(), 2, 32)];
    for m in [2usize, 3] {
        let weights = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 }.sample(m * m, 99);
        out.push((
            format!("balanced-m{m}"),
            builders::full_balanced(m, 3, &weights).expect("valid shape"),
            2,
            16,
        ));
    }
    let weights = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 }.sample(27, 99);
    out.push((
        "balanced-d4".to_string(),
        builders::full_balanced(3, 4, &weights).expect("valid shape"),
        2,
        5,
    ));
    out
}

fn measure(name: &str, tree: &IndexTree, k: usize, runs: usize) -> String {
    let opts = BestFirstOptions::default();
    let mut best_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..=runs {
        let t0 = Instant::now();
        let r = best_first::search(tree, k, &opts).expect("no node limit set");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // The 0th iteration is warmup; it still provides the result.
        if result.is_some() {
            best_ms = best_ms.min(ms);
        }
        result = Some(r);
    }
    let r = result.expect("at least one run");
    let s = r.stats;
    let bound_per_state = if r.nodes_generated == 0 {
        0.0
    } else {
        s.bound_work as f64 / (s.bound_inc_updates + s.bound_full_evals).max(1) as f64
    };
    format!(
        concat!(
            "{{\"instance\": \"{}\", \"k\": {}, \"wall_ms\": {:.3}, ",
            "\"expanded\": {}, \"generated\": {}, ",
            "\"bound_full_evals\": {}, \"bound_inc_updates\": {}, ",
            "\"bound_work\": {}, \"bound_work_per_state\": {:.3}, ",
            "\"table_probes\": {}, \"table_hits\": {}, ",
            "\"peak_arena_bytes\": {}}}"
        ),
        name,
        k,
        best_ms,
        r.nodes_expanded,
        r.nodes_generated,
        s.bound_full_evals,
        s.bound_inc_updates,
        s.bound_work,
        bound_per_state,
        s.table_probes,
        s.table_hits,
        s.peak_arena_bytes
    )
}

fn run_section() -> String {
    let runs: Vec<String> = instances()
        .iter()
        .map(|(name, tree, k, n)| format!("    {}", measure(name, tree, *k, *n)))
        .collect();
    format!("{{\"runs\": [\n{}\n  ]}}", runs.join(",\n"))
}

/// Assembles the full PR-2 document, preserving a previously recorded
/// `before` section when one exists.
pub fn report(previous: Option<&str>) -> String {
    let current = run_section();
    let before = previous.and_then(|text| extract_object(text, "\"before\":"));
    let (before, after) = match before {
        Some(b) => (b, current),
        None => (current, "null".to_string()),
    };
    format!(
        concat!(
            "{{\n  \"pr\": 2,\n",
            "  \"description\": \"sequential pruned best-first (Packed bound, ",
            "Property 1): wall time and search counters, before vs after the ",
            "incremental-bound + interned dominance table change\",\n",
            "  \"machine\": \"{machine}\",\n",
            "  \"before\": {},\n  \"after\": {}\n}}\n"
        ),
        before,
        after,
        machine = crate::report::machine_label(),
    )
}
