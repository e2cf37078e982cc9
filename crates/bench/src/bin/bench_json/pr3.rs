//! PR 3: serving throughput — the scalar pointer-walking
//! `simulator::access` loop vs the compiled route tables' `serve_batch`
//! on a one-million-request Zipf stream over a Fig-14 workload.

use bcast_channel::{simulator, BroadcastProgram, CompiledProgram, ServeOptions};
use bcast_core::heuristics::sorting;
use bcast_index_tree::knary;
use bcast_types::NodeId;
use bcast_workloads::{FrequencyDist, RequestStream};
use std::time::Instant;

/// Serving throughput: the scalar `access()` loop vs the compiled batched
/// engine on the same 1M-request Zipf stream over a Fig-14 workload.
/// Returns the full PR-3 JSON document.
pub fn report() -> String {
    const ITEMS: usize = 65_536;
    const REQUESTS: usize = 1_000_000;
    const CHANNELS: usize = 3;
    const FANOUT: usize = 4;
    let weights = FrequencyDist::paper_fig14(30.0).sample(ITEMS, 14);
    let tree = knary::build_weight_balanced(&weights, FANOUT).expect("non-empty");
    let alloc = sorting::sorting_schedule(&tree, CHANNELS)
        .into_allocation(&tree, CHANNELS)
        .expect("feasible");
    let program = BroadcastProgram::build(&alloc, &tree).expect("valid program");
    let data = tree.data_nodes();
    let targets: Vec<NodeId> = RequestStream::zipf(data.len(), 1.0, 3)
        .take(REQUESTS)
        .map(|i| data[i])
        .collect();
    let opts = ServeOptions {
        threads: 1,
        seed: 0x5EED,
        ..ServeOptions::default()
    };

    // Before: the scalar pointer-walking loop (one warmup slice, one timed
    // full pass — it is the slow baseline).
    for (i, &t) in targets.iter().take(10_000).enumerate() {
        let tune = opts.tune_in(i as u64, program.cycle_len());
        simulator::access(&program, &tree, t, tune).expect("reachable");
    }
    let t0 = Instant::now();
    let mut scalar_sum = 0u64;
    for (i, &t) in targets.iter().enumerate() {
        let tune = opts.tune_in(i as u64, program.cycle_len());
        let trace = simulator::access(&program, &tree, t, tune).expect("reachable");
        scalar_sum += u64::from(trace.access_time());
    }
    let scalar_s = t0.elapsed().as_secs_f64();

    // After: compile once, then the batched table reads; min over 3 runs.
    let t0 = Instant::now();
    let compiled = CompiledProgram::compile(&program, &tree).expect("routable");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut batch_s = f64::INFINITY;
    let mut batch_mean = 0.0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let m = compiled.serve_batch(&targets, &opts).expect("routable");
        batch_s = batch_s.min(t0.elapsed().as_secs_f64());
        batch_mean = m.mean_access_time;
    }
    let scalar_mean = scalar_sum as f64 / REQUESTS as f64;
    assert!(
        (scalar_mean - batch_mean).abs() < 1e-9,
        "scalar mean {scalar_mean} vs batched mean {batch_mean}: paths disagree"
    );
    let before_rps = REQUESTS as f64 / scalar_s;
    let after_rps = REQUESTS as f64 / batch_s;
    format!(
        concat!(
            "{{\n  \"pr\": 3,\n",
            "  \"description\": \"serving throughput on a 1M-request ",
            "Zipf(1.0) stream, Fig-14 N(100,30) workload ({} items, ",
            "fanout {}, {} channels): scalar pointer-walking access() loop ",
            "vs compiled route tables (serve_batch, 1 thread); identical ",
            "request sequence, means cross-checked to 1e-9\",\n",
            "  \"machine\": \"{machine}\",\n",
            "  \"compile_ms\": {:.3},\n",
            "  \"mean_access_time_slots\": {:.3},\n",
            "  \"before\": {{\"path\": \"scalar simulator::access\", ",
            "\"requests\": {}, \"wall_s\": {:.3}, \"rps\": {:.0}}},\n",
            "  \"after\": {{\"path\": \"CompiledProgram::serve_batch\", ",
            "\"requests\": {}, \"wall_s\": {:.4}, \"rps\": {:.0}}},\n",
            "  \"speedup\": {:.1}\n}}\n"
        ),
        ITEMS,
        FANOUT,
        CHANNELS,
        compile_ms,
        batch_mean,
        REQUESTS,
        scalar_s,
        before_rps,
        REQUESTS,
        batch_s,
        after_rps,
        after_rps / before_rps,
        machine = crate::report::machine_label(),
    )
}
