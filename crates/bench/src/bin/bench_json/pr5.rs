//! PR 5: lossy-channel serving on the PR-3 workload — the
//! `FaultPlan::none()` fast path as the regression guard against the PR-3
//! numbers, plus one row per standard fault-grid channel condition.

use crate::report::{extract_object, field_f64};
use bcast_channel::{
    BroadcastProgram, CompiledProgram, FaultPlan, GilbertElliott, RecoveryPolicy, ServeOptions,
};
use bcast_core::heuristics::sorting;
use bcast_index_tree::knary;
use bcast_types::NodeId;
use bcast_workloads::{FrequencyDist, RequestStream};
use std::time::Instant;

/// Lossy-channel serving: the same Fig-14 workload and request stream as
/// the PR-3 section, served through `serve_batch` under each channel
/// condition of `bcast_workloads::standard_scenarios()`. The zero-fault
/// row uses `FaultPlan::none()` — the dedicated fast path — and is the
/// regression guard against the pre-fault engine (BENCH_PR3.json `after`).
/// Returns the full PR-5 JSON document.
pub fn report(pr3: Option<&str>) -> String {
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
    let compiled = CompiledProgram::compile(&program, &tree).expect("routable");
    let data = tree.data_nodes();
    let targets: Vec<NodeId> = RequestStream::zipf(data.len(), 1.0, 3)
        .take(REQUESTS)
        .map(|i| data[i])
        .collect();
    let policy = RecoveryPolicy::default();

    // Zero-fault guard: FaultPlan::none() must take the pre-PR5 fast path.
    let base = ServeOptions {
        threads: 1,
        seed: 0x5EED,
        ..ServeOptions::default()
    };
    let mut zero_s = f64::INFINITY;
    let mut zero_mean = 0.0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let m = compiled.serve_batch(&targets, &base).expect("routable");
        zero_s = zero_s.min(t0.elapsed().as_secs_f64());
        zero_mean = m.mean_access_time;
    }
    let zero_rps = REQUESTS as f64 / zero_s;
    let pr3_after_rps = pr3
        .and_then(|text| extract_object(text, "\"after\":"))
        .and_then(|obj| field_f64(&obj, "rps"));
    eprintln!(
        "faults-bench: zero-fault {zero_rps:.0} rps (PR3 after: {})",
        pr3_after_rps.map_or("n/a".into(), |r| format!("{r:.0} rps"))
    );

    let mut rows = Vec::new();
    for scenario in bcast_workloads::standard_scenarios() {
        let plan = match scenario.burst {
            Some(b) => FaultPlan::gilbert_elliott(
                GilbertElliott {
                    p_good_to_bad: b.p_good_to_bad,
                    p_bad_to_good: b.p_bad_to_good,
                    loss_good: b.loss_good,
                    loss_bad: b.loss_bad,
                },
                0x5EED,
            )
            .expect("preset probabilities are valid"),
            None => FaultPlan::erasure(scenario.erasure_p, 0x5EED).expect("preset p is valid"),
        };
        let opts = ServeOptions {
            faults: plan,
            recovery: policy,
            ..base
        };
        let mut wall_s = f64::INFINITY;
        let mut metrics = None;
        for _ in 0..2 {
            let t0 = Instant::now();
            let m = compiled.serve_batch(&targets, &opts).expect("routable");
            wall_s = wall_s.min(t0.elapsed().as_secs_f64());
            metrics = Some(m);
        }
        let m = metrics.expect("at least one run");
        if scenario.expected_loss() == 0.0 {
            // The lossy engine at zero loss reproduces the fast path.
            assert_eq!(m.delivery_rate(), 1.0, "clean scenario lost requests");
            assert!(
                (m.mean_access_time - zero_mean).abs() < 1e-9,
                "lossy engine at p=0 disagrees with the fast path"
            );
        }
        let rps = REQUESTS as f64 / wall_s;
        eprintln!(
            "faults-bench: {} {rps:.0} rps, {:.4} delivered, +{:.3} wait",
            scenario.name,
            m.delivery_rate(),
            m.mean_extra_wait
        );
        rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"expected_loss\": {:.4}, ",
                "\"wall_s\": {:.3}, \"rps\": {:.0}, \"delivery_rate\": {:.6}, ",
                "\"failed\": {}, \"retries_per_request\": {:.4}, ",
                "\"mean_extra_wait_slots\": {:.3}, ",
                "\"mean_access_time_slots\": {:.3}}}"
            ),
            scenario.name,
            scenario.expected_loss(),
            wall_s,
            rps,
            m.delivery_rate(),
            m.failed,
            m.retries as f64 / REQUESTS as f64,
            m.mean_extra_wait,
            m.mean_access_time,
        ));
    }
    format!(
        concat!(
            "{{\n  \"pr\": 5,\n",
            "  \"description\": \"lossy-channel serving on the PR-3 workload ",
            "(Fig-14 N(100,30), {} items, fanout {}, {} channels, 1M-request ",
            "Zipf(1.0) stream, 1 thread, default recovery policy): zero_fault ",
            "= FaultPlan::none() through the unchanged fast path (regression ",
            "guard vs BENCH_PR3.json after); scenarios = the standard fault ",
            "grid served through the recovery engine; the clean scenario is ",
            "cross-checked against the fast path to 1e-9\",\n",
            "  \"machine\": \"{machine}\",\n",
            "  \"zero_fault\": {{\"wall_s\": {:.3}, \"rps\": {:.0}, ",
            "\"mean_access_time_slots\": {:.3}, \"pr3_after_rps\": {}, ",
            "\"vs_pr3\": {}}},\n",
            "  \"scenarios\": [\n{}\n  ]\n}}\n"
        ),
        ITEMS,
        FANOUT,
        CHANNELS,
        zero_s,
        zero_rps,
        zero_mean,
        pr3_after_rps.map_or("null".into(), |r| format!("{r:.0}")),
        pr3_after_rps.map_or("null".into(), |r| format!("{:.3}", zero_rps / r)),
        rows.join(",\n"),
        machine = crate::report::machine_label(),
    )
}
