//! PR 8: the compact chunked serve kernel and zero-copy program
//! snapshots. The kernel section serves the same 1M-request Zipf(1.0)
//! stream through the scalar reference loop (`serve_batch_scalar`, the
//! bit-identity oracle) and the chunked kernel (`serve_batch`) at 65k and
//! 1M items — iterations are *interleaved* and the minimum taken per
//! path, because the reference container drifts between throughput
//! phases and back-to-back pairs are the only honest comparison. Metrics
//! are asserted bit-identical every iteration and the 65k speedup is
//! asserted ≥1.3× before the file is written. The snapshot section
//! measures the 1M-item cold-start on a random max-fanout-64 Zipf(0.9)
//! tree (whose warm full publish is the ~0.44 s a joining tenant would
//! otherwise pay): `cold_start_s` is
//! `MappedSnapshot::open` + checksum-and-invariant verify — the
//! zero-copy load the acceptance names, asserted ≥100× faster than the
//! warm publish — and `install_s` is the further `to_program`
//! materialization, reported alongside and asserted bit-identical to
//! the captured program.

use crate::report::{extract_object, field_f64};
use bcast_channel::{MappedSnapshot, ServeOptions};
use bcast_core::{PublishHeuristic, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_types::NodeId;
use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig, RequestStream};
use std::time::Instant;

const CHANNELS: usize = 3;
const FANOUT: usize = 4;
const REQUESTS: usize = 1_000_000;

/// The snapshot cold-start vs the warm full publish it displaces, on
/// the 1M-item random tree. Returns the `"snapshot"` JSON object.
fn snapshot_section() -> String {
    // The warm full publish of this tree is the "0.44 s a tenant
    // cold-start pays" number this section's speedup is against.
    let cfg = RandomTreeConfig {
        data_nodes: 1_000_000,
        max_fanout: 64,
        weights: FrequencyDist::Zipf {
            theta: 0.9,
            scale: 1_000_000.0,
        },
    };
    let tree = random_tree(&cfg, 7);
    let publish_opts = PublishOptions { threads: 1 };
    let mut publisher = Publisher::new();
    let mut full_warm_s = f64::INFINITY;
    for _ in 0..4 {
        let t0 = Instant::now();
        publisher
            .publish(&tree, CHANNELS, PublishHeuristic::Sorting, publish_opts)
            .expect("feasible");
        full_warm_s = full_warm_s.min(t0.elapsed().as_secs_f64());
    }
    let image = publisher.snapshot_image(&tree);
    let path = std::env::temp_dir().join("bcast_bench_pr8.snap");
    let t0 = Instant::now();
    image.save(&path).expect("write snapshot");
    let save_s = t0.elapsed().as_secs_f64();

    // The cold-start a joining tenant pays before it can adopt the
    // program: map the image and verify the checksum + invariants
    // (zero-copy — the validated view borrows the page cache). The
    // first iteration also pays the physical read; with the image in
    // page cache (the steady state the boot cache hits) the minimum is
    // the honest cold-start figure.
    let mut cold_s = f64::INFINITY;
    let mut install_s = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        let mapped = MappedSnapshot::open(&path).expect("just written");
        let view = mapped.view().expect("self-captured image");
        cold_s = cold_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let program = view.to_program();
        install_s = install_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            program,
            *publisher.current(),
            "snapshot round-trip is not bit-identical"
        );
    }
    std::fs::remove_file(&path).ok();

    let speedup = full_warm_s / cold_s;
    assert!(
        speedup >= 100.0,
        "acceptance: 1M snapshot cold-start ({cold_s:.6}s) is only \
         {speedup:.1}x faster than the full warm publish ({full_warm_s:.4}s)"
    );
    eprintln!(
        "kernel-bench: snapshot cold-start {cold_s:.6}s (+ install \
         {install_s:.6}s) vs full warm publish {full_warm_s:.4}s \
         ({speedup:.0}x, >=100x required)"
    );
    format!(
        concat!(
            "{{\"items\": {}, \"nodes\": {}, \"bytes\": {}, ",
            "\"full_publish_warm_s\": {:.4}, ",
            "\"save_s\": {:.6}, \"cold_start_s\": {:.6}, \"install_s\": {:.6}, ",
            "\"speedup_vs_full_publish\": {:.0}, \"asserted_min_speedup\": 100, ",
            "\"round_trip_bit_identical\": true}}"
        ),
        tree.data_nodes().len(),
        tree.len(),
        image.byte_len(),
        full_warm_s,
        save_s,
        cold_s,
        install_s,
        speedup
    )
}

/// Returns the full PR-8 JSON document.
pub fn report(pr5: Option<&str>) -> String {
    let opts = ServeOptions {
        threads: 1,
        seed: 0x5EED,
        ..ServeOptions::default()
    };
    let publish_opts = PublishOptions { threads: 1 };
    // (items, interleaved timed iterations per kernel)
    let sizes: [(usize, usize); 2] = [(65_536, 6), (1_000_000, 3)];
    let mut kernel_rows = Vec::new();
    let mut speedup_65k = 0.0f64;
    for (items, iters) in sizes {
        let t0 = Instant::now();
        let weights = FrequencyDist::paper_fig14(30.0).sample(items, 14);
        let tree = knary::build_weight_balanced(&weights, FANOUT).expect("non-empty");
        let mut publisher = Publisher::new();
        for _ in 0..2 {
            publisher
                .publish(&tree, CHANNELS, PublishHeuristic::Sorting, publish_opts)
                .expect("feasible");
        }
        eprintln!(
            "kernel-bench: {items} items -> {} nodes (built in {:.2}s)",
            tree.len(),
            t0.elapsed().as_secs_f64()
        );
        let data = tree.data_nodes();
        let targets: Vec<NodeId> = RequestStream::zipf(data.len(), 1.0, 3)
            .take(REQUESTS)
            .map(|i| data[i])
            .collect();

        // One short warmup per path, then interleaved timed iterations.
        let compiled = publisher.current();
        compiled
            .serve_batch_scalar(&targets[..10_000], &opts)
            .expect("routable");
        compiled
            .serve_batch(&targets[..10_000], &opts)
            .expect("routable");
        let mut scalar_s = f64::INFINITY;
        let mut chunked_s = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let ms = compiled
                .serve_batch_scalar(&targets, &opts)
                .expect("routable");
            scalar_s = scalar_s.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let mc = compiled.serve_batch(&targets, &opts).expect("routable");
            chunked_s = chunked_s.min(t0.elapsed().as_secs_f64());
            assert!(
                ms == mc,
                "{items} items: chunked metrics diverged from the scalar oracle"
            );
        }
        let before_rps = REQUESTS as f64 / scalar_s;
        let after_rps = REQUESTS as f64 / chunked_s;
        let speedup = after_rps / before_rps;
        if items == 65_536 {
            speedup_65k = speedup;
        }
        eprintln!(
            "kernel-bench: {items} items scalar {before_rps:.0} rps, \
             chunked {after_rps:.0} rps ({speedup:.2}x)"
        );
        kernel_rows.push(format!(
            concat!(
                "    {{\"items\": {}, \"nodes\": {}, \"cycle_len\": {}, ",
                "\"before\": {{\"path\": \"serve_batch_scalar\", ",
                "\"wall_s\": {:.4}, \"rps\": {:.0}}}, ",
                "\"after\": {{\"path\": \"serve_batch (chunked)\", ",
                "\"wall_s\": {:.4}, \"rps\": {:.0}}}, ",
                "\"speedup\": {:.2}, \"metrics_bit_identical\": true}}"
            ),
            items,
            tree.len(),
            publisher.current().cycle_len(),
            scalar_s,
            before_rps,
            chunked_s,
            after_rps,
            speedup
        ));
    }
    let snapshot_obj = snapshot_section();
    // The tentpole's kernel acceptance: ≥1.3× on the 65k Fig-14 workload.
    assert!(
        speedup_65k >= 1.3,
        "acceptance: chunked kernel is only {speedup_65k:.2}x the scalar \
         oracle at 65k items (>=1.3x required)"
    );

    // Regression guard carried forward from the earlier reports: the
    // PR-5 zero-fault path must stay within 10% of the PR-3 kernel.
    let pr5_zero_fault = pr5.and_then(|text| extract_object(text, "\"zero_fault\":"));
    let pr5_rps = pr5_zero_fault
        .as_deref()
        .and_then(|obj| field_f64(obj, "rps"));
    if let Some(vs_pr3) = pr5_zero_fault
        .as_deref()
        .and_then(|obj| field_f64(obj, "vs_pr3"))
    {
        assert!(
            vs_pr3 >= 0.9,
            "regression: PR-5 zero-fault path at {vs_pr3:.3}x the PR-3 kernel (>=0.9 required)"
        );
    }
    let fmt = |v: Option<f64>, digits: usize| v.map_or("null".into(), |x| format!("{x:.digits$}"));
    format!(
        concat!(
            "{{\n  \"pr\": 8,\n",
            "  \"description\": \"compact chunked serve kernel + zero-copy ",
            "program snapshots (Fig-14 N(100,30) workload, fanout {}, {} ",
            "channels, sorting heuristic, 1M-request Zipf(1.0) stream, 1 ",
            "thread): kernel rows interleave scalar-oracle and chunked ",
            "iterations (min per path) with BatchMetrics asserted ",
            "bit-identical every iteration and the 65k speedup asserted ",
            ">=1.3x; snapshot = 1M-item cold-start on a random ",
            "max-fanout-64 Zipf(0.9) workload: cold_start_s is ",
            "MappedSnapshot::open + checksum/invariant verify (zero-copy, ",
            "page-cache warm), asserted >=100x faster than the warm full ",
            "publish it displaces, and install_s is the further to_program ",
            "materialization, asserted bit-identical; pr5_zero_fault_rps ",
            "is carried forward from its report as an asserted regression ",
            "guard (zero-fault vs_pr3 >= 0.9)\",\n",
            "  \"machine\": \"{machine}\",\n",
            "  \"kernel\": {{\"requests\": {}, \"asserted_min_speedup_65k\": 1.3, ",
            "\"sizes\": [\n{}\n  ]}},\n",
            "  \"snapshot\": {},\n",
            "  \"regression\": {{\"pr5_zero_fault_rps\": {}}}\n}}\n"
        ),
        FANOUT,
        CHANNELS,
        REQUESTS,
        kernel_rows.join(",\n"),
        snapshot_obj,
        fmt(pr5_rps, 0),
        machine = crate::report::machine_label(),
    )
}
