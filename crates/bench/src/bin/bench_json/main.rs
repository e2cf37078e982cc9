//! `bench_json` — machine-readable perf trajectory for the exact engines.
//!
//! One module per PR maintains one report file; this root parses the
//! `--*-into` flags and hands each section its regression baselines
//! (usually the previous PRs' freshly written files). The shared
//! plumbing — JSON fragment scanning and the write-and-announce step —
//! lives in [`report`].
//!
//! * [`pr2`] → `BENCH_PR2.json` (`--merge-into`): the sequential pruned
//!   best-first search on the fixed instances of
//!   `benches/search_strategies.rs`. The first run on a machine records
//!   the `before` section; later runs only replace `after`.
//! * [`pr3`] → `BENCH_PR3.json` (`--serving-into`): scalar
//!   `simulator::access` loop vs compiled `serve_batch` on a 1M-request
//!   Zipf stream, means cross-checked before the numbers are written.
//! * [`pr4`] → `BENCH_PR4.json` (`--publish-into`): end-to-end publish
//!   build time at 65k/1M/4M items — vendored pre-PR4 [`seed_pipeline`]
//!   (measured once per machine, carried forward), the current
//!   `Schedule`-API three-pass, and the fused `Publisher`.
//! * [`pr5`] → `BENCH_PR5.json` (`--faults-into`): lossy-channel serving;
//!   the `FaultPlan::none()` zero-fault row guards against PR 3.
//! * [`pr6`] → `BENCH_PR6.json` (`--serve-into`): live multi-tenant
//!   serving, sustained and per canonical scenario, asserted SLO-clean.
//! * [`pr8`] → `BENCH_PR8.json` (`--kernel-into`): the chunked serve
//!   kernel vs the scalar oracle (interleaved, bit-identical, 65k row
//!   asserted ≥1.3×) and the 1M-item snapshot cold-start vs the full
//!   warm publish (asserted ≥100×).
//! * [`pr9`] → `BENCH_PR9.json` (`--service-into`): the steady-state
//!   service slice vs the raw kernel ceiling (asserted ≥0.70×) plus the
//!   zero-allocation steady window.
//! * [`pr10`] → `BENCH_PR10.json` (`--robust-into`): checkpointing
//!   overhead over the steady loop (asserted ≤5%) and cold
//!   restore-to-serving at snapshot scale (asserted ≤50 ms), both
//!   cross-checked bit-identical.
//!
//! Wall times are the minimum over several runs after a warmup — the most
//! reproducible point statistic for a CPU-bound workload on a shared box.

mod pr10;
mod pr2;
mod pr3;
mod pr4;
mod pr5;
mod pr6;
mod pr8;
mod pr9;
mod report;
mod seed_pipeline;

/// With the `alloc-count` feature the binary installs the counting global
/// allocator, so BENCH_PR4.json carries real heap-allocation counts for the
/// before/after publish paths (`make publish-bench` builds this way).
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: bcast_types::alloc_counter::CountingAlloc = bcast_types::alloc_counter::CountingAlloc;

#[cfg(feature = "alloc-count")]
fn allocation_count() -> u64 {
    bcast_types::alloc_counter::allocation_count()
}

#[cfg(not(feature = "alloc-count"))]
fn allocation_count() -> u64 {
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut merge_into = None;
    let mut serving_into = None;
    let mut publish_into = None;
    let mut faults_into = None;
    let mut serve_into = None;
    let mut kernel_into = None;
    let mut service_into = None;
    let mut robust_into = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--merge-into", Some(path)) => merge_into = Some(path.clone()),
            ("--serving-into", Some(path)) => serving_into = Some(path.clone()),
            ("--publish-into", Some(path)) => publish_into = Some(path.clone()),
            ("--faults-into", Some(path)) => faults_into = Some(path.clone()),
            ("--serve-into", Some(path)) => serve_into = Some(path.clone()),
            ("--kernel-into", Some(path)) => kernel_into = Some(path.clone()),
            ("--service-into", Some(path)) => service_into = Some(path.clone()),
            ("--robust-into", Some(path)) => robust_into = Some(path.clone()),
            _ => {
                eprintln!(
                    "usage: bench_json [--merge-into FILE] [--serving-into FILE] \
                     [--publish-into FILE] [--faults-into FILE] [--serve-into FILE] \
                     [--kernel-into FILE] [--service-into FILE] [--robust-into FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    // `--publish-into` alone (the `make publish-bench` target) skips the
    // exact-search section so the publish numbers regenerate quickly.
    let publish_only = publish_into.is_some()
        && merge_into.is_none()
        && serving_into.is_none()
        && faults_into.is_none()
        && serve_into.is_none()
        && kernel_into.is_none()
        && service_into.is_none()
        && robust_into.is_none();
    if let Some(path) = &publish_into {
        let previous = std::fs::read_to_string(path).ok();
        report::write(path, pr4::report(previous.as_deref()));
    }
    if publish_only {
        return;
    }
    if let Some(path) = &serving_into {
        report::write(path, pr3::report());
    }
    if let Some(path) = &faults_into {
        // The freshly written PR-3 file supplies the regression baseline.
        let pr3 = serving_into
            .as_deref()
            .and_then(|p| std::fs::read_to_string(p).ok());
        report::write(path, pr5::report(pr3.as_deref()));
    }
    if let Some(path) = &serve_into {
        // The freshly written PR-5 file supplies the raw-engine context row.
        let pr5 = faults_into
            .as_deref()
            .and_then(|p| std::fs::read_to_string(p).ok());
        report::write(path, pr6::report(pr5.as_deref()));
    }
    // `--kernel-into` alone (the `make snapshot-bench` target) likewise
    // runs only the PR-8 section, carrying its regression baselines
    // forward from the files on disk.
    let kernel_only = kernel_into.is_some()
        && merge_into.is_none()
        && serving_into.is_none()
        && publish_into.is_none()
        && faults_into.is_none()
        && serve_into.is_none()
        && service_into.is_none()
        && robust_into.is_none();
    if let Some(path) = &kernel_into {
        let pr5 = std::fs::read_to_string("BENCH_PR5.json").ok();
        report::write(path, pr8::report(pr5.as_deref()));
    }
    if kernel_only {
        return;
    }
    // `--service-into` alone (the `make serve-bench` target) likewise
    // runs only the PR-9 section, carrying its regression baselines
    // forward from the files on disk.
    let service_only = service_into.is_some()
        && merge_into.is_none()
        && serving_into.is_none()
        && publish_into.is_none()
        && faults_into.is_none()
        && serve_into.is_none()
        && kernel_into.is_none()
        && robust_into.is_none();
    if let Some(path) = &service_into {
        let pr5 = std::fs::read_to_string("BENCH_PR5.json").ok();
        let pr6 = std::fs::read_to_string("BENCH_PR6.json").ok();
        let pr8 = std::fs::read_to_string("BENCH_PR8.json").ok();
        report::write(
            path,
            pr9::report(pr5.as_deref(), pr6.as_deref(), pr8.as_deref()),
        );
    }
    if service_only {
        return;
    }
    // `--robust-into` alone (the `make robust-bench` target) likewise
    // runs only the PR-10 section, carrying its regression baselines
    // forward from the files on disk.
    let robust_only = robust_into.is_some()
        && merge_into.is_none()
        && serving_into.is_none()
        && publish_into.is_none()
        && faults_into.is_none()
        && serve_into.is_none()
        && kernel_into.is_none()
        && service_into.is_none();
    if let Some(path) = &robust_into {
        let pr8 = std::fs::read_to_string("BENCH_PR8.json").ok();
        let pr9 = std::fs::read_to_string("BENCH_PR9.json").ok();
        report::write(path, pr10::report(pr8.as_deref(), pr9.as_deref()));
    }
    if robust_only {
        return;
    }
    let previous = merge_into
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok());
    let doc = pr2::report(previous.as_deref());
    match merge_into {
        Some(path) => report::write(&path, doc),
        None => print!("{doc}"),
    }
}
