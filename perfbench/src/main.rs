//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady_serve|drift_republish> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size toy]
//! ```
//!
//! One workload per process (so `peak_rss_mb` is that workload's own),
//! closed loop: each op is issued when the previous one returns, from
//! one process with at most two threads. `--trace 0` measures and
//! prints the end-to-end metrics; `--trace 1` runs the same op loop with
//! spans recorded around the benchmark's calls into the crates, replays
//! each layer on the workload's own fixture (and the crash path or the
//! exact search, which no end-to-end workload times), prints the
//! per-layer metrics and writes the spans to `.bench_build/perfbench/`.
//! Every run
//! checks its outputs; the last stdout line is the JSON result. See
//! `perfbench/README.md` for the workloads and the layer map.

mod search;
mod serve;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("requests_per_s", "1/s"),
    ("mean_access_slots", "slots"),
    ("p99_access_slots", "slots"),
    ("mean_data_wait", "slots"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. A
/// layer the workload never enters reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("op_ms_p90", "ms"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("serve.sample_ns_per_req", "ns"),
    ("serve.estimator_ns_per_req", "ns"),
    ("serve.kernel_ns_per_req", "ns"),
    ("serve.absorb_us_per_slice", "us"),
    ("serve.roll_epoch_us_per_slice", "us"),
    ("service.self_share", "ratio"),
    ("service.pool_imbalance_ppm", "ppm"),
    ("service.lane_busy_share", "ratio"),
    ("tenant.slice_ms", "ms"),
    ("tenant.rebuilds", "count"),
    ("tenant.skipped_rebuilds", "count"),
    ("tenant.alias_rebuilds", "count"),
    ("publish.tree_build_ms", "ms"),
    ("publish.sort_ms", "ms"),
    ("publish.assign_ms", "ms"),
    ("publish.compile_ms", "ms"),
    ("publish.residual_ms", "ms"),
    ("publish.retag_ms", "ms"),
    ("publish.nodes", "count"),
    ("publish.cycle_len", "slots"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.manifest_mb", "MB"),
    ("checkpoint.read_ms", "ms"),
    ("checkpoint.crc_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.first_slice_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("search.expanded", "count"),
    ("search.generated", "count"),
    ("search.expand_ratio", "ratio"),
    ("search.ns_per_expanded", "ns"),
    ("search.dominance_hit_rate", "ratio"),
    ("search.bound_work_per_state", "count"),
    ("search.peak_arena_mb", "MB"),
];

const WORKLOADS: &[&str] = &["steady_serve", "drift_republish"];

/// Scratch space inside the checkout: checkpoints and span files.
const WORK_ROOT: &str = ".bench_build/perfbench";

/// One run's settings.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes for the smoke test.
    pub toy: bool,
    /// Serving threads: two, or fewer if the machine has fewer.
    pub threads: usize,
    /// Per-process scratch directory (checkpoint manifests).
    pub work_dir: PathBuf,
}

/// What a workload hands back: counts, named metric values, and the
/// spans of a traced run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records a failed op or check; the run then reports `correct: false`.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {why}");
    }
}

/// SplitMix64 step — the benchmark's own seed expander.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut toy) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--size" => {
                toy = match value()?.as_str() {
                    "toy" => true,
                    "full" => false,
                    other => return Err(format!("--size takes toy or full, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let work_dir = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
        threads: sys::available_parallelism().min(2),
        work_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"size\": \"{}\", \"available_parallelism\": {}, \"threads\": {}, \
         \"checkpoint_fs\": \"{}\", \"commit\": \"{}\"}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        if cfg.toy { "toy" } else { "full" },
        sys::available_parallelism(),
        cfg.threads,
        sys::fs_type(&cfg.work_dir),
        sys::commit()
    );

    let mut out = serve::run(&cfg, &cfg.workload);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out.metrics.insert("peak_rss_mb", sys::peak_rss_mb());

    let names = if cfg.trace {
        if let (Some(traced), Some(plain)) = (
            out.metrics.get("trace.op_ms_p50"),
            out.metrics.get("op_ms_p50"),
        ) {
            out.metrics.insert("trace.overhead_ms", traced - plain);
        }
        if let Some(tracer) = &out.tracer {
            let path = PathBuf::from(WORK_ROOT)
                .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
            if let Err(e) = tracer.write_jsonl(&path) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("perfbench: spans written to {}", path.display());
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    let mut json = String::new();
    for (name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload never enters did no work in it.
            None if cfg.trace => 0.0,
            None => {
                eprintln!("perfbench: workload did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number ({value})");
            return ExitCode::FAILURE;
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = out.failed == 0 && out.attempted > 0;
    eprintln!(
        "perfbench: {} ops attempted, {} failed (failed_share {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted, out.failed
    );
    ExitCode::SUCCESS
}
