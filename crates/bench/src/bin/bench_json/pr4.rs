//! PR 4: end-to-end publish build time at 65k/1M/4M items for three
//! paths — the vendored pre-PR4 pipeline (`seed_pipeline`, quadratic;
//! measured once per machine and carried forward), the current
//! `Schedule`-API three-pass, and the fused `Publisher` (cold and warm).

use crate::report::{extract_object, field_f64};
use bcast_channel::{BroadcastProgram, CompiledProgram};
use bcast_core::heuristics::sorting;
use bcast_core::{PublishHeuristic, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_workloads::FrequencyDist;
use std::time::Instant;

/// Looks up a carried-forward seed measurement for `items` inside a
/// previously written `"seed"` object. `None` when absent or `null`.
fn carried_seed(seed_obj: &str, items: usize) -> Option<(f64, u64)> {
    let key = format!("\"{items}\":");
    let start = seed_obj.find(&key)? + key.len();
    let rest = seed_obj[start..].trim_start();
    if !rest.starts_with('{') {
        return None; // recorded as null (size where the seed is infeasible)
    }
    let entry = &rest[..=rest.find('}')?];
    let wall = field_f64(entry, "wall_s")?;
    let allocs = field_f64(entry, "allocs").unwrap_or(0.0) as u64;
    Some((wall, allocs))
}

/// The seed baseline at one size: min wall seconds, heap allocations, and
/// whether the numbers were carried forward from a previous report rather
/// than re-measured.
struct SeedCell {
    wall_s: f64,
    allocs: u64,
    carried: bool,
}

/// End-to-end publish build time at scale, three paths per size:
///
/// * **seed** — the pre-PR4 pipeline, vendored in [`seed_pipeline`]
///   (allocation-heavy walks, quadratic `1_To_k` dump). The true *before*
///   of PR 4. Quadratic cost makes it measurable only up to 1M items
///   (~6 s at 65k, ~25 min at 1M on the reference container), so it is
///   measured once per machine — `previous` carries the numbers forward on
///   regeneration — and recorded as `null` at 4M.
/// * **api** — the current `Schedule` → `Allocation` → `BroadcastProgram` →
///   `CompiledProgram` three-pass. Since PR 4 the legacy wrappers share the
///   fused engines, so this column isolates the remaining pass-structure
///   and allocation overhead that the fused `Publisher` removes.
/// * **after** — the fused `Publisher`, cold (fresh) and warm (republish
///   into reused buffers, the steady-state path).
///
/// Every path that runs is asserted bit-identical to the fused output
/// before any number is written. Returns the full PR-4 JSON document.
pub fn report(previous: Option<&str>) -> String {
    const CHANNELS: usize = 3;
    const FANOUT: usize = 4;
    // Largest size at which the quadratic seed path is still worth running.
    const SEED_MEASURABLE: usize = 1_000_000;
    let opts = PublishOptions { threads: 1 };
    let prev_seed = previous.and_then(|text| extract_object(text, "\"seed\":"));
    // (items, timed runs): fewer repetitions as size grows.
    let sizes: [(usize, usize); 3] = [(65_536, 5), (1_000_000, 3), (4_000_000, 1)];
    let mut rows = Vec::new();
    let mut seed_rows = Vec::new();
    let mut speedup_seed_1m = None;
    let mut speedup_api_1m = 0.0;
    for (items, runs) in sizes {
        let t0 = Instant::now();
        let weights = FrequencyDist::SelfSimilar {
            fraction: 0.2,
            total: 1e9,
        }
        .sample(items, 14);
        let tree = knary::build_weight_balanced(&weights, FANOUT).expect("non-empty");
        eprintln!(
            "publish-bench: {items} items -> {} nodes (tree built in {:.2}s)",
            tree.len(),
            t0.elapsed().as_secs_f64()
        );

        // Current-API three passes, min wall time over `runs`.
        let mut api_s = f64::INFINITY;
        let mut api_allocs = 0u64;
        let mut compiled_api = None;
        for _ in 0..runs {
            let a0 = crate::allocation_count();
            let t0 = Instant::now();
            let schedule = sorting::sorting_schedule(&tree, CHANNELS);
            let alloc = schedule.into_allocation(&tree, CHANNELS).expect("feasible");
            let program = BroadcastProgram::build(&alloc, &tree).expect("valid program");
            let compiled = CompiledProgram::compile(&program, &tree).expect("routable");
            api_s = api_s.min(t0.elapsed().as_secs_f64());
            api_allocs = crate::allocation_count() - a0;
            compiled_api = Some(compiled);
        }
        let compiled_api = compiled_api.expect("at least one run");
        eprintln!("publish-bench: {items} items current-API three-pass {api_s:.3}s");

        // After (cold): a fresh Publisher per run — first-build cost.
        let mut cold_s = f64::INFINITY;
        for _ in 0..runs {
            let mut publisher = Publisher::new();
            let t0 = Instant::now();
            publisher
                .publish(&tree, CHANNELS, PublishHeuristic::Sorting, opts)
                .expect("feasible");
            cold_s = cold_s.min(t0.elapsed().as_secs_f64());
        }

        // After (warm): steady-state republish into reused buffers — the
        // adaptive controller's operating point. Zero heap allocations.
        // Two warm-ups, so both halves of the double-buffered program are
        // sized before the measured runs.
        let mut publisher = Publisher::new();
        for _ in 0..2 {
            publisher
                .publish(&tree, CHANNELS, PublishHeuristic::Sorting, opts)
                .expect("feasible");
        }
        let mut warm_s = f64::INFINITY;
        let mut warm_allocs = 0u64;
        for _ in 0..runs {
            let a0 = crate::allocation_count();
            let t0 = Instant::now();
            publisher
                .publish(&tree, CHANNELS, PublishHeuristic::Sorting, opts)
                .expect("feasible");
            warm_s = warm_s.min(t0.elapsed().as_secs_f64());
            warm_allocs = crate::allocation_count() - a0;
        }
        assert_eq!(
            *publisher.current(),
            compiled_api,
            "fused and three-pass outputs diverged at {items} items"
        );
        eprintln!(
            "publish-bench: {items} items fused cold {cold_s:.3}s warm {warm_s:.3}s \
             ({:.1}x vs current API)",
            api_s / warm_s
        );

        // Seed baseline: carried forward when already on file, measured
        // (and verified bit-identical) otherwise, skipped above 1M.
        let seed = if let Some((wall_s, allocs)) =
            prev_seed.as_deref().and_then(|s| carried_seed(s, items))
        {
            eprintln!("publish-bench: {items} items seed three-pass {wall_s:.3}s (carried)");
            Some(SeedCell {
                wall_s,
                allocs,
                carried: true,
            })
        } else if items <= SEED_MEASURABLE {
            let seed_runs = if items >= SEED_MEASURABLE { 1 } else { 2 };
            let mut wall_s = f64::INFINITY;
            let mut allocs = 0u64;
            for _ in 0..seed_runs {
                let a0 = crate::allocation_count();
                let t0 = Instant::now();
                let compiled = crate::seed_pipeline::publish(&tree, CHANNELS);
                wall_s = wall_s.min(t0.elapsed().as_secs_f64());
                allocs = crate::allocation_count() - a0;
                assert_eq!(
                    compiled,
                    *publisher.current(),
                    "seed and fused outputs diverged at {items} items"
                );
            }
            eprintln!("publish-bench: {items} items seed three-pass {wall_s:.3}s");
            Some(SeedCell {
                wall_s,
                allocs,
                carried: false,
            })
        } else {
            eprintln!("publish-bench: {items} items seed three-pass skipped (quadratic)");
            None
        };

        if items == 1_000_000 {
            speedup_seed_1m = seed.as_ref().map(|s| s.wall_s / warm_s);
            speedup_api_1m = api_s / warm_s;
        }
        let (seed_s, seed_allocs, speedup_seed) = match &seed {
            Some(s) => (
                format!("{:.4}", s.wall_s),
                s.allocs.to_string(),
                format!("{:.1}", s.wall_s / warm_s),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        rows.push(format!(
            concat!(
                "    {{\"items\": {}, \"nodes\": {}, \"cycle_len\": {}, ",
                "\"seed_s\": {}, \"api_s\": {:.4}, \"after_cold_s\": {:.4}, ",
                "\"after_warm_s\": {:.4}, \"speedup_warm_vs_seed\": {}, ",
                "\"speedup_warm_vs_api\": {:.2}, \"allocs_seed\": {}, ",
                "\"allocs_api\": {}, \"allocs_warm\": {}}}"
            ),
            items,
            tree.len(),
            publisher.current().cycle_len(),
            seed_s,
            api_s,
            cold_s,
            warm_s,
            speedup_seed,
            api_s / warm_s,
            seed_allocs,
            api_allocs,
            warm_allocs,
        ));
        seed_rows.push(match &seed {
            Some(s) => format!(
                "    \"{}\": {{\"wall_s\": {:.4}, \"allocs\": {}, \"carried\": {}}}",
                items, s.wall_s, s.allocs, s.carried
            ),
            None => format!("    \"{items}\": null"),
        });
    }
    format!(
        concat!(
            "{{\n  \"pr\": 4,\n",
            "  \"description\": \"end-to-end publish build (sorting ",
            "heuristic, self-similar 80/20 weights, fanout 4, 3 channels, ",
            "1 thread): seed = the pre-PR4 three-pass pipeline (vendored; ",
            "quadratic 1_To_k dump), api = the current Schedule -> ",
            "Allocation -> BroadcastProgram -> CompiledProgram three-pass ",
            "(shares the PR-4 engines), after = the fused Publisher; every ",
            "path that runs is asserted bit-identical to the fused output; ",
            "warm = republish into reused buffers (the steady-state ",
            "path)\",\n",
            "  \"machine\": \"{machine}\",\n",
            "  \"alloc_counting\": {},\n",
            "  \"seed_note\": \"the seed path is measured once per machine ",
            "(~6 s at 65k, ~25 min at 1M) and carried forward on ",
            "regeneration; at 4M its quadratic dump would need hours, so ",
            "the cell is null and only the api column bounds the before ",
            "there\",\n",
            "  \"seed\": {{\n{}\n  }},\n",
            "  \"sizes\": [\n{}\n  ],\n",
            "  \"speedup_warm_1m_vs_seed\": {},\n",
            "  \"speedup_warm_1m_vs_api\": {:.2}\n}}\n"
        ),
        cfg!(feature = "alloc-count"),
        seed_rows.join(",\n"),
        rows.join(",\n"),
        speedup_seed_1m
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| "null".into()),
        speedup_api_1m,
        machine = crate::report::machine_label(),
    )
}
