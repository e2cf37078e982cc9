//! PR 6: live multi-tenant serving through the `ServeLoop` — sustained
//! aggregate throughput across 8 concurrent tenants plus one row per
//! canonical day-in-the-life scenario, each asserted SLO-clean and
//! downtime-free before it is written.

use crate::report::{extract_object, field_f64};
use std::time::Instant;

/// Live multi-tenant serving: a sustained steady-state run (8 tenants,
/// lossless, heavy flat rate) for the headline aggregate throughput, then
/// the four canonical scenarios at bench scale. Every number is measured
/// through the real `ServeLoop` slice loop — estimator feeding, periodic
/// republishes and SLO accounting included — and every run is asserted
/// SLO-clean with zero rebuild downtime before it is written. Returns the
/// full PR-6 JSON document.
pub fn report(pr5: Option<&str>) -> String {
    use bcast_serve::{run_scenario, ServeLoop, TenantConfig};
    use bcast_types::SloSpec;
    use bcast_workloads::{canonical_scenarios, DemandShape, DemandSpec};

    const TENANTS: u64 = 8;
    const ITEMS: usize = 4_096;
    const RATE: u32 = 40_000;
    const SLICES: u32 = 24;
    const THREADS: usize = 4;
    const SEED: u64 = 0x5EED;

    // Sustained steady state: 8 tenants × 40k requests/slice × 24 slices
    // = 7.68M requests served through the live loop.
    let mut svc = ServeLoop::new(SEED, THREADS);
    for id in 0..TENANTS {
        let mut config = TenantConfig::new(id, ITEMS);
        config.channels = 3;
        svc.join(config);
    }
    let demand = DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, RATE);
    for t in svc.tenants_mut() {
        t.begin_phase(demand, None, SloSpec::lossless(), SLICES);
    }
    // Warmup: two slices size every tenant's buffers and publish caches.
    svc.run_slices(2);
    let t0 = Instant::now();
    svc.run_slices(SLICES - 2);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut sustained_requests = 0u64;
    let mut worst_p99 = 0u32;
    let mut rebuilds = 0u64;
    for t in svc.tenants() {
        let s = t.phase_snapshot();
        assert_eq!(s.delivered, s.requests, "lossless tenant lost requests");
        assert_eq!(s.rebuild_downtime_slots, 0, "swap never stalls a tenant");
        assert!(t.phase_violations().is_empty(), "{s:?}");
        // Subtract the warmup slices' requests from the timed window.
        sustained_requests += s.requests - u64::from(RATE) * 2;
        worst_p99 = worst_p99.max(s.p99_slots);
        rebuilds += s.rebuilds;
    }
    let sustained_rps = sustained_requests as f64 / wall_s;
    eprintln!(
        "serve-bench: sustained {TENANTS} tenants {sustained_rps:.0} rps \
         (p99 {worst_p99} slots, {rebuilds} rebuilds)"
    );

    // The four canonical scenarios at bench scale.
    let mut rows = Vec::new();
    for spec in canonical_scenarios(8, 256, 4_000, 24) {
        let t0 = Instant::now();
        let out = run_scenario(&spec, SEED, THREADS);
        let scenario_s = t0.elapsed().as_secs_f64();
        out.assert_slos();
        assert_eq!(out.total_downtime_slots(), 0, "{}: downtime", out.name);
        let requests = out.total_requests();
        let rps = requests as f64 / scenario_s;
        let min_delivery = out
            .phases
            .iter()
            .map(|p| p.min_delivery_rate())
            .fold(1.0, f64::min);
        eprintln!(
            "serve-bench: {} {rps:.0} rps, min delivery {min_delivery:.4}, \
             p99 {} slots",
            out.name,
            out.worst_p99_slots()
        );
        rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"requests\": {}, \"wall_s\": {:.3}, ",
                "\"rps\": {:.0}, \"min_delivery_rate\": {:.6}, ",
                "\"worst_p99_slots\": {}, \"rebuilds\": {}, ",
                "\"downtime_slots\": {}, \"fingerprint\": \"{:016x}\"}}"
            ),
            out.name,
            requests,
            scenario_s,
            rps,
            min_delivery,
            out.worst_p99_slots(),
            out.total_rebuilds(),
            out.total_downtime_slots(),
            out.fingerprint(),
        ));
    }

    let pr5_zero_rps = pr5
        .and_then(|text| extract_object(text, "\"zero_fault\":"))
        .and_then(|obj| field_f64(&obj, "rps"));
    format!(
        concat!(
            "{{\n  \"pr\": 6,\n",
            "  \"description\": \"live multi-tenant serving through the ",
            "ServeLoop ({} tenants, {} items each, fanout 4, 3 channels, ",
            "{} worker threads, seed {}): sustained = steady Zipf(0.9) load ",
            "at {} requests/tenant/slice for {} timed slices, estimator ",
            "feeding and periodic republishes included, every tenant ",
            "asserted SLO-clean with zero rebuild downtime; scenarios = the ",
            "four canonical day-in-the-life scripts at bench scale (8 ",
            "tenants, 256 items, rate 4000, 24 slices/phase), each asserted ",
            "SLO-clean; pr5_zero_fault_rps is the single-tenant raw ",
            "serve_batch ceiling from BENCH_PR5.json for context\",\n",
            "  \"machine\": \"{machine}\",\n",
            "  \"sustained\": {{\"tenants\": {}, \"requests\": {}, ",
            "\"wall_s\": {:.3}, \"rps\": {:.0}, \"worst_p99_slots\": {}, ",
            "\"rebuilds\": {}, \"downtime_slots\": 0}},\n",
            "  \"pr5_zero_fault_rps\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n}}\n"
        ),
        TENANTS,
        ITEMS,
        THREADS,
        SEED,
        RATE,
        SLICES - 2,
        TENANTS,
        sustained_requests,
        wall_s,
        sustained_rps,
        worst_p99,
        rebuilds,
        pr5_zero_rps.map_or("null".into(), |r| format!("{r:.0}")),
        rows.join(",\n"),
        machine = crate::report::machine_label(),
    )
}
