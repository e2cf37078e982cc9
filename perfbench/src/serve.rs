//! The two `ServeLoop` workloads and their per-layer replays.
//!
//! * `steady_serve` — request→answer: 8 tenants × 4,096 items, Zipf(0.9),
//!   400k requests per tenant per slice, drift-gated republish, warmed
//!   up through the slice-8 adaptation republish. Op: one `run_slice`.
//! * `drift_republish` — weights→served program: 4 tenants × 65,536
//!   items republishing every slice while a hot set (1/16 of items, 80%
//!   of mass) moves every 4 slices. Op: one `run_slice`.
//!
//! The traced run (`--trace 1`) alternates traced and untraced ops, then
//! replays one tenant's slice and republish stage by stage on the
//! tenant's own fixture (its on-air program from
//! `TenantRuntime::snapshot_image`, its catalog size and demand). The op
//! time the replayed stages do not cover is reported as
//! `trace.remainder_ms` and `service.self_share`. The `steady_serve`
//! traced run also replays the crash path on its own service
//! (checkpoint, restore, first slice, checked against the live service);
//! the `drift_republish` one replays the exact search (`search.rs`).

use crate::trace::{median, quantile, Tracer};
use crate::{splitmix, Config, Outcome};
use bcast_adaptive::EmaEstimator;
use bcast_channel::{
    CompiledProgram, LatencyHistogram, PublishPipeline, ServeOptions, ServeSession, SlotPlan,
    SnapshotImage, SERVE_CHUNK,
};
use bcast_core::heuristics::one_to_k::{distribute_into, DistributeScratch};
use bcast_core::heuristics::sorting::{sorted_preorder_into, SortScratch};
use bcast_core::{PublishHeuristic, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_serve::{ServeLoop, TenantConfig, TenantRuntime};
use bcast_types::{NodeId, SloSnapshot, SloSpec, Weight};
use bcast_workloads::{DemandShape, DemandSpec, TaggedAliasTable};
use std::path::Path;
use std::time::Instant;

/// Phase length for flat demand (long enough never to end).
const LONG_PHASE: u32 = 1 << 30;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Replays per traced layer.
const REPLAYS: u64 = 12;
/// Slices between hot-set moves in `drift_republish`.
const DRIFT_BLOCK: u32 = 4;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Steady,
    Drift,
}

/// Sizes of one serve workload.
struct Shape {
    tenants: u64,
    items: usize,
    rate: u32,
    /// Slices run in set-up after boot.
    warmup: u32,
    /// Timed slices whose windows give the slot metrics (a fixed count,
    /// so those metrics are a pure function of the seed).
    window: u32,
}

fn shape(kind: Kind, toy: bool) -> Shape {
    match (kind, toy) {
        // Warm-up runs through the slice-8 republish and the slice after
        // it (which re-tags the sampler on the new program).
        (Kind::Steady, false) => Shape {
            tenants: 8,
            items: 4_096,
            rate: 400_000,
            warmup: 9,
            window: 64,
        },
        (Kind::Steady, true) => Shape {
            tenants: 2,
            items: 256,
            rate: 2_000,
            warmup: 9,
            window: 8,
        },
        (Kind::Drift, false) => Shape {
            tenants: 4,
            items: 65_536,
            rate: 20_000,
            warmup: DRIFT_BLOCK,
            window: 8 * DRIFT_BLOCK,
        },
        (Kind::Drift, true) => Shape {
            tenants: 2,
            items: 1_024,
            rate: 500,
            warmup: DRIFT_BLOCK,
            window: 2 * DRIFT_BLOCK,
        },
    }
}

fn tenant_config(kind: Kind, id: u64, items: usize) -> TenantConfig {
    let mut c = TenantConfig::new(id, items);
    match kind {
        Kind::Steady => c.rebuild_min_drift = Some(0.3),
        Kind::Drift => {
            c.rebuild_every = Some(1);
            c.degradation = None;
        }
    }
    c
}

/// Demand of tenant `id` in hot-set block `block` (drift) or the flat
/// Zipf(0.9) demand (steady).
fn demand(kind: Kind, s: &Shape, seed: u64, id: u64, block: u64) -> DemandSpec {
    let shape = match kind {
        Kind::Drift => {
            let mut state = seed ^ (id << 32) ^ block;
            DemandShape::HotSet {
                hot_items: s.items / 16,
                hot_mass: 0.8,
                offset: (splitmix(&mut state) % s.items as u64) as usize,
            }
        }
        Kind::Steady => DemandShape::Zipf { theta: 0.9 },
    };
    DemandSpec::flat(shape, s.rate)
}

fn begin_block(svc: &mut ServeLoop, kind: Kind, s: &Shape, seed: u64, block: u64) {
    let slices = if kind == Kind::Drift {
        DRIFT_BLOCK
    } else {
        LONG_PHASE
    };
    for t in svc.tenants_mut() {
        let d = demand(kind, s, seed, t.id(), block);
        t.begin_phase(d, None, SloSpec::lossless(), slices);
    }
}

/// Boot plus warm-up: the set-up every serve workload times.
fn boot(cfg: &Config, kind: Kind, s: &Shape) -> ServeLoop {
    let mut svc = ServeLoop::new(cfg.seed, cfg.threads);
    for id in 0..s.tenants {
        svc.join(tenant_config(kind, id, s.items));
    }
    begin_block(&mut svc, kind, s, cfg.seed, 0);
    svc.run_slices(s.warmup);
    svc
}

fn snaps(svc: &ServeLoop) -> Vec<SloSnapshot> {
    svc.tenants()
        .iter()
        .map(TenantRuntime::phase_snapshot)
        .collect()
}

/// Lossless serving: every request delivered, no downtime, nothing
/// shed or quarantined, and the window's SLO holds.
fn check_window(out: &mut Outcome, snap: &SloSnapshot) {
    if snap.delivered != snap.requests || snap.failed != 0 {
        out.fail("a tenant lost requests");
    }
    if snap.rebuild_downtime_slots != 0 {
        out.fail("a tenant had rebuild downtime");
    }
    if snap.shed_requests != 0 || snap.quarantined != 0 {
        out.fail("a tenant shed requests or was quarantined");
    }
    if !snap.check(&SloSpec::lossless()).is_empty() {
        out.fail("a tenant violated its SLO");
    }
}

/// Access-slot statistics pooled over tenant windows, each window
/// weighted by the requests it delivered. The p99 is the weighted mean of
/// the windows' p99s, which moves less with the seed than the worst
/// window's p99 alone.
#[derive(Default)]
struct Slots {
    weighted_sum: f64,
    weighted_p99: f64,
    delivered: u64,
    rebuilds: u64,
    skipped: u64,
    alias_rebuilds: u64,
}

impl Slots {
    fn add(&mut self, snap: &SloSnapshot) {
        self.weighted_sum += snap.mean_access_slots * snap.delivered as f64;
        self.delivered += snap.delivered;
        self.weighted_p99 += f64::from(snap.p99_slots) * snap.delivered as f64;
        self.rebuilds += snap.rebuilds;
        self.skipped += snap.skipped_rebuilds;
        self.alias_rebuilds += snap.alias_rebuilds;
    }

    fn mean(&self) -> f64 {
        self.weighted_sum / self.delivered.max(1) as f64
    }

    fn p99(&self) -> f64 {
        self.weighted_p99 / self.delivered.max(1) as f64
    }
}

/// Formula-1 data wait of the tenant's on-air program under its demand:
/// `Σ p(i) · T(Di) / Σ p(i)`, averaged over tenants.
fn served_data_wait(svc: &ServeLoop, kind: Kind, s: &Shape, seed: u64, block: u64) -> f64 {
    let mut total = 0.0;
    for t in svc.tenants() {
        let image = t.snapshot_image();
        let view = image.view().expect("self-captured image validates");
        let program = view.to_program();
        let pmf = demand(kind, s, seed, t.id(), block).shape.pmf(s.items);
        let mut wait = 0.0;
        for (p, node) in pmf.iter().zip(view.data_nodes()) {
            let slot = program
                .data_slot(node)
                .expect("catalog nodes are data nodes");
            wait += p * f64::from(slot.0);
        }
        total += wait / pmf.iter().sum::<f64>();
    }
    total / svc.tenants().len() as f64
}

pub fn run(cfg: &Config, name: &str) -> Outcome {
    let kind = if name == "steady_serve" {
        Kind::Steady
    } else {
        Kind::Drift
    };
    let s = shape(kind, cfg.toy);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        drop(svc.take());
        let t0 = Instant::now();
        svc = Some(boot(cfg, kind, &s));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut svc = svc.expect("at least one set-up");
    out.metrics.insert("setup_s", median(&setups));
    let mut tracer = Tracer::new();
    slice_loop(cfg, kind, &s, &mut svc, &mut out, &mut tracer);
    if cfg.trace {
        match kind {
            Kind::Steady => crash_replay(cfg, &mut svc, &mut out, &mut tracer),
            Kind::Drift => crate::search::replay(cfg.toy, &mut tracer, &mut out),
        }
        replay_layers(cfg, kind, &s, &mut svc, &mut out, &mut tracer);
        out.tracer = Some(tracer);
    }
    out
}

/// `steady_serve` and `drift_republish`: one `run_slice` per op.
fn slice_loop(
    cfg: &Config,
    kind: Kind,
    s: &Shape,
    svc: &mut ServeLoop,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    // A fresh window for the timed slices (drift opens one per block).
    let mut block = 1u64;
    begin_block(svc, kind, s, cfg.seed, block);
    let mut slots = Slots::default();
    let mut waits = Vec::new();
    let mut op_ms = Vec::new();
    let mut rates = Vec::new();
    let requests_before = svc.total_requests();
    let pool_before = svc.pool_stats();
    let started = Instant::now();
    let mut slice = 0u32;
    while slice < s.window || started.elapsed().as_secs_f64() < cfg.seconds {
        out.attempted += 1;
        let traced = cfg.trace && slice % 2 == 1;
        let offered = svc.total_requests();
        if traced {
            let span = tracer.begin("op.run_slice", None, u64::from(slice));
            svc.run_slice();
            tracer.end(span);
        } else {
            let t0 = Instant::now();
            svc.run_slice();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            op_ms.push(ms);
            rates.push((svc.total_requests() - offered) as f64 / (ms / 1e3));
        }
        slice += 1;
        let block_done = kind == Kind::Drift && slice.is_multiple_of(DRIFT_BLOCK);
        // Window ends inside the fixed prefix feed the slot metrics.
        let counted = slice <= s.window && (block_done || slice == s.window);
        if counted || block_done || slice.is_multiple_of(64) {
            for snap in snaps(svc) {
                check_window(out, &snap);
                if counted {
                    slots.add(&snap);
                }
            }
        }
        if counted {
            waits.push(served_data_wait(svc, kind, s, cfg.seed, block));
        }
        if block_done {
            block += 1;
            begin_block(svc, kind, s, cfg.seed, block);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    for snap in snaps(svc) {
        check_window(out, &snap);
    }
    let requests = svc.total_requests() - requests_before;
    let m = &mut out.metrics;
    m.insert("op_ms_p50", median(&op_ms));
    m.insert("op_ms_p90", quantile(&op_ms, 0.9));
    m.insert("requests_per_s", median(&rates));
    m.insert("mean_access_slots", slots.mean());
    m.insert("p99_access_slots", slots.p99());
    m.insert(
        "mean_data_wait",
        waits.iter().sum::<f64>() / waits.len() as f64,
    );
    if cfg.trace {
        let pool = svc.pool_stats();
        let busy: u64 = pool.busy_ns.iter().sum::<u64>() - pool_before.busy_ns.iter().sum::<u64>();
        m.insert(
            "trace.op_ms_p50",
            median(&tracer.durations_ms("op.run_slice")),
        );
        m.insert("service.pool_imbalance_ppm", pool.imbalance_ppm as f64);
        m.insert(
            "service.lane_busy_share",
            busy as f64 / 1e9 / (wall_s * pool.workers as f64),
        );
        m.insert("tenant.rebuilds", slots.rebuilds as f64);
        m.insert("tenant.skipped_rebuilds", slots.skipped as f64);
        m.insert("tenant.alias_rebuilds", slots.alias_rebuilds as f64);
    }
    eprintln!(
        "{}: {} slices, {requests} requests, window rebuilds {} skipped {} alias {}",
        cfg.workload, slice, slots.rebuilds, slots.skipped, slots.alias_rebuilds
    );
}

/// The crash path replayed on the workload's own service. Each round
/// checkpoints the live service, restores the checkpoint and serves the
/// restored service's first slice (the timed part), then serves the same
/// slice on the live service, which the restored one must equal. The
/// first slice after a `steady_serve` restore is never a republish: the
/// drift gate skips every cadence point.
fn crash_replay(cfg: &Config, svc: &mut ServeLoop, out: &mut Outcome, tracer: &mut Tracer) {
    let mut write_ms = Vec::new();
    let mut manifest = None;
    for round in 0..REPLAYS {
        out.attempted += 1;
        let t0 = Instant::now();
        match svc.checkpoint(&cfg.work_dir) {
            Ok(path) => manifest = Some(path),
            Err(e) => {
                out.fail(&format!("checkpoint failed: {e}"));
                continue;
            }
        }
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let root = tracer.begin("replay.restore_serve", None, round);
        let restored = tracer.time("checkpoint.restore", Some(root), round, || {
            ServeLoop::restore(&cfg.work_dir, cfg.threads)
        });
        let mut restored = match restored {
            Ok(restored) => restored,
            Err(e) => {
                tracer.end(root);
                out.fail(&format!("restore failed: {e}"));
                continue;
            }
        };
        tracer.time("checkpoint.first_slice", Some(root), round, || {
            restored.run_slice()
        });
        tracer.end(root);
        svc.run_slice();
        let got = snaps(&restored);
        if got != snaps(svc) {
            out.fail("restored service differs from the uninterrupted one");
        }
        for snap in &got {
            check_window(out, snap);
        }
    }
    let Some(manifest) = manifest else {
        return;
    };
    let (read_ms, crc_ms, manifest_mb) = replay_manifest(&manifest, tracer);
    let restore_ms = median(&tracer.durations_ms("checkpoint.restore"));
    let m = &mut out.metrics;
    m.insert("checkpoint.write_ms", median(&write_ms));
    m.insert("checkpoint.manifest_mb", manifest_mb);
    m.insert("checkpoint.read_ms", read_ms);
    m.insert("checkpoint.crc_ms", crc_ms);
    m.insert("checkpoint.decode_ms", restore_ms - read_ms - crc_ms);
    m.insert(
        "checkpoint.first_slice_ms",
        median(&tracer.durations_ms("checkpoint.first_slice")),
    );
}

/// Manifest read and CRC, replayed from outside the restore path.
/// Returns `(read_ms, crc_ms, manifest_mb)` medians.
fn replay_manifest(path: &Path, tracer: &mut Tracer) -> (f64, f64, f64) {
    let mut bytes = Vec::new();
    for rep in 0..REPLAYS {
        bytes = tracer.time("checkpoint.read", None, rep, || {
            std::fs::read(path).expect("the manifest just written is readable")
        });
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let crc = tracer.time("checkpoint.crc", None, rep, || {
            bcast_types::crc::crc32c(&words)
        });
        std::hint::black_box(crc);
    }
    (
        median(&tracer.durations_ms("checkpoint.read")),
        median(&tracer.durations_ms("checkpoint.crc")),
        bytes.len() as f64 / (1 << 20) as f64,
    )
}
/// Per-layer replays on tenant 0's own fixture, plus the op-time
/// attribution. Each round times the tenant's own `run_slice`, then one
/// stage-by-stage replay of its slice, one of its republish and one
/// snapshot decode, so all of them see the same machine conditions.
fn replay_layers(
    cfg: &Config,
    kind: Kind,
    s: &Shape,
    svc: &mut ServeLoop,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let tenant = &svc.tenants()[0];
    let block = if kind == Kind::Drift { 1 } else { 0 };
    let pmf = demand(kind, s, cfg.seed, tenant.id(), block)
        .shape
        .pmf(s.items);
    let mut slice = SliceReplay::new(tenant, &pmf, cfg.seed);
    let mut republish = RepublishReplay::new(tenant.config());
    let image = tenant.snapshot_image().to_bytes();
    let cycle = tenant.cycle_len();
    for rep in 0..REPLAYS {
        let t = &mut svc.tenants_mut()[0];
        tracer.time("tenant.run_slice", None, rep, || t.run_slice());
        slice.run(rep, s.rate, tracer, out);
        let weights = slice.estimator.weights();
        republish.run(rep, &weights, &pmf, tracer, out);
        let program = tracer.time("snapshot.decode", None, rep, || {
            let image = SnapshotImage::from_bytes(&image).expect("image round-trips");
            image.view().expect("image validates").to_program()
        });
        if program.cycle_len() as u32 != cycle {
            out.fail("decoded snapshot serves a different cycle");
        }
    }
    let med = |name: &str| median(&tracer.durations_ms(name));
    let per_req = |name: &str| median(&tracer.per_parent_ms(name)) * 1e6 / f64::from(s.rate);
    let fused = per_req("serve.sample_observe");
    let sample = median(&tracer.durations_ms("serve.sample")) * 1e6 / f64::from(s.rate);
    let (sort_ms, assign_ms, compile_ms) = (
        med("publish.sort"),
        med("publish.assign"),
        med("publish.compile"),
    );
    let m = &mut out.metrics;
    m.insert("serve.sample_ns_per_req", sample);
    m.insert("serve.estimator_ns_per_req", fused - sample);
    m.insert("serve.kernel_ns_per_req", per_req("serve.kernel"));
    m.insert("serve.absorb_us_per_slice", med("serve.absorb") * 1e3);
    m.insert(
        "serve.roll_epoch_us_per_slice",
        med("serve.roll_epoch") * 1e3,
    );
    m.insert("publish.tree_build_ms", med("publish.tree_build"));
    m.insert("publish.sort_ms", sort_ms);
    m.insert("publish.assign_ms", assign_ms);
    m.insert("publish.compile_ms", compile_ms);
    m.insert(
        "publish.residual_ms",
        med("publish.publisher") - sort_ms - assign_ms - compile_ms,
    );
    m.insert("publish.retag_ms", med("publish.retag"));
    m.insert("publish.nodes", republish.nodes as f64);
    m.insert("publish.cycle_len", republish.cycle as f64);
    m.insert("snapshot.decode_ms", med("snapshot.decode"));
    let op = m["trace.op_ms_p50"];
    // A slice is every tenant's own slice, split over the pool lanes;
    // what that does not cover is the service's self time (admission,
    // scheduling, pool hand-off, lane imbalance). A tenant's slice is its
    // serving stages plus its share of republishes; what those do not
    // cover is the remainder.
    let lanes = cfg.threads.clamp(1, s.tenants as usize) as f64;
    let share = s.tenants as f64 / lanes;
    let tenant_ms = med("tenant.run_slice");
    let serve_ms = f64::from(s.rate)
        * (m["serve.sample_ns_per_req"]
            + m["serve.estimator_ns_per_req"]
            + m["serve.kernel_ns_per_req"])
        / 1e6
        + (m["serve.absorb_us_per_slice"] + m["serve.roll_epoch_us_per_slice"]) / 1e3;
    let republish_ms =
        m["publish.tree_build_ms"] + med("publish.publisher") + m["publish.retag_ms"];
    let republishes = m["tenant.rebuilds"] / (s.tenants as f64 * f64::from(s.window));
    let stages_ms = share * (serve_ms + republishes * republish_ms);
    let service_self = op - share * tenant_ms;
    let remainder = op - service_self - stages_ms;
    m.insert("tenant.slice_ms", tenant_ms);
    m.insert("service.self_share", service_self / op);
    m.insert("trace.remainder_ms", remainder);
    eprintln!(
        "{}: traced op p50 {op:.3} ms = service self {service_self:.3} ms + replayed stages \
         {stages_ms:.3} ms + remainder {remainder:.3} ms ({share} tenant slices of \
         {tenant_ms:.3} ms per lane)",
        cfg.workload
    );
}

/// One tenant's slice replayed on its own on-air program: the fused
/// sample→observe loop and the chunked kernel exactly as the tenant runs
/// them, then the histogram absorb and epoch roll. A sampling-only pass
/// over the same request count splits the sampler from the estimator.
struct SliceReplay {
    program: CompiledProgram,
    sampler: TaggedAliasTable,
    estimator: EmaEstimator,
    session: ServeSession,
    hist: LatencyHistogram,
    chunk: Vec<NodeId>,
    state: u64,
}

impl SliceReplay {
    fn new(tenant: &TenantRuntime, pmf: &[f64], seed: u64) -> Self {
        let image = tenant.snapshot_image();
        let view = image.view().expect("self-captured image validates");
        let program = view.to_program();
        let nodes: Vec<NodeId> = view.data_nodes().collect();
        let mut sampler = TaggedAliasTable::new();
        sampler.rebuild(pmf, |i| nodes[i].0);
        let bound = 16 * program.cycle_len() as u32;
        SliceReplay {
            program,
            sampler,
            estimator: EmaEstimator::new(pmf.len(), tenant.config().alpha),
            session: ServeSession::new(),
            hist: LatencyHistogram::with_bound(bound),
            chunk: Vec::with_capacity(SERVE_CHUNK),
            state: seed,
        }
    }

    fn run(&mut self, rep: u64, rate: u32, tracer: &mut Tracer, out: &mut Outcome) {
        let root = tracer.begin("replay.tenant_slice", None, rep);
        let opts = ServeOptions {
            seed: splitmix(&mut self.state),
            ..ServeOptions::default()
        };
        self.program.begin_session(&mut self.session, &opts);
        let mut remaining = rate as usize;
        while remaining > 0 {
            let n = remaining.min(SERVE_CHUNK);
            let span = tracer.begin("serve.sample_observe", Some(root), rep);
            self.chunk.clear();
            for _ in 0..n {
                let (item, node) = self.sampler.sample(&mut self.state);
                self.estimator.observe(item as usize);
                self.chunk.push(NodeId(node));
            }
            tracer.end(span);
            let (program, session, chunk) = (&self.program, &mut self.session, &self.chunk);
            let served = tracer.time("serve.kernel", Some(root), rep, || {
                program.serve_chunk(session, chunk)
            });
            if served.is_err() {
                out.fail("replayed kernel rejected a data node");
            }
            remaining -= n;
        }
        let (hist, session) = (&mut self.hist, &self.session);
        tracer.time("serve.absorb", Some(root), rep, || {
            hist.absorb(session.histogram())
        });
        let estimator = &mut self.estimator;
        tracer.time("serve.roll_epoch", Some(root), rep, || {
            estimator.roll_epoch()
        });
        tracer.end(root);
        if self.session.delivered() != u64::from(rate) {
            out.fail("replayed slice lost requests");
        }
        let span = tracer.begin("serve.sample", None, rep);
        let mut remaining = rate as usize;
        while remaining > 0 {
            let n = remaining.min(SERVE_CHUNK);
            self.chunk.clear();
            for _ in 0..n {
                let (_, node) = self.sampler.sample(&mut self.state);
                self.chunk.push(NodeId(node));
            }
            std::hint::black_box(&self.chunk);
            remaining -= n;
        }
        tracer.end(span);
    }
}

/// A full republish from the slice replay's estimator weights (the
/// tenant's size and demand), stage by stage (tree build, sort, channel
/// assign, route compile, sampler re-tag), plus the whole
/// `Publisher::publish`, whose excess over its stages is the residual.
struct RepublishReplay {
    channels: usize,
    fanout: usize,
    sort: SortScratch,
    dist: DistributeScratch,
    order: Vec<NodeId>,
    plan: SlotPlan,
    pipeline: PublishPipeline,
    publisher: Publisher,
    sampler: TaggedAliasTable,
    nodes: usize,
    cycle: usize,
}

impl RepublishReplay {
    fn new(c: &TenantConfig) -> Self {
        RepublishReplay {
            channels: c.channels,
            fanout: c.fanout,
            sort: SortScratch::default(),
            dist: DistributeScratch::default(),
            order: Vec::new(),
            plan: SlotPlan::new(),
            pipeline: PublishPipeline::new(),
            publisher: Publisher::new(),
            sampler: TaggedAliasTable::new(),
            nodes: 0,
            cycle: 0,
        }
    }

    fn run(
        &mut self,
        rep: u64,
        weights: &[Weight],
        pmf: &[f64],
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) {
        let k = self.channels;
        let root = tracer.begin("replay.republish", None, rep);
        let fanout = self.fanout;
        let tree = tracer.time("publish.tree_build", Some(root), rep, || {
            knary::build_weight_balanced_unlabeled(weights, fanout)
                .expect("positive weights build a tree")
        });
        let (sort, order) = (&mut self.sort, &mut self.order);
        tracer.time("publish.sort", Some(root), rep, || {
            sorted_preorder_into(&tree, 1, sort, order)
        });
        let (dist, plan) = (&mut self.dist, &mut self.plan);
        tracer.time("publish.assign", Some(root), rep, || {
            distribute_into(&tree, order, k, 1, dist, plan)
        });
        let pipeline = &mut self.pipeline;
        let staged = tracer.time("publish.compile", Some(root), rep, || {
            pipeline.publish(&tree, plan, k).map(|p| p.cycle_len())
        });
        let publisher = &mut self.publisher;
        let whole = tracer.time("publish.publisher", Some(root), rep, || {
            publisher
                .publish(
                    &tree,
                    k,
                    PublishHeuristic::Sorting,
                    PublishOptions::default(),
                )
                .map(|p| p.cycle_len())
        });
        let (data, sampler) = (tree.data_nodes(), &mut self.sampler);
        tracer.time("publish.retag", Some(root), rep, || {
            sampler.rebuild(pmf, |i| data[i].0)
        });
        tracer.end(root);
        match (staged, whole) {
            (Ok(a), Ok(b)) if a == b => self.cycle = a,
            _ => out.fail("staged and whole republish disagree"),
        }
        self.nodes = tree.len();
    }
}
