//! The multi-tenant event loop: a roster of [`TenantRuntime`]s advanced
//! in lock-step time slices across a persistent worker pool.
//!
//! Parallelism is pure partitioning: tenants are self-contained (every
//! random draw derives from the tenant's own seed), workers get disjoint
//! sets of tenants, and no state is merged across tenants — so the loop
//! produces bit-identical results at any thread count, and `threads == 1`
//! never spawns at all.
//!
//! Two execution properties distinguish the steady state from a naive
//! scoped-spawn loop:
//!
//! * **Persistent workers.** A slice is a few hundred microseconds of
//!   work; spawning OS threads per slice costs a comparable amount of
//!   kernel time. The loop parks a [`WorkerPool`] for its lifetime and
//!   wakes it with an epoch handshake each slice ([`ServeLoop::run_slice`]).
//!   The original spawn-per-slice executor survives as
//!   [`run_slice_scoped`](ServeLoop::run_slice_scoped) — the equivalence
//!   oracle the pooled path is property-tested against.
//! * **Load-balanced lanes.** Tenants are assigned to worker lanes by
//!   deterministic LPT (longest processing time first) over each tenant's
//!   [`cost_hint`](TenantRuntime::cost_hint) — an EWMA of its scripted
//!   request rate — instead of contiguous roster chunks, so one hot
//!   tenant no longer serializes a whole chunk's neighbors behind it.
//!   The assignment is a pure function of deterministic hints, and lane
//!   placement cannot affect any tenant's outcome anyway (isolation), so
//!   scheduling is free to chase balance.

use crate::checkpoint::{WordReader, WordWriter};
use crate::tenant::{mix2, TenantConfig, TenantRuntime};
use bcast_channel::SnapshotImage;
use bcast_core::publish::PublishHeuristic;
use bcast_types::WorkerPool;
use std::collections::HashMap;

/// Seed salt for the overload shedder's per-slice remainder lottery,
/// keeping its draw stream disjoint from every tenant's request stream
/// (which derives from `mix2(seed, id)` without the salt).
const ADMIT_SALT: u64 = 0x5AED_AD31_7B0D_6E75;

/// The boot-program identity: two tenants whose key matches publish the
/// exact same first program (boot weights are uniform, so the catalog
/// size, tree fanout, channel count and heuristic determine it fully).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BootKey {
    items: usize,
    fanout: usize,
    channels: usize,
    heuristic: PublishHeuristic,
}

/// The boot identity of a tenant config — the cache key for shared boot
/// images, and the key a manifest's by-reference program record resolves
/// through on restore.
pub(crate) fn boot_key(c: &TenantConfig) -> BootKey {
    BootKey {
        items: c.items,
        fanout: c.fanout,
        channels: c.channels,
        heuristic: c.heuristic,
    }
}

/// A boot-cache image pre-decoded once per restore: the compiled
/// program and its data-node catalog, cloned (a pair of memcpys)
/// by every tenant whose manifest block references the image instead of
/// each tenant re-running the column decode and catalog walk on the
/// same bytes.
pub(crate) struct CachedProgram {
    pub(crate) program: bcast_channel::CompiledProgram,
    pub(crate) data_nodes: Vec<bcast_types::NodeId>,
    pub(crate) channels: usize,
}

/// Reused per-slice scheduling buffers — the lane assignment is computed
/// every slice without allocating.
#[derive(Debug, Default)]
struct SchedScratch {
    /// Tenant indices sorted heaviest-first (the LPT order).
    order: Vec<u32>,
    /// Assigned lane per tenant index.
    lane_of: Vec<u32>,
    /// Accumulated cost per lane during assignment.
    lane_load: Vec<u64>,
    /// Tenant indices grouped by lane (counting-sorted, roster order
    /// within a lane).
    perm: Vec<u32>,
    /// Lane group boundaries into `perm` (`starts[l]..starts[l + 1]`).
    starts: Vec<u32>,
    /// Write cursors for the counting sort.
    cursor: Vec<u32>,
}

/// Shared mutable access to the tenant array for the pool closure. Lanes
/// index **disjoint** tenant sets (the counting-sorted permutation
/// partitions `0..n`), so no element is touched by two lanes.
struct TenantsPtr(*mut TenantRuntime);
// SAFETY: see above — all concurrent accesses go to disjoint elements.
unsafe impl Sync for TenantsPtr {}

/// Wall-clock execution statistics of the serving loop's worker pool — a
/// side channel for operators and benches, never part of a deterministic
/// outcome (lane busy times are wall time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Pool lanes (caller thread included); `1` when running sequentially.
    pub workers: usize,
    /// Cumulative busy nanoseconds per lane since the pool started.
    pub busy_ns: Vec<u64>,
    /// Load imbalance across lanes in parts-per-million:
    /// `(max − min) · 10⁶ / max` over `busy_ns` (`0` = perfectly even,
    /// also `0` before any pooled slice ran).
    pub imbalance_ppm: u64,
    /// Slices executed through the pooled load-balanced path.
    pub scheduled_slices: u64,
}

/// A live multi-tenant serving loop.
#[derive(Debug)]
pub struct ServeLoop {
    tenants: Vec<TenantRuntime>,
    seed: u64,
    threads: usize,
    next_id: u64,
    slices_run: u64,
    /// Boot snapshot images by config identity: the first tenant of a
    /// given shape pays the boot publish and deposits its image; every
    /// later join of the same shape cold-starts from the image in
    /// microseconds. Scenario churn phases are exactly this pattern.
    boot_images: Vec<(BootKey, SnapshotImage)>,
    /// Joins served from the cache (lifetime).
    snapshot_boots: u64,
    /// Tenant id → roster index, rebuilt on join/leave so id lookups on
    /// the request path are O(1) instead of a roster scan.
    index_of: HashMap<u64, usize>,
    /// Persistent workers, created on the first pooled slice and parked
    /// between slices for the life of the loop.
    pool: Option<WorkerPool>,
    sched: SchedScratch,
    scheduled_slices: u64,
    /// Per-slice request budget across the whole roster; `None` admits
    /// everything. See [`set_slice_budget`](Self::set_slice_budget).
    slice_budget: Option<u64>,
    /// Scratch for the shedder's water-filling pass (tenant indices in
    /// rate order, then clipped indices in lottery order).
    admit_order: Vec<u32>,
    /// Scratch: per-roster-index admitted cap for the coming slice
    /// (`u64::MAX` = uncapped).
    admit_caps: Vec<u64>,
}

impl ServeLoop {
    /// An empty loop. `seed` roots every tenant's derived seed; `threads`
    /// is the worker count for [`run_slice`](Self::run_slice) (`0` and
    /// `1` both mean sequential — results never depend on it).
    pub fn new(seed: u64, threads: usize) -> Self {
        ServeLoop {
            tenants: Vec::new(),
            seed,
            threads,
            next_id: 0,
            slices_run: 0,
            boot_images: Vec::new(),
            snapshot_boots: 0,
            index_of: HashMap::new(),
            pool: None,
            sched: SchedScratch::default(),
            scheduled_slices: 0,
            slice_budget: None,
            admit_order: Vec::new(),
            admit_caps: Vec::new(),
        }
    }

    /// Caps the total requests admitted per slice across the roster.
    /// When the roster's scripted demand exceeds the budget, admission
    /// water-fills: every tenant at or below its fair share keeps its
    /// full rate (bit-identical to serving solo), and only over-quota
    /// tenants are clipped to the common level, with the remainder
    /// distributed one request each by a seeded per-slice lottery. Shed
    /// requests still count against the tenant's delivery rate (surfaced
    /// as [`shed_requests`](bcast_types::SloSnapshot::shed_requests)),
    /// so the existing SLO floor catches sustained overload.
    ///
    /// Deterministic: admission is a pure function of the roster's
    /// scripted rates, the service seed and the slice counter — thread
    /// count never enters.
    pub fn set_slice_budget(&mut self, budget: Option<u64>) {
        self.slice_budget = budget;
    }

    /// The per-slice admission budget, if one is set.
    pub fn slice_budget(&self) -> Option<u64> {
        self.slice_budget
    }

    /// Computes each tenant's admitted cap for the coming slice (the
    /// water-filling pass described on
    /// [`set_slice_budget`](Self::set_slice_budget)) and arms the caps.
    /// Runs on the caller thread before tenants fan out to lanes, in
    /// both the pooled path and the scoped oracle.
    fn admit_slice(&mut self) {
        let Some(budget) = self.slice_budget else {
            return;
        };
        let n = self.tenants.len();
        if n == 0 {
            return;
        }
        let total: u64 = self.tenants.iter().map(|t| u64::from(t.next_rate())).sum();
        if total <= budget {
            for t in &mut self.tenants {
                t.set_admitted_cap(None);
            }
            return;
        }
        // Water-fill: walk tenants cheapest-first; whoever fits under
        // the running fair share keeps its full rate, the rest split the
        // remaining budget evenly at the water level.
        let tenants = &self.tenants;
        let order = &mut self.admit_order;
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (tenants[i as usize].next_rate(), i));
        self.admit_caps.clear();
        self.admit_caps.resize(n, u64::MAX);
        let mut remaining = budget;
        let mut left = n as u64;
        let mut first_clipped = n;
        for (at, &i) in order.iter().enumerate() {
            let rate = u64::from(tenants[i as usize].next_rate());
            if rate <= remaining / left {
                remaining -= rate;
                left -= 1;
            } else {
                first_clipped = at;
                break;
            }
        }
        if first_clipped < n {
            let level = remaining / left;
            let extra = (remaining % left) as usize;
            // The remainder goes one request each to `extra` clipped
            // tenants, chosen by a seeded per-slice lottery over tenant
            // ids (stable under roster churn, fresh every slice).
            let slice_key = mix2(self.seed ^ ADMIT_SALT, self.slices_run);
            let clipped = &mut order[first_clipped..];
            clipped.sort_unstable_by_key(|&i| (mix2(slice_key, tenants[i as usize].id()), i));
            for (won, &i) in clipped.iter().enumerate() {
                self.admit_caps[i as usize] = level + u64::from(won < extra);
            }
        }
        for (t, &cap) in self.tenants.iter_mut().zip(&self.admit_caps) {
            t.set_admitted_cap((cap != u64::MAX).then(|| cap.min(u64::from(u32::MAX)) as u32));
        }
    }

    /// Boots a tenant and adds it to the roster, keeping the roster
    /// sorted by id. The tenant's seed derives from the service seed and
    /// `config.id` only — never from roster position — so a tenant
    /// behaves identically whether it serves alone or among neighbors.
    ///
    /// The boot path picks itself: if an earlier join with the same
    /// boot identity (items, fanout, channels, heuristic) deposited a
    /// snapshot image, the tenant cold-starts from it through
    /// the real binary round-trip ([`TenantRuntime::from_snapshot`]) —
    /// bit-identical serving, microseconds instead of a publish. The
    /// first join of each shape pays the boot publish and deposits its
    /// image for the rest.
    ///
    /// # Panics
    /// Panics if a tenant with the same id is already on the roster.
    pub fn join(&mut self, config: TenantConfig) -> u64 {
        let id = config.id;
        assert!(
            self.tenant(id).is_none(),
            "tenant id {id} already on the roster"
        );
        self.next_id = self.next_id.max(id + 1);
        let key = boot_key(&config);
        let runtime = match self.boot_images.iter().find(|(k, _)| *k == key) {
            Some((_, image)) => {
                let view = image.view().expect("cached boot images are self-captured");
                let t = TenantRuntime::from_snapshot(config, self.seed, &view)
                    .expect("cached boot image matches the config it was keyed by");
                self.snapshot_boots += 1;
                t
            }
            None => {
                let t = TenantRuntime::new(config, self.seed);
                self.boot_images.push((key, t.snapshot_image()));
                t
            }
        };
        let at = self.tenants.partition_point(|t| t.id() < id);
        self.tenants.insert(at, runtime);
        self.rebuild_index();
        id
    }

    /// Joins served from the boot-image cache over the loop's lifetime.
    pub fn snapshot_boots(&self) -> u64 {
        self.snapshot_boots
    }

    /// The next unused tenant id (for churn scripts that join anonymous
    /// tenants).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Removes a tenant from the roster. Returns `false` if no tenant
    /// with that id is present.
    pub fn leave(&mut self, id: u64) -> bool {
        match self.index_of.get(&id).copied() {
            Some(at) => {
                self.tenants.remove(at);
                self.rebuild_index();
                true
            }
            None => false,
        }
    }

    /// Re-derives the id → index map after a roster mutation. O(roster),
    /// paid only on join/leave — every per-slice lookup stays O(1).
    fn rebuild_index(&mut self) {
        self.index_of.clear();
        for (i, t) in self.tenants.iter().enumerate() {
            self.index_of.insert(t.id(), i);
        }
    }

    /// The roster, in ascending id order.
    pub fn tenants(&self) -> &[TenantRuntime] {
        &self.tenants
    }

    /// Mutable roster access (for per-phase scripting).
    pub fn tenants_mut(&mut self) -> &mut [TenantRuntime] {
        &mut self.tenants
    }

    /// One tenant by id — an O(1) map lookup.
    pub fn tenant(&self, id: u64) -> Option<&TenantRuntime> {
        self.index_of.get(&id).map(|&i| &self.tenants[i])
    }

    /// One tenant by id, mutably — an O(1) map lookup.
    pub fn tenant_mut(&mut self, id: u64) -> Option<&mut TenantRuntime> {
        match self.index_of.get(&id).copied() {
            Some(i) => Some(&mut self.tenants[i]),
            None => None,
        }
    }

    /// Slices the loop has run.
    pub fn slices_run(&self) -> u64 {
        self.slices_run
    }

    /// The service seed every tenant's randomness derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Advances every tenant by one time slice.
    ///
    /// With more than one thread and more than one tenant, tenants are
    /// assigned to the persistent pool's lanes by deterministic LPT over
    /// their cost hints and executed in parallel; otherwise the roster
    /// runs sequentially on the calling thread. Either way the result is
    /// bit-identical to every other thread count — lanes own disjoint
    /// tenants and tenants are self-contained.
    pub fn run_slice(&mut self) {
        self.admit_slice();
        let lanes = self.threads.clamp(1, self.tenants.len().max(1));
        if lanes <= 1 {
            for t in &mut self.tenants {
                t.run_slice();
            }
        } else {
            let pool_lanes = self.threads;
            self.schedule(lanes, pool_lanes);
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(pool_lanes));
            let base = TenantsPtr(self.tenants.as_mut_ptr());
            // Capture the `Sync` wrapper by reference, not its raw-pointer
            // field (closure field-capture would otherwise grab the
            // non-`Sync` pointer itself).
            let base = &base;
            let perm = &self.sched.perm;
            let starts = &self.sched.starts;
            pool.run(|lane| {
                let lo = starts[lane] as usize;
                let hi = starts[lane + 1] as usize;
                for &ti in &perm[lo..hi] {
                    // SAFETY: `perm` is a permutation of the roster
                    // partitioned by lane, so every tenant index is
                    // visited by exactly one lane — accesses through the
                    // shared base pointer are disjoint.
                    unsafe { (*base.0.add(ti as usize)).run_slice() };
                }
            });
            self.scheduled_slices += 1;
        }
        self.slices_run += 1;
    }

    /// Assigns each tenant to one of `lanes` lanes by LPT: walk tenants
    /// heaviest-hint-first, always placing onto the least-loaded lane
    /// (ties → lowest lane). `pool_lanes ≥ lanes` sizes the boundary
    /// array — lanes past `lanes` get empty groups, which the pool
    /// tolerates (a roster smaller than the pool leaves workers idle).
    /// All buffers are retained scratch; no allocation in steady state.
    fn schedule(&mut self, lanes: usize, pool_lanes: usize) {
        let n = self.tenants.len();
        let tenants = &self.tenants;
        let s = &mut self.sched;
        s.order.clear();
        s.order.extend(0..n as u32);
        s.order
            .sort_unstable_by_key(|&i| (std::cmp::Reverse(tenants[i as usize].cost_hint()), i));
        s.lane_load.clear();
        s.lane_load.resize(lanes, 0);
        s.lane_of.clear();
        s.lane_of.resize(n, 0);
        for &i in &s.order {
            let lane = s
                .lane_load
                .iter()
                .enumerate()
                .min_by_key(|&(l, &c)| (c, l))
                .map(|(l, _)| l)
                .expect("lanes >= 1");
            s.lane_of[i as usize] = lane as u32;
            s.lane_load[lane] += tenants[i as usize].cost_hint();
        }
        // Counting-sort tenant indices by lane (roster order within each
        // lane group) so each lane walks one contiguous run of `perm`.
        s.starts.clear();
        s.starts.resize(pool_lanes + 1, 0);
        for &l in &s.lane_of {
            s.starts[l as usize + 1] += 1;
        }
        for k in 1..s.starts.len() {
            s.starts[k] += s.starts[k - 1];
        }
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.starts);
        s.perm.clear();
        s.perm.resize(n, 0);
        for (i, &l) in s.lane_of.iter().enumerate() {
            let at = s.cursor[l as usize];
            s.perm[at as usize] = i as u32;
            s.cursor[l as usize] += 1;
        }
    }

    /// The original spawn-per-slice executor over contiguous roster
    /// chunks, retained verbatim as the equivalence oracle for the pooled
    /// path: property tests demand `run_slice` and `run_slice_scoped`
    /// produce bit-identical tenants at every thread count. Prefer
    /// [`run_slice`](Self::run_slice) — this one pays a thread spawn per
    /// worker per slice.
    pub fn run_slice_scoped(&mut self) {
        self.admit_slice();
        let threads = self.threads.clamp(1, self.tenants.len().max(1));
        if threads <= 1 {
            for t in &mut self.tenants {
                t.run_slice();
            }
        } else {
            let chunk = self.tenants.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for part in self.tenants.chunks_mut(chunk) {
                    scope.spawn(|| {
                        for t in part {
                            t.run_slice();
                        }
                    });
                }
            });
        }
        self.slices_run += 1;
    }

    /// Runs `n` consecutive slices.
    pub fn run_slices(&mut self, n: u32) {
        for _ in 0..n {
            self.run_slice();
        }
    }

    /// Wall-clock pool statistics (see [`PoolStats`]). Before any pooled
    /// slice has run — including always-sequential loops — reports one
    /// idle lane with no busy time.
    pub fn pool_stats(&self) -> PoolStats {
        let (workers, busy_ns) = match &self.pool {
            Some(p) => (p.size(), p.busy_ns()),
            None => (1, Vec::new()),
        };
        let max = busy_ns.iter().copied().max().unwrap_or(0);
        let min = busy_ns.iter().copied().min().unwrap_or(0);
        let imbalance_ppm = (max - min)
            .saturating_mul(1_000_000)
            .checked_div(max)
            .unwrap_or(0);
        PoolStats {
            workers,
            busy_ns,
            imbalance_ppm,
            scheduled_slices: self.scheduled_slices,
        }
    }

    /// Lifetime requests offered across the whole roster (tenants that
    /// already left are not counted).
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.total_requests()).sum()
    }

    /// Serializes the full deterministic service state — everything the
    /// slice loop consumes — into the manifest word stream. The worker
    /// pool, scheduler scratch and wall-clock stats are execution-side
    /// and excluded (a restore at a different thread count is still
    /// bit-identical).
    pub(crate) fn export_state(&self, w: &mut WordWriter) {
        w.u64(self.seed);
        w.u64(self.next_id);
        w.u64(self.slices_run);
        w.u64(self.snapshot_boots);
        w.opt_u64(self.slice_budget);
        // The boot-image cache is part of the deterministic state:
        // churn joins after a restore must hit (or miss) the cache
        // exactly as the uninterrupted run would, and `snapshot_loads`
        // is fingerprinted.
        w.u64(self.boot_images.len() as u64);
        for (key, image) in &self.boot_images {
            w.u64(key.items as u64);
            w.u64(key.fanout as u64);
            w.u64(key.channels as u64);
            write_heuristic(w, key.heuristic);
            w.u32_slice(image.words());
        }
        w.u64(self.tenants.len() as u64);
        // Each tenant block carries a backpatched word-length prefix so
        // restore can split the roster into independent slices and decode
        // them in parallel — at snapshot scale the per-tenant payload
        // (estimator trajectory, weights, on-air program image) dominates
        // the manifest, and a sequential decode dominates the
        // restore-to-serving wall.
        for t in &self.tenants {
            let at = w.placeholder();
            let start = w.len();
            let key = boot_key(t.config());
            let boot = self
                .boot_images
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, image)| image);
            t.export_state(w, boot);
            let span = w.len() - start;
            w.patch(at, u32::try_from(span).expect("tenant block fits u32"));
        }
    }

    /// Rebuilds a service from [`export_state`](Self::export_state)'s
    /// word stream. Fails closed (`None`) on any truncation or invariant
    /// violation — a roster out of id order, a boot image that does not
    /// self-validate, a tenant that does not decode. `threads` comes
    /// from the caller, not the manifest.
    pub(crate) fn import_state(r: &mut WordReader<'_>, threads: usize) -> Option<ServeLoop> {
        let seed = r.u64()?;
        let next_id = r.u64()?;
        let slices_run = r.u64()?;
        let snapshot_boots = r.u64()?;
        let slice_budget = r.opt_u64()?;
        let n_images = usize::try_from(r.u64()?).ok()?;
        let mut boot_images = Vec::with_capacity(n_images.min(64));
        let mut boot_programs = Vec::with_capacity(n_images.min(64));
        for _ in 0..n_images {
            let items = usize::try_from(r.u64()?).ok()?;
            let fanout = usize::try_from(r.u64()?).ok()?;
            let channels = usize::try_from(r.u64()?).ok()?;
            let heuristic = read_heuristic(r)?;
            let image = SnapshotImage::from_words(r.u32_vec()?);
            // Validate and decode the image exactly once here; every
            // tenant that references it clones the result instead of
            // re-walking the same megabytes.
            let view = image.view().ok()?;
            let key = BootKey {
                items,
                fanout,
                channels,
                heuristic,
            };
            if boot_images.iter().any(|(k, _)| *k == key) {
                return None;
            }
            boot_programs.push((
                key,
                CachedProgram {
                    program: view.to_program(),
                    data_nodes: view.data_nodes().collect(),
                    channels,
                },
            ));
            boot_images.push((key, image));
        }
        let n_tenants = usize::try_from(r.u64()?).ok()?;
        let mut blocks = Vec::with_capacity(n_tenants.min(1024));
        for _ in 0..n_tenants {
            let span = usize::try_from(r.u32()?).ok()?;
            blocks.push(r.take(span)?);
        }
        let tenants = decode_tenant_blocks(seed, &blocks, &boot_programs, threads)?;
        for (i, t) in tenants.iter().enumerate() {
            if t.id() >= next_id {
                return None;
            }
            if i > 0 && tenants[i - 1].id() >= t.id() {
                return None;
            }
        }
        let mut svc = ServeLoop {
            tenants,
            seed,
            threads,
            next_id,
            slices_run,
            boot_images,
            snapshot_boots,
            index_of: HashMap::new(),
            pool: None,
            sched: SchedScratch::default(),
            scheduled_slices: 0,
            slice_budget,
            admit_order: Vec::new(),
            admit_caps: Vec::new(),
        };
        svc.rebuild_index();
        Some(svc)
    }
}

/// Decodes the length-prefixed tenant blocks of a manifest, fanning the
/// work across up to `threads` scoped workers. The blocks are
/// independent by construction — each carries its full word span — so
/// order-preserving chunked decode is safe; any malformed or
/// not-fully-consumed block fails the whole restore closed (`None`).
/// Worker count is execution-only: the decoded roster is identical at
/// any `threads`.
fn decode_tenant_blocks(
    seed: u64,
    blocks: &[&[u32]],
    cache: &[(BootKey, CachedProgram)],
    threads: usize,
) -> Option<Vec<TenantRuntime>> {
    fn one(seed: u64, block: &[u32], cache: &[(BootKey, CachedProgram)]) -> Option<TenantRuntime> {
        let mut r = WordReader::new(block);
        let t = TenantRuntime::import_state(seed, &mut r, cache)?;
        r.is_empty().then_some(t)
    }
    let workers = threads.max(1).min(blocks.len());
    if workers <= 1 {
        return blocks.iter().map(|b| one(seed, b, cache)).collect();
    }
    let chunk = blocks.len().div_ceil(workers);
    let decoded: Vec<Option<TenantRuntime>> = std::thread::scope(|s| {
        let handles: Vec<_> = blocks
            .chunks(chunk)
            .map(|run| s.spawn(move || run.iter().map(|b| one(seed, b, cache)).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant decode worker never panics"))
            .collect()
    });
    decoded.into_iter().collect()
}

/// Manifest tag for a [`PublishHeuristic`] (shared between the tenant
/// config section and the boot-image cache keys).
fn write_heuristic(w: &mut WordWriter, h: PublishHeuristic) {
    match h {
        PublishHeuristic::Sorting => w.u32(0),
        PublishHeuristic::Frontier => w.u32(1),
        PublishHeuristic::Shrink { max_nodes } => {
            w.u32(2);
            w.u64(max_nodes as u64);
        }
        PublishHeuristic::Preorder => w.u32(3),
    }
}

/// Inverse of [`write_heuristic`]; fails closed on unknown tags.
fn read_heuristic(r: &mut WordReader<'_>) -> Option<PublishHeuristic> {
    Some(match r.u32()? {
        0 => PublishHeuristic::Sorting,
        1 => PublishHeuristic::Frontier,
        2 => PublishHeuristic::Shrink {
            max_nodes: usize::try_from(r.u64()?).ok()?,
        },
        3 => PublishHeuristic::Preorder,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_types::SloSpec;
    use bcast_workloads::{DemandShape, DemandSpec};

    fn demand(rate: u32) -> DemandSpec {
        DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, rate)
    }

    fn boot(threads: usize, tenants: u64) -> ServeLoop {
        let mut svc = ServeLoop::new(0x5EED, threads);
        for id in 0..tenants {
            svc.join(TenantConfig::new(id, 32));
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand(120), None, SloSpec::lossless(), 6);
        }
        svc
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let snapshots = |threads: usize| {
            let mut svc = boot(threads, 5);
            svc.run_slices(6);
            svc.tenants()
                .iter()
                .map(|t| (t.id(), t.phase_snapshot()))
                .collect::<Vec<_>>()
        };
        let one = snapshots(1);
        assert_eq!(one, snapshots(2));
        assert_eq!(one, snapshots(4));
        assert_eq!(one, snapshots(16), "more threads than tenants");
    }

    #[test]
    fn pooled_executor_matches_the_scoped_oracle() {
        for threads in [1usize, 2, 4] {
            let mut pooled = boot(threads, 5);
            let mut scoped = boot(threads, 5);
            for _ in 0..6 {
                pooled.run_slice();
                scoped.run_slice_scoped();
            }
            let snap = |svc: &ServeLoop| {
                svc.tenants()
                    .iter()
                    .map(|t| (t.id(), t.phase_snapshot()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(snap(&pooled), snap(&scoped), "threads = {threads}");
            assert_eq!(pooled.slices_run(), scoped.slices_run());
        }
    }

    #[test]
    fn fewer_tenants_than_threads_leaves_lanes_empty() {
        // Regression: the old chunked split could produce fewer chunks
        // than workers; the pooled scheduler must tolerate a roster
        // smaller than the pool (idle lanes) and still match sequential.
        let mut wide = boot(8, 3);
        let mut narrow = boot(1, 3);
        for _ in 0..6 {
            wide.run_slice();
            narrow.run_slice();
        }
        let snap = |svc: &ServeLoop| {
            svc.tenants()
                .iter()
                .map(|t| (t.id(), t.phase_snapshot()))
                .collect::<Vec<_>>()
        };
        assert_eq!(snap(&wide), snap(&narrow));
        // Mid-run shrink to a single tenant: pooled path degrades to
        // sequential without touching the parked pool.
        wide.leave(1);
        wide.leave(2);
        narrow.leave(1);
        narrow.leave(2);
        for _ in 0..3 {
            wide.run_slice();
            narrow.run_slice();
        }
        assert_eq!(snap(&wide), snap(&narrow));
    }

    #[test]
    fn roster_position_does_not_change_a_tenant() {
        // Tenant 3 solo vs tenant 3 among neighbors: bit-identical.
        let mut solo = ServeLoop::new(9, 1);
        solo.join(TenantConfig::new(3, 24));
        solo.tenant_mut(3)
            .unwrap()
            .begin_phase(demand(90), None, SloSpec::lossless(), 5);
        solo.run_slices(5);

        let mut svc = ServeLoop::new(9, 2);
        for id in [0u64, 1, 3, 6] {
            svc.join(TenantConfig::new(id, 24));
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand(90), None, SloSpec::lossless(), 5);
        }
        svc.run_slices(5);
        assert_eq!(
            solo.tenant(3).unwrap().phase_snapshot(),
            svc.tenant(3).unwrap().phase_snapshot()
        );
    }

    #[test]
    fn boot_image_cache_serves_same_shape_joins() {
        let svc = boot(1, 5);
        // First join of the shape pays the publish; the other four
        // cold-start from its deposited image.
        assert_eq!(svc.snapshot_boots(), 4);
        let mut mixed = ServeLoop::new(1, 1);
        mixed.join(TenantConfig::new(0, 32));
        mixed.join(TenantConfig::new(1, 48));
        assert_eq!(mixed.snapshot_boots(), 0, "different shapes never share");
        mixed.join(TenantConfig::new(2, 48));
        assert_eq!(mixed.snapshot_boots(), 1);
    }

    #[test]
    fn churn_keeps_ids_stable_and_unique() {
        let mut svc = boot(1, 3);
        assert_eq!(svc.next_id(), 3);
        svc.leave(1);
        let id = svc.next_id();
        svc.join(TenantConfig::new(id, 32));
        assert_eq!(id, 3, "freed low ids are not recycled");
        assert_eq!(
            svc.tenants().iter().map(|t| t.id()).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert!(!svc.leave(99), "unknown id");
    }

    #[test]
    fn id_lookups_stay_correct_across_churn() {
        let mut svc = boot(1, 4);
        // The map, not roster order, resolves ids: remove from the
        // middle, join a high id, then check every survivor.
        svc.leave(1);
        svc.join(TenantConfig::new(40, 32));
        svc.leave(0);
        for id in [2u64, 3, 40] {
            assert_eq!(svc.tenant(id).map(|t| t.id()), Some(id));
            assert_eq!(svc.tenant_mut(id).map(|t| t.id()), Some(id));
        }
        for id in [0u64, 1, 99] {
            assert!(svc.tenant(id).is_none());
            assert!(svc.tenant_mut(id).is_none());
        }
    }

    fn snap(svc: &ServeLoop) -> Vec<(u64, bcast_types::SloSnapshot)> {
        svc.tenants()
            .iter()
            .map(|t| (t.id(), t.phase_snapshot()))
            .collect()
    }

    #[test]
    fn budget_at_or_above_demand_is_a_no_op() {
        let mut capped = boot(1, 4);
        capped.set_slice_budget(Some(4 * 120));
        let mut free = boot(1, 4);
        for _ in 0..6 {
            capped.run_slice();
            free.run_slice();
        }
        assert_eq!(snap(&capped), snap(&free));
        assert!(snap(&capped).iter().all(|(_, s)| s.shed_requests == 0));
    }

    #[test]
    fn shedding_is_deterministic_across_threads_and_executors() {
        let run = |threads: usize, scoped: bool| {
            let mut svc = boot(threads, 5);
            svc.set_slice_budget(Some(300));
            for _ in 0..6 {
                if scoped {
                    svc.run_slice_scoped();
                } else {
                    svc.run_slice();
                }
            }
            snap(&svc)
        };
        let one = run(1, false);
        assert_eq!(one, run(2, false));
        assert_eq!(one, run(4, false));
        assert_eq!(one, run(2, true), "scoped oracle under budget");
        // 5 tenants at 120 against a budget of 300: every slice admits
        // exactly the budget and sheds the rest, and the floor keeps
        // delivery rate honest.
        let total_shed: u64 = one.iter().map(|(_, s)| s.shed_requests).sum();
        let total_requests: u64 = one.iter().map(|(_, s)| s.requests).sum();
        assert_eq!(total_requests, 5 * 120 * 6);
        assert_eq!(total_shed, (5 * 120 - 300) * 6);
        for (_, s) in &one {
            assert!(s.shed_requests > 0, "uniform roster: everyone clipped");
            assert!(s.delivery_rate() < 0.9, "shedding shows in the SLO");
        }
    }

    #[test]
    fn under_share_tenants_are_untouched_by_neighbors_shedding() {
        // Tenant 3 asks for far less than its fair share; three hot
        // neighbors blow the budget. Water-filling must leave tenant 3
        // bit-identical to serving solo with no budget at all.
        let script = |svc: &mut ServeLoop, id: u64, rate: u32| {
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand(rate), None, SloSpec::lossless(), 6)
        };
        let mut solo = ServeLoop::new(0x5EED, 1);
        solo.join(TenantConfig::new(3, 32));
        script(&mut solo, 3, 50);
        solo.run_slices(6);

        let mut crowded = ServeLoop::new(0x5EED, 2);
        for id in [0u64, 1, 2, 3] {
            crowded.join(TenantConfig::new(id, 32));
            script(&mut crowded, id, if id == 3 { 50 } else { 500 });
        }
        crowded.set_slice_budget(Some(800));
        crowded.run_slices(6);

        let quiet = crowded.tenant(3).unwrap().phase_snapshot();
        assert_eq!(solo.tenant(3).unwrap().phase_snapshot(), quiet);
        assert_eq!(quiet.shed_requests, 0);
        // The hot neighbors split the remaining 750 at the water level.
        for id in [0u64, 1, 2] {
            let s = crowded.tenant(id).unwrap().phase_snapshot();
            assert_eq!(s.requests, 500 * 6);
            assert_eq!(s.shed_requests, 250 * 6);
        }
    }

    #[test]
    fn poisoned_tenant_is_quarantined_and_neighbors_never_notice() {
        crate::silence_chaos_panic_reports();
        let mut clean = boot(2, 4);
        let mut poisoned = boot(2, 4);
        poisoned.tenant_mut(1).unwrap().inject_panic_after(2);
        for _ in 0..6 {
            clean.run_slice();
            poisoned.run_slice();
        }
        for id in [0u64, 2, 3] {
            assert_eq!(
                clean.tenant(id).unwrap().phase_snapshot(),
                poisoned.tenant(id).unwrap().phase_snapshot(),
                "neighbor {id} perturbed by the poisoned tenant"
            );
        }
        let sick = poisoned.tenant(1).unwrap().phase_snapshot();
        assert_eq!(sick.quarantined, 1);
        assert_eq!(sick.readmitted, 1, "probe after backoff readmits");
    }

    #[test]
    fn exported_state_restores_bit_identically_mid_run() {
        let mut svc = boot(2, 5);
        svc.set_slice_budget(Some(400));
        svc.run_slices(3);
        let mut w = WordWriter::new();
        svc.export_state(&mut w);
        let words = w.into_words();
        let mut restored = ServeLoop::import_state(&mut WordReader::new(&words), 4)
            .expect("self-exported state must import");
        svc.run_slices(3);
        restored.run_slices(3);
        assert_eq!(svc.slices_run(), restored.slices_run());
        assert_eq!(snap(&svc), snap(&restored));
        assert_eq!(svc.snapshot_boots(), restored.snapshot_boots());
        // Post-restore churn must hit the boot-image cache exactly as
        // the uninterrupted run would.
        let id = restored.next_id();
        assert_eq!(id, svc.next_id());
        svc.join(TenantConfig::new(id, 32));
        restored.join(TenantConfig::new(id, 32));
        assert_eq!(svc.snapshot_boots(), restored.snapshot_boots());
        // Truncation at every cut fails closed, never half-restores.
        for cut in 0..words.len().min(200) {
            assert!(ServeLoop::import_state(&mut WordReader::new(&words[..cut]), 1).is_none());
        }
    }

    #[test]
    fn pool_stats_report_lanes_and_busy_time() {
        let mut svc = boot(1, 2);
        svc.run_slices(2);
        let seq = svc.pool_stats();
        assert_eq!(seq.workers, 1, "sequential loop never builds a pool");
        assert_eq!(seq.scheduled_slices, 0);
        assert_eq!(seq.imbalance_ppm, 0);

        let mut svc = boot(2, 4);
        svc.run_slices(4);
        let stats = svc.pool_stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.scheduled_slices, 4);
        assert_eq!(stats.busy_ns.len(), 2);
        assert!(stats.busy_ns.iter().all(|&ns| ns > 0));
        assert!(stats.imbalance_ppm <= 1_000_000);
    }
}
