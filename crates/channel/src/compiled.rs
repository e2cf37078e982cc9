//! Compiled route tables and the batched serving engine.
//!
//! [`simulator::access`](crate::simulator::access) re-walks the pointer
//! path through the bucket grid for every request — an O(path) walk plus an
//! O(tree) ancestor-marking allocation. Every quantity it reports, however,
//! is a pure function of `(target, tune-in residue)`:
//!
//! * probe wait depends only on the tune-in residue within the cycle,
//! * data wait, tuning time and channel switches depend only on the target,
//!   because the pointer route from the root to a data bucket is fixed by
//!   the program.
//!
//! [`CompiledProgram::compile`] therefore walks the pointer graph **once**
//! (each bucket is visited exactly once — O(buckets)), validating every
//! pointer on the way, and stores per-node route records in flat
//! structure-of-arrays tables. A single access becomes three array reads
//! and one subtraction; [`CompiledProgram::serve_batch`] feeds millions of
//! requests through those tables with per-thread sharding and a streaming
//! [`LatencyHistogram`], never allocating per request. The pointer-chasing
//! simulator remains the oracle the tables are property-tested against.
//!
//! # Kernel layout
//!
//! The route tables are three dense `u32` columns (`slot`, `path_len`,
//! `switches`). Slots are 1-based, so `slot == 0` doubles as the
//! "unrouted" sentinel — there is no separate `routed` bitmap to load per
//! request. The columns remain the canonical representation (the oracle
//! path and the snapshot format read them), but
//! the batch engine serves from an interleaved mirror: one 16-byte record
//! `[slot, path_len, switches, 0]` per node, so a request's entire route
//! costs **one** cache-line touch instead of three — on a Zipf workload
//! whose tables exceed L1 that is the dominant cost, not arithmetic.
//!
//! [`serve_batch`](CompiledProgram::serve_batch) processes requests in
//! fixed-size chunks: per chunk it draws all tune-in residues, gathers the
//! packed records (with an explicit AVX2 gather under the `simd` cargo
//! feature, or an autovectorization-friendly scalar loop by default),
//! validates the chunk with a folded sentinel flag (re-scanned in order
//! only on failure, so the reported error is identical to the reference
//! loop's), prefetches the next chunk's records, and records access times
//! into the histogram in one [`LatencyHistogram::record_batch`] call. The
//! original per-request loop over the SoA columns survives as
//! [`serve_batch_scalar`](CompiledProgram::serve_batch_scalar) — the
//! oracle the chunked kernel is pinned bit-identical to at any thread
//! count.

use crate::faults::{self, FaultPlan, RecoveryPolicy, RequestOutcome};
use crate::hist::LatencyHistogram;
use crate::program::{BroadcastProgram, Bucket};
use crate::simulator::{AccessTrace, SimError};
use bcast_index_tree::IndexTree;
use bcast_types::{BucketAddr, ChannelId, NodeId, Slot};

/// SplitMix64 finalizer: spreads a request index into an independent
/// 64-bit draw, so per-request tune-in slots depend only on the *global*
/// request index — sharded serving is thread-count invariant.
#[inline]
fn mix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Division-free remainder by a fixed cycle length (Lemire's fastmod).
///
/// `c = ⌈2^128 / d⌉` is the 128-bit fixed-point inverse of `d`; the
/// remainder of `x mod d` is the high 64 bits of `(c·x mod 2^128) · d`.
/// With a 128-bit fraction this is **exact** for every `x < 2^64` and
/// `d ≤ 2^32` (the fraction width 128 ≥ 64 + log2(d) bound from the
/// fastmod paper), so it can replace the hardware `%` in the serving
/// kernel without perturbing a single tune-in draw. Property tests pin it
/// against `%` directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastMod {
    d: u64,
    c: u128,
}

impl FastMod {
    /// Precomputes the inverse of `d`. `d` must be nonzero and fit in 32
    /// bits (cycle lengths are `u32`).
    #[inline]
    pub(crate) fn new(d: u64) -> Self {
        debug_assert!(d != 0, "modulus must be nonzero");
        debug_assert!(d <= u64::from(u32::MAX) + 1, "modulus must fit 32 bits");
        // For d = 1 the fraction wraps to 0, which still yields the
        // correct remainder (always 0) — hence the wrapping add.
        FastMod {
            d,
            c: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    /// `x % d`, exactly, with two multiplies instead of a division.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        let lowbits = self.c.wrapping_mul(u128::from(x));
        // High 64 bits of the 192-bit product `lowbits · d`.
        let bottom = ((lowbits & u128::from(u64::MAX)) * u128::from(self.d)) >> 64;
        let top = (lowbits >> 64) * u128::from(self.d);
        ((top + bottom) >> 64) as u64
    }
}

/// Chunk size of the batched serving kernel: big enough to amortize the
/// histogram flush and validation fold, small enough that the per-chunk
/// probe/total buffers live in registers and L1. Public so streaming
/// callers ([`ServeSession`]) can size their staging buffers to feed the
/// kernel whole chunks.
pub const SERVE_CHUNK: usize = 256;

/// Per-node route tables compiled from a [`BroadcastProgram`].
///
/// Construction validates the whole pointer graph (every child reachable,
/// every pointer landing on the bucket it promises), so lookups are
/// infallible for any data node of the source tree — the O(1) answers are
/// *exact*, not approximations, by the argument in the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledProgram {
    cycle_len: u32,
    /// `T(Di)`: absolute 1-based slot of the node's data bucket, or `0`
    /// for unrouted nodes — the sentinel doubles as the lookup guard, so
    /// the hot columns stay three cache-dense `u32` lanes.
    slot: Vec<u32>,
    /// Buckets read on the pointer path root..=data (tuning time minus the
    /// initial probe bucket).
    path_len: Vec<u32>,
    /// Channel switches performed after the probe.
    switches: Vec<u32>,
    /// Interleaved serve-kernel mirror of the columns: one 16-byte record
    /// `[slot, path_len, switches, 0]` per node, kept in sync by every
    /// mutation path, so a request's whole route is one cache-line touch.
    packed: Vec<[u32; 4]>,
    num_data: usize,
}

impl CompiledProgram {
    /// Compiles `program` (built over `tree`) into flat route tables in one
    /// pass over the pointer graph.
    ///
    /// # Errors
    /// Surfaces the same corruption classes the walking simulator would hit
    /// at request time, but eagerly: [`SimError::NoRoute`] if an index
    /// bucket lacks a pointer to one of its children, and
    /// [`SimError::BrokenPointer`] if a pointer leads outside the grid or
    /// to a bucket not holding the promised node.
    pub fn compile(program: &BroadcastProgram, tree: &IndexTree) -> Result<Self, SimError> {
        let n = tree.len();
        let mut this = CompiledProgram {
            cycle_len: program.cycle_len() as u32,
            slot: vec![0; n],
            path_len: vec![0; n],
            switches: vec![0; n],
            packed: vec![[0; 4]; n],
            num_data: 0,
        };
        // Depth-first over the pointer graph; the tree structure guarantees
        // each node (hence each occupied bucket) is pushed exactly once.
        let root_addr = BucketAddr {
            channel: ChannelId::FIRST,
            slot: Slot::FIRST,
        };
        let mut stack: Vec<(BucketAddr, NodeId, u32, u32)> = vec![(root_addr, tree.root(), 1, 0)];
        while let Some((at, expect, path_len, switches)) = stack.pop() {
            if at.channel.index() >= program.num_channels()
                || at.slot.offset() >= program.cycle_len()
            {
                // A corrupt pointer escaping the grid: report it instead of
                // indexing out of bounds.
                return Err(SimError::BrokenPointer {
                    at,
                    expected: expect,
                });
            }
            match program.bucket(at) {
                Bucket::Data { node } if *node == expect && tree.is_data(expect) => {
                    let i = expect.index();
                    debug_assert!(at.slot.0 != 0, "slots are 1-based");
                    this.slot[i] = at.slot.0;
                    this.path_len[i] = path_len;
                    this.switches[i] = switches;
                    this.packed[i] = [at.slot.0, path_len, switches, 0];
                    this.num_data += 1;
                }
                Bucket::Index { node, pointers } if *node == expect => {
                    for &child in tree.children(expect) {
                        let Some(ptr) = pointers.iter().find(|p| p.child == child) else {
                            return Err(SimError::NoRoute {
                                at: expect,
                                target: child,
                            });
                        };
                        stack.push((
                            BucketAddr {
                                channel: ptr.channel,
                                slot: Slot(at.slot.0 + ptr.offset),
                            },
                            child,
                            path_len + 1,
                            switches + u32::from(ptr.channel != at.channel),
                        ));
                    }
                }
                // Bucket holds something other than the routed-to node (or
                // a data payload where the tree expects an index node).
                Bucket::Data { .. } | Bucket::Index { .. } | Bucket::Empty => {
                    return Err(SimError::BrokenPointer {
                        at,
                        expected: expect,
                    });
                }
            }
        }
        Ok(this)
    }

    /// Resets the tables for `n` nodes and `cycle_len` slots, keeping the
    /// backing capacity — the fused pipeline's rebuild entry point
    /// (`clear` + `resize` never reallocates once the buffers have grown
    /// to steady-state size).
    pub(crate) fn reset(&mut self, n: usize, cycle_len: u32) {
        self.cycle_len = cycle_len;
        self.slot.clear();
        self.slot.resize(n, 0);
        self.path_len.clear();
        self.path_len.resize(n, 0);
        self.switches.clear();
        self.switches.resize(n, 0);
        self.packed.clear();
        self.packed.resize(n, [0; 4]);
        self.num_data = 0;
    }

    /// Writes one data node's route record — the fused pipeline's
    /// equivalent of the DFS leaf case in [`CompiledProgram::compile`].
    #[inline]
    pub(crate) fn record_data(&mut self, node: NodeId, slot: u32, path_len: u32, switches: u32) {
        let i = node.index();
        debug_assert!(self.slot[i] == 0, "data node recorded twice");
        debug_assert!(slot != 0, "slots are 1-based");
        self.slot[i] = slot;
        self.path_len[i] = path_len;
        self.switches[i] = switches;
        self.packed[i] = [slot, path_len, switches, 0];
        self.num_data += 1;
    }

    /// Cycle length in slots.
    #[inline]
    pub fn cycle_len(&self) -> usize {
        self.cycle_len as usize
    }

    /// Number of routed data nodes.
    #[inline]
    pub fn num_data_nodes(&self) -> usize {
        self.num_data
    }

    /// The absolute slot `T(Di)` of a data node's bucket, or `None` for
    /// index nodes / foreign ids.
    #[inline]
    pub fn data_slot(&self, node: NodeId) -> Option<Slot> {
        self.slot
            .get(node.index())
            .copied()
            .filter(|&s| s != 0)
            .map(Slot)
    }

    /// Number of nodes the route tables cover (data and index alike) —
    /// the length of every column.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.slot.len()
    }

    /// Every routed data node, in node-id order — lets snapshot consumers
    /// build request batches without the source tree.
    pub fn routed_nodes(&self) -> Vec<NodeId> {
        self.slot
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Borrows the raw SoA columns `(cycle_len, slot, path_len, switches,
    /// num_data)` for the snapshot writer.
    pub(crate) fn columns(&self) -> (u32, &[u32], &[u32], &[u32], usize) {
        (
            self.cycle_len,
            &self.slot,
            &self.path_len,
            &self.switches,
            self.num_data,
        )
    }

    /// Rebuilds a program from validated snapshot columns: one slot
    /// memcpy plus a single fused pass that widens each packed route
    /// word (`path_len | switches << 16`) into the two metric columns
    /// and the packed mirror. The caller (the snapshot loader) has
    /// already checked the sentinel invariants (`count(slot != 0) ==
    /// num_data`, `max(slot) ≤ cycle_len`), so this is infallible.
    pub(crate) fn from_columns(
        cycle_len: u32,
        slot: &[u32],
        route: &[u32],
        num_data: usize,
    ) -> Self {
        debug_assert_eq!(slot.len(), route.len());
        let n = slot.len();
        let mut path_len = Vec::with_capacity(n);
        let mut switches = Vec::with_capacity(n);
        let mut packed = Vec::with_capacity(n);
        for (&s, &r) in slot.iter().zip(route) {
            let p = r & 0xFFFF;
            let w = r >> 16;
            path_len.push(p);
            switches.push(w);
            packed.push([s, p, w, 0]);
        }
        CompiledProgram {
            cycle_len,
            slot: slot.to_vec(),
            path_len,
            switches,
            packed,
            num_data,
        }
    }

    /// Probe wait for a tune-in slot: slots until the next cycle's root
    /// bucket has been read, with cyclic wraparound for tune-ins past the
    /// cycle (matching the walking simulator's normalization).
    #[inline]
    pub fn probe_wait(&self, tune_in: Slot) -> u32 {
        self.cycle_len - (tune_in.offset() as u32 % self.cycle_len)
    }

    /// O(1) equivalent of [`simulator::access`](crate::simulator::access):
    /// three table reads and the probe-wait subtraction.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] for index nodes or foreign ids; routing
    /// errors cannot occur here because compilation validated every route.
    #[inline]
    pub fn access(&self, target: NodeId, tune_in: Slot) -> Result<AccessTrace, SimError> {
        let i = target.index();
        let slot = self.slot.get(i).copied().unwrap_or(0);
        if slot == 0 {
            return Err(SimError::NotADataNode(target));
        }
        Ok(AccessTrace {
            probe_wait: self.probe_wait(tune_in),
            data_wait: slot - 1,
            tuning_time: self.path_len[i] + 1,
            channel_switches: self.switches[i],
        })
    }

    /// Serves a batch of requests through the route tables, optionally
    /// sharded over `opts.threads` OS threads, and aggregates exact means
    /// plus a streaming latency histogram (no per-request allocation).
    ///
    /// Each request's tune-in slot is drawn uniformly over the cycle from
    /// `opts.seed` and the request's **global index**, so the result is
    /// bit-identical for every thread count — and because
    /// [`FaultPlan::link`] is keyed by the same global index, that also
    /// holds with `opts.faults` enabled. With [`FaultPlan::none`] the
    /// engine takes the original fault-free fast path unchanged; with
    /// faults, each lost read is recovered per `opts.recovery`, delivered
    /// requests record their **total** access time (recovery wait
    /// included) in the histogram, and failed requests are counted in
    /// [`BatchMetrics::failed`] instead of aborting the batch.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] if any target is not a routed data node.
    pub fn serve_batch(
        &self,
        targets: &[NodeId],
        opts: &ServeOptions,
    ) -> Result<BatchMetrics, SimError> {
        self.serve_batch_with(targets, opts, Kernel::Chunked)
    }

    /// [`serve_batch`](Self::serve_batch) through the original per-request
    /// scalar loop — the bit-identity oracle for the chunked/SIMD kernel.
    /// Results are pinned equal to `serve_batch` for every input and
    /// thread count (property-tested); the only difference is speed.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] if any target is not a routed data node.
    pub fn serve_batch_scalar(
        &self,
        targets: &[NodeId],
        opts: &ServeOptions,
    ) -> Result<BatchMetrics, SimError> {
        self.serve_batch_with(targets, opts, Kernel::Reference)
    }

    fn serve_batch_with(
        &self,
        targets: &[NodeId],
        opts: &ServeOptions,
        kernel: Kernel,
    ) -> Result<BatchMetrics, SimError> {
        let threads = opts.threads.max(1);
        // Replica-gap overlay shared by every shard (empty when unused).
        let root_gaps = if opts.faults.is_none() {
            Vec::new()
        } else {
            faults::root_occurrence_gaps(self.cycle_len(), opts.recovery.root_replicas)
        };
        let shard = if threads <= 1 || targets.len() < threads {
            self.serve_shard(targets, 0, opts, &root_gaps, kernel)?
        } else {
            let chunk = targets.len().div_ceil(threads);
            let mut shards: Vec<Result<Shard, SimError>> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .chunks(chunk)
                    .enumerate()
                    .map(|(t, part)| {
                        let start = (t * chunk) as u64;
                        let gaps = &root_gaps;
                        scope.spawn(move || self.serve_shard(part, start, opts, gaps, kernel))
                    })
                    .collect();
                shards = handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect();
            });
            let mut merged: Option<Shard> = None;
            for s in shards {
                let s = s?;
                match &mut merged {
                    None => merged = Some(s),
                    Some(m) => m.merge(&s),
                }
            }
            merged.expect("at least one shard")
        };
        Ok(shard.into_metrics(targets.len()))
    }

    /// Sequential serving of one shard; `start` is the shard's global
    /// request offset (keeps tune-in and fault draws shard-layout
    /// independent).
    fn serve_shard(
        &self,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
        root_gaps: &[u64],
        kernel: Kernel,
    ) -> Result<Shard, SimError> {
        if opts.faults.is_none() {
            return match kernel {
                Kernel::Reference => self.serve_shard_reference(targets, start, opts),
                Kernel::Chunked => self.serve_shard_chunked(targets, start, opts),
            };
        }
        // Lossy path: replay the recovery protocol over each request's
        // fault-free trace. Recovery can add many cycles of wait, so the
        // histogram bound gets headroom (values beyond it clamp in
        // percentile queries; the mean stays exact).
        let mut shard = Shard::new(LOSSY_HIST_CYCLES * self.cycle_len);
        self.serve_lossy_into(&mut shard, targets, start, opts, root_gaps)?;
        Ok(shard)
    }

    /// Lossy per-request loop, accumulating into a caller-owned shard —
    /// shared by [`serve_shard`](Self::serve_shard) and the streaming
    /// [`serve_chunk`](Self::serve_chunk) path. `start` is the global
    /// index of `targets[0]`, which keys both the tune-in draw and the
    /// fault link, so feeding any chunking of a batch through this loop
    /// is bit-identical to one pass over the whole batch.
    fn serve_lossy_into(
        &self,
        shard: &mut Shard,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
        root_gaps: &[u64],
    ) -> Result<(), SimError> {
        let cycle = u64::from(self.cycle_len);
        for (j, &target) in targets.iter().enumerate() {
            let i = target.index();
            let slot = self.slot.get(i).copied().unwrap_or(0);
            if slot == 0 {
                return Err(SimError::NotADataNode(target));
            }
            let index = start + j as u64;
            let s = (mix64(opts.seed, index) % cycle) as u32 + 1;
            let base = AccessTrace {
                probe_wait: self.cycle_len - (s - 1),
                data_wait: slot - 1,
                tuning_time: self.path_len[i] + 1,
                channel_switches: self.switches[i],
            };
            let mut link = opts.faults.link(index);
            let outcome = faults::recover_access(
                base,
                Slot(s),
                self.cycle_len,
                &mut link,
                &opts.recovery,
                root_gaps,
            );
            match outcome {
                RequestOutcome::Delivered(d) => {
                    let total = u32::try_from(d.total_access_time()).unwrap_or(u32::MAX);
                    shard.hist.record(total);
                    shard.wait_sum += u64::from(d.trace.data_wait);
                    shard.tune_sum += u64::from(d.trace.tuning_time);
                    shard.switch_sum += u64::from(d.trace.channel_switches);
                    shard.extra_sum += d.extra_wait;
                    shard.retries += u64::from(d.retries);
                    shard.delivered += 1;
                }
                RequestOutcome::Failed(f) => {
                    shard.retries += u64::from(f.retries);
                    shard.failed += 1;
                }
            }
        }
        Ok(())
    }

    /// Fault-free serving, one request at a time — the original engine,
    /// kept verbatim as the oracle the chunked kernel is pinned against.
    fn serve_shard_reference(
        &self,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
    ) -> Result<Shard, SimError> {
        let cycle = u64::from(self.cycle_len);
        let mut shard = Shard::new(2 * self.cycle_len);
        for (j, &target) in targets.iter().enumerate() {
            let i = target.index();
            let slot = self.slot.get(i).copied().unwrap_or(0);
            if slot == 0 {
                return Err(SimError::NotADataNode(target));
            }
            let probe = self.cycle_len - (mix64(opts.seed, start + j as u64) % cycle) as u32;
            let wait = slot - 1;
            shard.hist.record(probe + wait);
            shard.wait_sum += u64::from(wait);
            shard.tune_sum += u64::from(self.path_len[i] + 1);
            shard.switch_sum += u64::from(self.switches[i]);
            shard.delivered += 1;
        }
        Ok(shard)
    }

    /// Fault-free serving in [`SERVE_CHUNK`]-request chunks: division-free
    /// tune-in draws, a folded sentinel validation (re-scanned in order
    /// only on failure so the error matches the reference loop's), column
    /// gathers (AVX2 under the `simd` feature), batched histogram flush,
    /// and a prefetch of the next chunk's `slot` records.
    ///
    /// Every arithmetic step is exact integer work in the same order as
    /// the reference loop (sums are commutative u64 adds), so the shard it
    /// produces is bit-identical to [`serve_shard_reference`]'s.
    ///
    /// [`serve_shard_reference`]: CompiledProgram::serve_shard_reference
    fn serve_shard_chunked(
        &self,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
    ) -> Result<Shard, SimError> {
        let mut shard = Shard::new(2 * self.cycle_len);
        self.serve_chunks_into(&mut shard, targets, start, opts.seed)?;
        Ok(shard)
    }

    /// Chunked fault-free kernel body, accumulating into a caller-owned
    /// shard — shared by [`serve_shard_chunked`] and the streaming
    /// [`serve_chunk`](Self::serve_chunk) path. `start` is the global
    /// index of `targets[0]`. Every per-request quantity depends only on
    /// that global index and the target, and every accumulation is
    /// commutative exact integer arithmetic, so feeding a batch through
    /// this body in *any* chunking produces a bit-identical shard.
    ///
    /// [`serve_shard_chunked`]: CompiledProgram::serve_shard_chunked
    fn serve_chunks_into(
        &self,
        shard: &mut Shard,
        targets: &[NodeId],
        start: u64,
        seed: u64,
    ) -> Result<(), SimError> {
        if targets.is_empty() {
            return Ok(());
        }
        let n = self.slot.len();
        if n == 0 {
            return Err(SimError::NotADataNode(targets[0]));
        }
        let fm = FastMod::new(u64::from(self.cycle_len));
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let use_avx2 = std::arch::is_x86_feature_detected!("avx2") && n <= i32::MAX as usize / 4;
        let mut totals = [0u32; SERVE_CHUNK];
        for (chunk_no, chunk) in targets.chunks(SERVE_CHUNK).enumerate() {
            let base = chunk_no * SERVE_CHUNK;
            // Hint the next chunk's route records first, so the prefetches
            // land while this whole chunk is processed and flushed.
            self.prefetch_slots(targets, base + SERVE_CHUNK);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if use_avx2 && chunk.len() == SERVE_CHUNK {
                // SAFETY: AVX2 availability was checked once up front.
                let ok = unsafe {
                    self.gather_chunk_avx2(chunk, start + base as u64, fm, seed, &mut totals, shard)
                };
                if !ok {
                    return Err(self.first_unrouted(chunk));
                }
                shard.hist.record_batch(&totals[..chunk.len()]);
                shard.delivered += chunk.len() as u64;
                continue;
            }
            // One fused pass per chunk: draw the tune-in residue with the
            // division-free reduction, read the node's packed route record
            // (one 16-byte load), fold the sentinel check into one flag
            // (a bad lane yields the zero record; the chunk is rejected
            // before anything is recorded, so its garbage never escapes),
            // and buffer the access totals for one batched histogram
            // flush.
            let mut bad = false;
            let mut wait_sum = 0u64;
            let mut tune_sum = 0u64;
            let mut switch_sum = 0u64;
            for (c, &target) in chunk.iter().enumerate() {
                let rec = self.packed.get(target.index()).copied().unwrap_or([0; 4]);
                bad |= rec[0] == 0;
                let probe = self.cycle_len - fm.rem(mix64(seed, start + (base + c) as u64)) as u32;
                let wait = rec[0].wrapping_sub(1);
                totals[c] = probe.wrapping_add(wait);
                wait_sum += u64::from(wait);
                tune_sum += u64::from(rec[1] + 1);
                switch_sum += u64::from(rec[2]);
            }
            if bad {
                return Err(self.first_unrouted(chunk));
            }
            shard.hist.record_batch(&totals[..chunk.len()]);
            shard.wait_sum += wait_sum;
            shard.tune_sum += tune_sum;
            shard.switch_sum += switch_sum;
            shard.delivered += chunk.len() as u64;
        }
        Ok(())
    }

    /// In-order scan for the first unrouted target of a rejected chunk —
    /// reports exactly the error the reference loop would.
    #[cold]
    fn first_unrouted(&self, chunk: &[NodeId]) -> SimError {
        for &target in chunk {
            if self.slot.get(target.index()).copied().unwrap_or(0) == 0 {
                return SimError::NotADataNode(target);
            }
        }
        unreachable!("rejected chunk contains an unrouted target")
    }

    /// Prefetches the packed route records of the next chunk's targets
    /// (x86_64; a no-op elsewhere). One 16-byte record per node means one
    /// hint per target covers everything the fused loop will load.
    #[inline]
    fn prefetch_slots(&self, targets: &[NodeId], from: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            let n = self.packed.len();
            let upto = (from + SERVE_CHUNK).min(targets.len());
            for &t in targets.get(from..upto).unwrap_or(&[]) {
                let i = t.index();
                if i < n {
                    // SAFETY: `i < n` keeps the address inside the table;
                    // prefetch has no other safety requirements.
                    unsafe {
                        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                        _mm_prefetch(self.packed.as_ptr().add(i).cast::<i8>(), _MM_HINT_T0);
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (targets, from);
        }
    }

    /// AVX2 chunk body for a **full** chunk: draws the residues scalar
    /// (the 64-bit mixes and the 128-bit fastmod multiply have no AVX2
    /// equivalent), then gathers the three route columns eight lanes at a
    /// time, computes `total = probe + (slot − 1)` per lane, stores the
    /// totals for the batched histogram flush, and accumulates the wait /
    /// tune / switch sums in 64-bit lanes. Exact integer arithmetic —
    /// bit-identical to the scalar chunk body by construction. Returns
    /// `false` (recording nothing) if any target is unrouted.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available, `chunk.len() == SERVE_CHUNK`,
    /// the route columns are non-empty, and their length fits `i32`.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_chunk_avx2(
        &self,
        chunk: &[NodeId],
        global_start: u64,
        fm: FastMod,
        seed: u64,
        totals: &mut [u32; SERVE_CHUNK],
        shard: &mut Shard,
    ) -> bool {
        use std::arch::x86_64::*;
        let n = self.packed.len();
        let mut probes = [0u32; SERVE_CHUNK];
        let mut idx = [0i32; SERVE_CHUNK];
        let mut bad = false;
        for (c, &target) in chunk.iter().take(SERVE_CHUNK).enumerate() {
            let i = target.index();
            let slot = self.packed.get(i).map_or(0, |r| r[0]);
            bad |= slot == 0;
            // Clamped lane index keeps the gather in bounds; a bad chunk
            // is rejected before anything is recorded. Scaled by 4: the
            // gathers index u32 lanes of the packed records.
            idx[c] = (i.min(n - 1) * 4) as i32;
            probes[c] = self.cycle_len - fm.rem(mix64(seed, global_start + c as u64)) as u32;
        }
        if bad {
            return false;
        }
        let base_ptr = self.packed.as_ptr().cast::<i32>();
        let ones = _mm256_set1_epi32(1);
        let mut wait_acc = _mm256_setzero_si256();
        let mut tune_acc = _mm256_setzero_si256();
        let mut switch_acc = _mm256_setzero_si256();
        // Widens 8 u32 lanes into two 4×u64 halves and adds both into acc.
        #[inline]
        unsafe fn accumulate(acc: __m256i, v: __m256i) -> __m256i {
            let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
            let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
            _mm256_add_epi64(_mm256_add_epi64(acc, lo), hi)
        }
        let mut c = 0;
        while c < SERVE_CHUNK {
            let vi = _mm256_loadu_si256(idx.as_ptr().add(c).cast::<__m256i>());
            let vslot = _mm256_i32gather_epi32(base_ptr, vi, 4);
            let vpath = _mm256_i32gather_epi32(base_ptr, _mm256_add_epi32(vi, ones), 4);
            let vswitch =
                _mm256_i32gather_epi32(base_ptr, _mm256_add_epi32(vi, _mm256_set1_epi32(2)), 4);
            let vprobe = _mm256_loadu_si256(probes.as_ptr().add(c).cast::<__m256i>());
            let vwait = _mm256_sub_epi32(vslot, ones);
            let vtotal = _mm256_add_epi32(vprobe, vwait);
            _mm256_storeu_si256(totals.as_mut_ptr().add(c).cast::<__m256i>(), vtotal);
            wait_acc = accumulate(wait_acc, vwait);
            tune_acc = accumulate(tune_acc, _mm256_add_epi32(vpath, ones));
            switch_acc = accumulate(switch_acc, vswitch);
            c += 8;
        }
        let mut lanes64 = [0u64; 4];
        for (acc, sum) in [
            (wait_acc, &mut shard.wait_sum),
            (tune_acc, &mut shard.tune_sum),
            (switch_acc, &mut shard.switch_sum),
        ] {
            _mm256_storeu_si256(lanes64.as_mut_ptr().cast::<__m256i>(), acc);
            *sum += lanes64.iter().sum::<u64>();
        }
        true
    }

    /// Single lossy access through the route tables: the compiled
    /// equivalent of [`faults::access_lossy`] (which walks the real bucket
    /// grid — property tests pin the two together).
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] for unrouted targets; losses are not
    /// errors, they surface in the [`RequestOutcome`].
    pub fn access_lossy(
        &self,
        target: NodeId,
        tune_in: Slot,
        plan: &FaultPlan,
        request_index: u64,
        policy: &RecoveryPolicy,
    ) -> Result<RequestOutcome, SimError> {
        let base = self.access(target, tune_in)?;
        let root_gaps = faults::root_occurrence_gaps(self.cycle_len(), policy.root_replicas);
        let s = (tune_in.offset() as u32 % self.cycle_len) + 1;
        let mut link = plan.link(request_index);
        Ok(faults::recover_access(
            base,
            Slot(s),
            self.cycle_len,
            &mut link,
            policy,
            &root_gaps,
        ))
    }

    /// Arms `session` to stream one logical batch through this program,
    /// reusing all of the session's buffers — allocation-free on the
    /// fault-free path once the histogram has grown to this program's
    /// bound. The result of feeding any chunking of a batch through
    /// [`serve_chunk`](Self::serve_chunk) is bit-identical to one
    /// [`serve_batch`](Self::serve_batch) call over the concatenation, at
    /// any thread count (the batch kernel is itself sharding-invariant).
    pub fn begin_session(&self, session: &mut ServeSession, opts: &ServeOptions) {
        let lossy = !opts.faults.is_none();
        let bound = if lossy {
            LOSSY_HIST_CYCLES * self.cycle_len
        } else {
            2 * self.cycle_len
        };
        session.shard.reset(bound);
        session.opts = *opts;
        session.lossy = lossy;
        if lossy {
            faults::root_occurrence_gaps_into(
                self.cycle_len(),
                opts.recovery.root_replicas,
                &mut session.root_gaps,
            );
        } else {
            session.root_gaps.clear();
        }
        session.next_index = 0;
        session.requests = 0;
    }

    /// Serves the next `targets.len()` requests of the session's batch,
    /// accumulating into the session's shard. Global request indices
    /// (which key tune-in and fault draws) advance automatically, so the
    /// caller only streams target chunks — feed [`SERVE_CHUNK`]-sized
    /// slices to hand the kernel whole chunks.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] if any target is not a routed data
    /// node. The session is left mid-batch and should be re-armed with
    /// [`begin_session`](Self::begin_session) before reuse.
    pub fn serve_chunk(
        &self,
        session: &mut ServeSession,
        targets: &[NodeId],
    ) -> Result<(), SimError> {
        let start = session.next_index;
        session.next_index += targets.len() as u64;
        session.requests += targets.len() as u64;
        if session.lossy {
            let ServeSession {
                shard,
                opts,
                root_gaps,
                ..
            } = session;
            self.serve_lossy_into(shard, targets, start, opts, root_gaps)
        } else {
            self.serve_chunks_into(&mut session.shard, targets, start, session.opts.seed)
        }
    }
}

/// Histogram headroom for lossy serving, in multiples of the cycle length
/// (fault-free serving needs exactly 2 — probe ≤ cycle, data wait <
/// cycle; recovery waits can add several more).
const LOSSY_HIST_CYCLES: u32 = 8;

/// Which fault-free shard body to run — the production chunked kernel or
/// the per-request reference loop it is pinned bit-identical to.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Chunked,
    Reference,
}

/// Options for [`CompiledProgram::serve_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// OS threads to shard the batch over (`0` and `1` both mean
    /// sequential). Results do not depend on this value.
    pub threads: usize,
    /// Seed for the per-request tune-in draws.
    pub seed: u64,
    /// Channel fault model ([`FaultPlan::none`] = the perfect channel and
    /// the original fast path).
    pub faults: FaultPlan,
    /// Recovery budget applied when `faults` is not the perfect channel.
    pub recovery: RecoveryPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 1,
            seed: 0x5EED,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl ServeOptions {
    /// The tune-in slot `serve_batch` uses for the request at `index` in a
    /// cycle of `cycle_len` slots — exposed so oracle tests can replay the
    /// exact same request against the walking simulator.
    #[inline]
    pub fn tune_in(&self, index: u64, cycle_len: usize) -> Slot {
        Slot((mix64(self.seed, index) % cycle_len as u64) as u32 + 1)
    }
}

/// Reusable state for streaming one logical batch through
/// [`CompiledProgram::serve_chunk`] without per-slice allocation.
///
/// A session owns the accumulator shard, the armed [`ServeOptions`] and
/// the lossy path's replica-gap overlay; [`CompiledProgram::begin_session`]
/// resets all of them in place (reusing buffer capacity), and the
/// accessors read the accumulated aggregates at any point mid-stream.
#[derive(Debug, Clone)]
pub struct ServeSession {
    shard: Shard,
    opts: ServeOptions,
    root_gaps: Vec<u64>,
    lossy: bool,
    next_index: u64,
    requests: u64,
}

impl ServeSession {
    /// Creates an idle session. Arm it with
    /// [`CompiledProgram::begin_session`] before feeding chunks.
    pub fn new() -> Self {
        ServeSession {
            shard: Shard::new(0),
            opts: ServeOptions::default(),
            root_gaps: Vec::new(),
            lossy: false,
            next_index: 0,
            requests: 0,
        }
    }

    /// Requests fed so far in the current batch.
    #[inline]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.shard.delivered
    }

    /// Requests failed so far (always 0 on the fault-free path).
    #[inline]
    pub fn failed(&self) -> u64 {
        self.shard.failed
    }

    /// Failed reads recovered from (or charged by failed requests).
    #[inline]
    pub fn retries(&self) -> u64 {
        self.shard.retries
    }

    /// Fraction of fed requests delivered (`1.0` before any are fed).
    #[inline]
    pub fn delivery_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.shard.delivered as f64 / self.requests as f64
        }
    }

    /// The access-time histogram accumulated so far.
    #[inline]
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.shard.hist
    }

    /// Snapshots the session's aggregates as a [`BatchMetrics`] — the
    /// same value [`CompiledProgram::serve_batch`] would return for the
    /// concatenation of every chunk fed so far. Clones the histogram, so
    /// this is for batch boundaries and tests, not the per-chunk path.
    pub fn to_metrics(&self) -> BatchMetrics {
        self.shard
            .clone()
            .into_metrics(usize::try_from(self.requests).unwrap_or(usize::MAX))
    }
}

impl Default for ServeSession {
    fn default() -> Self {
        ServeSession::new()
    }
}

/// Per-thread accumulator: integer sums (exact, order independent) plus a
/// histogram shard.
#[derive(Debug, Clone)]
struct Shard {
    hist: LatencyHistogram,
    wait_sum: u64,
    tune_sum: u64,
    switch_sum: u64,
    extra_sum: u64,
    retries: u64,
    delivered: u64,
    failed: u64,
}

impl Shard {
    fn new(bound: u32) -> Self {
        Shard {
            hist: LatencyHistogram::with_bound(bound),
            wait_sum: 0,
            tune_sum: 0,
            switch_sum: 0,
            extra_sum: 0,
            retries: 0,
            delivered: 0,
            failed: 0,
        }
    }

    /// Empties the accumulator and re-covers histogram values
    /// `0..=bound`, reusing buffer capacity — bit-equivalent to a fresh
    /// [`Shard::new`], without the allocation.
    fn reset(&mut self, bound: u32) {
        self.hist.reset(bound);
        self.wait_sum = 0;
        self.tune_sum = 0;
        self.switch_sum = 0;
        self.extra_sum = 0;
        self.retries = 0;
        self.delivered = 0;
        self.failed = 0;
    }

    fn merge(&mut self, other: &Shard) {
        self.hist.merge(&other.hist);
        self.wait_sum += other.wait_sum;
        self.tune_sum += other.tune_sum;
        self.switch_sum += other.switch_sum;
        self.extra_sum += other.extra_sum;
        self.retries += other.retries;
        self.delivered += other.delivered;
        self.failed += other.failed;
    }

    fn into_metrics(self, requests: usize) -> BatchMetrics {
        // Means are over *delivered* requests; failed ones contribute only
        // to the failure/retry columns.
        let n = self.delivered as f64;
        BatchMetrics {
            requests,
            mean_access_time: if self.delivered == 0 {
                0.0
            } else {
                self.hist.mean()
            },
            mean_data_wait: if self.delivered == 0 {
                0.0
            } else {
                self.wait_sum as f64 / n
            },
            mean_tuning_time: if self.delivered == 0 {
                0.0
            } else {
                self.tune_sum as f64 / n
            },
            mean_channel_switches: if self.delivered == 0 {
                0.0
            } else {
                self.switch_sum as f64 / n
            },
            mean_extra_wait: if self.delivered == 0 {
                0.0
            } else {
                self.extra_sum as f64 / n
            },
            delivered: self.delivered,
            failed: self.failed,
            retries: self.retries,
            histogram: self.hist,
        }
    }
}

/// Aggregated result of one [`CompiledProgram::serve_batch`] call.
///
/// All `mean_*` columns average over **delivered** requests; failed
/// requests are counted in [`failed`](Self::failed) (and their retries in
/// [`retries`](Self::retries)) but never skew the means. On the perfect
/// channel every request is delivered and the metrics are bit-identical
/// to the fault-free engine's.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    /// Requests served (delivered + failed).
    pub requests: usize,
    /// Mean access time in slots (probe wait + data wait; plus recovery
    /// wait under faults).
    pub mean_access_time: f64,
    /// Mean data wait in slots, measured from the root bucket (i.e.
    /// `T(Di) − 1` averaged over requests).
    pub mean_data_wait: f64,
    /// Mean tuning time in buckets (failed reads included for delivered
    /// requests).
    pub mean_tuning_time: f64,
    /// Mean channel switches per access.
    pub mean_channel_switches: f64,
    /// Mean slots of recovery wait added on top of the fault-free access
    /// (0 on the perfect channel).
    pub mean_extra_wait: f64,
    /// Requests delivered within their recovery budget.
    pub delivered: u64,
    /// Requests abandoned after exhausting their retry/timeout budget.
    pub failed: u64,
    /// Total failed reads recovered from (or charged by failed requests).
    pub retries: u64,
    /// Exact access-time histogram over delivered requests (quantiles via
    /// [`LatencyHistogram::percentile`]; under faults the recorded value
    /// is the total access time, recovery wait included).
    pub histogram: LatencyHistogram,
}

impl BatchMetrics {
    /// Fraction of requests delivered (`1.0` for an empty batch).
    pub fn delivery_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.delivered as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::simulator;
    use bcast_index_tree::builders;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    fn fig2b() -> (IndexTree, BroadcastProgram) {
        let t = builders::paper_example();
        let slots = vec![
            ids(&t, &["1"]),
            ids(&t, &["2", "3"]),
            ids(&t, &["A", "B"]),
            ids(&t, &["4", "E"]),
            ids(&t, &["C", "D"]),
        ];
        let a = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        let p = BroadcastProgram::build(&a, &t).unwrap();
        (t, p)
    }

    #[test]
    fn compiled_access_matches_oracle_on_every_pair() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        assert_eq!(c.num_data_nodes(), t.num_data_nodes());
        let cycle = p.cycle_len() as u32;
        for &d in t.data_nodes() {
            // Including tune-ins past the cycle (wraparound).
            for tune in 1..=(2 * cycle + 3) {
                let oracle = simulator::access(&p, &t, d, Slot(tune)).unwrap();
                let fast = c.access(d, Slot(tune)).unwrap();
                assert_eq!(oracle, fast, "node {} tune {tune}", t.label(d));
            }
        }
    }

    #[test]
    fn rejects_index_targets() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let idx = t.find_by_label("2").unwrap();
        assert_eq!(
            c.access(idx, Slot::FIRST).unwrap_err(),
            SimError::NotADataNode(idx)
        );
        assert_eq!(c.data_slot(idx), None);
    }

    #[test]
    fn dropped_pointer_fails_compilation_with_no_route() {
        let (t, mut p) = fig2b();
        let root_addr = BucketAddr::new(0, 0);
        let Bucket::Index { pointers, .. } = p.bucket_mut(root_addr) else {
            panic!("root bucket is an index bucket");
        };
        pointers.pop().expect("root has children");
        assert!(matches!(
            CompiledProgram::compile(&p, &t),
            Err(SimError::NoRoute { .. })
        ));
    }

    #[test]
    fn redirected_pointer_fails_compilation_with_broken_pointer() {
        let (t, mut p) = fig2b();
        let root_addr = BucketAddr::new(0, 0);
        let Bucket::Index { pointers, .. } = p.bucket_mut(root_addr) else {
            panic!("root bucket is an index bucket");
        };
        // Point the first child pointer at a different occupied bucket.
        pointers[0].offset += 1;
        assert!(matches!(
            CompiledProgram::compile(&p, &t),
            Err(SimError::BrokenPointer { .. })
        ));
    }

    #[test]
    fn serve_batch_is_thread_count_invariant() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..1000).map(|i| data[i % data.len()]).collect();
        let base = ServeOptions {
            threads: 1,
            seed: 42,
            ..ServeOptions::default()
        };
        let m1 = c.serve_batch(&targets, &base).unwrap();
        for threads in [2, 3, 8] {
            let mt = c
                .serve_batch(&targets, &ServeOptions { threads, ..base })
                .unwrap();
            assert_eq!(m1, mt, "threads = {threads}");
        }
        assert_eq!(m1.requests, 1000);
        assert_eq!(m1.histogram.count(), 1000);
    }

    #[test]
    fn serve_batch_matches_oracle_fold() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..257).map(|i| data[(i * 7) % data.len()]).collect();
        let opts = ServeOptions {
            threads: 1,
            seed: 7,
            ..ServeOptions::default()
        };
        let m = c.serve_batch(&targets, &opts).unwrap();
        let mut access_sum = 0u64;
        let mut wait_sum = 0u64;
        for (i, &target) in targets.iter().enumerate() {
            let tune = opts.tune_in(i as u64, c.cycle_len());
            let trace = simulator::access(&p, &t, target, tune).unwrap();
            access_sum += u64::from(trace.access_time());
            wait_sum += u64::from(trace.data_wait);
        }
        let n = targets.len() as f64;
        assert!((m.mean_access_time - access_sum as f64 / n).abs() < 1e-12);
        assert!((m.mean_data_wait - wait_sum as f64 / n).abs() < 1e-12);
    }

    #[test]
    fn serve_batch_rejects_bad_targets() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let idx = t.find_by_label("3").unwrap();
        let err = c.serve_batch(&[idx], &ServeOptions::default()).unwrap_err();
        assert_eq!(err, SimError::NotADataNode(idx));
        // The chunked kernel reports the same first error the reference
        // loop would, even when the bad target is mid-chunk.
        let data = t.data_nodes();
        let mut targets: Vec<NodeId> = (0..100).map(|i| data[i % data.len()]).collect();
        targets[37] = idx;
        targets[61] = NodeId::from_index(100_000); // out of bounds too
        let opts = ServeOptions::default();
        assert_eq!(
            c.serve_batch(&targets, &opts).unwrap_err(),
            c.serve_batch_scalar(&targets, &opts).unwrap_err(),
        );
    }

    #[test]
    fn chunked_kernel_matches_scalar_oracle() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        // Sizes around the chunk boundary, plus empty and single-request.
        for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 1000] {
            let targets: Vec<NodeId> = (0..len).map(|i| data[(i * 5) % data.len()]).collect();
            for threads in [1, 3] {
                let opts = ServeOptions {
                    threads,
                    seed: 0xC0FFEE,
                    ..ServeOptions::default()
                };
                let fast = c.serve_batch(&targets, &opts).unwrap();
                let oracle = c.serve_batch_scalar(&targets, &opts).unwrap();
                assert_eq!(fast, oracle, "len {len} threads {threads}");
            }
        }
    }

    #[test]
    fn fastmod_matches_hardware_remainder() {
        for d in [
            1u64,
            2,
            3,
            5,
            9,
            255,
            256,
            1023,
            65_536,
            u64::from(u32::MAX),
        ] {
            let fm = FastMod::new(d);
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            for _ in 0..1000 {
                x = mix64(x, d);
                assert_eq!(fm.rem(x), x % d, "x {x} d {d}");
            }
            assert_eq!(fm.rem(0), 0);
            assert_eq!(fm.rem(u64::MAX), u64::MAX % d);
        }
    }

    #[test]
    fn empty_batch_yields_zero_metrics() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let m = c.serve_batch(&[], &ServeOptions::default()).unwrap();
        assert_eq!(m.requests, 0);
        assert_eq!(m.mean_access_time, 0.0);
        assert!(m.histogram.is_empty());
        assert_eq!(m.delivery_rate(), 1.0);
    }

    #[test]
    fn lossy_serving_is_thread_count_invariant_and_deterministic() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..2000).map(|i| data[(i * 3) % data.len()]).collect();
        let base = ServeOptions {
            threads: 1,
            seed: 42,
            faults: FaultPlan::erasure(0.15, 0xFA11).unwrap(),
            recovery: RecoveryPolicy {
                max_retries: 5,
                timeout_slots: 64,
                ..RecoveryPolicy::default()
            },
        };
        let m1 = c.serve_batch(&targets, &base).unwrap();
        assert!(m1.failed > 0, "tight budget at 15% loss must fail some");
        assert!(m1.retries > 0);
        assert_eq!(m1.delivered + m1.failed, targets.len() as u64);
        for threads in [2, 3, 8] {
            let mt = c
                .serve_batch(&targets, &ServeOptions { threads, ..base })
                .unwrap();
            assert_eq!(m1, mt, "threads = {threads}");
        }
        // Rerun with the same seed: bit-identical.
        assert_eq!(m1, c.serve_batch(&targets, &base).unwrap());
        // A different fault seed changes the outcome.
        let other = ServeOptions {
            faults: FaultPlan::erasure(0.15, 0xFA12).unwrap(),
            ..base
        };
        assert_ne!(m1, c.serve_batch(&targets, &other).unwrap());
    }

    #[test]
    fn zero_probability_faults_match_the_fault_free_fast_path() {
        // p = 0 exercises the lossy code path but loses nothing: every
        // aggregate must equal the fast path's (histogram bounds differ by
        // design, so compare fields, not the whole struct).
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..500).map(|i| data[i % data.len()]).collect();
        let clean = c.serve_batch(&targets, &ServeOptions::default()).unwrap();
        let lossy_opts = ServeOptions {
            faults: FaultPlan::erasure(0.0, 9).unwrap(),
            ..ServeOptions::default()
        };
        let lossy = c.serve_batch(&targets, &lossy_opts).unwrap();
        assert_eq!(lossy.delivered, clean.delivered);
        assert_eq!(lossy.failed, 0);
        assert_eq!(lossy.retries, 0);
        assert_eq!(lossy.mean_access_time, clean.mean_access_time);
        assert_eq!(lossy.mean_data_wait, clean.mean_data_wait);
        assert_eq!(lossy.mean_tuning_time, clean.mean_tuning_time);
        assert_eq!(lossy.mean_extra_wait, 0.0);
        assert_eq!(lossy.histogram.mean(), clean.histogram.mean());
    }

    #[test]
    fn total_loss_fails_everything_without_aborting() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..100).map(|i| data[i % data.len()]).collect();
        let opts = ServeOptions {
            faults: FaultPlan::erasure(1.0, 1).unwrap(),
            ..ServeOptions::default()
        };
        let m = c.serve_batch(&targets, &opts).unwrap();
        assert_eq!(m.delivered, 0);
        assert_eq!(m.failed, 100);
        assert_eq!(m.delivery_rate(), 0.0);
        assert_eq!(m.mean_access_time, 0.0);
        assert!(m.histogram.is_empty());
        // Every request charged its full retry budget, nothing more.
        assert_eq!(m.retries, 100 * u64::from(opts.recovery.max_retries));
    }

    #[test]
    fn session_chunk_feed_matches_serve_batch_bit_for_bit() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..1000).map(|i| data[(i * 3) % data.len()]).collect();
        let lossless = ServeOptions {
            seed: 0xABCD,
            ..ServeOptions::default()
        };
        let lossy = ServeOptions {
            seed: 0xABCD,
            faults: FaultPlan::erasure(0.15, 0xFA11).unwrap(),
            recovery: RecoveryPolicy {
                max_retries: 5,
                timeout_slots: 64,
                ..RecoveryPolicy::default()
            },
            ..ServeOptions::default()
        };
        // One session reused across batches pins both the chunk-feed
        // equivalence and the begin_session reset (lossless after lossy
        // shrinks the histogram bound, lossy after lossless regrows it).
        let mut session = ServeSession::new();
        for opts in [&lossless, &lossy, &lossless, &lossy] {
            let oracle = c.serve_batch(&targets, opts).unwrap();
            // Odd chunk sizes, never aligned to SERVE_CHUNK.
            for chunk in [1usize, 7, 100, 255, 257, 999] {
                c.begin_session(&mut session, opts);
                for part in targets.chunks(chunk) {
                    c.serve_chunk(&mut session, part).unwrap();
                }
                assert_eq!(session.requests(), targets.len() as u64);
                assert_eq!(session.to_metrics(), oracle, "chunk {chunk}");
                assert_eq!(session.delivered(), oracle.delivered);
                assert_eq!(session.failed(), oracle.failed);
                assert_eq!(session.retries(), oracle.retries);
                assert_eq!(session.delivery_rate(), oracle.delivery_rate());
                assert_eq!(session.histogram(), &oracle.histogram);
            }
        }
    }

    #[test]
    fn session_rejects_bad_targets_like_the_batch_engine() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let idx = t.find_by_label("3").unwrap();
        let mut session = ServeSession::new();
        c.begin_session(&mut session, &ServeOptions::default());
        let data = t.data_nodes();
        let mut targets: Vec<NodeId> = (0..64).map(|i| data[i % data.len()]).collect();
        targets[37] = idx;
        assert_eq!(
            c.serve_chunk(&mut session, &targets).unwrap_err(),
            SimError::NotADataNode(idx)
        );
        // An empty session reports the empty-batch identity rate.
        c.begin_session(&mut session, &ServeOptions::default());
        assert_eq!(session.delivery_rate(), 1.0);
        assert_eq!(session.requests(), 0);
    }

    #[test]
    fn compiled_lossy_access_matches_walking_oracle() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let plan = FaultPlan::erasure(0.3, 0xABCD).unwrap();
        let policy = RecoveryPolicy {
            max_retries: 10,
            timeout_slots: 200,
            backoff_cap: 3,
            root_replicas: 2,
        };
        for &d in t.data_nodes() {
            for tune in 1..=p.cycle_len() as u32 {
                for req in 0..8u64 {
                    let walk =
                        faults::access_lossy(&p, &t, d, Slot(tune), &plan, req, &policy).unwrap();
                    let fast = c.access_lossy(d, Slot(tune), &plan, req, &policy).unwrap();
                    assert_eq!(walk, fast, "node {} tune {tune} req {req}", t.label(d));
                }
            }
        }
    }
}
