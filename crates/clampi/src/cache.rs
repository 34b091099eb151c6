//! The caching engine `C_w = (I_w, S_w)`: the paper's core state machine.
//!
//! [`RmaCache`] ties together the Cuckoo index, the contiguous storage, the
//! victim-selection scores and the statistics. It is a *pure* state
//! machine: it never talks to the network. The window wrapper
//! ([`crate::CachedWindow`]) drives it in three steps per `get_c`:
//!
//! 1. [`RmaCache::process_lookup`] — classify the request against the
//!    index; on a (full) hit the data is copied into the destination
//!    buffer and the wrapper is done.
//! 2. On a miss / partial hit the wrapper issues the remote get, then calls
//!    [`RmaCache::finish_miss`] / [`RmaCache::finish_partial`] to try to
//!    cache the fetched data (direct / conflicting / capacity / failed).
//! 3. At every epoch closure the wrapper calls [`RmaCache::epoch_close`],
//!    which promotes `PENDING` entries to `CACHED` — the moment the paper
//!    performs the deferred cache-fill copies.
//!
//! **Timing.** The simulator moves bytes eagerly (data is always available
//! in wall-clock terms), but every management action accumulates model CPU
//! time which the wrapper drains via [`RmaCache::take_cost`] and charges to
//! the rank's virtual clock. Copies that the paper performs at epoch
//! closure (cache fills, pending-hit deliveries) are accumulated separately
//! and only charged when `epoch_close` runs — this is what gives *failing*
//! accesses their better comm/comp overlap in Fig. 8.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use clampi_datatype::FlatLayout;
use clampi_prng::SmallRng;

use crate::coherence::CoherenceMode;
use crate::costs::CacheCostModel;
use crate::eviction::{positional_score, score, temporal_score, VictimScheme};
use crate::index::{CuckooIndex, EntryId, GetKey, InsertOutcome};
use crate::lease::LeaseTable;
use crate::snapshot::SnapStamp;
use crate::stats::{AccessType, CacheStats};
use crate::storage::{DescId, Storage};
use crate::vcache::PolicyLab;

/// The shape of a get's payload, compared for full/partial-hit decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutSig {
    /// A single contiguous block of this many bytes at the displacement.
    Contig(usize),
    /// A non-contiguous flattened layout (offsets relative to the
    /// displacement).
    Blocks(Arc<FlatLayout>),
}

impl LayoutSig {
    /// Builds the signature for a flattened layout.
    pub fn from_layout(layout: &FlatLayout) -> Self {
        if layout.is_dense() {
            LayoutSig::Contig(layout.total_size())
        } else {
            LayoutSig::Blocks(Arc::new(layout.clone()))
        }
    }

    /// Payload size in bytes.
    pub fn size(&self) -> usize {
        match self {
            LayoutSig::Contig(s) => *s,
            LayoutSig::Blocks(l) => l.total_size(),
        }
    }
}

/// Cache entry states (Fig. 5). `MISSING` is represented by absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Requested in the current epoch; data arrives (conceptually) at the
    /// epoch closure.
    Pending,
    /// Data resident in `S_w` and servable.
    Cached,
}

#[derive(Debug)]
struct Entry {
    key: GetKey,
    sig: LayoutSig,
    size: usize,
    state: EntryState,
    desc: DescId,
    last: u64,
    /// Target-region write version observed when this entry was filled
    /// (0 when the caller does not track versions). The coherence layer
    /// compares it against put-notification records to drop stale data.
    version: u64,
    /// Absolute lease expiry (a get sequence number) under
    /// [`VictimScheme::Lease`]; 0 means "no lease assigned" and reads as
    /// already expired, so entries inherited by a mid-run switch into the
    /// lease policy are reclaimed first unless a hit renews them.
    lease: u64,
    /// Snapshot stamp of the payload bytes (see [`crate::snapshot`]):
    /// staged by the wrapper via [`RmaCache::stage_stamp`] when it read
    /// the bytes under the region read lock, else an inexact default that
    /// forces `multi_get` to refetch. Separate from `version`, which stays
    /// the conservative pre-read peek the coherence layer was built on.
    snap: SnapStamp,
}

const NO_DESC: DescId = DescId::MAX;

/// A read-only view of one resident entry ([`RmaCache::entries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView {
    /// The entry's key: target rank and byte displacement.
    pub key: GetKey,
    /// Cached bytes from `key.disp`.
    pub size: usize,
    /// Write version the coherence layer compares against put records
    /// (the conservative pre-read peek).
    pub version: u64,
    /// Pending or cached.
    pub state: EntryState,
}

/// Result of the lookup phase of a `get_c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Full hit: the destination buffer has been filled from the cache.
    Hit,
    /// The key matched but only the first `cached_len` bytes could be
    /// served (0 when the cached layout is incompatible); the wrapper must
    /// fetch the remainder and call [`RmaCache::finish_partial`].
    PartialHit {
        /// Bytes already copied into the head of the destination buffer.
        cached_len: usize,
    },
    /// No entry: the wrapper must fetch everything and call
    /// [`RmaCache::finish_miss`].
    Miss,
}

/// Tunable parameters of one caching layer.
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Number of index slots `|I_w|`.
    pub index_entries: usize,
    /// Storage bytes `|S_w|`.
    pub storage_bytes: usize,
    /// Victim-selection scheme (Sec. III-D1); `Full` in the paper's default.
    pub victim_scheme: VictimScheme,
    /// Victim sample size `M` (16 in the paper's experiments).
    pub sample_size: usize,
    /// Cuckoo insertion iteration threshold.
    pub max_insert_iters: usize,
    /// Maximum storage evictions attempted per miss. The paper's *weak
    /// caching* uses 1 — a constant — so that a `get_c` can never be
    /// slowed down proportionally to the number of cached entries
    /// (Sec. III-D2). Larger values trade bounded overhead for a higher
    /// insert success rate; the `abl_weak_caching` bench ablates this.
    pub max_evictions_per_miss: usize,
    /// CPU cost model for management activities.
    pub costs: CacheCostModel,
    /// RNG seed (hash functions, insertion walk, victim sampling).
    pub seed: u64,
    /// Upper bound, in bytes, on the merged extent of a coalesced
    /// nonblocking miss transfer ([`crate::CachedWindow::get_nb`]):
    /// adjacent/overlapping misses to the same target merge into one wire
    /// transfer only while the merged range stays within this bound.
    /// `0` disables coalescing entirely.
    pub max_coalesce_bytes: usize,
    /// How cached reads stay coherent with concurrent remote `put`s
    /// (see [`crate::coherence::CoherenceMode`]). `None` by default —
    /// bit-identical to the pre-coherence behaviour.
    pub coherence: crate::coherence::CoherenceMode,
    /// Run the policy lab ([`crate::vcache::PolicyLab`]): one tag-only
    /// shadow cache per candidate [`VictimScheme`], replaying every get
    /// and accumulating per-policy shadow hit ratios in
    /// [`CacheStats`]. Observation-only — no virtual-clock cost, no
    /// effect on the live cache — so lab-on runs are bit-identical to
    /// lab-off runs unless a controller acts on the shadow ratios.
    pub policy_lab: bool,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            index_entries: 4096,
            storage_bytes: 4 << 20,
            victim_scheme: VictimScheme::Full,
            sample_size: 16,
            max_insert_iters: 32,
            max_evictions_per_miss: 1,
            costs: CacheCostModel::default(),
            seed: 0xC1A3,
            max_coalesce_bytes: 16 << 10,
            coherence: crate::coherence::CoherenceMode::None,
            policy_lab: false,
        }
    }
}

/// Every resident (pending or cached) entry as `(target, disp, id)`,
/// ordered by extent start, so an invalidation pass finds the entries
/// overlapping a written byte range with one range query instead of an
/// index scan.
#[derive(Debug, Default)]
struct ExtentIndex {
    set: BTreeSet<(u32, u64, EntryId)>,
    /// Upper bound on every resident entry's size: raised on insert and
    /// extension, lowered only when the cache empties. An entry
    /// overlapping `[lo, hi)` therefore starts in
    /// `[lo − max_size + 1, hi)`.
    max_size: u64,
}

impl ExtentIndex {
    fn clear(&mut self) {
        self.set.clear();
        self.max_size = 0;
    }
}

/// The caching layer state machine for one window.
///
/// # Examples
///
/// Driving the engine directly (without a simulator window) — one miss,
/// one epoch close, one hit:
///
/// ```
/// use clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
/// use clampi::index::GetKey;
///
/// let mut cache = RmaCache::new(CacheParams::default());
/// let key = GetKey { target: 3, disp: 4096 };
/// let sig = LayoutSig::Contig(64);
/// let payload = [7u8; 64];
///
/// let mut dst = [0u8; 64];
/// assert_eq!(cache.process_lookup(key, &sig, &mut dst), Lookup::Miss);
/// cache.finish_miss(key, sig.clone(), &payload, 0); // caller fetched `payload`
/// cache.epoch_close();                           // PENDING -> CACHED
///
/// assert_eq!(cache.process_lookup(key, &sig, &mut dst), Lookup::Hit);
/// assert_eq!(dst, payload);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct RmaCache {
    /// The parameters; `params.victim_scheme` is the *live* victim policy
    /// and changes only through [`RmaCache::set_victim_scheme`].
    params: CacheParams,
    index: CuckooIndex,
    storage: Storage,
    entries: Vec<Option<Entry>>,
    spare: Vec<EntryId>,
    cached_count: usize,
    pending: Vec<EntryId>,
    /// Victim-sampling RNG.
    rng: SmallRng,
    /// The lease predictor ([`crate::lease`]), allocated when the live
    /// policy is (or becomes) [`VictimScheme::Lease`] and kept across
    /// invalidations/switches: learned reuse distances describe the
    /// stream, not the resident set.
    lease: Option<LeaseTable>,
    /// Recency index (`last` -> entry), maintained only for
    /// [`VictimScheme::ExactLru`]. `last` values are unique: each get
    /// touches at most one entry.
    recency: BTreeMap<u64, EntryId>,
    /// Residents ordered by extent start, kept iff the coherence mode is
    /// [`CoherenceMode::EagerInvalidate`] — its surgical invalidation is
    /// the only consumer.
    extents: Option<ExtentIndex>,
    stats: CacheStats,
    /// The get sequence counter (index into the paper's `C_w.G`).
    seq: u64,
    /// The running average get size `C_w.ags`.
    ags: f64,
    uncharged_ns: f64,
    deferred_ns: f64,
    /// Prefix length served from cache by the most recent PartialHit
    /// lookup (consumed by `finish_partial` for byte accounting).
    last_partial_prefix: usize,
    /// Snapshot stamp staged by [`RmaCache::stage_stamp`] for the payload
    /// about to be handed to `finish_miss`/`finish_partial`; consumed (or
    /// discarded, on a failed insert) by that call. `None` — the default
    /// for every caller that does not track stamps — yields inexact
    /// entries, which the snapshot layer simply refetches.
    staged_stamp: Option<SnapStamp>,
    /// Resident entries per target rank (grown on demand), so coherence
    /// passes can skip targets with nothing cached in O(1).
    target_counts: Vec<u32>,
    /// The policy lab's shadow caches ([`CacheParams::policy_lab`]);
    /// `None` when the lab is off (the default).
    lab: Option<PolicyLab>,
    rebuilds: u64,
    resize_log: Vec<ResizeEvent>,
}

/// One adaptive resize, recorded for figure annotations and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Get sequence number at which the resize happened.
    pub at_seq: u64,
    /// New `|I_w|`.
    pub index_entries: usize,
    /// New `|S_w|`.
    pub storage_bytes: usize,
}

impl RmaCache {
    /// A fresh cache with the given parameters.
    pub fn new(params: CacheParams) -> Self {
        let index_cap = params.index_entries.max(1);
        let lease = (params.victim_scheme == VictimScheme::Lease)
            .then(|| LeaseTable::new(index_cap, lease_seed(&params)));
        let lab = params.policy_lab.then(|| {
            PolicyLab::new(
                params.index_entries,
                params.storage_bytes,
                params.sample_size,
                params.seed,
            )
        });
        RmaCache {
            index: CuckooIndex::new(index_cap, params.max_insert_iters, params.seed),
            storage: Storage::new(params.storage_bytes),
            // Sized once for the worst-case population (every index slot
            // plus the one transient insert), so the slab never grows by
            // doubling: each doubling copies it and can leave the old copy
            // resident in the allocator's pools.
            entries: Vec::with_capacity(index_cap + 1),
            spare: Vec::new(),
            cached_count: 0,
            pending: Vec::new(),
            rng: SmallRng::seed_from_u64(params.seed ^ 0x5EED),
            lease,
            recency: BTreeMap::new(),
            extents: (params.coherence == CoherenceMode::EagerInvalidate)
                .then(ExtentIndex::default),
            stats: CacheStats::default(),
            seq: 0,
            ags: 0.0,
            uncharged_ns: 0.0,
            deferred_ns: 0.0,
            last_partial_prefix: 0,
            staged_stamp: None,
            target_counts: Vec::new(),
            lab,
            rebuilds: 0,
            resize_log: Vec::new(),
            params,
        }
    }

    /// The live eviction policy.
    pub fn victim_scheme(&self) -> VictimScheme {
        self.params.victim_scheme
    }

    /// Switches the live eviction policy without dropping residents.
    ///
    /// Policy-private bookkeeping is rebuilt as needed (ExactLru's recency
    /// index is reconstructed from resident `last` stamps; a switch into
    /// Lease lazily builds the reuse predictor). Entries inherited by a
    /// switch into Lease carry `lease == 0` (already expired), so they are
    /// reclaimed first unless the stream renews them — a deliberately
    /// conservative handoff. Returns `true` if the policy actually
    /// changed; no-op switches cost nothing and are not counted.
    pub fn set_victim_scheme(&mut self, new: VictimScheme) -> bool {
        if new == self.params.victim_scheme {
            return false;
        }
        self.recency.clear();
        if new == VictimScheme::ExactLru {
            for (i, slot) in self.entries.iter().enumerate() {
                if let Some(e) = slot {
                    let prev = self.recency.insert(e.last, i as EntryId);
                    debug_assert!(prev.is_none(), "recency key collision at {}", e.last);
                }
            }
        }
        if new == VictimScheme::Lease && self.lease.is_none() {
            let seed = lease_seed(&self.params);
            self.lease = Some(LeaseTable::new(self.index.capacity(), seed));
        }
        self.params.victim_scheme = new;
        self.stats.policy_switches += 1;
        self.stats.adjustments += 1;
        self.charge(self.params.costs.epoch_hook_ns);
        true
    }

    /// Current parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The get sequence counter (index into the paper's `C_w.G`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The running average get size `C_w.ags`.
    pub fn avg_get_size(&self) -> f64 {
        self.ags
    }

    /// Occupied fraction of the storage buffer (Fig. 10's y-axis).
    pub fn occupancy(&self) -> f64 {
        let capacity = self.storage.capacity();
        if capacity == 0 {
            0.0
        } else {
            self.storage.occupied_bytes() as f64 / capacity as f64
        }
    }

    /// Free bytes in the storage buffer.
    pub fn free_bytes(&self) -> usize {
        self.storage.free_bytes()
    }

    /// Number of resident (pending + cached) entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drains the accumulated management CPU time (nanoseconds) so the
    /// wrapper can charge it to the rank's virtual clock.
    pub fn take_cost(&mut self) -> f64 {
        std::mem::take(&mut self.uncharged_ns)
    }

    /// Whether any resident (pending or cached) entry is keyed to
    /// `target`. O(1): lets a coherence pass skip targets with nothing
    /// cached without scanning the index.
    pub fn has_entries_for(&self, target: u32) -> bool {
        self.target_counts
            .get(target as usize)
            .is_some_and(|&c| c > 0)
    }

    /// Phase 1 of a `get_c`: classify against the index, serving full hits
    /// (and the head of contiguous partial hits) into `dst`.
    ///
    /// `dst.len()` must equal `sig.size()`.
    pub fn process_lookup(&mut self, key: GetKey, sig: &LayoutSig, dst: &mut [u8]) -> Lookup {
        let size = sig.size();
        debug_assert_eq!(dst.len(), size);
        self.seq += 1;
        // Cumulative mean of processed get sizes (the paper's ags).
        self.ags += (size as f64 - self.ags) / self.seq as f64;
        self.charge(self.params.costs.lookup_ns);
        // Policy lab: replay this get through the shadow caches.
        // Observation-only — shadow counters move, nothing else does, and
        // no virtual-clock cost is charged (overhead is priced separately
        // from `shadow_slot_visits` by the benches).
        if let Some(lab) = self.lab.as_mut() {
            lab.observe(key.stripe(), size, self.seq, self.ags, &mut self.stats);
        }

        let Some(id) = self.index.lookup(&key) else {
            return Lookup::Miss;
        };
        debug_assert_eq!(self.entry(id).key, key, "index returned a foreign entry");
        let seq = self.seq;
        let (full, cached_len) = {
            let e = self.entry(id);
            match (&e.sig, sig) {
                (LayoutSig::Contig(have), LayoutSig::Contig(want)) => {
                    if want <= have {
                        (true, *want)
                    } else if e.state == EntryState::Cached {
                        (false, *have)
                    } else {
                        // Partial hit on a PENDING entry: nothing servable
                        // yet (its fill is deferred to the epoch close).
                        (false, 0)
                    }
                }
                (LayoutSig::Blocks(have), LayoutSig::Blocks(want)) if have == want => (true, size),
                _ => (false, 0),
            }
        };

        if full {
            let state = self.entry(id).state;
            let desc = self.entry(id).desc;
            let old_last = self.entry(id).last;
            dst.copy_from_slice(self.storage.read(desc, size));
            self.entry_mut(id).last = seq;
            self.touch_recency(id, old_last, seq);
            self.renew_lease(id, &key);
            let copy = self.params.costs.memcpy_cost(size);
            match state {
                // CACHED: the copy happens right now.
                EntryState::Cached => self.charge(copy),
                // PENDING: the paper copies at the epoch closure.
                EntryState::Pending => self.defer(copy),
            }
            self.stats.record(AccessType::Hit);
            self.stats.bytes_from_cache += size as u64;
            Lookup::Hit
        } else {
            if cached_len > 0 {
                let desc = self.entry(id).desc;
                dst[..cached_len].copy_from_slice(self.storage.read(desc, cached_len));
                let copy = self.params.costs.memcpy_cost(cached_len);
                self.charge(copy);
                self.stats.bytes_from_cache += cached_len as u64;
            }
            let old_last = self.entry(id).last;
            self.entry_mut(id).last = seq;
            self.touch_recency(id, old_last, seq);
            self.renew_lease(id, &key);
            self.stats.partial_hits += 1;
            self.last_partial_prefix = cached_len;
            Lookup::PartialHit { cached_len }
        }
    }

    /// Stages the snapshot stamp for the payload about to be handed to
    /// the next [`RmaCache::finish_miss`] / [`RmaCache::finish_partial`]
    /// call, which consumes it (or discards it on failure). Callers that
    /// never stage get inexact entries, which the snapshot layer refetches
    /// — so stamp-blind paths (traces) stay correct without changes.
    pub fn stage_stamp(&mut self, stamp: SnapStamp) {
        self.staged_stamp = Some(stamp);
    }

    /// Read-only probe of the snapshot stamp of the resident entry for
    /// `key` (`None` when nothing is resident). Free in virtual time,
    /// like the index peek it is.
    pub fn snap_stamp(&self, key: &GetKey) -> Option<SnapStamp> {
        self.index.lookup(key).map(|id| self.entry(id).snap)
    }

    /// Phase 2 after a [`Lookup::Miss`]: `data` is the fetched payload;
    /// attempt to cache it. Returns the access classification.
    ///
    /// `version` is the target-region write version observed *before* the
    /// payload bytes were read (pass 0 when versions are not tracked); the
    /// coherence layer uses it to decide staleness later.
    pub fn finish_miss(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        version: u64,
    ) -> AccessType {
        let size = sig.size();
        debug_assert_eq!(data.len(), size);
        self.stats.bytes_from_network += size as u64;
        // Lease policy: the miss is an access too — record it in the
        // reuse predictor (distances across evictions are exactly what
        // the histogram needs) and lease the new entry up front.
        let lease = if self.params.victim_scheme == VictimScheme::Lease {
            self.assign_lease(&key)
        } else {
            0
        };
        let snap = self.staged_stamp.take().unwrap_or(SnapStamp {
            version,
            ts: 0,
            exact: false,
        });
        let id = self.alloc_entry(Entry {
            key,
            sig,
            size,
            state: EntryState::Pending,
            desc: NO_DESC,
            last: self.seq,
            version,
            lease,
            snap,
        });

        let (inserted, conflicted) = self.insert_with_path_eviction(key, id);
        if !inserted {
            self.drop_entry(id);
            self.stats.record(AccessType::Failed);
            return AccessType::Failed;
        }

        let (desc, evicted_for_space) = self.alloc_with_eviction(size, id, None);
        let class = match desc {
            Some(d) => {
                self.storage.write(d, data);
                self.entry_mut(id).desc = d;
                self.pending.push(id);
                if self.lru_enabled() {
                    let last = self.entry(id).last;
                    let prev = self.recency.insert(last, id);
                    debug_assert!(prev.is_none(), "recency key collision at {last}");
                }
                let copy = self.params.costs.memcpy_cost(size);
                self.defer(copy);
                if conflicted {
                    AccessType::Conflicting
                } else if evicted_for_space {
                    AccessType::Capacity
                } else {
                    AccessType::Direct
                }
            }
            None => {
                // Weak caching: give up, the get itself already succeeded.
                self.index.remove(&key);
                self.drop_entry(id);
                AccessType::Failed
            }
        };
        self.stats.record(class);
        class
    }

    /// Phase 2 after a [`Lookup::PartialHit`]: `data` is the *full* payload
    /// (head served from cache, tail fetched by the wrapper). Attempts to
    /// extend (re-allocate) the existing entry; on failure the old, shorter
    /// entry stays valid (Sec. III-B: "extended only if `S_w` contains
    /// enough space").
    ///
    /// `version` is the write version observed before the tail fetch; the
    /// extended entry is stamped with the *older* of its existing version
    /// and `version` (the head bytes may predate the tail bytes, so the
    /// conservative choice is the minimum).
    pub fn finish_partial(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        version: u64,
    ) -> AccessType {
        let size = sig.size();
        debug_assert_eq!(data.len(), size);
        let Some(id) = self.index.lookup(&key) else {
            // The entry vanished (should not happen between phases). The
            // staged stamp, if any, rides along into the miss path.
            return self.finish_miss(key, sig, data, version);
        };
        // Taken unconditionally so a failed extension cannot leak this
        // call's stamp into a later, unrelated finish.
        let staged = self.staged_stamp.take();
        // The wrapper fetched everything beyond the served prefix (which is
        // zero for incompatible layouts).
        self.stats.bytes_from_network +=
            (size as u64).saturating_sub(self.last_partial_prefix as u64);
        self.last_partial_prefix = 0;

        if self.entry(id).state == EntryState::Pending {
            // Cannot touch a pending entry's storage; leave it as-is.
            self.stats.record(AccessType::Failed);
            return AccessType::Failed;
        }

        // Allocate the larger region first so failure leaves the old entry
        // intact; exclude the entry itself from victim selection.
        let (desc, evicted_for_space) = self.alloc_with_eviction(size, id, Some(id));
        let class = match desc {
            Some(d) => {
                let old = self.entry(id).desc;
                self.storage.free(old);
                self.charge(self.params.costs.alloc_ns);
                self.storage.write(d, data);
                {
                    let e = self.entry_mut(id);
                    e.desc = d;
                    e.size = size;
                    e.sig = sig;
                    e.state = EntryState::Pending;
                    e.version = e.version.min(version);
                    // Head bytes carry the old entry's stamp, tail bytes
                    // the staged one; the mix is exact only when both are
                    // exact at the *same* version (no write in between).
                    e.snap = match staged {
                        Some(s) if s.exact && e.snap.exact && s.version == e.snap.version => s,
                        Some(s) => SnapStamp {
                            version: e.snap.version.min(s.version),
                            ts: e.snap.ts.min(s.ts),
                            exact: false,
                        },
                        None => SnapStamp {
                            version: e.snap.version.min(version),
                            ts: 0,
                            exact: false,
                        },
                    };
                }
                if let Some(x) = self.extents.as_mut() {
                    x.max_size = x.max_size.max(size as u64);
                }
                self.cached_count -= 1;
                self.pending.push(id);
                let copy = self.params.costs.memcpy_cost(size);
                self.defer(copy);
                if evicted_for_space {
                    AccessType::Capacity
                } else {
                    AccessType::Direct
                }
            }
            None => AccessType::Failed,
        };
        self.stats.record(class);
        class
    }

    /// Epoch-closure hook: promotes PENDING entries to CACHED and charges
    /// the deferred copy costs (the paper's "data has to be explicitly
    /// copied into the cache memory at the epoch closure time").
    pub fn epoch_close(&mut self) {
        self.charge(self.params.costs.epoch_hook_ns);
        let deferred = std::mem::take(&mut self.deferred_ns);
        self.charge(deferred);
        let pending = std::mem::take(&mut self.pending);
        for id in pending {
            // Pending entries are excluded from eviction, so each one
            // must still exist.
            let e = self.entry_mut(id);
            debug_assert_eq!(e.state, EntryState::Pending);
            e.state = EntryState::Cached;
            self.cached_count += 1;
        }
    }

    /// Drops every resident entry whose cached bytes overlap
    /// `[lo, hi)` in `target`'s window; returns how many were dropped.
    ///
    /// This is not part of the paper's design — MPI's epoch rules make
    /// reads of concurrently written data illegal anyway — but it enables
    /// the *write-through invalidation* extension of
    /// [`crate::ClampiConfig::invalidate_on_put`], which keeps a
    /// long-lived always-cache window coherent with the issuing rank's own
    /// puts. The scan is linear in `|I_w|` (puts are assumed rare on
    /// cached windows).
    pub fn invalidate_range(&mut self, target: u32, lo: u64, hi: u64) -> usize {
        self.evict_slots_where(|key, e| {
            key.target == target && key.disp < hi && lo < key.disp + e.size as u64
        })
    }

    /// Drops every resident entry keyed to `target` whose stored version
    /// differs from `version` (the target's current write version, fetched
    /// by an `EpochValidate` coherence pass); returns how many were
    /// dropped. Entries already stamped with the current version are
    /// provably fresh and survive.
    pub fn invalidate_target_stale(&mut self, target: u32, version: u64) -> usize {
        if !self.has_entries_for(target) {
            return 0;
        }
        self.evict_slots_where(|key, e| key.target == target && e.version != version)
    }

    /// Drops every resident entry keyed to `target` that overlaps one of
    /// the put `ranges` (`(lo, hi, version)`, half-open bytes) *and* was
    /// filled before that put (`entry.version < version`); returns how
    /// many were dropped. This is the surgical `EagerInvalidate` path:
    /// each drained notification record is one range query on the extent
    /// index, so a pass costs O(records · log n), independent of `|I_w|`.
    /// Priced as one lookup per record plus one victim-scan visit per
    /// candidate entry examined.
    ///
    /// # Panics
    ///
    /// Panics unless the cache was built with
    /// [`CoherenceMode::EagerInvalidate`], the only mode that keeps the
    /// extent index.
    pub fn invalidate_overlapping_stale(
        &mut self,
        target: u32,
        ranges: &[(u64, u64, u64)],
    ) -> usize {
        if ranges.is_empty() || !self.has_entries_for(target) {
            return 0;
        }
        let Some(x) = self.extents.as_ref() else {
            unreachable!("invalidate_overlapping_stale needs CoherenceMode::EagerInvalidate")
        };
        let reach = x.max_size.saturating_sub(1);
        let mut visited = 0u64;
        let mut victims: Vec<(u64, EntryId)> = Vec::new();
        for &(lo, hi, v) in ranges {
            let from = (target, lo.saturating_sub(reach), 0);
            for &(_, disp, id) in x.set.range(from..(target, hi, 0)) {
                visited += 1;
                let e = self.entry(id);
                if lo < disp + e.size as u64 && e.version < v {
                    victims.push((disp, id));
                }
            }
        }
        let costs = &self.params.costs;
        self.charge(costs.lookup_ns * ranges.len() as f64 + costs.evict_visit_ns * visited as f64);
        // An entry overlapped by several records is a victim once.
        victims.sort_unstable();
        victims.dedup();
        for &(_, id) in &victims {
            let key = self.entry(id).key;
            let removed = self.index.remove(&key);
            debug_assert_eq!(removed, Some(id));
            self.release_evicted(id);
        }
        victims.len()
    }

    /// Drops every cached entry (transparent-mode epoch invalidation,
    /// `CLAMPI_Invalidate`, or an adaptive adjustment).
    pub fn invalidate(&mut self) {
        self.index.clear();
        self.storage.clear();
        self.clear_residents();
        self.stats.invalidations += 1;
    }

    /// The adaptive resize history.
    pub fn resize_log(&self) -> &[ResizeEvent] {
        &self.resize_log
    }

    /// Replaces `|I_w|` / `|S_w|` and invalidates (adaptive adjustment).
    /// The index is reseeded per rebuild; the victim-sampling RNG keeps
    /// its stream.
    pub fn resize(&mut self, index_entries: usize, storage_bytes: usize) {
        self.rebuilds += 1;
        self.resize_log.push(ResizeEvent {
            at_seq: self.seq,
            index_entries,
            storage_bytes,
        });
        self.params.index_entries = index_entries.max(1);
        self.params.storage_bytes = storage_bytes;
        self.index = CuckooIndex::new(
            self.params.index_entries,
            self.params.max_insert_iters,
            self.params.seed.wrapping_add(self.rebuilds),
        );
        self.storage = Storage::new(storage_bytes);
        self.clear_residents();
        self.stats.invalidations += 1;
        self.stats.adjustments += 1;
        // The shadow caches model the live geometry; a resize rebuilds
        // them empty at the new sizes, mirroring the live invalidation.
        if self.lab.is_some() {
            self.lab = Some(PolicyLab::new(
                self.params.index_entries,
                self.params.storage_bytes,
                self.params.sample_size,
                self.params.seed,
            ));
        }
    }

    /// Every resident (pending or cached) entry, in index-slot order.
    /// Free in virtual time: an introspection view for tests and
    /// debugging, never on a priced path.
    pub fn entries(&self) -> impl Iterator<Item = EntryView> + '_ {
        self.index.iter().map(move |(_, key, id)| {
            let e = self.entry(id);
            EntryView {
                key,
                size: e.size,
                version: e.version,
                state: e.state,
            }
        })
    }

    /// Number of entries in the CACHED state.
    pub fn cached_entries(&self) -> usize {
        self.cached_count
    }

    /// An order-independent-of-nothing, content-sensitive fingerprint of
    /// the resident cache state: every occupied index slot contributes its
    /// position, key, entry state, size, and stored payload bytes to an
    /// FNV-1a hash. Two caches that went through the same sequence of
    /// state transitions fingerprint identically; any divergence in
    /// placement, classification, or bytes shows up. Used by the
    /// nonblocking-vs-blocking equivalence property test.
    pub fn content_fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn byte(&mut self, b: u8) {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
            fn word(&mut self, w: u64) {
                for b in w.to_le_bytes() {
                    self.byte(b);
                }
            }
        }
        let mut h = Fnv(0xcbf29ce484222325);
        for (slot, key, id) in self.index.iter() {
            let e = self.entry(id);
            h.word(slot as u64);
            h.word(key.target as u64);
            h.word(key.disp);
            h.word(match e.state {
                EntryState::Pending => 1,
                EntryState::Cached => 2,
            });
            h.word(e.size as u64);
            if e.desc != NO_DESC {
                for &b in self.storage.read(e.desc, e.size) {
                    h.byte(b);
                }
            }
        }
        h.0
    }

    fn charge(&mut self, ns: f64) {
        self.uncharged_ns += ns;
    }

    fn defer(&mut self, ns: f64) {
        self.deferred_ns += ns;
    }

    fn entry(&self, id: EntryId) -> &Entry {
        // xlint: allow(no-unwrap) invariant: ids are only handed out for live slots
        self.entries[id as usize].as_ref().expect("stale entry id")
    }

    fn entry_mut(&mut self, id: EntryId) -> &mut Entry {
        // xlint: allow(no-unwrap) invariant: ids are only handed out for live slots
        self.entries[id as usize].as_mut().expect("stale entry id")
    }

    fn alloc_entry(&mut self, e: Entry) -> EntryId {
        let t = e.key.target as usize;
        if t >= self.target_counts.len() {
            self.target_counts.resize(t + 1, 0);
        }
        self.target_counts[t] += 1;
        let (key, size) = (e.key, e.size as u64);
        let id = if let Some(id) = self.spare.pop() {
            self.entries[id as usize] = Some(e);
            id
        } else {
            self.entries.push(Some(e));
            (self.entries.len() - 1) as EntryId
        };
        if let Some(x) = self.extents.as_mut() {
            x.set.insert((key.target, key.disp, id));
            x.max_size = x.max_size.max(size);
            // An ordered-set update, priced like the storage AVL's.
            self.charge(self.params.costs.alloc_ns);
        }
        id
    }

    fn lru_enabled(&self) -> bool {
        self.params.victim_scheme == VictimScheme::ExactLru
    }

    /// Moves `id` from recency position `old` to `new` (ExactLru only).
    fn touch_recency(&mut self, id: EntryId, old: u64, new: u64) {
        if self.lru_enabled() && old != new {
            self.recency.remove(&old);
            let prev = self.recency.insert(new, id);
            debug_assert!(prev.is_none(), "recency key collision at {new}");
            // The recency update is real work on every hit: the price of
            // exact LRU the paper's sampled scheme avoids.
            self.charge(self.params.costs.insert_step_ns);
        }
    }

    /// Used fraction of the storage buffer — the lease table's feedback
    /// signal for steering the short/long mix.
    fn storage_pressure(&self) -> f64 {
        let cap = self.storage.capacity();
        if cap == 0 {
            0.0
        } else {
            1.0 - self.storage.free_bytes() as f64 / cap as f64
        }
    }

    /// Under the lease policy: records this access in the reuse predictor
    /// and assigns a fresh lease, returning the absolute expiry. Charged
    /// like a recency update — lease maintenance is real per-access work,
    /// the price ExactLru pays for its recency index.
    fn assign_lease(&mut self, key: &GetKey) -> u64 {
        let pressure = self.storage_pressure();
        let Some(t) = self.lease.as_mut() else {
            return 0;
        };
        let expiry = t.observe_and_assign(key.stripe(), self.seq, pressure);
        self.charge(self.params.costs.insert_step_ns);
        expiry
    }

    /// Renews `id`'s lease on a hit (lease policy only).
    fn renew_lease(&mut self, id: EntryId, key: &GetKey) {
        if self.params.victim_scheme != VictimScheme::Lease {
            return;
        }
        let expiry = self.assign_lease(key);
        self.entry_mut(id).lease = expiry;
    }

    fn drop_entry(&mut self, id: EntryId) {
        if self.lru_enabled() {
            let last = self.entry(id).last;
            self.recency.remove(&last);
        }
        // xlint: allow(no-unwrap) invariant: callers drop an id at most once
        let e = self.entries[id as usize].take().expect("double entry drop");
        self.target_counts[e.key.target as usize] -= 1;
        if let Some(x) = self.extents.as_mut() {
            let removed = x.set.remove(&(e.key.target, e.key.disp, id));
            debug_assert!(removed, "resident entry missing from the extent index");
            self.charge(self.params.costs.alloc_ns);
        }
        match e.state {
            EntryState::Cached => self.cached_count -= 1,
            // A PENDING entry can be dropped when a Cuckoo displacement
            // chain leaves it homeless; forget its scheduled promotion.
            EntryState::Pending => self.pending.retain(|&p| p != id),
        }
        self.spare.push(id);
    }

    /// Cuckoo insertion with the paper's conflicting-access handling: a
    /// cycle evicts the lowest-score CACHED entry on the insertion path and
    /// retries. Returns `(inserted, conflicted)`.
    fn insert_with_path_eviction(&mut self, key: GetKey, id: EntryId) -> (bool, bool) {
        const MAX_RETRIES: usize = 4;
        let mut conflicted = false;
        let mut cur = (key, id);
        for attempt in 0..MAX_RETRIES {
            match self.index.insert(cur.0, cur.1) {
                InsertOutcome::Placed { steps } => {
                    self.charge(self.params.costs.insert_step_ns * (steps + 1) as f64);
                    return (true, conflicted);
                }
                InsertOutcome::Cycle { homeless, path } => {
                    conflicted = true;
                    self.charge(self.params.costs.insert_step_ns * path.len() as f64);
                    if attempt + 1 == MAX_RETRIES {
                        return self.resolve_homeless(homeless, id, conflicted);
                    }
                    // Victim: lowest score among CACHED entries on the path.
                    let mut best: Option<(usize, EntryId, f64)> = None;
                    for &slot in &path {
                        if let Some((_k, eid)) = self.index.slot(slot) {
                            if eid == id {
                                continue;
                            }
                            let e = self.entry(eid);
                            if e.state != EntryState::Cached {
                                continue;
                            }
                            let s = self.entry_score(eid);
                            if best.is_none_or(|(_, _, bs)| s < bs) {
                                best = Some((slot, eid, s));
                            }
                        }
                    }
                    match best {
                        Some((slot, victim, _)) => {
                            self.evict_resident(slot, victim);
                            cur = homeless;
                        }
                        None => {
                            return self.resolve_homeless(homeless, id, conflicted);
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    fn resolve_homeless(
        &mut self,
        homeless: (GetKey, EntryId),
        new_id: EntryId,
        conflicted: bool,
    ) -> (bool, bool) {
        if homeless.1 == new_id {
            // The new entry itself could not be placed; nothing to undo.
            (false, conflicted)
        } else {
            // The new key is placed; the displaced resident is dropped
            // (it lost its slot and path eviction found no better victim).
            self.free_entry_storage(homeless.1);
            self.drop_entry(homeless.1);
            (true, conflicted)
        }
    }

    fn free_entry_storage(&mut self, id: EntryId) {
        let desc = self.entry(id).desc;
        if desc != NO_DESC {
            self.storage.free(desc);
            self.charge(self.params.costs.alloc_ns);
        }
    }

    fn entry_score(&self, id: EntryId) -> f64 {
        let e = self.entry(id);
        let policy = self.params.victim_scheme;
        if policy == VictimScheme::Lease {
            // Remaining lease under the get-sequence clock: expired
            // entries go negative and are reclaimed most-expired-first;
            // unexpired ones fall back to least-lease-left. Used on both
            // the capacity and the conflicting (Cuckoo path) victim
            // scans, so one comparison rule governs all lease evictions.
            return e.lease as f64 - self.seq as f64;
        }
        let r_t = temporal_score(e.last, self.seq);
        let r_p = positional_score(self.ags, self.storage.adjacent_free(e.desc));
        score(policy, r_p, r_t)
    }

    /// Removes a resident entry found at `slot` and releases its storage.
    fn evict_resident(&mut self, slot: usize, id: EntryId) {
        let removed = self.index.remove_slot(slot);
        debug_assert!(matches!(removed, Some((_, e)) if e == id));
        self.release_evicted(id);
    }

    /// Second half of an eviction, once `id` has left the index: counts
    /// an expired lease, releases the storage, drops the entry.
    fn release_evicted(&mut self, id: EntryId) {
        if self.params.victim_scheme == VictimScheme::Lease && self.entry(id).lease <= self.seq {
            self.stats.lease_expiries += 1;
        }
        self.free_entry_storage(id);
        self.drop_entry(id);
    }

    /// Best-fit allocation with up to `max_evictions_per_miss`
    /// capacity-eviction attempts on failure (1 = the paper's weak
    /// caching).
    fn alloc_with_eviction(
        &mut self,
        size: usize,
        id: EntryId,
        exclude: Option<EntryId>,
    ) -> (Option<DescId>, bool) {
        self.charge(self.params.costs.alloc_ns);
        if let Some(d) = self.storage.alloc(size, id) {
            return (Some(d), false);
        }
        let budget = self.params.max_evictions_per_miss.max(1);
        for _ in 0..budget {
            if !self.run_capacity_eviction(exclude) {
                return (None, true);
            }
            self.charge(self.params.costs.alloc_ns);
            if let Some(d) = self.storage.alloc(size, id) {
                return (Some(d), true);
            }
        }
        (None, true)
    }

    /// The sampled victim selection of Sec. III-D: scan at least `M`
    /// consecutive index slots from a random start (continuing until a
    /// candidate appears), evict the lowest-score CACHED entry.
    fn run_capacity_eviction(&mut self, exclude: Option<EntryId>) -> bool {
        if self.lru_enabled() {
            return self.run_exact_lru_eviction(exclude);
        }
        let cap = self.index.capacity();
        let start = self.rng.gen_range(0..cap);
        let m = self.params.sample_size.max(1);
        let mut visited = 0usize;
        let mut nonempty = 0u64;
        let mut best: Option<(usize, EntryId, f64)> = None;
        while visited < cap {
            let pos = (start + visited) % cap;
            visited += 1;
            if let Some((_k, eid)) = self.index.slot(pos) {
                nonempty += 1;
                let evictable = Some(eid) != exclude && self.entry(eid).state == EntryState::Cached;
                if evictable {
                    let s = self.entry_score(eid);
                    if best.is_none_or(|(_, _, bs)| s < bs) {
                        best = Some((pos, eid, s));
                    }
                }
            }
            if visited >= m && best.is_some() {
                break;
            }
        }
        self.stats.evictions += 1;
        self.stats.visited_slots += visited as u64;
        self.stats.visited_nonempty += nonempty;
        self.charge(self.params.costs.evict_visit_ns * visited as f64);
        match best {
            Some((slot, victim, _)) => {
                self.evict_resident(slot, victim);
                true
            }
            None => false,
        }
    }

    /// Exact-LRU capacity eviction: walk the recency index oldest-first
    /// and evict the first CACHED (non-excluded) entry.
    fn run_exact_lru_eviction(&mut self, exclude: Option<EntryId>) -> bool {
        let mut victim = None;
        let mut visited = 0u64;
        for (_, &id) in self.recency.iter() {
            visited += 1;
            if Some(id) != exclude && self.entry(id).state == EntryState::Cached {
                victim = Some(id);
                break;
            }
        }
        self.stats.evictions += 1;
        self.stats.visited_slots += visited;
        self.stats.visited_nonempty += visited;
        self.charge(self.params.costs.evict_visit_ns * visited as f64);
        match victim {
            Some(id) => {
                let key = self.entry(id).key;
                let removed = self.index.remove(&key);
                debug_assert_eq!(removed, Some(id));
                self.free_entry_storage(id);
                self.drop_entry(id);
                true
            }
            None => false,
        }
    }

    /// Full-index scan shared by the linear invalidation passes: charges
    /// one victim-scan visit per slot, then evicts every resident for
    /// which `pred(key, entry)` holds. Returns how many were dropped.
    fn evict_slots_where(&mut self, pred: impl Fn(GetKey, &Entry) -> bool) -> usize {
        let cap = self.index.capacity();
        self.charge(self.params.costs.evict_visit_ns * cap as f64);
        let victims: Vec<(usize, EntryId)> = self
            .index
            .iter()
            .filter(|&(_, key, id)| pred(key, self.entry(id)))
            .map(|(slot, _, id)| (slot, id))
            .collect();
        let dropped = victims.len();
        for (slot, id) in victims {
            self.evict_resident(slot, id);
        }
        dropped
    }

    /// Forgets every resident's bookkeeping (slab, pending list, recency
    /// and extent indexes, per-target counts, deferred copies) once the
    /// index and storage have been emptied or replaced. The recency index
    /// must go too: after the slab resets, stale recency ids would alias
    /// re-issued entry ids and corrupt ExactLru victim order.
    fn clear_residents(&mut self) {
        self.entries.clear();
        self.spare.clear();
        self.pending.clear();
        self.recency.clear();
        self.cached_count = 0;
        if let Some(x) = self.extents.as_mut() {
            x.clear();
        }
        self.deferred_ns = 0.0;
        self.target_counts.clear();
    }
}

/// Seed of the lease table, derived from the cache seed.
fn lease_seed(params: &CacheParams) -> u64 {
    params.seed ^ 0x1EA5_E000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u32, d: u64) -> GetKey {
        GetKey { target: t, disp: d }
    }

    fn params(index: usize, storage: usize) -> CacheParams {
        CacheParams {
            index_entries: index,
            storage_bytes: storage,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        }
    }

    fn cache(index: usize, storage: usize) -> RmaCache {
        RmaCache::new(params(index, storage))
    }

    /// Drives a full miss-then-cache cycle with payload `data`.
    fn insert(c: &mut RmaCache, k: GetKey, data: &[u8]) -> AccessType {
        let sig = LayoutSig::Contig(data.len());
        let mut dst = vec![0u8; data.len()];
        match c.process_lookup(k, &sig, &mut dst) {
            Lookup::Miss => c.finish_miss(k, sig, data, 0),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn miss_then_pending_hit_then_cached_hit() {
        let mut c = cache(64, 4096);
        let k = key(1, 0);
        let data = vec![7u8; 100];
        assert_eq!(insert(&mut c, k, &data), AccessType::Direct);

        // Same epoch: hit on the PENDING entry.
        let mut dst = vec![0u8; 100];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(100), &mut dst),
            Lookup::Hit
        );
        assert_eq!(dst, data);
        assert_eq!(c.cached_entries(), 0, "still pending");

        c.epoch_close();
        assert_eq!(c.cached_entries(), 1);

        let mut dst2 = vec![0u8; 100];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(100), &mut dst2),
            Lookup::Hit
        );
        assert_eq!(dst2, data);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().direct, 1);
    }

    #[test]
    fn smaller_request_is_full_hit_on_larger_entry() {
        let mut c = cache(64, 4096);
        let k = key(0, 64);
        let data: Vec<u8> = (0..200u8).collect();
        insert(&mut c, k, &data);
        c.epoch_close();
        let mut dst = vec![0u8; 50];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(50), &mut dst),
            Lookup::Hit
        );
        assert_eq!(&dst[..], &data[..50]);
    }

    #[test]
    fn larger_request_is_partial_hit_and_extends() {
        let mut c = cache(64, 8192);
        let k = key(0, 0);
        let data: Vec<u8> = (0..=99u8).collect();
        insert(&mut c, k, &data);
        c.epoch_close();

        let big: Vec<u8> = (0..=255u8).collect();
        let mut dst = vec![0u8; 256];
        match c.process_lookup(k, &LayoutSig::Contig(256), &mut dst) {
            Lookup::PartialHit { cached_len } => {
                assert_eq!(cached_len, 100);
                assert_eq!(&dst[..100], &big[..100], "prefix served from cache");
            }
            other => panic!("expected partial hit, got {other:?}"),
        }
        dst[100..].copy_from_slice(&big[100..]); // wrapper fetches the tail
        assert_eq!(
            c.finish_partial(k, LayoutSig::Contig(256), &dst, 0),
            AccessType::Direct
        );
        c.epoch_close();

        // Now the whole 256 bytes hit.
        let mut dst2 = vec![0u8; 256];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(256), &mut dst2),
            Lookup::Hit
        );
        assert_eq!(dst2, big);
        assert_eq!(c.stats().partial_hits, 1);
    }

    #[test]
    fn capacity_eviction_makes_room() {
        // Storage fits exactly two 512-byte entries.
        let mut c = cache(64, 1024);
        insert(&mut c, key(0, 0), &vec![1u8; 512]);
        insert(&mut c, key(0, 1000), &vec![2u8; 512]);
        c.epoch_close();
        assert_eq!(c.free_bytes(), 0);

        let t = insert(&mut c, key(0, 2000), &vec![3u8; 512]);
        assert_eq!(t, AccessType::Capacity);
        assert_eq!(c.stats().evictions, 1);
        c.epoch_close();
        assert_eq!(c.cached_entries(), 2);
    }

    #[test]
    fn failing_access_leaves_cache_consistent() {
        // Entry bigger than the whole storage can never be cached.
        let mut c = cache(64, 256);
        let t = insert(&mut c, key(0, 0), &vec![1u8; 10_000]);
        assert_eq!(t, AccessType::Failed);
        assert!(c.is_empty());
        // And a later normal insert still works.
        assert_eq!(insert(&mut c, key(0, 64), &[2u8; 64]), AccessType::Direct);
    }

    #[test]
    fn pending_entries_are_not_evicted() {
        let mut c = cache(64, 1024);
        // Fill storage with two pending entries (no epoch close yet).
        insert(&mut c, key(0, 0), &vec![1u8; 512]);
        insert(&mut c, key(0, 1000), &vec![2u8; 512]);
        // A third insert in the same epoch: eviction cannot pick pending
        // entries, so the access fails.
        let t = insert(&mut c, key(0, 2000), &[3u8; 128]);
        assert_eq!(t, AccessType::Failed);
        c.epoch_close();
        assert_eq!(c.cached_entries(), 2, "pending entries survived");
    }

    #[test]
    fn conflicting_access_on_tiny_index() {
        // A 4-slot index overflows quickly; the engine must classify the
        // overflow as Conflicting (or fail gracefully) and stay consistent.
        let mut c = RmaCache::new(CacheParams {
            index_entries: 4,
            storage_bytes: 1 << 20,
            max_insert_iters: 8,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        });
        let mut classes = Vec::new();
        for i in 0..32u64 {
            classes.push(insert(&mut c, key(0, i * 64), &[i as u8; 64]));
            c.epoch_close();
        }
        assert!(
            classes.contains(&AccessType::Conflicting),
            "expected at least one conflicting access, got {classes:?}"
        );
        assert!(c.len() <= 4);
        // Every resident entry still serves correct data.
        let resident: Vec<(GetKey, EntryId)> = (0..4).filter_map(|s| c.index.slot(s)).collect();
        for (k, _) in resident {
            let mut dst = vec![0u8; 64];
            assert_eq!(
                c.process_lookup(k, &LayoutSig::Contig(64), &mut dst),
                Lookup::Hit
            );
            assert_eq!(dst, vec![(k.disp / 64) as u8; 64]);
        }
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut c = cache(64, 4096);
        insert(&mut c, key(0, 0), &[1, 2, 3]);
        c.epoch_close();
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.cached_entries(), 0);
        assert_eq!(c.free_bytes(), 4096);
        assert_eq!(c.stats().invalidations, 1);
        let mut dst = vec![0u8; 3];
        assert_eq!(
            c.process_lookup(key(0, 0), &LayoutSig::Contig(3), &mut dst),
            Lookup::Miss
        );
    }

    #[test]
    fn resize_counts_as_adjustment() {
        let mut c = cache(64, 4096);
        insert(&mut c, key(0, 0), &[1, 2, 3]);
        c.epoch_close();
        c.resize(128, 8192);
        assert!(c.is_empty());
        assert_eq!(c.params().index_entries, 128);
        assert_eq!(c.params().storage_bytes, 8192);
        assert_eq!(c.stats().adjustments, 1);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn costs_accumulate_and_drain() {
        let mut c = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 4096,
            ..CacheParams::default()
        });
        insert(&mut c, key(0, 0), &vec![0u8; 256]);
        let cost = c.take_cost();
        assert!(cost > 0.0, "lookup + insert + alloc must cost CPU time");
        assert_eq!(c.take_cost(), 0.0, "drained");
        // The cache-fill copy is deferred to the epoch close.
        c.epoch_close();
        let close_cost = c.take_cost();
        assert!(
            close_cost >= c.params().costs.memcpy_cost(256),
            "epoch close must charge the deferred fill copy"
        );
    }

    #[test]
    fn hit_on_cached_charges_now_but_pending_defers() {
        let mut c = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 4096,
            ..CacheParams::default()
        });
        let k = key(0, 0);
        insert(&mut c, k, &vec![0u8; 1024]);
        c.take_cost();
        // Hit while PENDING: only the lookup is charged immediately.
        let mut dst = vec![0u8; 1024];
        c.process_lookup(k, &LayoutSig::Contig(1024), &mut dst);
        let pending_hit_cost = c.take_cost();
        c.epoch_close();
        c.take_cost();
        // Hit while CACHED: lookup + copy charged immediately.
        c.process_lookup(k, &LayoutSig::Contig(1024), &mut dst);
        let cached_hit_cost = c.take_cost();
        assert!(
            cached_hit_cost > pending_hit_cost,
            "cached {cached_hit_cost} <= pending {pending_hit_cost}"
        );
    }

    #[test]
    fn noncontiguous_layouts_hit_only_on_exact_match() {
        use clampi_datatype::Datatype;
        let mut c = cache(64, 4096);
        let dt = Datatype::vector(4, 1, 2, Datatype::bytes(8));
        let layout = dt.flatten();
        let sig = LayoutSig::from_layout(&layout);
        let data = vec![5u8; layout.total_size()];
        let mut dst = vec![0u8; data.len()];
        assert_eq!(c.process_lookup(key(2, 0), &sig, &mut dst), Lookup::Miss);
        c.finish_miss(key(2, 0), sig.clone(), &data, 0);
        c.epoch_close();

        // Exact same layout: hit.
        let mut dst2 = vec![0u8; data.len()];
        assert_eq!(c.process_lookup(key(2, 0), &sig, &mut dst2), Lookup::Hit);
        assert_eq!(dst2, data);

        // Different layout at the same key: incompatible partial.
        let other = Datatype::vector(2, 1, 4, Datatype::bytes(8)).flatten();
        let osig = LayoutSig::from_layout(&other);
        let mut dst3 = vec![0u8; other.total_size()];
        assert_eq!(
            c.process_lookup(key(2, 0), &osig, &mut dst3),
            Lookup::PartialHit { cached_len: 0 }
        );
    }

    #[test]
    fn ags_tracks_cumulative_mean() {
        let mut c = cache(64, 1 << 20);
        insert(&mut c, key(0, 0), &[0u8; 100]);
        insert(&mut c, key(0, 1000), &vec![0u8; 300]);
        assert!((c.avg_get_size() - 200.0).abs() < 1e-9);
        assert_eq!(c.seq(), 2);
    }

    #[test]
    fn temporal_scheme_evicts_lru_like() {
        // Two entries fill the storage; touch the first again, then force
        // an eviction: the untouched (older) one must go.
        let mut c = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 1024,
            victim_scheme: VictimScheme::Temporal,
            sample_size: 64, // scan everything: deterministic victim
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        });
        let hot = key(0, 0);
        let cold = key(0, 5000);
        insert(&mut c, hot, &vec![1u8; 512]);
        insert(&mut c, cold, &vec![2u8; 512]);
        c.epoch_close();
        let mut dst = vec![0u8; 512];
        assert_eq!(
            c.process_lookup(hot, &LayoutSig::Contig(512), &mut dst),
            Lookup::Hit
        );

        insert(&mut c, key(0, 9000), &vec![3u8; 512]);
        c.epoch_close();
        // Hot survives, cold was evicted.
        assert_eq!(
            c.process_lookup(hot, &LayoutSig::Contig(512), &mut dst),
            Lookup::Hit
        );
        assert_eq!(
            c.process_lookup(cold, &LayoutSig::Contig(512), &mut dst),
            Lookup::Miss
        );
    }
}
