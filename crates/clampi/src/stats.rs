//! Cache statistics: the counters behind the paper's Figs. 11, 13, 16, 18.
//!
//! Every `get_c` processed by the caching layer is classified into exactly
//! one access type (the paper's Sec. III-B):
//!
//! - **hit** — the lookup returned a `CACHED` or `PENDING` entry covering
//!   the request (no network);
//! - **direct** — a miss that was cached without any eviction;
//! - **conflicting** — a miss whose Cuckoo insertion failed, evicting an
//!   entry on the insertion path;
//! - **capacity** — a miss that required a storage eviction which freed
//!   enough space;
//! - **failed** — a miss that could not be cached (the get itself still
//!   succeeds: weak caching).

use crate::eviction::{VictimScheme, POLICY_COUNT};

/// The classification of one processed `get_c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Served from cache (full hit on a CACHED or PENDING entry).
    Hit,
    /// Cached with no eviction.
    Direct,
    /// Cached after an index (Cuckoo insertion path) eviction.
    Conflicting,
    /// Cached after a storage eviction freed enough space.
    Capacity,
    /// Not cached: no resources even after one eviction attempt.
    ///
    /// **Overloaded under fault injection.** The recovery layer *also*
    /// classifies degraded and abandoned gets as `Failed`, and those
    /// deliver a zero-filled payload — whereas the engine's
    /// could-not-cache `Failed` still delivers the fetched bytes (weak
    /// caching). The classification alone cannot tell the two apart:
    /// snapshot `CachedWindow::faulted_gets()` around the operation —
    /// it moves exactly when the payload was zero-filled by a fault.
    Failed,
}

impl AccessType {
    /// Stable label used by the figure binaries.
    pub fn label(&self) -> &'static str {
        match self {
            AccessType::Hit => "hit",
            AccessType::Direct => "direct",
            AccessType::Conflicting => "conflicting",
            AccessType::Capacity => "capacity",
            AccessType::Failed => "failed",
        }
    }

    /// All access types in reporting order.
    pub const ALL: [AccessType; 5] = [
        AccessType::Hit,
        AccessType::Direct,
        AccessType::Conflicting,
        AccessType::Capacity,
        AccessType::Failed,
    ];
}

/// Aggregated counters for one caching layer `C_w`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Total `get_c` operations processed.
    pub total_gets: u64,
    /// Full hits (includes hits on PENDING entries).
    pub hits: u64,
    /// Partial hits: key matched but the request exceeded the cached size;
    /// these are *also* counted in direct/conflicting/capacity/failed
    /// according to how the extension allocation went.
    pub partial_hits: u64,
    /// Misses cached without eviction.
    pub direct: u64,
    /// Misses that evicted along the Cuckoo insertion path.
    pub conflicting: u64,
    /// Misses that evicted for space and then fit.
    pub capacity: u64,
    /// Misses that could not be cached.
    pub failed: u64,
    /// Storage (capacity) eviction procedures executed.
    pub evictions: u64,
    /// Index slots visited across all capacity evictions (`v_i` summed).
    pub visited_slots: u64,
    /// Non-empty slots among the visited ones (numerator of the paper's
    /// sparsity signal `q`).
    pub visited_nonempty: u64,
    /// Cache invalidations (epoch closures in transparent mode, explicit
    /// invalidates, and adaptive adjustments).
    pub invalidations: u64,
    /// Adaptive parameter adjustments performed.
    pub adjustments: u64,
    /// Payload bytes served from cache.
    pub bytes_from_cache: u64,
    /// Payload bytes fetched over the network by `get_c` calls.
    pub bytes_from_network: u64,
    /// Transient-fault retries issued by the recovery layer (one per
    /// reissued network operation, not per get).
    pub retries: u64,
    /// Operations abandoned because their cumulative virtual-time budget
    /// ([`crate::RetryPolicy::op_timeout_ns`]) ran out while retrying.
    pub timeouts: u64,
    /// Gets served in degraded mode (target already marked failed: no
    /// network traffic, zero-filled payload, classified `Failed`).
    pub degraded_gets: u64,
    /// Gets whose fetch was abandoned by the recovery layer (rank death
    /// or retries exhausted): zero-filled payload, classified `Failed`.
    /// Together with `degraded_gets` this disambiguates a fault-failed
    /// get from the engine's `Failed` *caching* classification, where
    /// the payload was fetched fine but could not be cached.
    pub abandoned_gets: u64,
    /// Cache entries dropped because their target rank was marked failed.
    pub invalidations_on_failure: u64,
    /// Misses whose wire transfer was merged into an already-outstanding
    /// nonblocking get to the same target (adjacent/overlapping byte
    /// range, within `CacheParams::max_coalesce_bytes`): no new issue
    /// overhead and only the incremental bytes on the wire.
    pub coalesced_misses: u64,
    /// Gets issued through the nonblocking batched path
    /// ([`crate::CachedWindow::get_nb`] and friends).
    pub batched_gets: u64,
    /// Wire nanoseconds of nonblocking miss transfers that were hidden
    /// behind CPU work instead of being blocked on at the epoch closure
    /// (posted wire time minus time actually spent blocked, saturating).
    /// Approximate: rounded to whole ns and attributed per closure.
    pub overlapped_wire_ns: u64,
    /// Cache entries dropped by a coherence pass because a remote put
    /// made (or may have made) them stale — each one a stale hit that can
    /// no longer happen.
    pub stale_hits_prevented: u64,
    /// Put-notification records consumed by `EagerInvalidate` drains.
    pub notifications_drained: u64,
    /// Notification-ring overflows observed (each falls back to a full
    /// per-target invalidation).
    pub notification_overflows: u64,
    /// Remote version fetches issued by `EpochValidate` passes.
    pub version_fetches: u64,
    /// Live victim-policy switches applied (adaptive [`SwitchPolicy`]
    /// adjustments plus explicit `set_victim_scheme` calls that changed
    /// the policy).
    ///
    /// [`SwitchPolicy`]: crate::AdjustRule::SwitchPolicy
    pub policy_switches: u64,
    /// Victims evicted by the live [`VictimScheme::Lease`] policy whose
    /// lease had already expired under the get-sequence clock (the
    /// remainder were reclaimed early, before expiry).
    ///
    /// [`VictimScheme::Lease`]: crate::VictimScheme::Lease
    pub lease_expiries: u64,
    /// Gets replayed through the policy lab's shadow caches (one per
    /// get, regardless of how many shadows run).
    pub shadow_gets: u64,
    /// Shadow-cache slot inspections across all policies — the lab's
    /// overhead unit, priced by
    /// [`CacheCostModel::shadow_visit_ns`](crate::CacheCostModel::shadow_visit_ns)
    /// but never charged to the live virtual clock.
    pub shadow_slot_visits: u64,
    /// Per-policy shadow hits, indexed by
    /// [`VictimScheme::index`](crate::VictimScheme::index) (the order of
    /// [`VictimScheme::ALL`](crate::VictimScheme::ALL)).
    pub shadow_hits: [u64; POLICY_COUNT],
    /// Requests read through the snapshot subsystem
    /// ([`crate::CachedWindow::multi_get`]) — one per request in a batch,
    /// successful or not.
    pub snapshot_gets: u64,
    /// Snapshot requests refetched during validation because their
    /// validity interval excluded the candidate timestamp (beyond the
    /// initial gather; each refetch is an uncached network read).
    pub snapshot_refetches: u64,
    /// Snapshot validation attempts aborted (notification-ring overflow,
    /// refetch rounds exhausted, or a mid-batch fault) and retried — or
    /// given up on — as a whole batch.
    pub snapshot_aborts: u64,
    /// Total staleness of successful snapshots in virtual nanoseconds:
    /// for each batch, the drain-time commit clock minus the chosen
    /// timestamp (0 = the batch was provably the newest state).
    pub snapshot_staleness_ns: u64,
}

impl CacheStats {
    /// Records one classified access.
    pub fn record(&mut self, t: AccessType) {
        self.total_gets += 1;
        match t {
            AccessType::Hit => self.hits += 1,
            AccessType::Direct => self.direct += 1,
            AccessType::Conflicting => self.conflicting += 1,
            AccessType::Capacity => self.capacity += 1,
            AccessType::Failed => self.failed += 1,
        }
    }

    /// The counter value for `t`.
    pub fn count(&self, t: AccessType) -> u64 {
        match t {
            AccessType::Hit => self.hits,
            AccessType::Direct => self.direct,
            AccessType::Conflicting => self.conflicting,
            AccessType::Capacity => self.capacity,
            AccessType::Failed => self.failed,
        }
    }

    /// Hit ratio over all processed gets (0 if none).
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.total_gets)
    }

    /// The paper's conflict signal: `conflicting / total_gets`.
    pub fn conflict_ratio(&self) -> f64 {
        ratio(self.conflicting, self.total_gets)
    }

    /// The paper's capacity signal: `(capacity + failed) / total_gets`.
    pub fn capacity_ratio(&self) -> f64 {
        ratio(self.capacity + self.failed, self.total_gets)
    }

    /// The paper's sparsity signal `q`: non-empty / total visited entries
    /// during capacity evictions (1.0 when no eviction has run, i.e. the
    /// index is not known to be sparse).
    pub fn eviction_density(&self) -> f64 {
        if self.visited_slots == 0 {
            1.0
        } else {
            self.visited_nonempty as f64 / self.visited_slots as f64
        }
    }

    /// Average index slots visited per capacity eviction.
    pub fn avg_visited_per_eviction(&self) -> f64 {
        ratio(self.visited_slots, self.evictions)
    }

    /// Shadow hit ratio of candidate policy `v` over the gets the policy
    /// lab replayed (0 when the lab is off).
    pub fn shadow_hit_ratio(&self, v: VictimScheme) -> f64 {
        ratio(self.shadow_hits[v.index()], self.shadow_gets)
    }

    /// Difference of counters (self - earlier), for interval-based signals.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            total_gets: self.total_gets - earlier.total_gets,
            hits: self.hits - earlier.hits,
            partial_hits: self.partial_hits - earlier.partial_hits,
            direct: self.direct - earlier.direct,
            conflicting: self.conflicting - earlier.conflicting,
            capacity: self.capacity - earlier.capacity,
            failed: self.failed - earlier.failed,
            evictions: self.evictions - earlier.evictions,
            visited_slots: self.visited_slots - earlier.visited_slots,
            visited_nonempty: self.visited_nonempty - earlier.visited_nonempty,
            invalidations: self.invalidations - earlier.invalidations,
            adjustments: self.adjustments - earlier.adjustments,
            bytes_from_cache: self.bytes_from_cache - earlier.bytes_from_cache,
            bytes_from_network: self.bytes_from_network - earlier.bytes_from_network,
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            degraded_gets: self.degraded_gets - earlier.degraded_gets,
            abandoned_gets: self.abandoned_gets - earlier.abandoned_gets,
            invalidations_on_failure: self.invalidations_on_failure
                - earlier.invalidations_on_failure,
            coalesced_misses: self.coalesced_misses - earlier.coalesced_misses,
            batched_gets: self.batched_gets - earlier.batched_gets,
            overlapped_wire_ns: self.overlapped_wire_ns - earlier.overlapped_wire_ns,
            stale_hits_prevented: self.stale_hits_prevented - earlier.stale_hits_prevented,
            notifications_drained: self.notifications_drained - earlier.notifications_drained,
            notification_overflows: self.notification_overflows - earlier.notification_overflows,
            version_fetches: self.version_fetches - earlier.version_fetches,
            policy_switches: self.policy_switches - earlier.policy_switches,
            lease_expiries: self.lease_expiries - earlier.lease_expiries,
            shadow_gets: self.shadow_gets - earlier.shadow_gets,
            shadow_slot_visits: self.shadow_slot_visits - earlier.shadow_slot_visits,
            shadow_hits: std::array::from_fn(|i| self.shadow_hits[i] - earlier.shadow_hits[i]),
            snapshot_gets: self.snapshot_gets - earlier.snapshot_gets,
            snapshot_refetches: self.snapshot_refetches - earlier.snapshot_refetches,
            snapshot_aborts: self.snapshot_aborts - earlier.snapshot_aborts,
            snapshot_staleness_ns: self.snapshot_staleness_ns - earlier.snapshot_staleness_ns,
        }
    }

    /// Fieldwise sum of counters (self += other). Used to merge the
    /// recovery layer's fault counters — kept outside the cache engine so
    /// they exist even in [`crate::Mode::Disabled`] — into one report.
    pub fn merge(&mut self, other: &CacheStats) {
        self.total_gets += other.total_gets;
        self.hits += other.hits;
        self.partial_hits += other.partial_hits;
        self.direct += other.direct;
        self.conflicting += other.conflicting;
        self.capacity += other.capacity;
        self.failed += other.failed;
        self.evictions += other.evictions;
        self.visited_slots += other.visited_slots;
        self.visited_nonempty += other.visited_nonempty;
        self.invalidations += other.invalidations;
        self.adjustments += other.adjustments;
        self.bytes_from_cache += other.bytes_from_cache;
        self.bytes_from_network += other.bytes_from_network;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.degraded_gets += other.degraded_gets;
        self.abandoned_gets += other.abandoned_gets;
        self.invalidations_on_failure += other.invalidations_on_failure;
        self.coalesced_misses += other.coalesced_misses;
        self.batched_gets += other.batched_gets;
        self.overlapped_wire_ns += other.overlapped_wire_ns;
        self.stale_hits_prevented += other.stale_hits_prevented;
        self.notifications_drained += other.notifications_drained;
        self.notification_overflows += other.notification_overflows;
        self.version_fetches += other.version_fetches;
        self.policy_switches += other.policy_switches;
        self.lease_expiries += other.lease_expiries;
        self.shadow_gets += other.shadow_gets;
        self.shadow_slot_visits += other.shadow_slot_visits;
        for (a, b) in self.shadow_hits.iter_mut().zip(other.shadow_hits.iter()) {
            *a += *b;
        }
        self.snapshot_gets += other.snapshot_gets;
        self.snapshot_refetches += other.snapshot_refetches;
        self.snapshot_aborts += other.snapshot_aborts;
        self.snapshot_staleness_ns += other.snapshot_staleness_ns;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_each_type_once() {
        let mut s = CacheStats::default();
        for t in AccessType::ALL {
            s.record(t);
        }
        assert_eq!(s.total_gets, 5);
        for t in AccessType::ALL {
            assert_eq!(s.count(t), 1, "{t:?}");
        }
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.conflict_ratio(), 0.0);
        assert_eq!(s.capacity_ratio(), 0.0);
        assert_eq!(s.eviction_density(), 1.0);
        assert_eq!(s.avg_visited_per_eviction(), 0.0);
    }

    #[test]
    fn capacity_ratio_includes_failed() {
        let mut s = CacheStats::default();
        s.record(AccessType::Capacity);
        s.record(AccessType::Failed);
        s.record(AccessType::Hit);
        s.record(AccessType::Hit);
        assert_eq!(s.capacity_ratio(), 0.5);
        assert_eq!(s.hit_ratio(), 0.5);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut a = CacheStats::default();
        a.record(AccessType::Hit);
        let snapshot = a;
        a.record(AccessType::Direct);
        a.record(AccessType::Hit);
        let d = a.delta_since(&snapshot);
        assert_eq!(d.total_gets, 2);
        assert_eq!(d.hits, 1);
        assert_eq!(d.direct, 1);
    }

    #[test]
    fn delta_and_merge_cover_batching_counters() {
        let a = CacheStats {
            coalesced_misses: 7,
            batched_gets: 20,
            overlapped_wire_ns: 5_000,
            stale_hits_prevented: 9,
            notifications_drained: 30,
            notification_overflows: 3,
            version_fetches: 12,
            policy_switches: 4,
            lease_expiries: 40,
            shadow_gets: 100,
            shadow_slot_visits: 900,
            shadow_hits: [50, 60, 20, 55, 70],
            ..CacheStats::default()
        };
        let earlier = CacheStats {
            coalesced_misses: 2,
            batched_gets: 5,
            overlapped_wire_ns: 1_000,
            stale_hits_prevented: 4,
            notifications_drained: 10,
            notification_overflows: 1,
            version_fetches: 2,
            policy_switches: 1,
            lease_expiries: 15,
            shadow_gets: 30,
            shadow_slot_visits: 200,
            shadow_hits: [10, 20, 5, 15, 30],
            ..CacheStats::default()
        };
        let d = a.delta_since(&earlier);
        assert_eq!(d.coalesced_misses, 5);
        assert_eq!(d.batched_gets, 15);
        assert_eq!(d.overlapped_wire_ns, 4_000);
        assert_eq!(d.stale_hits_prevented, 5);
        assert_eq!(d.notifications_drained, 20);
        assert_eq!(d.notification_overflows, 2);
        assert_eq!(d.version_fetches, 10);
        assert_eq!(d.policy_switches, 3);
        assert_eq!(d.lease_expiries, 25);
        assert_eq!(d.shadow_gets, 70);
        assert_eq!(d.shadow_slot_visits, 700);
        assert_eq!(d.shadow_hits, [40, 40, 15, 40, 40]);
        let mut m = earlier;
        m.merge(&d);
        assert_eq!(m, a);
    }

    /// A stats value with *every* counter set to a distinct nonzero value.
    /// Deliberately an exhaustive struct literal — no `..Default()` — so
    /// adding a `CacheStats` field without wiring it here (and checking it
    /// through `merge`/`delta_since` below) is a compile error, not a
    /// silently dropped counter. PRs 4–8 each had to hand-verify this.
    fn filled(seed: u64) -> CacheStats {
        let mut n = seed;
        let mut next = || {
            n += 1;
            n
        };
        CacheStats {
            total_gets: next(),
            hits: next(),
            partial_hits: next(),
            direct: next(),
            conflicting: next(),
            capacity: next(),
            failed: next(),
            evictions: next(),
            visited_slots: next(),
            visited_nonempty: next(),
            invalidations: next(),
            adjustments: next(),
            bytes_from_cache: next(),
            bytes_from_network: next(),
            retries: next(),
            timeouts: next(),
            degraded_gets: next(),
            abandoned_gets: next(),
            invalidations_on_failure: next(),
            coalesced_misses: next(),
            batched_gets: next(),
            overlapped_wire_ns: next(),
            stale_hits_prevented: next(),
            notifications_drained: next(),
            notification_overflows: next(),
            version_fetches: next(),
            policy_switches: next(),
            lease_expiries: next(),
            shadow_gets: next(),
            shadow_slot_visits: next(),
            shadow_hits: std::array::from_fn(|_| next()),
            snapshot_gets: next(),
            snapshot_refetches: next(),
            snapshot_aborts: next(),
            snapshot_staleness_ns: next(),
        }
    }

    #[test]
    fn merge_and_delta_round_trip_every_field() {
        let a = filled(100);
        // merge adds every field: folding `a` into zero must reproduce it
        // exactly (a `+=` line missing from `merge` leaves a zero behind).
        let mut z = CacheStats::default();
        z.merge(&a);
        assert_eq!(z, a, "merge dropped a field");
        // delta subtracts every field: with b = a ⊕ d, recovering d via
        // b.delta_since(&a) catches a field copied instead of subtracted.
        let d = filled(10_000);
        let mut b = a;
        b.merge(&d);
        assert_eq!(b.delta_since(&a), d, "delta_since mishandled a field");
        // And the two are inverses from zero.
        assert_eq!(a.delta_since(&CacheStats::default()), a);
    }

    #[test]
    fn shadow_hit_ratio_is_per_policy() {
        let s = CacheStats {
            shadow_gets: 100,
            shadow_hits: [50, 25, 0, 10, 75],
            ..CacheStats::default()
        };
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Full), 0.5);
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Temporal), 0.25);
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Positional), 0.0);
        assert_eq!(s.shadow_hit_ratio(VictimScheme::ExactLru), 0.1);
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Lease), 0.75);
        assert_eq!(
            CacheStats::default().shadow_hit_ratio(VictimScheme::Full),
            0.0
        );
    }

    #[test]
    fn eviction_density_counts_nonempty_fraction() {
        let s = CacheStats {
            evictions: 2,
            visited_slots: 40,
            visited_nonempty: 10,
            ..CacheStats::default()
        };
        assert_eq!(s.eviction_density(), 0.25);
        assert_eq!(s.avg_visited_per_eviction(), 20.0);
    }
}
