//! Property tests for the coherence subsystem (`CLAMPI_PROP_SEED`
//! replays a single case; `CLAMPI_PROP_CASES` overrides the counts).
//!
//! The workload is a phase-structured 2-rank producer/consumer: rank 0
//! reads records from rank 1's window through an always-cache CLaMPI
//! window; between read rounds rank 1 `put`s fresh values into a random
//! subset of its records; the reader runs a coherence point
//! ([`CachedWindow::validate`]) before the next round. Both ranks
//! derive the update schedule from a shared PRNG seed, so the reader
//! knows the exact current value of every record at every read.
//!
//! Properties:
//!
//! 1. **no stale byte, ever**: under both [`CoherenceMode`]s (and the
//!    `None` + full-invalidation fallback), every get returns the
//!    record's current value, bit-identical to an uncached
//!    (`Mode::Disabled`) run of the same schedule — over random
//!    schedules, blocking and nonblocking reads, and notification-ring
//!    capacities down to 0 (the always-overflow degenerate ring);
//! 2. the same holds under transient fault injection with retries;
//! 3. **`CoherenceMode::None` is inert**: its runs are bit-identical —
//!    bytes, cache fingerprints, stats — whatever the notification-ring
//!    capacity, and its coherence counters stay zero (the subsystem
//!    cannot leak into the pre-coherence behaviour);
//! 4. (directed) a rank failure with notifications still pending
//!    degrades to a *full per-target invalidation* — the pending
//!    updates are never silently dropped, and post-failure gets return
//!    zeros, never a stale cached value;
//! 5. **surgical invalidation drops exactly the stale overlapped set**:
//!    driven on the engine directly, the extent-index
//!    [`RmaCache::invalidate_overlapping_stale`] drops the same entries
//!    a brute-force scan of every resident entry selects — over random
//!    entry sizes and extensions, partial overlaps, several records per
//!    entry and pending entries.

use clampi::index::GetKey;
use clampi::{
    AccessType, CacheParams, CacheStats, CachedWindow, ClampiConfig, CoherenceMode, EntryState,
    EntryView, LayoutSig, Lookup, Mode, RetryPolicy, RmaCache,
};
use clampi_datatype::Datatype;
use clampi_prng::prop::{check, Gen};
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, FaultConfig, SimConfig};
use std::collections::BTreeSet;

const SIZE: usize = 32;

/// The value every byte of record `r` holds after `version` updates.
/// Never zero, so a degraded (zero-filled) read can never be mistaken
/// for any version of the data.
fn pattern_byte(r: usize, version: u64) -> u8 {
    ((r as u64)
        .wrapping_mul(37)
        .wrapping_add(version.wrapping_mul(101)) as u8)
        | 1
}

#[derive(Clone)]
struct Schedule {
    records: usize,
    rounds: usize,
    gets_per_round: usize,
    updates_per_round: usize,
    seed: u64,
    ring_cap: usize,
    nonblocking: bool,
    faults: Option<FaultConfig>,
}

#[derive(Clone, PartialEq, Debug)]
struct Run {
    /// Every byte the reader observed, in order.
    bytes: Vec<Vec<u8>>,
    /// Cache fingerprint after each coherence point.
    fingerprints: Vec<u64>,
    stats: CacheStats,
}

/// Runs the schedule under the given coherence mode (`None` = uncached,
/// `Mode::Disabled`). Panics in-run if any read observes anything but
/// the record's current value.
fn run_schedule(s: &Schedule, coherence: Option<CoherenceMode>) -> Run {
    let mut sim = SimConfig::default().with_notify_ring_cap(s.ring_cap);
    if let Some(f) = &s.faults {
        sim = sim.with_faults(f.clone());
    }
    let s = s.clone();
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let cfg = match coherence {
            None => ClampiConfig::disabled(),
            Some(c) => {
                let params = CacheParams {
                    index_entries: 256,
                    storage_bytes: 64 << 10,
                    coherence: c,
                    ..CacheParams::default()
                };
                ClampiConfig::fixed(Mode::AlwaysCache, params)
            }
        }
        .with_retry(RetryPolicy {
            max_retries: 64,
            op_timeout_ns: f64::INFINITY,
            ..RetryPolicy::default()
        });
        let mut win = CachedWindow::create(p, s.records * SIZE, cfg);

        // Per-record version, advanced identically on both ranks from
        // the shared schedule PRNG.
        let mut versions = vec![0u64; s.records];
        let mut schedule = SmallRng::seed_from_u64(s.seed);
        let mut picks = SmallRng::seed_from_u64(s.seed ^ 0x9e37_79b9);

        if rank == 1 {
            let mut local = win.local_mut();
            for r in 0..s.records {
                local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
            }
        }
        p.barrier();

        win.lock_all(p);
        let mut bytes = Vec::new();
        let mut fingerprints = Vec::new();
        let dtype = Datatype::bytes(SIZE);
        for _ in 0..s.rounds {
            if rank == 0 {
                let reads: Vec<usize> = (0..s.gets_per_round)
                    .map(|_| picks.gen_range(0..s.records))
                    .collect();
                let mut bufs = vec![vec![0u8; SIZE]; reads.len()];
                if s.nonblocking {
                    for (&r, buf) in reads.iter().zip(&mut bufs) {
                        win.get_nb(p, buf, 1, r * SIZE, &dtype, 1);
                    }
                    win.flush_all(p);
                } else {
                    for (&r, buf) in reads.iter().zip(&mut bufs) {
                        let class = win.get(p, buf, 1, r * SIZE, &dtype, 1);
                        if class != Some(AccessType::Hit) {
                            win.flush(p, 1);
                        }
                    }
                }
                for (&r, buf) in reads.iter().zip(&bufs) {
                    assert!(
                        buf.iter().all(|&b| b == pattern_byte(r, versions[r])),
                        "stale or corrupt read of record {r} (coherence {coherence:?})"
                    );
                }
                bytes.extend(bufs);
            }
            p.barrier();

            // Update phase: both ranks draw the schedule; only rank 1
            // puts (into its own region). The draw is with replacement,
            // but MPI-3 forbids overlapping puts within one epoch even
            // from a single origin (RMASAN flags them), so each touched
            // record is put once, at its final version for the round.
            let mut touched: Vec<usize> = Vec::new();
            for _ in 0..s.updates_per_round {
                let r = schedule.gen_range(0..s.records);
                versions[r] += 1;
                if !touched.contains(&r) {
                    touched.push(r);
                }
            }
            if rank == 1 {
                for &r in &touched {
                    let val = vec![pattern_byte(r, versions[r]); SIZE];
                    win.put(p, &val, 1, r * SIZE, &dtype, 1);
                }
                if !touched.is_empty() {
                    win.flush(p, 1);
                }
            }
            p.barrier();

            win.validate(p);
            if rank == 0 {
                fingerprints.push(win.cache().map_or(0, |c| c.content_fingerprint()));
            }
        }
        win.unlock_all(p);
        p.barrier();
        (bytes, fingerprints, win.stats())
    });
    let (bytes, fingerprints, stats) = out[0].1.clone();
    Run {
        bytes,
        fingerprints,
        stats,
    }
}

fn gen_schedule(g: &mut Gen, faulty: bool) -> Schedule {
    let records = g.range(8..32usize);
    Schedule {
        records,
        rounds: g.range(2..6usize),
        gets_per_round: g.range(8..32usize),
        updates_per_round: g.range(0..records),
        seed: g.u64(),
        ring_cap: match g.range(0..4u32) {
            0 => 0,
            1 => 1,
            2 => g.range(2..8usize),
            _ => 4 * records,
        },
        nonblocking: g.bool(),
        faults: if faulty {
            Some(FaultConfig::transient(g.range(0.0..0.12), g.u64()))
        } else {
            None
        },
    }
}

/// The coherence counters that must stay zero in `CoherenceMode::None`.
fn coherence_counters(s: &CacheStats) -> [u64; 4] {
    [
        s.stale_hits_prevented,
        s.notifications_drained,
        s.notification_overflows,
        s.version_fetches,
    ]
}

#[test]
fn prop_coherent_modes_serve_no_stale_bytes() {
    check("eager/epoch/full-inval == uncached bytes", 12, |g| {
        let s = gen_schedule(g, false);
        let uncached = run_schedule(&s, None);
        for mode in [
            CoherenceMode::EagerInvalidate,
            CoherenceMode::EpochValidate,
            CoherenceMode::None,
        ] {
            let cached = run_schedule(&s, Some(mode));
            assert_eq!(
                uncached.bytes, cached.bytes,
                "cached bytes diverged from uncached run ({mode:?})"
            );
        }
    });
}

#[test]
fn prop_coherent_modes_survive_transient_faults() {
    check("no stale bytes under transient faults + retries", 10, |g| {
        let s = gen_schedule(g, true);
        let uncached = run_schedule(&s, None);
        for mode in [CoherenceMode::EagerInvalidate, CoherenceMode::EpochValidate] {
            let cached = run_schedule(&s, Some(mode));
            assert_eq!(
                uncached.bytes, cached.bytes,
                "cached bytes diverged under faults ({mode:?})"
            );
        }
        assert!(s.faults.is_some());
    });
}

#[test]
fn prop_none_mode_is_inert() {
    check(
        "CoherenceMode::None ignores the notification ring",
        10,
        |g| {
            let faulty = g.bool();
            let mut s = gen_schedule(g, faulty);
            let runs: Vec<Run> = [0usize, 1, 64]
                .iter()
                .map(|&cap| {
                    s.ring_cap = cap;
                    run_schedule(&s, Some(CoherenceMode::None))
                })
                .collect();
            for r in &runs[1..] {
                assert_eq!(
                    runs[0], *r,
                    "ring capacity leaked into CoherenceMode::None behaviour"
                );
            }
            assert_eq!(
                coherence_counters(&runs[0].stats),
                [0; 4],
                "coherence counters must stay zero in CoherenceMode::None"
            );
        },
    );
}

/// Satellite: a dead target's *pending* notifications are not silently
/// dropped — detection at the coherence point degrades to a full
/// per-target invalidation, and every later get returns zeros.
///
/// Deterministic timing: a fault-free dry run captures the reader's
/// virtual time right before round 2's coherence point; the real run
/// kills rank 1 at exactly that instant, so round 2's puts land (their
/// notifications are pending in the ring) but the drain that would
/// apply them fails with `TargetFailed`.
#[test]
fn rank_failure_degrades_pending_notifications_to_full_invalidation() {
    const RECORDS: usize = 8;
    const PUTS: usize = 4;

    // Returns (reader time before round-2 validate, round-3 classes,
    // round-3 zero-read flags, reader stats).
    fn run(at_ns: Option<f64>) -> (f64, Vec<Option<AccessType>>, Vec<bool>, CacheStats) {
        let mut sim = SimConfig::default();
        if let Some(t) = at_ns {
            sim = sim.with_faults(FaultConfig::default().with_rank_failure(1, t));
        }
        let out = run_collect(sim, 2, move |p| {
            let rank = p.rank();
            let params = CacheParams {
                coherence: CoherenceMode::EagerInvalidate,
                ..CacheParams::default()
            };
            let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
            let mut win = CachedWindow::create(p, RECORDS * SIZE, cfg);
            let mut versions = [0u64; RECORDS];
            if rank == 1 {
                let mut local = win.local_mut();
                for r in 0..RECORDS {
                    local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
                }
            }
            p.barrier();

            win.lock_all(p);
            let dtype = Datatype::bytes(SIZE);
            let mut captured = 0.0;
            let mut classes = Vec::new();
            let mut zeroed = Vec::new();
            for round in 0..3 {
                if rank == 0 {
                    let mut buf = vec![0u8; SIZE];
                    for (r, &v) in versions.iter().enumerate() {
                        let class = win.get(p, &mut buf, 1, r * SIZE, &dtype, 1);
                        if class != Some(AccessType::Hit) {
                            win.flush(p, 1);
                        }
                        if round == 2 {
                            classes.push(class);
                            zeroed.push(buf.iter().all(|&b| b == 0));
                        } else {
                            assert!(
                                buf.iter().all(|&b| b == pattern_byte(r, v)),
                                "pre-failure read of record {r} must be current"
                            );
                        }
                    }
                }
                p.barrier();
                for (r, v) in versions.iter_mut().enumerate().take(PUTS) {
                    *v += 1;
                    if rank == 1 {
                        let val = vec![pattern_byte(r, *v); SIZE];
                        win.put(p, &val, 1, r * SIZE, &dtype, 1);
                    }
                }
                if rank == 1 {
                    win.flush(p, 1);
                }
                p.barrier();
                if round == 1 {
                    captured = p.now();
                }
                win.validate(p);
            }
            win.unlock_all(p);
            p.barrier();
            (captured, classes, zeroed, win.stats())
        });
        let (captured, classes, zeroed, stats) = out[0].1.clone();
        (captured, classes, zeroed, stats)
    }

    let (t_detect, _, _, dry_stats) = run(None);
    assert!(t_detect > 0.0);
    // Fault-free: all three update batches are drained surgically.
    assert_eq!(dry_stats.notifications_drained, 3 * PUTS as u64);
    assert_eq!(dry_stats.invalidations_on_failure, 0);

    let (_, classes, zeroed, stats) = run(Some(t_detect));
    // Round 2's puts landed before the failure, so their notifications
    // were pending when the drain failed: only round 1's batch was ever
    // applied surgically...
    assert_eq!(stats.notifications_drained, PUTS as u64);
    // ...and the pending batch degraded to a full per-target
    // invalidation of everything cached (all RECORDS entries), not a
    // silent drop.
    assert!(
        stats.invalidations_on_failure >= RECORDS as u64,
        "pending notifications must degrade to a full invalidation \
         (got {} invalidations)",
        stats.invalidations_on_failure
    );
    // Post-failure reads: all failed, all zero-filled — never a stale
    // cached version (pattern bytes are never zero).
    assert_eq!(classes, vec![Some(AccessType::Failed); RECORDS]);
    assert!(zeroed.iter().all(|&z| z), "degraded reads must be zeros");
}

/// The reference for property 5: a brute-force scan of every resident
/// entry, applying the `EagerInvalidate` staleness rule (overlaps a
/// record's `[lo, hi)` and was filled before the record's version).
fn slot_scan_victims(
    entries: &[EntryView],
    target: u32,
    ranges: &[(u64, u64, u64)],
) -> BTreeSet<(u32, u64)> {
    entries
        .iter()
        .filter(|e| {
            let (e_lo, e_hi) = (e.key.disp, e.key.disp + e.size as u64);
            e.key.target == target
                && ranges
                    .iter()
                    .any(|&(lo, hi, v)| e_lo < hi && lo < e_hi && e.version < v)
        })
        .map(|e| (e.key.target, e.key.disp))
        .collect()
}

#[test]
fn prop_extent_index_invalidation_matches_slot_scan() {
    check("extent-index invalidation == slot scan oracle", 48, |g| {
        let mut cache = RmaCache::new(CacheParams {
            index_entries: g.range(16..160usize),
            storage_bytes: g.range(1usize << 10..16 << 10),
            coherence: CoherenceMode::EagerInvalidate,
            seed: g.u64(),
            ..CacheParams::default()
        });
        // A small displacement grid makes keys recur (hits, extensions)
        // and extents overlap.
        let grid = g.range(8..96u64);
        let max_size = g.range(1..=160usize);
        for _ in 0..g.range(1..8usize) {
            for _ in 0..g.range(1..48usize) {
                let cached: Vec<EntryView> = cache
                    .entries()
                    .filter(|e| e.state == EntryState::Cached)
                    .collect();
                let (key, size) = if !cached.is_empty() && g.bool_with(0.3) {
                    // Extend a cached entry past every size drawn so far.
                    let e = cached[g.range(0..cached.len())];
                    (e.key, e.size + g.range(1..=e.size))
                } else {
                    let key = GetKey {
                        target: g.range(0..3u32),
                        disp: 8 * g.range(0..grid),
                    };
                    (key, g.range(1..=max_size))
                };
                let sig = LayoutSig::Contig(size);
                let mut dst = vec![0u8; size];
                let data = vec![key.disp as u8; size];
                let version = g.range(0..24u64);
                match cache.process_lookup(key, &sig, &mut dst) {
                    Lookup::Miss => {
                        cache.finish_miss(key, sig, &data, version);
                    }
                    Lookup::PartialHit { .. } => {
                        cache.finish_partial(key, sig, &data, version);
                    }
                    Lookup::Hit => {}
                }
                // Close epochs only sometimes, so pending entries remain.
                if g.bool_with(0.2) {
                    cache.epoch_close();
                }
            }
            let before: Vec<EntryView> = cache.entries().collect();
            let target = g.range(0..3u32);
            let mut ranges = Vec::new();
            for _ in 0..g.range(0..12usize) {
                let v = g.range(0..28u64);
                let anchor = (!before.is_empty() && g.bool())
                    .then(|| before[g.range(0..before.len())])
                    .filter(|e| e.key.target == target);
                match anchor {
                    // Records cutting into a resident entry (partial
                    // overlaps), sometimes two on the same entry.
                    Some(e) => {
                        for _ in 0..g.range(1..=2usize) {
                            let lo = e.key.disp + g.range(0..e.size as u64);
                            ranges.push((lo, lo + g.range(1..=64u64), v));
                        }
                    }
                    None => {
                        let lo = g.range(0..8 * grid + 64);
                        ranges.push((lo, lo + g.range(0..=128u64), v));
                    }
                }
            }
            let want = slot_scan_victims(&before, target, &ranges);
            let dropped = cache.invalidate_overlapping_stale(target, &ranges);
            let key_of = |e: &EntryView| (e.key.target, e.key.disp);
            let after: BTreeSet<(u32, u64)> = cache.entries().map(|e| key_of(&e)).collect();
            let gone: BTreeSet<(u32, u64)> = before
                .iter()
                .map(key_of)
                .filter(|k| !after.contains(k))
                .collect();
            assert_eq!(gone, want, "dropped set diverged from the slot scan");
            assert_eq!(dropped, want.len());
        }
    });
}
