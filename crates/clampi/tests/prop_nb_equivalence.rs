//! Property tests for the nonblocking batched get path
//! (`CLAMPI_PROP_SEED` replays a single case; `CLAMPI_PROP_CASES`
//! overrides the counts).
//!
//! `CachedWindow::get_nb` promises that only *virtual-time accounting*
//! differs from the blocking `get`: destination bytes, access
//! classifications, and the cache contents after every epoch closure
//! are bit-identical, because both paths drive the engine through the
//! same call sequence (misses stage their fetch eagerly). The
//! properties here pin that contract over random workloads:
//!
//! 1. for every cache [`Mode`], a random get/flush schedule produces
//!    identical per-get bytes, identical classifications, identical
//!    merged `CacheStats` (minus the nb-only counters), and an
//!    identical cache `content_fingerprint` at every flush point;
//! 2. the same holds under transient fault injection with retries —
//!    both paths consume the same fault-decision stream;
//! 3. the nonblocking path never takes *longer* in virtual time than
//!    blocking, and coalescing only widens that gap;
//! 4. a random mix of `get`/`get_nb`/`put` (with interleaved flushes,
//!    and every put flushed on both sides so it never shares an epoch
//!    with a conflicting access) leaves the stats classification exact:
//!    `hits + direct + conflicting + capacity + failed == total_gets`.

use clampi::{AccessType, CacheParams, CacheStats, CachedWindow, ClampiConfig, Mode, RetryPolicy};
use clampi_datatype::Datatype;
use clampi_prng::prop::{check, Gen};
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, FaultConfig, SimConfig};

const WIN: usize = 4096;
const GET: usize = 64;

fn truth(t: usize, d: usize) -> u8 {
    (t.wrapping_mul(131).wrapping_add(d * 7)) as u8
}

/// One random schedule: get slots with flush points interleaved.
#[derive(Clone)]
struct Schedule {
    mode: Mode,
    coalesce: usize,
    ops: Vec<usize>,
    flush_every: usize,
    faults: Option<FaultConfig>,
}

/// Trace of one run: per-get classification, per-get bytes snapshot,
/// cache fingerprint at each flush point, merged stats, elapsed ns.
struct Trace {
    classes: Vec<Option<AccessType>>,
    bytes: Vec<Vec<u8>>,
    fingerprints: Vec<u64>,
    stats: CacheStats,
    elapsed_ns: f64,
}

fn run_schedule(s: &Schedule, nonblocking: bool) -> Trace {
    let mut sim = SimConfig::default();
    if let Some(f) = &s.faults {
        sim = sim.with_faults(f.clone());
    }
    let mode = s.mode;
    let coalesce = s.coalesce;
    let ops = s.ops.clone();
    let flush_every = s.flush_every.max(1);
    let out = run_collect(sim, 2, move |p| {
        let params = CacheParams {
            max_coalesce_bytes: coalesce,
            ..CacheParams::default()
        };
        let retry = RetryPolicy {
            max_retries: 64,
            op_timeout_ns: f64::INFINITY,
            ..RetryPolicy::default()
        };
        let cfg = ClampiConfig::fixed(mode, params).with_retry(retry);
        let mut win = CachedWindow::create(p, WIN, cfg);
        if p.rank() == 1 {
            let mut m = win.local_mut();
            for (d, b) in m.iter_mut().enumerate() {
                *b = truth(1, d);
            }
        }
        p.barrier();
        let mut classes = Vec::new();
        let mut bytes = Vec::new();
        let mut fingerprints = Vec::new();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf = [0u8; GET];
            let dtype = Datatype::bytes(GET);
            for (i, &slot) in ops.iter().enumerate() {
                let disp = slot * GET;
                let class = if nonblocking {
                    win.get_nb(p, &mut buf, 1, disp, &dtype, 1)
                } else {
                    win.get(p, &mut buf, 1, disp, &dtype, 1)
                };
                classes.push(class);
                if (i + 1) % flush_every == 0 {
                    win.flush_all(p);
                    // Both paths' dst buffers are complete here (the
                    // blocking one was complete immediately; get_nb bytes
                    // are also written eagerly — the flush closes the
                    // virtual-time epoch). Snapshot at the synchronised
                    // point so the comparison is one contract, not two.
                    fingerprints.push(win.cache().map_or(0, |c| c.content_fingerprint()));
                }
                bytes.push(buf.to_vec());
            }
            win.flush_all(p);
            fingerprints.push(win.cache().map_or(0, |c| c.content_fingerprint()));
            win.unlock_all(p);
        }
        p.barrier();
        (classes, bytes, fingerprints, win.stats())
    });
    let (report, (classes, bytes, fingerprints, stats)) = (&out[0].0, out[0].1.clone());
    Trace {
        classes,
        bytes,
        fingerprints,
        stats,
        elapsed_ns: report.elapsed_ns,
    }
}

/// Zeroes the counters that are *expected* to differ between the two
/// paths (nb-only bookkeeping and time-dependent overlap credit).
fn comparable(mut s: CacheStats) -> CacheStats {
    s.batched_gets = 0;
    s.coalesced_misses = 0;
    s.overlapped_wire_ns = 0;
    s
}

fn gen_schedule(g: &mut Gen, faulty: bool) -> Schedule {
    let mode = match g.range(0..4u32) {
        0 => Mode::Disabled,
        1 => Mode::Transparent,
        2 => Mode::AlwaysCache,
        _ => Mode::UserDefined,
    };
    Schedule {
        mode,
        coalesce: if g.bool() { 0 } else { 16 << 10 },
        ops: g.vec(30..100usize, |g| g.range(0..(WIN / GET))),
        flush_every: g.range(1..12usize),
        faults: if faulty {
            Some(FaultConfig::transient(g.range(0.0..0.12), g.u64()))
        } else {
            None
        },
    }
}

fn assert_equivalent(s: &Schedule) {
    let blocking = run_schedule(s, false);
    let nb = run_schedule(s, true);
    assert_eq!(
        blocking.classes, nb.classes,
        "classifications must be identical (mode {:?})",
        s.mode
    );
    assert_eq!(
        blocking.bytes, nb.bytes,
        "destination bytes must be identical (mode {:?})",
        s.mode
    );
    assert_eq!(
        blocking.fingerprints, nb.fingerprints,
        "cache contents at each flush must be identical (mode {:?})",
        s.mode
    );
    assert_eq!(
        comparable(blocking.stats),
        comparable(nb.stats),
        "stats (minus nb-only counters) must be identical (mode {:?})",
        s.mode
    );
    assert_eq!(nb.stats.batched_gets, s.ops.len() as u64);
    // Overlap can only help: batching never makes virtual time worse.
    assert!(
        nb.elapsed_ns <= blocking.elapsed_ns + 1e-6,
        "nonblocking slower than blocking: {} > {} (mode {:?})",
        nb.elapsed_ns,
        blocking.elapsed_ns,
        s.mode
    );
}

#[test]
fn prop_nb_matches_blocking_fault_free() {
    check("get_nb == get: bytes/classes/cache, all modes", 24, |g| {
        assert_equivalent(&gen_schedule(g, false));
    });
}

#[test]
fn prop_nb_matches_blocking_under_faults() {
    check("get_nb == get under transient faults + retries", 16, |g| {
        let s = gen_schedule(g, true);
        assert_equivalent(&s);
        // The generator must actually be exercising the fault path for
        // some seeds; a rate draw of ~0 is fine for any single case.
        assert!(s.faults.is_some());
    });
}

#[test]
fn prop_coalescing_is_behavior_preserving_and_no_slower() {
    check("coalescing changes time only, and only downward", 16, |g| {
        let mut s = gen_schedule(g, false);
        s.mode = Mode::Transparent;
        s.coalesce = 0;
        let uncoalesced = run_schedule(&s, true);
        s.coalesce = 16 << 10;
        let coalesced = run_schedule(&s, true);
        assert_eq!(uncoalesced.classes, coalesced.classes);
        assert_eq!(uncoalesced.bytes, coalesced.bytes);
        assert_eq!(uncoalesced.fingerprints, coalesced.fingerprints);
        assert_eq!(comparable(uncoalesced.stats), comparable(coalesced.stats));
        assert!(
            coalesced.elapsed_ns <= uncoalesced.elapsed_ns + 1e-6,
            "coalescing made the run slower: {} > {}",
            coalesced.elapsed_ns,
            uncoalesced.elapsed_ns
        );
    });
}

#[test]
fn prop_windowed_engine_keeps_stats_partition() {
    check("windowed_engine_keeps_stats_partition", 24, |g| {
        let records = g.range(4..=16usize);
        let rec_len = 8 * g.range(1..=8usize);
        let ops = g.range(20..=120usize);
        let seed = g.u64();
        let win_size = records * rec_len;

        let reports = run_collect(SimConfig::bench(), 2, move |p| {
            let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
            let mut win = CachedWindow::create(p, win_size, cfg);
            if p.rank() == 1 {
                win.local_mut().fill(7);
            }
            p.barrier();
            if p.rank() == 0 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let dt = Datatype::bytes(rec_len);
                let mut dst = vec![0u8; rec_len];
                win.lock_all(p);
                for _ in 0..ops {
                    let r = rng.gen_range(0..records);
                    match rng.gen_range(0..10u32) {
                        0..=4 => {
                            win.get(p, &mut dst, 1, r * rec_len, &dt, 1);
                        }
                        5..=7 => {
                            win.get_nb(p, &mut dst, 1, r * rec_len, &dt, 1);
                        }
                        8 => {
                            // A put conflicts with any get or put of the
                            // same range in its epoch (MPI-3), so it gets
                            // an epoch of its own: flush on both sides.
                            let src = vec![rng.gen_range(0..=255u32) as u8; rec_len];
                            win.flush(p, 1);
                            win.put(p, &src, 1, r * rec_len, &dt, 1);
                            win.flush(p, 1);
                        }
                        _ => win.flush_all(p),
                    }
                }
                win.flush_all(p);
                let s = win.stats();
                assert_eq!(
                    s.hits + s.direct + s.conflicting + s.capacity + s.failed,
                    s.total_gets,
                    "stats classes must partition total_gets: {s:?}"
                );
                win.unlock_all(p);
            }
            p.barrier();
        });
        assert_eq!(reports.len(), 2);
    });
}
