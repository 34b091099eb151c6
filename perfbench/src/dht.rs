//! The two DHT workloads over `clampi_apps::Dht`.
//!
//! Both populate the table owner-locally, then check every value a read
//! returns against the shared-schedule version vector
//! ([`KeyStream::version`]): every rank replays the same update schedule
//! from the seed, so it knows the exact value each key must hold.

use crate::measure::{Counters, Mark, OpMeter, Tracer};
use crate::{RankOut, RunCfg, Scale, RANKS, WALL_CHUNK};
use clampi::{CacheParams, ClampiConfig, CoherenceMode, Mode};
use clampi_apps::{Dht, DhtConfig, DhtLookup, BUCKET_BYTES};
use clampi_prng::SplitMix64;
use clampi_rma::{run_collect, Process, SimConfig};
use clampi_workloads::{mix_key, KeyStream, Zipf};
use std::time::Instant;

/// Zipf exponent of every key stream.
const SKEW: f64 = 0.99;

/// Table and stream sizes of one DHT workload.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    keys: usize,
    load_factor: f64,
    index_entries: usize,
    storage_bytes: usize,
    loc_entries: usize,
    /// `dht-zipf`: warm-up lookups per rank. `dht-churn`: warm-up rounds.
    warm: u64,
    /// `dht-zipf`: prefix lookups per rank. `dht-churn`: prefix rounds.
    prefix: u64,
    /// `dht-churn`: keys read per rank per round.
    reads_per_round: usize,
    /// `dht-churn`: keys per `multi_get` batch.
    batch: usize,
    /// `dht-churn`: update draws per round, all ranks (before dedup).
    updates_per_round: usize,
}

impl Sizes {
    fn zipf(scale: Scale) -> Sizes {
        let full = Sizes {
            keys: 400_000,
            load_factor: 0.7,
            index_entries: 1 << 17,
            storage_bytes: 2 << 20,
            loc_entries: 400_000,
            warm: 150_000,
            prefix: 200_000,
            reads_per_round: 0,
            batch: 0,
            updates_per_round: 0,
        };
        match scale {
            Scale::Full => full,
            Scale::Tiny => Sizes {
                keys: 4000,
                index_entries: 1 << 10,
                storage_bytes: 16 << 10,
                loc_entries: 4000,
                warm: 2000,
                prefix: 3000,
                ..full
            },
        }
    }

    fn churn(scale: Scale) -> Sizes {
        let full = Sizes {
            keys: 100_000,
            load_factor: 0.7,
            index_entries: 4096,
            storage_bytes: 128 << 10,
            loc_entries: 100_000,
            warm: 10,
            prefix: 640,
            reads_per_round: 512,
            batch: 16,
            updates_per_round: 110,
        };
        match scale {
            Scale::Full => full,
            Scale::Tiny => Sizes {
                keys: 2000,
                index_entries: 1 << 10,
                storage_bytes: 16 << 10,
                loc_entries: 2000,
                warm: 2,
                prefix: 4,
                reads_per_round: 256,
                updates_per_round: 52,
                ..full
            },
        }
    }

    fn buckets_per_rank(&self) -> usize {
        ((self.keys as f64 / (RANKS as f64 * self.load_factor)).ceil() as usize) | 1
    }

    fn dht_config(&self, cached: bool, coherence: CoherenceMode) -> DhtConfig {
        let clampi = if cached {
            ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: self.index_entries,
                    storage_bytes: self.storage_bytes,
                    coherence,
                    ..CacheParams::default()
                },
            )
        } else {
            ClampiConfig::disabled()
        };
        let buckets = self.buckets_per_rank();
        DhtConfig::new(clampi, buckets)
            .with_location_cache(self.loc_entries)
            .with_max_probe(512.min(buckets))
    }
}

/// The value `key` holds after `version` updates.
fn value_of(key: u64, version: u64) -> u64 {
    key ^ SplitMix64::new(version.wrapping_mul(0x5851_F42D_4C95_7F2D)).next_u64()
}

/// Rank `rank`'s read stream: the same Zipf law, decorrelated per rank.
fn rank_zipf(keys: usize, seed: u64, rank: usize) -> Zipf {
    Zipf::new(
        keys,
        SKEW,
        seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// 1 if `got` is not key id `id`'s current value, else 0. `Degraded`
/// and `NotFound` for a present key are failures.
fn check(got: DhtLookup, stream: &KeyStream, id: usize) -> u64 {
    let k = mix_key(id as u64);
    u64::from(got != DhtLookup::Found(value_of(k, stream.version(id))))
}

/// Creates the table and inserts every key this rank owns at version 0.
/// Returns the table and the number of failed inserts.
fn create_and_populate(p: &mut Process, cfg: DhtConfig, keys: usize) -> (Dht, u64) {
    let mut dht = Dht::create(p, cfg);
    dht.lock_all(p);
    // Mixed-key order, not id (= Zipf rank) order: id order would give
    // the hottest keys an empty table and probe chains of length 1.
    let mut order: Vec<u64> = (0..keys as u64).map(mix_key).collect();
    order.sort_unstable();
    let mut failed = 0;
    for k in order {
        if dht.owner_of(k) == p.rank() && !dht.insert(p, k, value_of(k, 0)) {
            failed += 1;
        }
    }
    dht.flush_own_writes(p);
    p.barrier();
    dht.validate(p);
    (dht, failed)
}

/// Cache hits so far, read only when the meter is tracing (the read
/// copies the whole `CacheStats`).
fn hits(dht: &Dht, m: &OpMeter) -> u64 {
    if m.tracing() {
        dht.cache_stats().hits
    } else {
        0
    }
}

/// Set-up done by every DHT workload, before its workload-specific
/// warm-up: the version-vector stream, this rank's read stream, and the
/// populated table.
fn setup(
    p: &mut Process,
    s: &Sizes,
    cfg: &RunCfg,
    coherence: CoherenceMode,
) -> (KeyStream, Zipf, Dht, u64) {
    let stream = KeyStream::new(s.keys, SKEW, cfg.seed);
    let zipf = rank_zipf(s.keys, cfg.seed, p.rank());
    let (dht, failed) = create_and_populate(p, s.dht_config(cfg.cached, coherence), s.keys);
    (stream, zipf, dht, failed)
}

/// Closes the epoch and fills in what every DHT workload reports.
fn finish(p: &mut Process, mut dht: Dht, m: OpMeter, out: &mut RankOut, c: (Counters, Counters)) {
    dht.unlock_all(p);
    p.barrier();
    out.ops = m.op;
    out.vtime_ns = c.1.clock.now - c.0.clock.now;
    out.delta = c.1.since(&c.0);
    let got = m.finish();
    (out.prefix_rates, out.rates) = (got.prefix_rates, got.rates);
    (out.nominal_rates, out.ref_s) = (got.nominal_rates, got.ref_s);
    (out.chunk_vns, out.spans) = (got.chunk_vns, got.spans);
}

/// One timed `Dht::lookup` of a Zipf key. Returns 1 if its value was
/// wrong.
fn lookup_op(
    p: &mut Process,
    dht: &mut Dht,
    (stream, zipf): (&KeyStream, &mut Zipf),
    m: &mut OpMeter,
) -> u64 {
    let id = zipf.sample();
    let a = Mark::take(p, hits(dht, m));
    let got = dht.lookup(p, mix_key(id as u64));
    let b = Mark::take(p, hits(dht, m));
    m.record(1, "app", "lookup", &a, &b);
    check(got, stream, id)
}

/// `dht-zipf`: both ranks call `Dht::lookup` on Zipf keys of a read-only
/// table, location cache on, no coherence.
pub fn run_zipf(cfg: &RunCfg) -> Vec<RankOut> {
    let s = Sizes::zipf(cfg.scale);
    let start = Instant::now();
    let out = run_collect(SimConfig::bench(), RANKS, |p| {
        let (stream, mut zipf, mut dht, mut failed) = setup(p, &s, cfg, CoherenceMode::None);
        for _ in 0..s.warm {
            let id = zipf.sample();
            failed += check(dht.lookup(p, mix_key(id as u64)), &stream, id);
        }
        p.barrier();
        let mut out = RankOut {
            setup_s: start.elapsed().as_secs_f64(),
            storage_bytes: s.storage_bytes,
            distinct_bytes: s.buckets_per_rank() * RANKS * BUCKET_BYTES,
            failed,
            ..RankOut::default()
        };
        if cfg.setup_only {
            dht.unlock_all(p);
            p.barrier();
            return out;
        }

        let mut m = OpMeter::new(Tracer::new(cfg.trace, p.rank(), start));
        let c0 = Counters::read(p, dht.stats(), dht.cache_stats());
        while m.op < s.prefix {
            out.failed += lookup_op(p, &mut dht, (&stream, &mut zipf), &mut m);
        }
        let c1 = Counters::read(p, dht.stats(), dht.cache_stats());
        out.prefix_ops = m.op;
        m.end_prefix(cfg.budget);
        out.pinned = m.share_cpu(p);
        // After the prefix the ranks take turns of one host chunk each.
        while m.more(p) {
            out.failed += m.each_rank(p, |p, m| {
                (0..WALL_CHUNK)
                    .map(|_| lookup_op(p, &mut dht, (&stream, &mut zipf), m))
                    .sum::<u64>()
            });
        }
        finish(p, dht, m, &mut out, (c0, c1));
        out
    });
    out.into_iter().map(|(_, o)| o).collect()
}

/// One `dht-churn` round: `multi_get` reads, a barrier, owner-local
/// updates, a flush, a barrier and a coherence pass; each phase rank by
/// rank when the ranks take turns. Returns the failed checks.
fn churn_round(
    p: &mut Process,
    s: &Sizes,
    dht: &mut Dht,
    (stream, zipf): (&mut KeyStream, &mut Zipf),
    m: &mut OpMeter,
) -> u64 {
    let mut failed = m.each_rank(p, |p, m| {
        let mut failed = 0;
        let mut ids = vec![0usize; s.batch];
        let mut keys = vec![0u64; s.batch];
        for _ in 0..s.reads_per_round / s.batch {
            for (id, k) in ids.iter_mut().zip(keys.iter_mut()) {
                *id = zipf.sample();
                *k = mix_key(*id as u64);
            }
            let a = Mark::take(p, hits(dht, m));
            let got = dht.multi_get(p, &keys);
            let b = Mark::take(p, hits(dht, m));
            m.record(s.batch as u64, "app", "multi_get", &a, &b);
            failed += got
                .iter()
                .zip(&ids)
                .map(|(&g, &id)| check(g, stream, id))
                .sum::<u64>();
        }
        failed
    });
    m.barrier(p);
    failed += m.each_rank(p, |p, m| {
        let mut failed = 0;
        for (k, version) in stream.churn_round(s.updates_per_round) {
            if dht.owner_of(k) == p.rank() {
                let a = Mark::take(p, 0);
                let ok = dht.insert(p, k, value_of(k, version));
                let b = Mark::take(p, 0);
                m.record(1, "app", "insert", &a, &b);
                failed += u64::from(!ok);
            }
        }
        let a = Mark::take(p, 0);
        dht.flush_own_writes(p);
        let b = Mark::take(p, 0);
        m.record(0, "app", "flush_own_writes", &a, &b);
        failed
    });
    m.barrier(p);
    m.each_rank(p, |p, m| {
        let a = Mark::take(p, hits(dht, m));
        dht.validate(p);
        let b = Mark::take(p, hits(dht, m));
        m.record(0, "app", "validate", &a, &b);
    });
    failed
}

/// `dht-churn`: rounds of `Dht::multi_get` reads and Zipf-skewed
/// owner-local updates under `CoherenceMode::EagerInvalidate`.
pub fn run_churn(cfg: &RunCfg) -> Vec<RankOut> {
    let s = Sizes::churn(cfg.scale);
    let start = Instant::now();
    let out = run_collect(SimConfig::bench(), RANKS, |p| {
        let (mut stream, mut zipf, mut dht, mut failed) =
            setup(p, &s, cfg, CoherenceMode::EagerInvalidate);
        // Warm-up rounds go to a throwaway meter.
        let mut warm = OpMeter::new(Tracer::new(false, p.rank(), start));
        for _ in 0..s.warm {
            failed += churn_round(p, &s, &mut dht, (&mut stream, &mut zipf), &mut warm);
        }
        p.barrier();
        let mut out = RankOut {
            setup_s: start.elapsed().as_secs_f64(),
            storage_bytes: s.storage_bytes,
            distinct_bytes: s.buckets_per_rank() * RANKS * BUCKET_BYTES,
            failed,
            ..RankOut::default()
        };
        if cfg.setup_only {
            dht.unlock_all(p);
            p.barrier();
            return out;
        }

        let mut m = OpMeter::new(Tracer::new(cfg.trace, p.rank(), start));
        let c0 = Counters::read(p, dht.stats(), dht.cache_stats());
        let mut c1 = c0;
        for round in 0.. {
            if round == s.prefix {
                c1 = Counters::read(p, dht.stats(), dht.cache_stats());
                out.prefix_ops = m.op;
                m.end_prefix(cfg.budget);
                out.pinned = m.share_cpu(p);
            }
            // Rank 0 decides for everyone so all ranks run the same
            // rounds; the broadcast is part of every round, prefix too.
            if !m.more(p) {
                break;
            }
            out.failed += churn_round(p, &s, &mut dht, (&mut stream, &mut zipf), &mut m);
        }
        finish(p, dht, m, &mut out, (c0, c1));
        out
    });
    out.into_iter().map(|(_, o)| o).collect()
}
