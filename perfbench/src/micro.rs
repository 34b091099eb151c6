//! `micro-capacity`: the paper's Sec. IV-A get stream (`MicroWorkload`)
//! issued by rank 0 through `CachedWindow` get + flush against rank 1,
//! with cache storage well below the bytes the distinct gets touch.
//!
//! Traced runs add two replays of the same prefix on rank 0, so the
//! front's wall time splits into engine, simulator and front-only parts:
//! an engine-only replay through the public `RmaCache` API and an
//! uncached replay of the miss stream through `clampi_rma::Window`.

use crate::measure::{self, Counters, Mark, OpMeter, Span, Tracer};
use crate::{RankOut, RunCfg, Scale, RANKS, WALL_CHUNK};
use clampi::{
    AccessType, CacheParams, CachedWindow, ClampiConfig, GetKey, LayoutSig, Lookup, Mode, RmaCache,
};
use clampi_apps::DhtStats;
use clampi_datatype::Datatype;
use clampi_prng::SplitMix64;
use clampi_rma::{run_collect, Process, SimConfig};
use clampi_workloads::micro::MicroParams;
use clampi_workloads::{GetSpec, MicroWorkload};
use std::time::Instant;

/// Stream and cache sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    params: MicroParams,
    index_entries: usize,
    storage_bytes: usize,
    /// Untimed gets that fill the cache before the timed phase.
    warm: u64,
    /// Gets in the fixed prefix of the timed phase.
    prefix: u64,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                params: MicroParams {
                    distinct: 4096,
                    sequence_len: 320_000,
                    max_exp: 16,
                },
                index_entries: 1024,
                storage_bytes: 2 << 20,
                warm: 20_000,
                prefix: 300_000,
            },
            Scale::Tiny => Sizes {
                params: MicroParams {
                    distinct: 256,
                    sequence_len: 4000,
                    max_exp: 12,
                },
                index_entries: 64,
                storage_bytes: 32 << 10,
                warm: 1000,
                prefix: 2000,
            },
        }
    }
}

/// Period of rank 1's fill pattern: a prime above the largest get, so a
/// get served from a wrong offset compares unequal unless it is off by a
/// multiple of the period.
const PERIOD: usize = 65_537;

/// Rank 1's fill pattern: byte `off` of its window is
/// `table[off % PERIOD]`. The table holds the pattern twice, so the
/// expected bytes of any get are one slice and the check is a memcmp
/// against 128 KiB that stays in cache, not against a window-sized image.
struct Fill {
    table: Vec<u8>,
}

impl Fill {
    fn new() -> Self {
        let mut rng = SplitMix64::new(0xF111_7AB1E);
        let once: Vec<u8> = (0..PERIOD).map(|_| rng.next_u64() as u8).collect();
        Fill {
            table: [once.as_slice(), once.as_slice()].concat(),
        }
    }

    fn byte(&self, off: usize) -> u8 {
        self.table[off % PERIOD]
    }

    /// The bytes get `g` must return.
    fn expect(&self, g: GetSpec) -> &[u8] {
        let o = g.disp % PERIOD;
        &self.table[o..o + g.size]
    }
}

/// What every rank builds from the seed: sizes, the get stream and the
/// fill pattern.
struct Input {
    s: Sizes,
    wl: MicroWorkload,
    fill: Fill,
}

impl Input {
    /// The `i`-th get of the cyclic stream.
    fn nth(&self, i: u64) -> GetSpec {
        let wl = &self.wl;
        wl.distinct[wl.sequence[(i % wl.sequence.len() as u64) as usize]]
    }
}

/// `micro-capacity` on two ranks; rank 1 only exposes its window.
pub fn run(cfg: &RunCfg) -> Vec<RankOut> {
    let s = Sizes::of(cfg.scale);
    let start = Instant::now();
    let out = run_collect(SimConfig::bench(), RANKS, |p| {
        let inp = Input {
            s,
            wl: MicroWorkload::generate(s.params, cfg.seed),
            fill: Fill::new(),
        };
        let clampi = if cfg.cached {
            ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: s.index_entries,
                    storage_bytes: s.storage_bytes,
                    ..CacheParams::default()
                },
            )
        } else {
            ClampiConfig::disabled()
        };
        let size = if p.rank() == 1 { inp.wl.window_size } else { 4 };
        let mut win = CachedWindow::create(p, size, clampi);
        if p.rank() == 1 {
            for (off, b) in win.local_mut().iter_mut().enumerate() {
                *b = inp.fill.byte(off);
            }
        }
        p.barrier();
        let mut out = RankOut {
            storage_bytes: s.storage_bytes,
            distinct_bytes: inp.wl.window_size,
            ..RankOut::default()
        };
        let mut buf = vec![0u8; 1 << s.params.max_exp];
        if p.rank() == 0 {
            win.lock_all(p);
            for i in 0..s.warm {
                let g = inp.nth(i);
                let dst = &mut buf[..g.size];
                get_flush(p, &mut win, dst, g);
                out.failed += u64::from(dst != inp.fill.expect(g));
            }
        }
        p.barrier();
        out.setup_s = start.elapsed().as_secs_f64();
        if p.rank() == 0 && !cfg.setup_only {
            timed(p, cfg, &inp, &mut win, &mut out, start);
        }
        if p.rank() == 0 {
            win.unlock_all(p);
        }
        p.barrier();
        out
    });
    out.into_iter().map(|(_, o)| o).collect()
}

/// A cached get of `g` into `dst`, flushed unless it hit.
fn get_flush(
    p: &mut Process,
    win: &mut CachedWindow,
    dst: &mut [u8],
    g: GetSpec,
) -> Option<AccessType> {
    let class = win.get(p, dst, 1, g.disp, &Datatype::bytes(g.size), 1);
    if class != Some(AccessType::Hit) {
        win.flush(p, 1);
    }
    class
}

/// Rank 0's timed phase, plus the replays when tracing.
fn timed(
    p: &mut Process,
    cfg: &RunCfg,
    inp: &Input,
    win: &mut CachedWindow,
    out: &mut RankOut,
    start: Instant,
) {
    let s = &inp.s;
    let mut buf = vec![0u8; 1 << s.params.max_exp];
    let mut m = OpMeter::new(Tracer::new(cfg.trace, 0, start));
    let mut hit = Vec::new();
    let c0 = Counters::read(p, DhtStats::default(), win.stats());
    let mut c1 = c0;
    loop {
        if m.in_prefix && m.op == s.prefix {
            c1 = Counters::read(p, DhtStats::default(), win.stats());
            out.prefix_ops = m.op;
            m.end_prefix(cfg.budget);
            // Rank 0 alone issues gets; pinning it keeps it on one CPU's
            // caches, as the DHT workloads' turns are.
            out.pinned = measure::pin_to(measure::current_cpu());
        }
        if m.op.is_multiple_of(WALL_CHUNK) && m.expired() {
            break;
        }
        let g = inp.nth(s.warm + m.op);
        let dst = &mut buf[..g.size];
        let a = Mark::take(p, 0);
        let class = get_flush(p, win, dst, g);
        let b = Mark::take(p, u64::from(class == Some(AccessType::Hit)));
        if m.tracing() {
            hit.push(class == Some(AccessType::Hit));
        }
        m.record(1, "front", "get", &a, &b);
        out.failed += u64::from(dst != inp.fill.expect(g));
    }
    out.ops = m.op;
    out.vtime_ns = c1.clock.now - c0.clock.now;
    out.delta = c1.since(&c0);
    let got = m.finish();
    (out.prefix_rates, out.rates) = (got.prefix_rates, got.rates);
    (out.nominal_rates, out.ref_s) = (got.nominal_rates, got.ref_s);
    (out.chunk_vns, out.spans) = (got.chunk_vns, got.spans);
    if !cfg.trace || !cfg.cached {
        return;
    }
    let mut tr = Tracer::new(true, 0, start);
    out.failed += replay_engine(inp, win, &hit, &mut tr);
    out.failed += replay_sim(p, inp, win, &hit, &mut tr);
    out.spans.extend(tr.into_spans());
}

/// Replays the warm-up and the prefix through a fresh `RmaCache` with
/// the window's parameters, timing `process_lookup`, `finish_miss` and
/// `epoch_close` on the prefix. Returns how many prefix gets classified
/// differently from the front (expected 0: the engine is deterministic).
fn replay_engine(inp: &Input, win: &CachedWindow, hit: &[bool], tr: &mut Tracer) -> u64 {
    let s = &inp.s;
    let Some(params) = win.cache().map(|c| c.params().clone()) else {
        return 0;
    };
    let mut eng = RmaCache::new(params);
    let mut buf = vec![0u8; 1 << s.params.max_exp];
    let mut mismatches = 0;
    for i in 0..s.warm + s.prefix {
        let g = inp.nth(i);
        let key = GetKey {
            target: 1,
            disp: g.disp as u64,
        };
        let sig = LayoutSig::Contig(g.size);
        let timed = i >= s.warm;
        let op = i.wrapping_sub(s.warm);
        let a = Mark::wall();
        let looked = eng.process_lookup(key, &sig, &mut buf[..g.size]);
        let b = Mark::wall();
        if timed {
            tr.push("engine", "process_lookup", op, &a, &b);
            mismatches += u64::from((looked == Lookup::Hit) != hit[op as usize]);
        }
        if looked == Lookup::Hit {
            continue;
        }
        // The front hands `finish_miss` the bytes its get just wrote, so
        // the replay does too: stage them untimed into the same buffer.
        let data = &mut buf[..g.size];
        data.copy_from_slice(inp.fill.expect(g));
        let a = Mark::wall();
        match looked {
            Lookup::PartialHit { .. } => eng.finish_partial(key, sig, data, 0),
            _ => eng.finish_miss(key, sig, data, 0),
        };
        let b = Mark::wall();
        eng.epoch_close();
        eng.take_cost();
        let c = Mark::wall();
        if timed {
            tr.push("engine", "finish_miss", op, &a, &b);
            tr.push("engine", "epoch_close", op, &b, &c);
        }
    }
    mismatches
}

/// Replays the prefix's misses uncached through the simulator's own
/// `Window::get` + `flush`. Returns how many replayed gets returned
/// wrong bytes.
fn replay_sim(
    p: &mut Process,
    inp: &Input,
    win: &mut CachedWindow,
    hit: &[bool],
    tr: &mut Tracer,
) -> u64 {
    let mut buf = vec![0u8; 1 << inp.s.params.max_exp];
    let raw = win.inner_mut();
    let mut failed = 0;
    for (op, _) in hit.iter().enumerate().filter(|(_, &h)| !h) {
        let g = inp.nth(inp.s.warm + op as u64);
        let dst = &mut buf[..g.size];
        let a = Mark::take(p, 0);
        raw.get(p, dst, 1, g.disp, &Datatype::bytes(g.size), 1);
        raw.flush(p, 1);
        let b = Mark::take(p, 0);
        tr.push("sim", "get_flush", op as u64, &a, &b);
        failed += u64::from(dst != inp.fill.expect(g));
    }
    failed
}

/// Spans of the engine replay grouped per prefix op: `(hit, ns)` where
/// `ns` is `process_lookup` plus, on a miss, `finish_miss` and
/// `epoch_close`.
pub fn engine_ops(spans: &[Span]) -> Vec<(bool, f64)> {
    let mut ops: Vec<(bool, f64)> = Vec::new();
    for sp in spans.iter().filter(|sp| sp.layer == "engine") {
        if sp.name == "process_lookup" {
            ops.push((true, sp.wall_ns()));
        } else if let Some(last) = ops.last_mut() {
            last.0 = false;
            last.1 += sp.wall_ns();
        }
    }
    ops
}
