//! Measurement plumbing shared by every workload: quantiles, the
//! wall-clock chunk meter, counter snapshots at layer boundaries, and the
//! in-memory span trace.

use clampi::CacheStats;
use clampi_apps::DhtStats;
use clampi_rma::{OpCounters, Process};
use std::time::Instant;

/// The `q`-quantile (`0.0..=1.0`) of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Median of `xs` (nearest rank); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Cost per op over fixed op-count chunks: the virtual ns per op at
/// chunk grain.
#[derive(Debug, Default)]
pub struct Chunker {
    every: u64,
    ops: u64,
    cost: f64,
    per_op: Vec<f64>,
}

impl Chunker {
    /// A chunker closing a chunk every `every` ops.
    pub fn new(every: u64) -> Self {
        Chunker {
            every,
            ..Chunker::default()
        }
    }

    /// Records `ops` ops (possibly 0) that cost `cost` in all.
    pub fn add(&mut self, ops: u64, cost: f64) {
        self.ops += ops;
        self.cost += cost;
        if self.ops >= self.every {
            self.per_op.push(self.cost / self.ops as f64);
            self.ops = 0;
            self.cost = 0.0;
        }
    }

    /// Cost per op of every closed chunk.
    pub fn per_op(&self) -> &[f64] {
        &self.per_op
    }
}

/// CPU seconds the calling thread has run so far
/// (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(target_os = "linux")]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Without a per-thread CPU clock, wall time stands in for it (no
/// descheduled time is then taken out).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_s() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The CPU the calling thread runs on (0 if unknown).
#[cfg(target_os = "linux")]
pub fn current_cpu() -> usize {
    extern "C" {
        fn sched_getcpu() -> i32;
    }
    // SAFETY: takes no arguments; returns -1 on failure.
    usize::try_from(unsafe { sched_getcpu() }).unwrap_or(0)
}

/// The CPU the calling thread runs on (0 if unknown).
#[cfg(not(target_os = "linux"))]
pub fn current_cpu() -> usize {
    0
}

/// Pins the calling thread to `cpu`. Returns false, leaving the thread
/// free to move, if the host refuses.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 CPUs.
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread to `cpu`; unsupported here, so always false.
#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> bool {
    false
}

/// Bytes of the reference kernel's table, shared by every thread.
pub const REF_TABLE_BYTES: usize = 32 << 20;

/// Thread CPU seconds the reference kernel takes on the nominal host that
/// `ops_per_s` is expressed on.
pub const REF_NOMINAL_S: f64 = 100e-6;

/// The reference kernel's table, built (and made resident) on first use.
pub fn ref_table() -> &'static [u64] {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        (0..REF_TABLE_BYTES / 8)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    })
}

/// A fixed piece of work, run by the benchmark itself after every host
/// chunk on the same thread, so that the chunk's rate can be expressed on
/// a nominal host. A shared VM's speed drifts by a third over minutes, as
/// neighbours come and go; the kernel slows down with it. Its work is
/// what the workloads do most: 1000 random 64-byte reads and 8 copies of
/// 2^0..2^16 bytes at random offsets of a 32 MiB table, far beyond a
/// core's private caches. It never calls the system under test; a change
/// to the system can move its time only through the caches the chunk
/// before it leaves behind.
#[derive(Debug)]
pub struct RefKernel {
    x: u64,
    dst: Vec<u64>,
    acc: u64,
}

impl RefKernel {
    /// A kernel whose random offsets start from `seed`.
    pub fn new(seed: u64) -> Self {
        RefKernel {
            x: seed | 1,
            dst: vec![0; 1 << 13],
            acc: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Runs the kernel once; returns the thread CPU seconds it took.
    pub fn run(&mut self) -> f64 {
        let table = ref_table();
        let words = table.len();
        let t0 = thread_cpu_s();
        for _ in 0..1000 {
            let x = self.next();
            let line = (x as usize % words) & !7;
            for &w in &table[line..line + 8] {
                self.acc = self.acc.wrapping_add(w ^ x);
            }
        }
        for _ in 0..8 {
            let x = self.next();
            let n = (1usize << (x % 17)).div_ceil(8);
            let off = (x >> 20) as usize % (words - n);
            self.dst[..n].copy_from_slice(&table[off..off + n]);
            self.acc = self.acc.wrapping_add(self.dst[n / 2]);
        }
        std::hint::black_box(self.acc);
        thread_cpu_s() - t0
    }
}

/// Host ops/s over fixed op-count chunks.
///
/// Only time spent inside the system's calls counts: generating keys and
/// checking results happen between calls. The in-call wall time of a
/// chunk is scaled by the share of the chunk's wall time the thread was
/// on a CPU (its thread CPU time over its wall time), so time the thread
/// sat descheduled behind other work on a shared host does not count.
/// Waits in barriers are not part of a chunk: the meter is paused around
/// them. A quantile over many chunks then shrugs off what the scaling
/// misses.
///
/// With a [`RefKernel`], the kernel runs after every chunk (outside it)
/// and the chunk's rate is also reported on the nominal host: multiplied
/// by the kernel's time over [`REF_NOMINAL_S`].
#[derive(Debug, Default)]
pub struct HostMeter {
    every: u64,
    ops: u64,
    /// In-call wall seconds of the open chunk.
    in_call: f64,
    /// Wall and thread CPU seconds of the open chunk's closed segments.
    seg_wall: f64,
    seg_cpu: f64,
    /// Start (wall, thread CPU) of the running segment, if any.
    seg: Option<(Instant, f64)>,
    rates: Vec<f64>,
    reference: Option<RefKernel>,
    /// Reference kernel seconds after each chunk.
    ref_s: Vec<f64>,
}

impl HostMeter {
    /// A meter closing a chunk every `every` ops, running, and timing
    /// `reference` after every chunk if given.
    pub fn new(every: u64, reference: Option<RefKernel>) -> Self {
        let mut h = HostMeter {
            every,
            reference,
            ..HostMeter::default()
        };
        h.resume();
        h
    }

    /// Starts a segment: the thread is working from now on.
    pub fn resume(&mut self) {
        self.seg = Some((Instant::now(), thread_cpu_s()));
    }

    /// Ends the running segment (before the thread blocks).
    pub fn pause(&mut self) {
        if let Some((t, c)) = self.seg.take() {
            self.seg_cpu += thread_cpu_s() - c;
            self.seg_wall += t.elapsed().as_secs_f64();
        }
    }

    /// Records `ops` ops (possibly 0) that spent `secs` wall seconds
    /// inside the system's calls.
    pub fn add(&mut self, ops: u64, secs: f64) {
        self.ops += ops;
        self.in_call += secs;
        if self.ops < self.every {
            return;
        }
        let running = self.seg.is_some();
        self.pause();
        let on_cpu = if self.seg_wall > 0.0 {
            (self.seg_cpu / self.seg_wall).clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            1.0
        };
        self.rates.push(self.ops as f64 / (self.in_call * on_cpu));
        if let Some(k) = self.reference.as_mut() {
            self.ref_s.push(k.run());
        }
        self.ops = 0;
        self.in_call = 0.0;
        self.seg_wall = 0.0;
        self.seg_cpu = 0.0;
        if running {
            self.resume();
        }
    }

    /// Ops per second of every closed chunk.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Ops per second of every closed chunk on the nominal host (empty
    /// without a reference kernel).
    pub fn nominal_rates(&self) -> Vec<f64> {
        self.rates
            .iter()
            .zip(&self.ref_s)
            .map(|(r, t)| r * t / REF_NOMINAL_S)
            .collect()
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One rank's virtual clock, read through `Process::clock()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VClock {
    /// Current virtual time (ns).
    pub now: f64,
    /// CPU ns charged so far.
    pub cpu: f64,
    /// ns blocked in waits and barriers so far.
    pub blocked: f64,
    /// Wire ns posted so far (overlappable, not part of `now`).
    pub wire: f64,
}

impl VClock {
    /// The clock of `p` right now.
    pub fn of(p: &Process) -> Self {
        let c = p.clock();
        VClock {
            now: c.now(),
            cpu: c.total_cpu(),
            blocked: c.total_blocked(),
            wire: c.total_wire(),
        }
    }

    fn minus(&self, o: &VClock) -> VClock {
        VClock {
            now: self.now - o.now,
            cpu: self.cpu - o.cpu,
            blocked: self.blocked - o.blocked,
            wire: self.wire - o.wire,
        }
    }

    fn plus(&self, o: &VClock) -> VClock {
        VClock {
            now: self.now + o.now,
            cpu: self.cpu + o.cpu,
            blocked: self.blocked + o.blocked,
            wire: self.wire + o.wire,
        }
    }

    /// Virtual time not explained by CPU charges and blocking:
    /// `Δnow − (Δcpu + Δblocked)` of a delta. Expected 0.
    pub fn unaccounted(&self) -> f64 {
        self.now - (self.cpu + self.blocked)
    }
}

/// Every public counter the benchmark differences, for one rank (or
/// summed over ranks).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// App layer (`Dht::stats`); zero where no DHT runs.
    pub dht: DhtStats,
    /// Engine, coherence and snapshot layers (`CachedWindow::stats`).
    pub cache: CacheStats,
    /// Simulator (`Process::counters`).
    pub ops: OpCounters,
    /// Virtual clock (`Process::clock`).
    pub clock: VClock,
}

impl Counters {
    /// A snapshot of `p`'s simulator counters and clock plus the given
    /// app and cache counters.
    pub fn read(p: &Process, dht: DhtStats, cache: CacheStats) -> Self {
        Counters {
            dht,
            cache,
            ops: p.counters(),
            clock: VClock::of(p),
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, e: &Counters) -> Counters {
        let (d, x) = (&self.dht, &e.dht);
        let (o, y) = (&self.ops, &e.ops);
        Counters {
            dht: DhtStats {
                lookups: d.lookups - x.lookups,
                found: d.found - x.found,
                not_found: d.not_found - x.not_found,
                degraded: d.degraded - x.degraded,
                bucket_gets: d.bucket_gets - x.bucket_gets,
                loc_hits: d.loc_hits - x.loc_hits,
                loc_installs: d.loc_installs - x.loc_installs,
                loc_stale: d.loc_stale - x.loc_stale,
                inserts: d.inserts - x.inserts,
                updates: d.updates - x.updates,
                insert_fails: d.insert_fails - x.insert_fails,
                multi_gets: d.multi_gets - x.multi_gets,
                multi_get_hits: d.multi_get_hits - x.multi_get_hits,
                multi_get_fallbacks: d.multi_get_fallbacks - x.multi_get_fallbacks,
            },
            cache: self.cache.delta_since(&e.cache),
            ops: OpCounters {
                gets: o.gets - y.gets,
                puts: o.puts - y.puts,
                bytes_get: o.bytes_get - y.bytes_get,
                bytes_put: o.bytes_put - y.bytes_put,
                flushes: o.flushes - y.flushes,
            },
            clock: self.clock.minus(&e.clock),
        }
    }

    /// Field-by-field sum (aggregating ranks).
    pub fn add(&mut self, o: &Counters) {
        let (d, x) = (&mut self.dht, &o.dht);
        d.lookups += x.lookups;
        d.found += x.found;
        d.not_found += x.not_found;
        d.degraded += x.degraded;
        d.bucket_gets += x.bucket_gets;
        d.loc_hits += x.loc_hits;
        d.loc_installs += x.loc_installs;
        d.loc_stale += x.loc_stale;
        d.inserts += x.inserts;
        d.updates += x.updates;
        d.insert_fails += x.insert_fails;
        d.multi_gets += x.multi_gets;
        d.multi_get_hits += x.multi_get_hits;
        d.multi_get_fallbacks += x.multi_get_fallbacks;
        self.cache.merge(&o.cache);
        let (s, y) = (&mut self.ops, &o.ops);
        s.gets += y.gets;
        s.puts += y.puts;
        s.bytes_get += y.bytes_get;
        s.bytes_put += y.bytes_put;
        s.flushes += y.flushes;
        self.clock = self.clock.plus(&o.clock);
    }
}

/// One timed call into a layer's public API, made by the benchmark.
///
/// Spans of one op share `op`. Calls made *inside* the program (a DHT's
/// bucket reads under `Dht::lookup`) get no span of their own; the
/// enclosing span carries their counts (`gets`, `hits`) and its virtual
/// time (`vns`) instead.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Rank that made the call.
    pub rank: usize,
    /// Layer of the called function (`app`, `front`, `engine`, `sim`).
    pub layer: &'static str,
    /// The call (`lookup`, `get`, `process_lookup`, ...).
    pub name: &'static str,
    /// Op the call belongs to.
    pub op: u64,
    /// Wall start, ns since the trace began.
    pub start_ns: u64,
    /// Wall end, ns since the trace began.
    pub end_ns: u64,
    /// Virtual ns the call advanced the rank's clock.
    pub vns: f64,
    /// Simulator gets issued inside the call.
    pub gets: u64,
    /// Cache hits inside the call.
    pub hits: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn wall_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// A boundary sample taken right before or after a call.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Wall time.
    pub t: Instant,
    /// The rank's virtual time.
    pub vns: f64,
    /// Simulator gets issued so far.
    pub gets: u64,
    /// Cache hits so far (0 when the caller does not track them).
    pub hits: u64,
}

impl Mark {
    /// Samples `p`'s clock and counters now; `hits` is the caller's
    /// cache-hit count.
    pub fn take(p: &Process, hits: u64) -> Self {
        Mark {
            t: Instant::now(),
            vns: p.now(),
            gets: p.counters().gets,
            hits,
        }
    }

    /// A wall-only sample, for calls that run without a `Process`.
    pub fn wall() -> Self {
        Mark {
            t: Instant::now(),
            vns: 0.0,
            gets: 0,
            hits: 0,
        }
    }
}

/// In-memory span recorder of one rank; a disabled recorder keeps
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    rank: usize,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `rank` timing from `epoch`; `on == false` records
    /// nothing.
    pub fn new(on: bool, rank: usize, epoch: Instant) -> Self {
        Tracer {
            on,
            rank,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records the call of `layer`'s `name` for `op` between marks `a`
    /// and `b`.
    pub fn push(&mut self, layer: &'static str, name: &'static str, op: u64, a: &Mark, b: &Mark) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            rank: self.rank,
            layer,
            name,
            op,
            start_ns: a.t.duration_since(self.epoch).as_nanos() as u64,
            end_ns: b.t.duration_since(self.epoch).as_nanos() as u64,
            vns: b.vns - a.vns,
            gets: b.gets - a.gets,
            hits: b.hits - a.hits,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Wall durations (ns) of the spans named `name` in `layer`.
pub fn span_walls(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::wall_ns)
        .collect()
}

/// Writes `spans` as TSV to `path` (creating its directory).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "rank\tlayer\tname\top\tstart_ns\tend_ns\tvns\tgets\thits"
    )?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}",
            s.rank, s.layer, s.name, s.op, s.start_ns, s.end_ns, s.vns, s.gets, s.hits
        )?;
    }
    w.flush()
}

/// Meters one rank's timed phase. The fixed prefix runs the ranks
/// concurrently: its calls feed the virtual-time chunks, the trace and
/// the prefix's host chunks. After it, the ranks take turns
/// ([`OpMeter::turns`]) and every call feeds the host chunks that
/// `ops_per_s` reads, until the wall budget is spent.
#[derive(Debug)]
pub struct OpMeter {
    tr: Tracer,
    host: HostMeter,
    prefix_rates: Vec<f64>,
    virt: Chunker,
    /// Ops recorded so far.
    pub op: u64,
    /// Whether calls are still inside the prefix.
    pub in_prefix: bool,
    /// When the timed phase ends (set when the prefix ends).
    deadline: Instant,
}

impl OpMeter {
    /// A meter with `tr` as its recorder, starting inside the prefix.
    pub fn new(tr: Tracer) -> Self {
        OpMeter {
            tr,
            host: HostMeter::new(crate::WALL_CHUNK, None),
            prefix_rates: Vec::new(),
            virt: Chunker::new(crate::VIRT_CHUNK),
            op: 0,
            in_prefix: true,
            deadline: Instant::now(),
        }
    }

    /// Ends the prefix: later calls count only towards the host chunks,
    /// for `budget` more wall time.
    pub fn end_prefix(&mut self, budget: std::time::Duration) {
        self.in_prefix = false;
        self.prefix_rates = self.host.rates().to_vec();
        let kernel = RefKernel::new(self.tr.rank as u64 + 1);
        self.host = HostMeter::new(crate::WALL_CHUNK, Some(kernel));
        self.deadline = Instant::now() + budget;
    }

    /// Whether the prefix is done and the budget after it spent.
    pub fn expired(&self) -> bool {
        !self.in_prefix && Instant::now() >= self.deadline
    }

    /// Whether the current call should sample cache hits for a span.
    pub fn tracing(&self) -> bool {
        self.in_prefix && self.tr.on()
    }

    /// `p.barrier()`, with the host meter paused while the rank waits.
    pub fn barrier(&mut self, p: &mut Process) {
        self.host.pause();
        p.barrier();
        self.host.resume();
    }

    /// Rank 0 decides for every rank whether the timed phase goes on (the
    /// budget is left), with the host meter paused during the broadcast.
    pub fn more(&mut self, p: &mut Process) -> bool {
        let more = !self.expired();
        let root = p.rank() == 0;
        self.host.pause();
        let more = p.bcast(0, root.then_some(more));
        self.host.resume();
        more
    }

    /// Pins every rank's thread to the CPU rank 0 runs on, for the turns
    /// after the prefix: a turn then starts on the caches the last turn
    /// warmed, and a waking rank never waits for an idle CPU to wake up.
    /// Returns whether this rank's thread was pinned. Rank threads end
    /// with their run, so nothing else stays pinned.
    pub fn share_cpu(&mut self, p: &mut Process) -> bool {
        let root = p.rank() == 0;
        self.host.pause();
        let cpu = p.bcast(0, root.then(current_cpu));
        let pinned = pin_to(cpu);
        self.host.resume();
        pinned
    }

    /// Whether the ranks run one at a time: after the prefix, so that
    /// host rates do not depend on how the ranks' threads overlap.
    pub fn turns(&self) -> bool {
        !self.in_prefix
    }

    /// Runs `f` on every rank in rank order, one rank at a time with a
    /// barrier after each turn, when the ranks take turns
    /// ([`OpMeter::turns`]); otherwise on all ranks at once.
    pub fn each_rank<T>(
        &mut self,
        p: &mut Process,
        mut f: impl FnMut(&mut Process, &mut Self) -> T,
    ) -> T {
        if !self.turns() {
            return f(p, self);
        }
        let mut out = None;
        for r in 0..p.nranks() {
            if r == p.rank() {
                out = Some(f(p, self));
            }
            self.barrier(p);
        }
        out.expect("every rank takes a turn")
    }

    /// Records one call, between marks `a` and `b`, that completed `ops`
    /// ops (0 for calls that serve a whole round, such as a flush).
    pub fn record(
        &mut self,
        ops: u64,
        layer: &'static str,
        name: &'static str,
        a: &Mark,
        b: &Mark,
    ) {
        self.host.add(ops, (b.t - a.t).as_secs_f64());
        if self.in_prefix {
            self.virt.add(ops, b.vns - a.vns);
            self.tr.push(layer, name, self.op, a, b);
        }
        self.op += ops;
    }

    /// The meter's chunks and spans.
    pub fn finish(self) -> Metered {
        let mut out = Metered {
            chunk_vns: self.virt.per_op().to_vec(),
            spans: self.tr.into_spans(),
            ..Metered::default()
        };
        if self.in_prefix {
            out.prefix_rates = self.host.rates().to_vec();
        } else {
            out.prefix_rates = self.prefix_rates;
            out.rates = self.host.rates().to_vec();
            out.nominal_rates = self.host.nominal_rates();
            out.ref_s = self.host.ref_s;
        }
        out
    }
}

/// What an [`OpMeter`] measured.
#[derive(Debug, Default)]
pub struct Metered {
    /// Host ops/s per chunk of the prefix (ranks concurrent).
    pub prefix_rates: Vec<f64>,
    /// Host ops/s per chunk after the prefix (ranks taking turns).
    pub rates: Vec<f64>,
    /// The same on the nominal host ([`HostMeter::nominal_rates`]).
    pub nominal_rates: Vec<f64>,
    /// Reference kernel seconds after each chunk after the prefix.
    pub ref_s: Vec<f64>,
    /// Virtual ns per op per chunk of the prefix.
    pub chunk_vns: Vec<f64>,
    /// Spans of the prefix.
    pub spans: Vec<Span>,
}
