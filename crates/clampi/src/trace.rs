//! Get-trace capture and offline replay.
//!
//! Tuning `|I_w|`, `|S_w|`, the victim scheme or the adaptive thresholds
//! against a full application run is slow; a *trace* of the application's
//! `get_c` stream replayed directly through the cache engine explores the
//! same policy space in milliseconds. This module provides:
//!
//! - [`Trace`]: an in-memory get/epoch/invalidate event stream with a
//!   compact little-endian binary serialization (no external format
//!   dependencies);
//! - [`replay`]: drives a [`RmaCache`] through the trace and returns the
//!   statistics plus a modelled completion time, so policies can be ranked
//!   exactly like the figure binaries rank live runs.
//!
//! The replayer feeds the cache synthetic payloads — policy decisions
//! depend only on keys and sizes, never on payload bytes.

use crate::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use crate::index::GetKey;
use crate::stats::CacheStats;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A contiguous `get_c` of `size` bytes.
    Get {
        /// Target rank.
        target: u32,
        /// Byte displacement in the target window.
        disp: u64,
        /// Payload size in bytes.
        size: u32,
    },
    /// An epoch closure (flush/unlock in the traced run).
    EpochClose,
    /// An invalidation restricted to the bytes `[disp, disp + len)` of
    /// `target`'s window — what a coherence pass or a per-target
    /// degradation performs. A *full* invalidation (`CLAMPI_Invalidate`)
    /// is the sentinel `target == u32::MAX` (with `disp == 0`,
    /// `len == u64::MAX`).
    Invalidate {
        /// Target rank, or `u32::MAX` for a full invalidation.
        target: u32,
        /// First invalidated byte displacement.
        disp: u64,
        /// Length of the invalidated range in bytes.
        len: u64,
    },
}

/// The [`TraceEvent::Invalidate`] sentinel for a full (all-targets)
/// invalidation.
pub const INVALIDATE_ALL: TraceEvent = TraceEvent::Invalidate {
    target: u32::MAX,
    disp: 0,
    len: u64::MAX,
};

/// A recorded event stream.
///
/// # Examples
///
/// ```
/// use clampi::trace::{replay, ReplayCosts, Trace};
/// use clampi::CacheParams;
///
/// let mut trace = Trace::new();
/// for _ in 0..3 {
///     trace.get(1, 0, 256); // the same get, three times
///     trace.epoch_close();
/// }
/// let result = replay(&trace, CacheParams::default(), ReplayCosts::default());
/// assert_eq!(result.stats.hits, 2); // first is a miss, rest hit
///
/// // Round-trips through the compact binary format.
/// assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Format version 2: `Invalidate` carries `(target, disp, len)`.
const MAGIC: &[u8; 8] = b"CLAMPIT2";
/// Retired format version 1 (bare `Invalidate` tag). Recognised only so
/// that such input is refused by name instead of reported as garbage.
const MAGIC_V1: &[u8; 8] = b"CLAMPITR";
const TAG_GET: u8 = 1;
const TAG_EPOCH: u8 = 2;
const TAG_INVALIDATE: u8 = 3;

/// Reads a little-endian `u32` at `data[at..at + 4]`; the caller has
/// already length-checked the slice.
fn le32(data: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Reads a little-endian `u64` at `data[at..at + 8]`; the caller has
/// already length-checked the slice.
fn le64(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records a contiguous get.
    pub fn get(&mut self, target: u32, disp: u64, size: u32) {
        self.events.push(TraceEvent::Get { target, disp, size });
    }

    /// Records an epoch closure.
    pub fn epoch_close(&mut self) {
        self.events.push(TraceEvent::EpochClose);
    }

    /// Records an explicit full invalidation (`CLAMPI_Invalidate`).
    pub fn invalidate(&mut self) {
        self.events.push(INVALIDATE_ALL);
    }

    /// Records a per-target ranged invalidation of the bytes
    /// `[disp, disp + len)` — what a coherence pass emits when it drops
    /// entries overlapping a drained put record, or a degradation path
    /// emits with `disp = 0, len = u64::MAX`.
    pub fn invalidate_range(&mut self, target: u32, disp: u64, len: u64) {
        self.events
            .push(TraceEvent::Invalidate { target, disp, len });
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of `Get` events.
    pub fn num_gets(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Get { .. }))
            .count()
    }

    /// Serializes to the compact binary format (version 2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 21);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            match *e {
                TraceEvent::Get { target, disp, size } => {
                    out.push(TAG_GET);
                    out.extend_from_slice(&target.to_le_bytes());
                    out.extend_from_slice(&disp.to_le_bytes());
                    out.extend_from_slice(&size.to_le_bytes());
                }
                TraceEvent::EpochClose => out.push(TAG_EPOCH),
                TraceEvent::Invalidate { target, disp, len } => {
                    out.push(TAG_INVALIDATE);
                    out.extend_from_slice(&target.to_le_bytes());
                    out.extend_from_slice(&disp.to_le_bytes());
                    out.extend_from_slice(&len.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses the version-2 binary format (`CLAMPIT2`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed byte sequence. A
    /// version-1 trace (`CLAMPITR`) is refused with an error naming the
    /// retired format.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        if data.len() < 16 {
            return Err("not a CLaMPI trace (too short)".into());
        } else if &data[..8] == MAGIC_V1 {
            return Err("CLAMPITR (version 1) traces are no longer supported; \
                 re-record the trace in the CLAMPIT2 format"
                .into());
        } else if &data[..8] != MAGIC {
            return Err("not a CLaMPI trace (bad magic)".into());
        }
        let count = le64(data, 8) as usize;
        let mut events = Vec::with_capacity(count);
        let mut at = 16;
        for i in 0..count {
            let tag = *data
                .get(at)
                .ok_or_else(|| format!("truncated at event {i}"))?;
            at += 1;
            match tag {
                TAG_GET => {
                    if data.len() < at + 16 {
                        return Err(format!("truncated get at event {i}"));
                    }
                    let target = le32(data, at);
                    let disp = le64(data, at + 4);
                    let size = le32(data, at + 12);
                    at += 16;
                    events.push(TraceEvent::Get { target, disp, size });
                }
                TAG_EPOCH => events.push(TraceEvent::EpochClose),
                TAG_INVALIDATE => {
                    if data.len() < at + 20 {
                        return Err(format!("truncated invalidate at event {i}"));
                    }
                    let target = le32(data, at);
                    let disp = le64(data, at + 4);
                    let len = le64(data, at + 12);
                    at += 20;
                    events.push(TraceEvent::Invalidate { target, disp, len });
                }
                t => return Err(format!("unknown tag {t} at event {i}")),
            }
        }
        if at != data.len() {
            return Err(format!("{} trailing bytes", data.len() - at));
        }
        Ok(Trace { events })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed contents become
    /// `io::ErrorKind::InvalidData`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Cost model of the replayer: what a miss and a hit cost besides the
/// cache-management time the engine itself charges.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCosts {
    /// Latency of a remote get + flush (paid by every non-hit).
    pub miss_base_ns: f64,
    /// Per-byte wire cost of a remote get.
    pub miss_per_byte_ns: f64,
}

impl Default for ReplayCosts {
    fn default() -> Self {
        // The default network model's same-chassis get + sync.
        ReplayCosts {
            miss_base_ns: 120.0 + 1800.0 + 250.0,
            miss_per_byte_ns: 0.10,
        }
    }
}

/// The outcome of a replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Cache statistics over the whole trace.
    pub stats: CacheStats,
    /// Modelled completion time (management + copies + miss latencies).
    pub completion_ns: f64,
}

/// Replays `trace` through a fresh cache with `params`.
pub fn replay(trace: &Trace, params: CacheParams, costs: ReplayCosts) -> ReplayResult {
    let mut cache = RmaCache::new(params);
    let mut completion_ns = 0.0;
    let mut payload: Vec<u8> = Vec::new();
    let mut dst: Vec<u8> = Vec::new();
    for e in trace.events() {
        match *e {
            TraceEvent::Get { target, disp, size } => {
                let size = size as usize;
                if size == 0 {
                    continue;
                }
                let key = GetKey { target, disp };
                let sig = LayoutSig::Contig(size);
                dst.resize(size, 0);
                match cache.process_lookup(key, &sig, &mut dst) {
                    Lookup::Hit => {}
                    Lookup::PartialHit { cached_len } => {
                        payload.resize(size, 0);
                        completion_ns += costs.miss_base_ns
                            + (size - cached_len) as f64 * costs.miss_per_byte_ns;
                        cache.finish_partial(key, sig, &payload, 0);
                    }
                    Lookup::Miss => {
                        payload.resize(size, 0);
                        completion_ns += costs.miss_base_ns + size as f64 * costs.miss_per_byte_ns;
                        cache.finish_miss(key, sig, &payload, 0);
                    }
                }
            }
            TraceEvent::EpochClose => cache.epoch_close(),
            e if e == INVALIDATE_ALL => cache.invalidate(),
            TraceEvent::Invalidate { target, disp, len } => {
                cache.invalidate_range(target, disp, disp.saturating_add(len));
            }
        }
        completion_ns += cache.take_cost();
    }
    cache.epoch_close();
    completion_ns += cache.take_cost();
    ReplayResult {
        stats: *cache.stats(),
        completion_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CacheCostModel;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for round in 0..5u64 {
            for d in 0..20u64 {
                t.get(1, d * 256, 128);
                t.epoch_close();
            }
            if round == 2 {
                t.invalidate();
            }
        }
        t
    }

    #[test]
    fn roundtrip_bytes() {
        let t = sample_trace();
        let b = t.to_bytes();
        let back = Trace::from_bytes(&b).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.num_gets(), 100);
    }

    #[test]
    fn roundtrip_file() {
        let t = sample_trace();
        let path = std::env::temp_dir().join("clampi_trace_test.bin");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(Trace::from_bytes(b"garbage").is_err());
        let mut ok = sample_trace().to_bytes();
        ok.push(0xFF); // trailing byte
        assert!(Trace::from_bytes(&ok).is_err());
        let mut truncated = sample_trace().to_bytes();
        truncated.truncate(20);
        assert!(Trace::from_bytes(&truncated).is_err());
        let mut bad_tag = sample_trace().to_bytes();
        bad_tag[16] = 99;
        assert!(Trace::from_bytes(&bad_tag).is_err());
        // A v2 invalidate must carry its 20-byte payload.
        let mut t = Trace::new();
        t.invalidate_range(1, 0, 64);
        let mut cut = t.to_bytes();
        cut.truncate(cut.len() - 4);
        assert!(Trace::from_bytes(&cut).is_err());
    }

    #[test]
    fn ranged_invalidates_roundtrip() {
        let mut t = Trace::new();
        t.get(2, 128, 64);
        t.epoch_close();
        t.invalidate_range(2, 128, 64);
        t.invalidate_range(7, 0, u64::MAX); // full per-target drop
        t.invalidate(); // full invalidation sentinel
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.events()[2],
            TraceEvent::Invalidate {
                target: 2,
                disp: 128,
                len: 64
            }
        );
        assert_eq!(back.events()[4], INVALIDATE_ALL);
    }

    #[test]
    fn legacy_v1_traces_are_rejected() {
        // A v1 stream: one get, one epoch, one bare invalidate.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"CLAMPITR");
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.push(TAG_GET);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&256u64.to_le_bytes());
        v1.extend_from_slice(&128u32.to_le_bytes());
        v1.push(TAG_EPOCH);
        v1.push(TAG_INVALIDATE); // bare: no payload in v1
        let err = Trace::from_bytes(&v1).unwrap_err();
        assert!(
            err.contains("CLAMPITR (version 1)"),
            "must name the format: {err}"
        );
        // Through the file API it surfaces as InvalidData.
        let path = std::env::temp_dir().join(format!("clampi_v1_{}.trace", std::process::id()));
        std::fs::write(&path, &v1).unwrap();
        let io = Trace::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        assert!(io.to_string().contains("CLAMPITR"));
    }

    #[test]
    fn replay_ranged_invalidation_is_surgical() {
        // Two cached blocks; invalidating one range must only re-miss the
        // overlapped block.
        let mut t = Trace::new();
        t.get(0, 0, 128);
        t.get(0, 4096, 128);
        t.epoch_close();
        t.invalidate_range(0, 0, 128); // hits only the first block
        t.get(0, 0, 128); // miss again
        t.get(0, 4096, 128); // still a hit
        t.epoch_close();
        let r = replay(
            &t,
            CacheParams {
                index_entries: 64,
                storage_bytes: 64 << 10,
                costs: CacheCostModel::free(),
                ..CacheParams::default()
            },
            ReplayCosts::default(),
        );
        assert_eq!(r.stats.total_gets, 4);
        assert_eq!(r.stats.direct, 3, "the invalidated block re-missed");
        assert_eq!(r.stats.hits, 1, "the untouched block kept hitting");
    }

    #[test]
    fn replay_reproduces_reuse_and_invalidation() {
        let t = sample_trace();
        let r = replay(
            &t,
            CacheParams {
                index_entries: 64,
                storage_bytes: 64 << 10,
                costs: CacheCostModel::free(),
                ..CacheParams::default()
            },
            ReplayCosts::default(),
        );
        // Round 1 misses (20), rounds 2-3 hit, invalidate, round 4 misses
        // again, round 5 hits.
        assert_eq!(r.stats.total_gets, 100);
        assert_eq!(r.stats.direct, 40);
        assert_eq!(r.stats.hits, 60);
        assert_eq!(r.stats.invalidations, 1);
        assert!(r.completion_ns > 0.0);
    }

    #[test]
    fn replay_ranks_policies_like_live_runs() {
        // A tiny index must replay slower (conflict evictions) than an
        // adequate one — the property that makes offline tuning useful.
        let mut t = Trace::new();
        for _ in 0..10 {
            for d in 0..100u64 {
                t.get(0, d * 1000, 64);
                t.epoch_close();
            }
        }
        let small = replay(
            &t,
            CacheParams {
                index_entries: 8,
                storage_bytes: 1 << 20,
                ..CacheParams::default()
            },
            ReplayCosts::default(),
        );
        let big = replay(
            &t,
            CacheParams {
                index_entries: 512,
                storage_bytes: 1 << 20,
                ..CacheParams::default()
            },
            ReplayCosts::default(),
        );
        assert!(big.stats.hit_ratio() > small.stats.hit_ratio());
        assert!(big.completion_ns < small.completion_ns);
    }
}
