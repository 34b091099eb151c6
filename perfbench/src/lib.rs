//! The workspace benchmark: three closed-loop workloads over two
//! simulated ranks, each measured in both clocks.
//!
//! - *Virtual time* (the simulator's LogGP model) is measured over a fixed
//!   op-count prefix of the timed phase, so it repeats bit for bit for a
//!   given seed.
//! - *Host time* is measured after the prefix, which the timed phase runs
//!   on past until the time budget is spent. There the ranks take turns,
//!   so a rank's rate does not depend on how the two threads overlap on a
//!   shared host, and time a thread sat descheduled is taken out.
//!
//! Every layer is measured from outside: the benchmark times its own
//! calls into each layer's public functions and differences the public
//! counters around them. See `README.md` next to this crate for the
//! workloads, the metrics and what each layer metric should move.

pub mod dht;
pub mod measure;
pub mod micro;
pub mod report;

use measure::{Counters, Span};
use std::time::Duration;

/// Simulated rank threads in every workload.
pub const RANKS: usize = 2;

/// Ops per host-time chunk of [`RankOut::rates`], and per turn of a
/// rank after the prefix.
pub const WALL_CHUNK: u64 = 2048;

/// The quantile of a rank's host chunk rates that `ops_per_s` reports.
///
/// A shared VM's speed drifts between a slower state, which some part of
/// every run sees, and faster spells of varying length. The median chunk
/// moves with how long the fast spells last; the lower quartile sits in
/// the slow state and moved half as much between identical runs.
pub const RATE_QUANTILE: f64 = 0.25;

/// Ops per virtual-time chunk of [`RankOut::chunk_vns`].
pub const VIRT_CHUNK: u64 = 256;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only Zipf lookups through `Dht::lookup`.
    DhtZipf,
    /// The paper's Sec. IV-A get stream through `CachedWindow`.
    MicroCapacity,
    /// Rounds of `Dht::multi_get` reads and owner-local updates.
    DhtChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::DhtZipf,
        Workload::MicroCapacity,
        Workload::DhtChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DhtZipf => "dht-zipf",
            Workload::MicroCapacity => "micro-capacity",
            Workload::DhtChurn => "dht-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How large a run is. [`Scale::Full`] is the benchmark; [`Scale::Tiny`]
/// keeps the same shape at a size the crate's tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test-sized inputs.
    Tiny,
}

/// One run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: only the input generators see it.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// `false` runs the same inputs with `ClampiConfig::disabled()` (the
    /// paper's uncached foMPI baseline).
    pub cached: bool,
    /// Wall time the timed phase keeps running after its prefix is done.
    pub budget: Duration,
    /// Record spans and counter deltas per call.
    pub trace: bool,
    /// Stop after set-up (set-up time samples).
    pub setup_only: bool,
}

/// What one rank reports from one run.
#[derive(Debug, Default)]
pub struct RankOut {
    /// Wall seconds from the start of the run until this rank began its
    /// timed phase: input generation, window creation, populate, warm-up.
    pub setup_s: f64,
    /// Ops in the fixed prefix (the virtual-time sample).
    pub prefix_ops: u64,
    /// Ops in the whole timed phase (prefix included).
    pub ops: u64,
    /// Ops whose result failed its check, set-up included.
    pub failed: u64,
    /// Virtual ns of the prefix on this rank.
    pub vtime_ns: f64,
    /// Virtual ns per op over fixed op-count chunks of the prefix.
    pub chunk_vns: Vec<f64>,
    /// Host ops/s over fixed op-count chunks of the prefix (ranks
    /// running concurrently).
    pub prefix_rates: Vec<f64>,
    /// Host ops/s over fixed op-count chunks after the prefix (ranks
    /// taking turns).
    pub rates: Vec<f64>,
    /// The same chunks' rates on the nominal host (see
    /// [`measure::RefKernel`]).
    pub nominal_rates: Vec<f64>,
    /// Reference kernel seconds after each of those chunks.
    pub ref_s: Vec<f64>,
    /// Counter deltas over the prefix.
    pub delta: Counters,
    /// Spans of the prefix (traced runs only).
    pub spans: Vec<Span>,
    /// Whether this rank's thread ran the time after the prefix pinned to
    /// one CPU (shared by all ranks).
    pub pinned: bool,
    /// Bytes of cache storage this rank's window was given.
    pub storage_bytes: usize,
    /// Bytes the workload's distinct gets touch, on this rank.
    pub distinct_bytes: usize,
}

/// All ranks of one run, merged.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Per-rank outputs, by rank.
    pub ranks: Vec<RankOut>,
}

impl RunOut {
    /// Slowest rank's set-up time.
    pub fn setup_s(&self) -> f64 {
        self.ranks.iter().map(|r| r.setup_s).fold(0.0, f64::max)
    }

    /// Slowest rank's virtual time over the prefix (the paper's
    /// completion time).
    pub fn vtime_ns(&self) -> f64 {
        self.ranks.iter().map(|r| r.vtime_ns).fold(0.0, f64::max)
    }

    /// Host ops/s after the prefix on the nominal host: the sum over
    /// ranks of each rank's [`RATE_QUANTILE`] chunk rate.
    pub fn ops_per_s(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| measure::quantile(&r.nominal_rates, RATE_QUANTILE))
            .sum()
    }

    /// [`RunOut::ops_per_s`] on this host, as measured.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| measure::quantile(&r.rates, RATE_QUANTILE))
            .sum()
    }

    /// Median reference kernel time after the prefix, all ranks (s).
    pub fn ref_s(&self) -> f64 {
        let all: Vec<f64> = self.ranks.iter().flat_map(|r| r.ref_s.clone()).collect();
        measure::median(&all)
    }

    /// Host ops/s over the prefix, as [`RunOut::ops_per_s`] (traced runs
    /// have no time after their prefix).
    pub fn prefix_ops_per_s(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| measure::quantile(&r.prefix_rates, RATE_QUANTILE))
            .sum()
    }

    /// Per-chunk virtual ns per op, all ranks.
    pub fn chunk_vns(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .flat_map(|r| r.chunk_vns.iter().copied())
            .collect()
    }

    /// Counter deltas over the prefix, summed over ranks.
    pub fn delta(&self) -> Counters {
        let mut c = Counters::default();
        for r in &self.ranks {
            c.add(&r.delta);
        }
        c
    }

    /// Largest `|Δnow − (Δcpu + Δblocked)|` of any rank over the prefix.
    pub fn unaccounted_ns(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.delta.clock.unaccounted().abs())
            .fold(0.0, f64::max)
    }

    /// Prefix ops, all ranks.
    pub fn prefix_ops(&self) -> u64 {
        self.ranks.iter().map(|r| r.prefix_ops).sum()
    }

    /// Timed ops, all ranks.
    pub fn ops(&self) -> u64 {
        self.ranks.iter().map(|r| r.ops).sum()
    }

    /// Failed checks, all ranks.
    pub fn failed(&self) -> u64 {
        self.ranks.iter().map(|r| r.failed).sum()
    }

    /// Every rank's spans.
    pub fn spans(&self) -> Vec<Span> {
        self.ranks
            .iter()
            .flat_map(|r| r.spans.iter().copied())
            .collect()
    }
}

/// Runs `w` once under `cfg`.
pub fn run(w: Workload, cfg: &RunCfg) -> RunOut {
    let ranks = match w {
        Workload::DhtZipf => dht::run_zipf(cfg),
        Workload::MicroCapacity => micro::run(cfg),
        Workload::DhtChurn => dht::run_churn(cfg),
    };
    RunOut { ranks }
}
