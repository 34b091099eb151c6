//! `clampi-mc` — an in-tree, dependency-free concurrency model checker.
//!
//! The checker exhaustively explores thread interleavings (and, under the
//! weak-memory model, which coherent store each load observes) of a small
//! closed program built from:
//!
//! - [`TrackedU64`] — an atomic cell that records its modification order and
//!   per-access ordering metadata,
//! - [`fence`] — release/acquire/SeqCst fences with loom-style vector-clock
//!   semantics,
//! - [`Mutex`] — a scheduler-aware lock contributing happens-before edges,
//! - [`spawn`]/[`JoinHandle`] — virtual threads on a cooperative scheduler.
//!
//! Outside an exploration every primitive degrades to its `std` counterpart
//! with zero behavioral difference, which is what the [`shim`] facade relies
//! on: shipped protocol code (the snapshot commit clock) is compiled onto
//! these types under `--cfg clampi_mc` and onto plain `std::sync::atomic`
//! otherwise. The snapshot protocol's `mc_*` tests in `clampi` drive the
//! checker's primitives directly.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
//!
//! // Message passing: the Release store + Acquire load pair makes the
//! // payload visible; weaken either ordering and the assert fires.
//! let report = clampi_mc::check(clampi_mc::Config::default(), || {
//!     let data = Arc::new(clampi_mc::TrackedU64::new(0));
//!     let flag = Arc::new(clampi_mc::TrackedU64::new(0));
//!     let (d2, f2) = (data.clone(), flag.clone());
//!     let t = clampi_mc::spawn(move || {
//!         d2.store(42, Relaxed);
//!         f2.store(1, Release);
//!     });
//!     if flag.load(Acquire) == 1 {
//!         assert_eq!(data.load(Relaxed), 42);
//!     }
//!     t.join();
//! });
//! report.assert_pass();
//! ```
//!
//! Failures print a `CLAMPI_MC_SCHEDULE` string; setting that variable (or
//! [`Config::schedule`]) replays the exact counterexample, mirroring how
//! `CLAMPI_PROP_SEED` replays property-test failures.

mod clock;
mod explore;
mod rt;
pub mod shim;

pub use clock::VClock;
pub use explore::{check, Config, Counterexample, Outcome, Report};
pub use rt::{fence, spawn, JoinHandle, Mutex, MutexGuard, TrackedU64};
