//! The atomics facade consumed by `clampi-rma`'s commit clock.
//!
//! Shipped protocol code (the snapshot commit clock) is written against
//! `McAtomicU64`. In a normal build it is a *type alias* of
//! `std::sync::atomic::AtomicU64` — the facade costs exactly nothing. Under
//! `--cfg clampi_mc` it switches to the tracked [`crate::TrackedU64`] cell,
//! so the model checker explores the real shipped code paths, not a
//! transliterated model.

/// Tracked atomic u64 under `cfg(clampi_mc)`, plain `AtomicU64` otherwise.
#[cfg(clampi_mc)]
pub type McAtomicU64 = crate::TrackedU64;
/// Tracked atomic u64 under `cfg(clampi_mc)`, plain `AtomicU64` otherwise.
#[cfg(not(clampi_mc))]
pub type McAtomicU64 = std::sync::atomic::AtomicU64;
