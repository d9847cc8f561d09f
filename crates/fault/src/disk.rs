//! Shared atomic spill-disk accounting with RAII release.
//!
//! The disk mirror of [`crate::MemoryBudget`]: spill writes reserve their
//! file's bytes here *before* touching the filesystem, so a bounded spill
//! directory degrades exactly like a bounded heap — with a typed
//! [`AggError::DiskBudgetExceeded`] instead of a mid-write `ENOSPC`
//! panic — and the reservation rides the spilled run, releasing when the
//! scratch file is deleted.

use crate::error::AggError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct DiskInner {
    /// Hard limit in bytes; `None` grants every reservation but still
    /// counts it, so the peak footprint is known either way.
    limit: Option<u64>,
    /// Bytes currently reserved.
    reserved: AtomicU64,
    /// Reservations denied over the budget's lifetime.
    denials: AtomicU64,
    /// Highest value `reserved` ever reached (monotonic).
    high_water: AtomicU64,
}

/// A shared spill-disk budget. Cloning shares the account. An unlimited
/// budget never denies, but keeps the same account, so `outstanding()` and
/// `high_water()` report the real footprint of an uncapped spill too.
///
/// Accounting covers the exact on-disk size of each spill file (the
/// writer computes it up front), so `outstanding()` is the live spill
/// footprint in bytes. The balance invariant matches the memory budget:
/// whatever an operator invocation reserves is released by the time its
/// runs are dropped, on every path including errors.
#[derive(Clone, Default)]
pub struct DiskBudget {
    inner: Arc<DiskInner>,
}

impl DiskBudget {
    /// No limit: every reservation is granted (and still counted).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget of `limit_bytes` of spill space shared by all clones.
    pub fn limited(limit_bytes: u64) -> Self {
        Self { inner: Arc::new(DiskInner { limit: Some(limit_bytes), ..DiskInner::default() }) }
    }

    /// Whether this budget enforces a limit.
    pub fn is_limited(&self) -> bool {
        self.inner.limit.is_some()
    }

    /// The limit in bytes (`None` when unlimited).
    pub fn limit(&self) -> Option<u64> {
        self.inner.limit
    }

    /// Bytes currently reserved. Balanced back to its pre-invocation value
    /// once every spilled run is dropped; the chaos suite asserts it.
    pub fn outstanding(&self) -> u64 {
        // ORDERING: Acquire; site: balance; pairs-with: reserved.rmw —
        // a balance observed after an operator returns reflects every
        // reservation that operator made and dropped.
        self.inner.reserved.load(Ordering::Acquire)
    }

    /// Highest concurrently reserved byte count this budget ever saw.
    /// Monotonic: the peak on-disk spill footprint.
    pub fn high_water(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic statistic read after the fact;
        // no other memory is published through it.
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Reservations denied so far (always 0 when unlimited).
    pub fn denials(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic statistics counter; no other
        // memory is published through it.
        self.inner.denials.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` of spill space, failing with
    /// [`AggError::DiskBudgetExceeded`] if the limit would be crossed.
    /// The returned [`DiskReservation`] releases the bytes when dropped.
    pub fn try_reserve(&self, bytes: u64) -> Result<DiskReservation, AggError> {
        let inner = &self.inner;
        // ORDERING: Relaxed — only a hint seeding the CAS loop; the
        // compare_exchange below revalidates against the real value.
        let mut current = inner.reserved.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_add(bytes);
            if let Some(limit) = inner.limit.filter(|&limit| new > limit) {
                // ORDERING: Relaxed — statistics counter (see `denials`).
                inner.denials.fetch_add(1, Ordering::Relaxed);
                return Err(AggError::DiskBudgetExceeded {
                    requested: bytes,
                    limit,
                    reserved: current,
                });
            }
            // ORDERING: AcqRel/Relaxed; site: rmw; pairs-with: reserved.balance —
            // success chains reserve/release RMWs into a single
            // modification order the Acquire readers observe; the failed
            // side only retries, the value is not acted on.
            match inner.reserved.compare_exchange_weak(
                current,
                new,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // ORDERING: Relaxed — the high-water max-CAS is a
                    // monotonic statistic; no other memory rides on it and
                    // it is read only after the fact.
                    let mut hw = inner.high_water.load(Ordering::Relaxed);
                    while new > hw {
                        match inner.high_water.compare_exchange_weak(
                            hw,
                            new,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(observed) => hw = observed,
                        }
                    }
                    return Ok(DiskReservation {
                        budget: Some(Arc::clone(inner)),
                        bytes: AtomicU64::new(bytes),
                    });
                }
                Err(observed) => current = observed,
            }
        }
    }
}

impl std::fmt::Debug for DiskBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskBudget")
            .field("limit", &self.inner.limit)
            // ORDERING: Relaxed — debug snapshot, no synchronization.
            .field("reserved", &self.inner.reserved.load(Ordering::Relaxed))
            .finish()
    }
}

/// A granted spill-space reservation. Releases its bytes on drop —
/// attach it to the spilled run whose file it covers so deleting the
/// scratch file and returning the disk space are the same event.
///
/// The covered byte count is interiorly mutable (only downward, via
/// [`shrink_to`](Self::shrink_to)) so an async spill writer can reserve a
/// compressed file's *upper bound* synchronously — keeping
/// [`AggError::DiskBudgetExceeded`] a submit-time error — and return the
/// difference once the actual encoded size is known.
#[derive(Debug, Default)]
pub struct DiskReservation {
    budget: Option<Arc<DiskInner>>,
    bytes: AtomicU64,
}

impl DiskReservation {
    /// A zero-byte reservation against no budget.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Bytes this reservation currently covers.
    pub fn bytes(&self) -> u64 {
        // ORDERING: Acquire; site: count; pairs-with: bytes.shrink —
        // a reader that learned of the shrink (e.g. through a spill
        // ticket) sees the reduced count.
        self.bytes.load(Ordering::Acquire)
    }

    /// Shrink this reservation to `new_bytes`, returning the difference
    /// to the budget immediately (the drop will release only the
    /// remainder). Growing is not allowed — that would bypass the
    /// budget's limit check — so a larger `new_bytes` is a no-op.
    pub fn shrink_to(&self, new_bytes: u64) {
        // ORDERING: AcqRel; site: shrink; pairs-with: bytes.count —
        // the min-RMW both takes the previous count exactly once (so
        // racing shrinkers release each byte at most once) and publishes
        // the new one to `bytes()` readers.
        let old = self.bytes.fetch_min(new_bytes, Ordering::AcqRel);
        let released = old.saturating_sub(new_bytes);
        if released > 0 {
            if let Some(inner) = &self.budget {
                // ORDERING: AcqRel; site: rmw; pairs-with: reserved.balance —
                // the release side of the reserve CAS (see `Drop`); an
                // Acquire balance read afterwards sees the bytes returned.
                inner.reserved.fetch_sub(released, Ordering::AcqRel);
            }
        }
    }
}

impl Drop for DiskReservation {
    fn drop(&mut self) {
        if let Some(inner) = &self.budget {
            // ORDERING: AcqRel; site: rmw; pairs-with: reserved.balance —
            // the release side of the reserve CAS; an Acquire read of the
            // balance afterwards sees the bytes returned (outstanding()
            // == 0 after drops is asserted by the chaos suite). `get_mut`
            // on the count needs no ordering: drop has exclusive access.
            inner.reserved.fetch_sub(*self.bytes.get_mut(), Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_grants() {
        let b = DiskBudget::unlimited();
        assert!(!b.is_limited());
        let r = b.try_reserve(u64::MAX).unwrap();
        assert_eq!(r.bytes(), u64::MAX);
        // Uncapped, but still counted: the peak is the real footprint.
        assert_eq!(b.outstanding(), u64::MAX);
        assert_eq!(b.high_water(), u64::MAX);
        drop(r);
        assert_eq!(b.outstanding(), 0);
        assert_eq!(b.high_water(), u64::MAX);
        assert_eq!(b.denials(), 0);
        assert_eq!(b.limit(), None);
    }

    #[test]
    fn limited_budget_grants_denies_and_releases() {
        let b = DiskBudget::limited(100);
        let r1 = b.try_reserve(60).unwrap();
        assert_eq!(b.outstanding(), 60);
        let denied = b.try_reserve(50);
        assert_eq!(
            denied.unwrap_err(),
            AggError::DiskBudgetExceeded { requested: 50, limit: 100, reserved: 60 }
        );
        assert_eq!(b.denials(), 1);
        drop(r1);
        assert_eq!(b.outstanding(), 0);
        assert_eq!(b.high_water(), 60);
    }

    #[test]
    fn shrinking_returns_the_difference_and_never_grows() {
        let b = DiskBudget::limited(100);
        let r = b.try_reserve(80).unwrap();
        r.shrink_to(30);
        assert_eq!(r.bytes(), 30);
        assert_eq!(b.outstanding(), 30, "the difference is returned immediately");
        // Growing is refused: the budget's limit check cannot be bypassed.
        r.shrink_to(90);
        assert_eq!(r.bytes(), 30);
        assert_eq!(b.outstanding(), 30);
        r.shrink_to(0);
        assert_eq!(b.outstanding(), 0);
        drop(r);
        assert_eq!(b.outstanding(), 0, "drop releases only the remainder");
        assert_eq!(b.high_water(), 80, "the peak saw the nominal reservation");
        // Unlimited reservations shrink with the same accounting.
        let b = DiskBudget::unlimited();
        let r = b.try_reserve(64).unwrap();
        r.shrink_to(8);
        assert_eq!(r.bytes(), 8);
        assert_eq!(b.outstanding(), 8);
        drop(r);
        assert_eq!(b.outstanding(), 0);
        assert_eq!(b.high_water(), 64);
    }

    #[test]
    fn clones_share_the_account() {
        let b = DiskBudget::limited(10);
        let b2 = b.clone();
        let _r = b.try_reserve(8).unwrap();
        assert_eq!(b2.outstanding(), 8);
        assert!(b2.try_reserve(4).is_err());
    }

    #[test]
    fn release_happens_on_unwind() {
        let b = DiskBudget::limited(100);
        let b2 = b.clone();
        let result = std::panic::catch_unwind(move || {
            let _r = b2.try_reserve(70).unwrap();
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn concurrent_reservations_stay_within_limit() {
        let b = DiskBudget::limited(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(r) = b.try_reserve(7) {
                            assert!(b.outstanding() <= 1000);
                            drop(r);
                        }
                    }
                });
            }
        });
        assert_eq!(b.outstanding(), 0);
        assert!(b.high_water() <= 1000);
    }
}
