//! A per-day memo slot for a whole-graph aggregate.
//!
//! A persisted day is immutable, so an aggregate computed over one
//! mapping (global reciprocity is O(|Es|)) stays valid for as long as
//! that mapping lives. The slot sits in the cache entry next to the
//! mapping, so every handle to one resident day shares it, and eviction
//! drops it with the mapping: a re-mapped day starts empty.
//!
//! The slot is filled **under its own lock**, so a herd of requests on a
//! cold memo computes the value exactly once; the rest block on the lock
//! and read the stored value. The lock is a dual-mode
//! [`loom_lite::sync::Mutex`], so `model_tests` explores this exact code.

use loom_lite::sync::Mutex;

/// One memoised `f64`, empty until the first [`get_or_fill`](Memo::get_or_fill).
#[derive(Debug, Default)]
pub(crate) struct Memo {
    slot: Mutex<Option<f64>>,
}

impl Memo {
    /// The stored value, or — when the slot is empty — `fill()`'s result,
    /// computed while holding the slot lock and stored for every later
    /// caller.
    ///
    /// A `fill` that panics leaves the slot empty (the lock poisons, the
    /// value is never written); the next caller recovers the lock, as
    /// `cache::lock_shard` does, and retries the fill.
    pub(crate) fn get_or_fill(&self, fill: impl FnOnce() -> f64) -> f64 {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot.get_or_insert_with(fill)
    }

    /// The stored value without filling (tests: a fresh mapping's slot
    /// must start empty).
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<f64> {
        *self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_once_then_reads_the_stored_value() {
        let memo = Memo::default();
        assert_eq!(memo.peek(), None);
        let mut fills = 0;
        for _ in 0..3 {
            let v = memo.get_or_fill(|| {
                fills += 1;
                0.25
            });
            assert_eq!(v.to_bits(), 0.25f64.to_bits());
        }
        assert_eq!(fills, 1);
        assert_eq!(memo.peek(), Some(0.25));
    }

    #[test]
    fn a_panicking_fill_leaves_the_slot_empty_for_a_retry() {
        let memo = Memo::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_fill(|| panic!("fill exploded"))
        }));
        assert!(caught.is_err());
        assert_eq!(memo.peek(), None, "a failed fill stores nothing");
        assert_eq!(memo.get_or_fill(|| 0.5), 0.5, "the next caller retries");
        assert_eq!(memo.get_or_fill(|| f64::NAN), 0.5);
    }
}
