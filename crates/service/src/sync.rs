//! Poison-recovering lock helpers.
//!
//! `std::sync::Mutex` poisons itself when a holder panics, and every
//! `.lock().unwrap()` then propagates that panic to innocent threads — one
//! crashed worker cascades into a dead service. None of the service's
//! lock-protected structures actually has a broken-invariant problem under
//! a mid-update panic:
//!
//! * the work queue's deque and closed flag are updated in single
//!   statements (push/pop/assign) that cannot be observed half-done;
//! * the shape profile's entries are inserted whole;
//! * the caches are *bit-transparent* — every entry equals what a fresh
//!   computation would produce — so the conservatively correct recovery is
//!   to drop the contents and let the next miss recompute them.
//!
//! So poisoning here is pure collateral damage, and the correct response
//! is to recover the guard, not to die. These helpers are the only
//! sanctioned way to take a lock inside `crates/service`; CI greps for raw
//! `.lock().unwrap()` / `.lock().expect(` to keep it that way.

use std::sync::{Mutex, MutexGuard, PoisonError};
use uaq_telemetry::Counter;

/// Locks `m`, recovering the guard if a previous holder panicked. Use for
/// structures whose invariants hold after any single-statement update
/// (queues of whole items, counters).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks `m`; on poison, counts the recovery, runs `on_poison` on the
/// recovered state (e.g. clear a cache whose touched entry is suspect),
/// and clears the poison flag so later lockers take the fast path again.
pub(crate) fn lock_recover_with<'a, T>(
    m: &'a Mutex<T>,
    recoveries: &Counter,
    on_poison: impl FnOnce(&mut T),
) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            recoveries.inc();
            m.clear_poison();
            let mut guard = poisoned.into_inner();
            on_poison(&mut guard);
            guard
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn poison(m: &Mutex<Vec<u32>>) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(result.is_err());
        assert!(m.is_poisoned());
    }

    #[test]
    fn lock_recover_survives_a_poisoned_mutex() {
        let m = Mutex::new(vec![1, 2, 3]);
        poison(&m);
        let guard = lock_recover(&m);
        assert_eq!(*guard, vec![1, 2, 3], "state survives the panic");
    }

    #[test]
    fn lock_recover_with_counts_and_clears_poison() {
        let m = Mutex::new(vec![1, 2, 3]);
        let recoveries = Counter::detached();
        {
            let guard = lock_recover_with(&m, &recoveries, |v| v.clear());
            assert_eq!(*guard, vec![1, 2, 3], "healthy lock: on_poison not run");
        }
        assert_eq!(recoveries.get(), 0, "no poison, no count");
        poison(&m);
        {
            let guard = lock_recover_with(&m, &recoveries, |v| v.clear());
            assert!(guard.is_empty(), "on_poison invalidated the state");
        }
        assert_eq!(recoveries.get(), 1);
        assert!(!m.is_poisoned(), "poison flag cleared after recovery");
        // The next lock is an ordinary fast-path lock.
        let _guard = lock_recover_with(&m, &recoveries, |_| {
            panic!("on_poison must not run on a healthy lock")
        });
        assert_eq!(recoveries.get(), 1);
    }
}
