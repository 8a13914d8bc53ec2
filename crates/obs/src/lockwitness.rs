//! Debug-build lock witness: a thread holds at most one tracked lock.
//!
//! `cardest-lint`'s `lock-order` rule keeps the workspace's static
//! lock-acquisition graph at zero edges: no code path nests two locks. This
//! module checks the same invariant *as executed*, so a nesting the lint
//! cannot see (a trait object, a callback, a call two levels deep) panics in
//! every debug build and test run instead of waiting to deadlock in
//! production.
//!
//! Every tracked acquisition declares a guard from [`one_lock`] on the line
//! before its `.lock()` call, so the real guard (declared later) drops first:
//!
//! ```
//! use std::sync::Mutex;
//! let m = Mutex::new(0u64);
//! let _one = cardest_obs::one_lock();
//! *m.lock().unwrap() += 1;
//! ```
//!
//! The check lives in this bottom crate so that `Observer`'s own locks and
//! every layer above it set the same thread-local flag. In release builds
//! the guard is zero-sized and [`one_lock`] touches no thread-local.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread currently holds a tracked lock.
    static HOLDING: Cell<bool> = const { Cell::new(false) };
}

/// Witness guard for one tracked lock acquisition; dropping it marks the
/// thread as holding no tracked lock again.
#[must_use = "the witness must outlive the lock guard it protects"]
pub struct OneLock {
    _private: (),
}

/// Record (debug builds) that the current thread is about to acquire a
/// tracked lock; panics if it already holds one. Release builds: a free
/// no-op.
#[inline]
pub fn one_lock() -> OneLock {
    #[cfg(debug_assertions)]
    HOLDING.with(|holding| {
        assert!(
            !holding.replace(true),
            "lock nesting: this thread already holds a tracked lock; release it before \
             acquiring another (the workspace keeps at most one lock per thread)"
        );
    });
    OneLock { _private: () }
}

#[cfg(debug_assertions)]
impl Drop for OneLock {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = HOLDING.try_with(|holding| holding.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reacquisition_after_release_is_allowed() {
        {
            let _a = one_lock();
        }
        let _b = one_lock();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock nesting"))]
    fn second_acquisition_while_holding_panics_in_debug() {
        let _a = one_lock();
        let _b = one_lock();
        // In release builds the witness is a no-op, so this test passing
        // without a panic is exactly the claim being verified there.
    }

    #[test]
    fn early_drop_leaves_the_thread_clean() {
        let a = one_lock();
        drop(a);
        let _b = one_lock();
    }

    #[test]
    fn guard_is_zero_sized() {
        // The state is the thread-local; the guard itself carries nothing.
        assert_eq!(std::mem::size_of::<OneLock>(), 0);
    }
}
