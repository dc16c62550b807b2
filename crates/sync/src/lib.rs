//! # hfqo-sync
//!
//! Site-labelled synchronization primitives with built-in lock-order
//! deadlock detection.
//!
//! Every concurrent crate in this workspace takes its `Mutex`,
//! `RwLock`, and `Condvar` from here instead of `std::sync` (enforced
//! by lint rule L1 in `hfqo_lint`). The wrappers are **zero-cost
//! pass-throughs in release builds** — same size as the `std` types,
//! compile-time asserted below — and in debug builds every lock is
//! registered under a static *site label* and checked on each
//! acquisition:
//!
//! * **Lock-order cycles.** Acquiring a lock while holding another adds
//!   a site-level edge `held → acquired` to a global order graph. An
//!   acquisition that would close a cycle (`A → B` established, `B → A`
//!   attempted) panics *immediately* — naming both sites and the held
//!   chain — instead of deadlocking some run later under the right
//!   interleaving. Holding one lock of a site while acquiring another
//!   lock of the *same* site (e.g. two cache shards) is flagged the
//!   same way: with many instances per site there is always an
//!   interleaving where two threads take them in opposite order.
//! * **Re-entrant acquisition.** Locking a lock this thread already
//!   holds panics at the root cause (std's behavior is a guaranteed
//!   deadlock for `Mutex` and unspecified for `RwLock`).
//! * **Condvar discipline.** Waiting while holding any lock other than
//!   the one being released panics: the held lock would stay held for
//!   the whole (unbounded) wait, the classic lost-progress deadlock.
//! * **Unified poison handling.** Guards are returned directly, not
//!   `Result`-wrapped; a poisoned lock panics through one path that
//!   names the lock's site label, replacing per-call-site
//!   `expect("… poisoned")` strings.
//!
//! Checking is compiled in under `cfg(debug_assertions)` (so every
//! `cargo test` run is a lockcheck run) and can be disabled at runtime
//! with `HFQO_LOCKCHECK=0` for debug-profile benchmarking. Release
//! builds compile the checks out entirely.
//!
//! The lock-order graph is **global and cumulative** over the process
//! lifetime: orders established anywhere (including other tests in the
//! same test binary) constrain later acquisitions, which is exactly
//! what makes the check catch inversions that never actually race in a
//! given run. Use distinct site labels per logical lock; labels are the
//! graph's nodes.

#![forbid(unsafe_code)]

use std::fmt;

#[cfg(debug_assertions)]
mod check;

/// In release builds the wrappers must cost nothing: same size as the
/// `std` primitives they wrap (the site label and check state are
/// compiled out). Evaluated at compile time by `cargo build --release`.
#[cfg(not(debug_assertions))]
const _: () = {
    assert!(
        std::mem::size_of::<Mutex<u64>>() == std::mem::size_of::<std::sync::Mutex<u64>>(),
        "release-mode Mutex must be a zero-cost pass-through"
    );
    assert!(
        std::mem::size_of::<RwLock<u64>>() == std::mem::size_of::<std::sync::RwLock<u64>>(),
        "release-mode RwLock must be a zero-cost pass-through"
    );
    assert!(
        std::mem::size_of::<Condvar>() == std::mem::size_of::<std::sync::Condvar>(),
        "release-mode Condvar must be a zero-cost pass-through"
    );
};

/// A site-labelled mutual-exclusion lock. See the [module docs](self).
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    meta: check::LockMeta,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`]; releases the lock (and, in debug
/// builds, its held-chain registration) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // Field order matters for drop order only in so far as both drops
    // are independent; the inner guard releases the lock, the token
    // unregisters the hold.
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: check::HeldToken,
}

impl<T> Mutex<T> {
    /// A new lock registered under `site` — a static label naming the
    /// lock in panics and in the lock-order graph. Use one label per
    /// logical lock (many instances may share a label, e.g. the shards
    /// of one sharded structure; they then share ordering constraints).
    pub fn new(site: &'static str, value: T) -> Self {
        // Labels are compiled out of release builds.
        #[cfg(not(debug_assertions))]
        let _ = site;
        Self {
            #[cfg(debug_assertions)]
            meta: check::LockMeta::register(site),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, panicking (with the site label) on poison —
    /// the unified replacement for scattered `.lock().expect(…)`
    /// call sites. In debug builds, first checks the acquisition
    /// against the global lock-order graph and the thread's held chain.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let pending = self.meta.before_acquire();
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(_) => poisoned(self.site()),
        };
        MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            token: pending.acquired(),
        }
    }

    /// The lock's site label (`"<release>"` in release builds, where
    /// labels are compiled out).
    pub(crate) fn site(&self) -> &'static str {
        #[cfg(debug_assertions)]
        {
            self.meta.site()
        }
        #[cfg(not(debug_assertions))]
        {
            "<release>"
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("site", &self.site())
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A site-labelled reader-writer lock. Read and write acquisitions are
/// ordered identically in the lock-order graph (a read can deadlock
/// against a queued writer exactly like a write can).
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    meta: check::LockMeta,
    inner: std::sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    // Held for its Drop (unregisters from the held chain), never read.
    #[cfg(debug_assertions)]
    _token: check::HeldToken,
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    // Held for its Drop (unregisters from the held chain), never read.
    #[cfg(debug_assertions)]
    _token: check::HeldToken,
}

impl<T> RwLock<T> {
    /// A new lock registered under `site`; see [`Mutex::new`].
    pub fn new(site: &'static str, value: T) -> Self {
        // Labels are compiled out of release builds.
        #[cfg(not(debug_assertions))]
        let _ = site;
        Self {
            #[cfg(debug_assertions)]
            meta: check::LockMeta::register(site),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access; panics with the site label on
    /// poison. Checked against the lock-order graph like a write.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let pending = self.meta.before_acquire();
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(_) => poisoned(self.site()),
        };
        RwLockReadGuard {
            inner,
            #[cfg(debug_assertions)]
            _token: pending.acquired(),
        }
    }

    /// Acquires exclusive write access; panics with the site label on
    /// poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let pending = self.meta.before_acquire();
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(_) => poisoned(self.site()),
        };
        RwLockWriteGuard {
            inner,
            #[cfg(debug_assertions)]
            _token: pending.acquired(),
        }
    }

    /// The lock's site label (see [`Mutex::site`]).
    pub(crate) fn site(&self) -> &'static str {
        #[cfg(debug_assertions)]
        {
            self.meta.site()
        }
        #[cfg(not(debug_assertions))]
        {
            "<release>"
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("site", &self.site())
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable paired with [`Mutex`] guards. In debug builds,
/// [`wait`](Condvar::wait) enforces that the released mutex is the only
/// instrumented lock the thread holds — waiting while holding anything
/// else parks the held lock for an unbounded time, the classic
/// lost-progress deadlock.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically releases `guard`'s mutex and blocks until notified,
    /// then re-acquires and returns the guard. Panics with the mutex's
    /// site label on poison. Spurious wakeups are possible, exactly as
    /// with `std`: re-check the condition in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        {
            let MutexGuard { inner, token } = guard;
            let pending = token.release_for_wait();
            let inner = match self.inner.wait(inner) {
                Ok(g) => g,
                Err(_) => poisoned(pending.site()),
            };
            MutexGuard {
                inner,
                token: pending.reacquired(),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let MutexGuard { inner } = guard;
            let inner = match self.inner.wait(inner) {
                Ok(g) => g,
                Err(_) => poisoned("<release>"),
            };
            MutexGuard { inner }
        }
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// The single poison path every wrapper funnels through: one message
/// shape, always naming the lock's site. Poison means another thread
/// panicked while holding this lock; the state behind it cannot be
/// trusted, so serving threads fail fast at the lock instead of
/// propagating `Result`s nobody can recover from.
#[cold]
#[inline(never)]
fn poisoned(site: &'static str) -> ! {
    panic!("lock poisoned: a thread panicked while holding \"{site}\"");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_locks_and_unlocks() {
        let m = Mutex::new("sync-test.basic", 1);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 2);
        assert_eq!(
            m.site(),
            if cfg!(debug_assertions) {
                "sync-test.basic"
            } else {
                "<release>"
            }
        );
    }

    #[test]
    fn rwlock_reads_and_writes() {
        let l = RwLock::new("sync-test.rw", vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn consistent_nesting_order_is_allowed() {
        // A → B in both acquisitions: no cycle, no panic. Repeated to
        // show the established edge stays satisfied.
        let a = Mutex::new("sync-test.order-a", ());
        let b = Mutex::new("sync-test.order-b", ());
        for _ in 0..2 {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }
    }

    #[test]
    fn condvar_roundtrip() {
        let m = Mutex::new("sync-test.cv", false);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                *m.lock() = true;
                cv.notify_all();
            });
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
    }

    #[test]
    fn guards_deref_debug() {
        let m = Mutex::new("sync-test.debug", 7usize);
        let g = m.lock();
        assert_eq!(format!("{g:?}"), "7");
        drop(g);
        assert!(format!("{m:?}").contains("Mutex"));
    }

    /// Threads see each other's writes through the wrapper exactly as
    /// through `std::sync::Mutex` — the wrapper adds checks, not
    /// semantics.
    #[test]
    fn mutex_is_a_real_lock_across_threads() {
        let m = Mutex::new("sync-test.contended", 0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }
}
