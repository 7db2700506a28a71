//! Persistent worker pool behind one primitive, [`region`].
//!
//! A *region* is one closure (`body`) that several threads may run at the
//! same time; the body finds its own share of the work, normally by
//! claiming chunk indices from an atomic counter. The thread that opens a
//! region always runs the body itself, so a region makes progress — and
//! completes — whether or not any helper joins it. Helpers are process-wide
//! threads that park on a condition variable between regions; they are
//! spawned the first time a region asks for more of them than exist and
//! are never torn down (the process exit reaps them), which is what makes
//! opening a region cost a mutex round-trip and a wake-up instead of a
//! `clone(2)` per worker.
//!
//! One mutex guards all pool state. Bodies run outside it, so it is held
//! only for a few loads and stores and cannot be poisoned by a body's
//! panic.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// What a helper thread needs to run a region's body: a pointer to the
/// caller's closure with its lifetime erased.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, so calling it through a shared pointer from
// another thread is allowed; the pointer itself is plain data. That the
// pointee is still alive whenever a helper dereferences it is `region`'s
// obligation, argued there.
unsafe impl Send for BodyPtr {}

type Panic = Box<dyn Any + Send + 'static>;

/// One open region.
struct Job {
    id: u64,
    body: BodyPtr,
    /// Helpers that may still join. Set to 0 when the caller closes the
    /// region; a helper takes a seat only while it is positive.
    seats: usize,
    /// Helpers currently inside `body`.
    active: usize,
    /// The first panic a helper's call of `body` raised.
    panic: Option<Panic>,
}

struct Pool {
    jobs: Vec<Job>,
    /// Helper threads spawned so far; they live as long as the process.
    helpers: usize,
    next_id: u64,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    jobs: Vec::new(),
    helpers: 0,
    next_id: 0,
});
/// Helpers park here until a region with an open seat appears.
static WORK: Condvar = Condvar::new();
/// Callers closing a region park here until its last helper has left.
static DONE: Condvar = Condvar::new();

/// Why neither the lock nor a wait on it can report poisoning.
const NEVER_POISONED: &str = "hostexec pool lock is never held across a region body";

// INVARIANT: no region body runs under the pool lock, so no panic can
// poison it.
#[allow(clippy::expect_used)]
fn lock() -> MutexGuard<'static, Pool> {
    POOL.lock().expect(NEVER_POISONED)
}

/// Run `body` on the calling thread and on up to `workers - 1` pool
/// helpers at once, returning when every thread that entered `body` has
/// left it.
///
/// `body` must complete the region's work even if it is the only call
/// made (no helper is guaranteed to arrive), and concurrent calls must
/// share that work out between themselves. `workers` is the region's
/// thread budget, the caller included: with `workers < 2` the body simply
/// runs inline. Any number of threads may open regions concurrently, and a
/// body may itself open a nested region.
///
/// # Panics
/// If any call of `body` panics, the panic resumes on the calling thread
/// once every other call has returned (the caller's own panic first, else
/// the first helper's). The pool stays usable.
pub(crate) fn region(workers: usize, body: &(dyn Fn() + Sync)) {
    if workers < 2 {
        return body();
    }
    // SAFETY: only the trait object's lifetime bound changes, so the two
    // pointer types have the same layout. The pointer is published to
    // helpers by `open` and dereferenced by `helper_main` only between
    // taking a seat (possible only while `seats > 0`) and decrementing
    // `active`, both under the pool lock. `close` — reached on every path,
    // since the caller's own call of `body` is wrapped in `catch_unwind` —
    // zeroes `seats` and blocks until `active == 0` under that same lock
    // before this function returns. No helper can therefore touch `body`
    // after `region` returns, i.e. after the borrow it was created from
    // ends.
    let ptr = BodyPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
            body,
        )
    });
    let id = open(ptr, workers - 1);
    let mine = catch_unwind(AssertUnwindSafe(body));
    let theirs = close(id);
    if let Err(panic) = mine {
        resume_unwind(panic);
    }
    if let Some(panic) = theirs {
        resume_unwind(panic);
    }
}

/// Publish a region with `seats` helper seats and make sure enough helper
/// threads exist to fill the seats open right now.
fn open(body: BodyPtr, seats: usize) -> u64 {
    let mut pool = lock();
    let id = pool.next_id;
    pool.next_id += 1;
    pool.jobs.push(Job {
        id,
        body,
        seats,
        active: 0,
        panic: None,
    });
    let wanted: usize = pool.jobs.iter().map(|j| j.seats).sum();
    while pool.helpers < wanted {
        let spawned = std::thread::Builder::new()
            .name("hostexec-worker".into())
            .spawn(helper_main);
        if spawned.is_err() {
            break; // out of threads: the caller does the work itself
        }
        pool.helpers += 1;
    }
    drop(pool);
    if seats == 1 {
        WORK.notify_one();
    } else {
        WORK.notify_all();
    }
    id
}

/// Stop admitting helpers to region `id`, wait for those inside to leave,
/// and retire it. Returns the first helper panic, if any.
// INVARIANT: only this call removes region `id` from the list, and the
// lock a wait re-takes is never poisoned (see `lock`).
#[allow(clippy::expect_used)]
fn close(id: u64) -> Option<Panic> {
    let mut pool = lock();
    loop {
        let at = pool
            .jobs
            .iter()
            .position(|j| j.id == id)
            .expect("a region stays listed until its caller closes it");
        pool.jobs[at].seats = 0;
        if pool.jobs[at].active == 0 {
            return pool.jobs.swap_remove(at).panic;
        }
        pool = DONE.wait(pool).expect(NEVER_POISONED);
    }
}

/// A helper thread: take a seat in any open region, run its body, leave,
/// repeat; park when no region has a seat.
// INVARIANT: `close` keeps a region listed while a helper is inside it,
// and the lock a wait re-takes is never poisoned (see `lock`).
#[allow(clippy::expect_used)]
fn helper_main() {
    let mut pool = lock();
    loop {
        let Some(job) = pool.jobs.iter_mut().find(|j| j.seats > 0) else {
            pool = WORK.wait(pool).expect(NEVER_POISONED);
            continue;
        };
        job.seats -= 1;
        job.active += 1;
        let (id, body) = (job.id, job.body);
        drop(pool);
        // SAFETY: this thread holds a seat (`active` counts it), and
        // `close` does not let `region` return while `active > 0`, so the
        // closure behind `body` is alive for the whole call. See `region`.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*body.0)() }));
        pool = lock();
        let job = pool
            .jobs
            .iter_mut()
            .find(|j| j.id == id)
            .expect("a region outlives the helpers inside it");
        job.active -= 1;
        if let Err(panic) = outcome {
            job.panic.get_or_insert(panic);
        }
        if job.active == 0 {
            DONE.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Claim `0..n` from a shared counter, adding each claimed index to `sum`.
    fn claim_all(next: &AtomicUsize, n: usize, sum: &AtomicUsize) {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            sum.fetch_add(i, Ordering::Relaxed);
        }
    }

    #[test]
    fn region_runs_every_claim_exactly_once() {
        for workers in [1, 2, 3, 8] {
            let (next, sum) = (AtomicUsize::new(0), AtomicUsize::new(0));
            region(workers, &|| claim_all(&next, 1000, &sum));
            assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2, "{workers}");
        }
    }

    #[test]
    fn helpers_really_join_a_region() {
        // The body blocks until two threads are inside it at once, so the
        // region can only finish if a helper arrives.
        let barrier = Barrier::new(2);
        let entered = AtomicUsize::new(0);
        region(2, &|| {
            if entered.fetch_add(1, Ordering::SeqCst) < 2 {
                barrier.wait();
            }
        });
        assert_eq!(entered.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_callers_each_complete_their_own_region() {
        let callers = if cfg!(miri) { 3 } else { 6 };
        let start = Barrier::new(callers);
        std::thread::scope(|s| {
            for c in 0..callers {
                let start = &start;
                s.spawn(move || {
                    start.wait(); // all regions open at once
                    for round in 0..(if cfg!(miri) { 2 } else { 50 }) {
                        let n = 100 + c + round;
                        let (next, sum) = (AtomicUsize::new(0), AtomicUsize::new(0));
                        region(1 + c % 4, &|| claim_all(&next, n, &sum));
                        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_regions_complete() {
        let total = AtomicUsize::new(0);
        let outer_next = AtomicUsize::new(0);
        region(3, &|| loop {
            if outer_next.fetch_add(1, Ordering::Relaxed) >= 4 {
                break;
            }
            let (next, sum) = (AtomicUsize::new(0), AtomicUsize::new(0));
            region(2, &|| claim_all(&next, 10, &sum));
            total.fetch_add(sum.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 45);
    }

    #[test]
    fn a_panicking_body_propagates_and_the_pool_stays_usable() {
        // Caller-side panic.
        let caught = catch_unwind(|| region(2, &|| panic!("boom")));
        assert!(caught.is_err());
        // Helper-side panic: the second thread to enter panics, and the
        // barrier guarantees a second thread (a helper or the caller)
        // enters while the first is still inside.
        let caught = catch_unwind(|| {
            let barrier = Barrier::new(2);
            let entered = AtomicUsize::new(0);
            region(2, &|| {
                let nth = entered.fetch_add(1, Ordering::SeqCst);
                if nth < 2 {
                    barrier.wait();
                }
                if nth == 1 {
                    panic!("second thread in");
                }
            });
        });
        assert!(caught.is_err());
        // The pool still serves regions afterwards.
        let (next, sum) = (AtomicUsize::new(0), AtomicUsize::new(0));
        region(3, &|| claim_all(&next, 100, &sum));
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}
