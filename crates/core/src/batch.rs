//! Deterministic work-stealing parallelism for batch evaluation.
//!
//! The throughput story of the paper is *streams* of operands through
//! chained FMA datapaths; the software counterpart is evaluating many
//! independent input vectors at once. Two primitives cover that:
//!
//! * [`steal_indexed`] — the scheduler core. The index space `0..n` is
//!   split into one contiguous segment per worker; each worker claims
//!   grain-sized runs from the *front* of its own segment and, when it
//!   runs dry, steals half of the largest remaining segment from the
//!   *back*. Both operations are a single compare-and-swap on one
//!   `AtomicU64` per deque ([`IndexDeque`]), so every index is claimed
//!   **exactly once** no matter how claims and steals interleave.
//! * [`par_chunks_indexed`] — the batch-evaluator wrapper: splits an
//!   output buffer into fixed-size chunks **independently of the worker
//!   count** and runs one work item per chunk.
//!
//! Because an item's output is a pure function of its index (every model
//! in this workspace is a pure function of its inputs — see
//! `tests/determinism.rs` and `tests/scheduler.rs`) and every item is
//! claimed exactly once into a caller-owned slot addressed *by index*,
//! steal order cannot leak into output bytes: the result buffer is
//! byte-identical for 1, 2 or N workers; only the wall-clock changes.
//!
//! Workers come from a lazily-grown process-wide pool of parked threads
//! (the old implementation spawned fresh OS threads per call through
//! `std::thread::scope`; at ~10 k rows the spawn cost alone outweighed
//! the per-chunk work and made 8 threads *slower* than 1 — the
//! regression recorded in `results/BENCH_throughput.json` before this
//! scheduler landed).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Rows per scheduling chunk used by the batch evaluators. This is the
/// SoA register-plane width: the bit-plane kernel (DESIGN.md §13) runs
/// on exactly-full 64-row chunks, so the chunk size is fixed and the
/// scheduler adapts its *grain* (chunks per claim) instead.
pub const CHUNK_ROWS: usize = 64;

/// Hard cap on scheduler workers for one job (submitting thread
/// included). Also bounds the size of the process-wide worker pool.
pub const MAX_WORKERS: usize = 16;

/// Owner-side claims per worker the grain policy aims for. Chosen from
/// the chunk counts of the bench workloads: 10 k-row batches produce
/// 157 chunks, and 8 claims per worker keeps the tail imbalance under
/// one grain while the claim traffic stays noise.
const TARGET_CLAIMS_PER_WORKER: usize = 8;

/// Upper bound on the grain (work items per claim).
const MAX_GRAIN: usize = 64;

// ---------------------------------------------------------------------
// deque
// ---------------------------------------------------------------------

/// A contiguous range of unclaimed work-item indices, packed as
/// `(next, end)` — two `u32` halves of a single `AtomicU64`.
///
/// The owner claims from the front ([`IndexDeque::pop_front`]), thieves
/// claim from the back ([`IndexDeque::steal_back`]); both retire their
/// range with one compare-and-swap on the same word, so the two ends can
/// race freely and still hand out disjoint ranges. This is the
/// Chase–Lev shape collapsed to an index interval: the "buffer" is the
/// identity map, so no circular array and no epoch bookkeeping.
#[derive(Debug)]
pub struct IndexDeque(AtomicU64);

#[inline]
fn pack(next: u32, end: u32) -> u64 {
    ((next as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl IndexDeque {
    /// A deque covering `start..end` (both must fit in `u32`; batch
    /// sizes are row counts, far below 2^32 chunks).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end && end <= u32::MAX as usize);
        IndexDeque(AtomicU64::new(pack(start as u32, end as u32)))
    }

    /// Unclaimed items left in this deque (a racy snapshot).
    pub fn remaining(&self) -> usize {
        let (next, end) = unpack(self.0.load(Ordering::Acquire));
        (end - next) as usize
    }

    /// Owner path: claim up to `grain` items from the front. Returns the
    /// claimed `(start, len)` range, or `None` if the deque is empty.
    pub fn pop_front(&self, grain: usize) -> Option<(usize, usize)> {
        let grain = grain.max(1) as u32;
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            let take = grain.min(end - next);
            match self.0.compare_exchange_weak(
                cur,
                pack(next + take, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((next as usize, take as usize)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief path: claim half of the remaining items (rounded up) from
    /// the back. Returns the stolen `(start, len)` range, or `None` if
    /// the deque is empty (possibly because a racing claim emptied it).
    pub fn steal_back(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            let take = (end - next).div_ceil(2);
            match self.0.compare_exchange_weak(
                cur,
                pack(next, end - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(((end - take) as usize, take as usize)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Replace the deque's range wholesale. Only the *owner* of an
    /// **empty** deque may call this (it installs a freshly stolen range
    /// so other thieves can steal from it in turn); thieves racing with
    /// the store retry their compare-and-swap against the new value.
    fn install(&self, start: usize, end: usize) {
        debug_assert_eq!(self.remaining(), 0);
        self.0
            .store(pack(start as u32, end as u32), Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// grain policy
// ---------------------------------------------------------------------

/// Work items per owner-side claim for a job of `n_items` over
/// `workers` workers.
///
/// Policy (DESIGN.md §14): aim for `TARGET_CLAIMS_PER_WORKER` (8) claims
/// per worker so the tail imbalance after steals is bounded by one
/// grain, clamp to `1..=MAX_GRAIN` (64). Small batches therefore get a
/// grain of 1 — every chunk individually claimable — while the worker
/// count itself is clamped to the item count, so no worker starves on a
/// segment that was empty from the start. The policy is a pure function
/// of `(n_items, workers)`: it cannot observe timing, so it cannot
/// perturb output bytes.
pub fn adaptive_grain(n_items: usize, workers: usize) -> usize {
    if workers <= 1 {
        return n_items.max(1);
    }
    (n_items / (workers * TARGET_CLAIMS_PER_WORKER)).clamp(1, MAX_GRAIN)
}

/// What one scheduler invocation did: worker/grain decisions and
/// claim/steal traffic. Returned by [`steal_indexed`] and
/// [`par_chunks_indexed`] for that invocation alone; nothing is
/// tallied process-wide, so concurrent jobs never see each other's
/// traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Work items in the job.
    pub items: u64,
    /// Workers that participated (1 = ran inline on the caller).
    pub workers: u64,
    /// Items per owner-side claim ([`adaptive_grain`]).
    pub grain: u64,
    /// Owner-side front claims across all workers.
    pub claims: u64,
    /// Successful back-of-deque steals.
    pub steals: u64,
    /// Steal attempts that lost the race to a concurrent claim
    /// (starvation pressure: nonzero means workers contended for the
    /// same shrinking segment).
    pub steal_misses: u64,
}

// ---------------------------------------------------------------------
// scheduler core
// ---------------------------------------------------------------------

std::thread_local! {
    /// Set while this thread executes scheduler work items. A nested
    /// [`steal_indexed`] from inside a work item would deadlock the
    /// pool (the inner submitter would wait for the job slot its own
    /// job occupies), so nested calls degrade to inline execution.
    static IN_SCHED_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Invoke `f(state, i)` exactly once for every `i in 0..n_items`, using
/// up to `threads` workers with work stealing. `init` builds one scratch
/// state per participating worker, so `f` can reuse allocations across
/// items; states are dropped when their worker finishes (a pooling
/// `init`/`Drop` pair recycles allocations across jobs).
///
/// Items are claimed exactly once (single-CAS deque, see
/// [`IndexDeque`]), so with a pure `f` that writes only the slot(s)
/// addressed by `i`, the filled output is bitwise independent of the
/// worker count and of steal timing. With `threads <= 1`, or when the
/// grain policy decides one worker suffices, everything runs on the
/// calling thread in index order.
///
/// A panic inside `f` on any worker is propagated to the caller after
/// the remaining workers drain.
pub fn steal_indexed<S>(
    n_items: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) + Sync,
) -> SchedStats {
    let nested = IN_SCHED_JOB.with(|c| c.get());
    let mut workers = threads.clamp(1, MAX_WORKERS).min(n_items);
    if nested {
        workers = 1;
    }
    let grain = adaptive_grain(n_items, workers);
    // never field more workers than there are grain-sized claims
    workers = workers.min(n_items.div_ceil(grain.max(1))).max(1);

    let mut stats = SchedStats {
        items: n_items as u64,
        workers: workers as u64,
        grain: grain as u64,
        ..SchedStats::default()
    };

    if workers <= 1 {
        let mut state = init();
        for i in 0..n_items {
            f(&mut state, i);
        }
        stats.claims = u64::from(n_items > 0);
        return stats;
    }

    // one contiguous segment of the index space per worker
    let deques: Vec<IndexDeque> = (0..workers)
        .map(|w| IndexDeque::new(w * n_items / workers, (w + 1) * n_items / workers))
        .collect();
    let claims = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let misses = AtomicU64::new(0);

    // debug builds verify the exactly-once contract directly
    #[cfg(debug_assertions)]
    let claimed: Vec<AtomicU64> = (0..n_items).map(|_| AtomicU64::new(0)).collect();

    let worker = |slot: usize| {
        IN_SCHED_JOB.with(|c| c.set(true));
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                IN_SCHED_JOB.with(|c| c.set(false));
            }
        }
        let _reset = Reset;

        let mut state = init();
        let run = |state: &mut S, start: usize, len: usize| {
            // index-driven by contract: `f` receives the item index, and
            // the debug bitmap is indexed by the same `i`
            #[allow(clippy::needless_range_loop)]
            for i in start..start + len {
                #[cfg(debug_assertions)]
                assert_eq!(
                    claimed[i].fetch_add(1, Ordering::Relaxed),
                    0,
                    "work item {i} claimed twice"
                );
                f(state, i);
            }
        };
        loop {
            // owner path: drain the front of our own deque
            if let Some((start, len)) = deques[slot].pop_front(grain) {
                claims.fetch_add(1, Ordering::Relaxed);
                run(&mut state, start, len);
                continue;
            }
            // thief path: hit the victim with the most unclaimed work
            let victim = deques
                .iter()
                .enumerate()
                .filter(|&(v, _)| v != slot)
                .map(|(_, d)| (d.remaining(), d))
                .max_by_key(|&(rem, _)| rem);
            match victim {
                Some((rem, d)) if rem > 0 => match d.steal_back() {
                    Some((start, len)) => {
                        steals.fetch_add(1, Ordering::Relaxed);
                        if len <= grain {
                            run(&mut state, start, len);
                        } else {
                            // big haul: park it in our own (empty) deque
                            // so other thieves can re-steal from us
                            deques[slot].install(start, start + len);
                        }
                    }
                    // lost the race to a concurrent claim — rescan
                    None => {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                },
                // every deque empty: all items claimed, we're done
                _ => break,
            }
        }
    };

    run_on_pool(workers, &worker);

    #[cfg(debug_assertions)]
    for (i, c) in claimed.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "work item {i} never claimed");
    }

    stats.claims = claims.load(Ordering::Relaxed);
    stats.steals = steals.load(Ordering::Relaxed);
    stats.steal_misses = misses.load(Ordering::Relaxed);
    stats
}

/// Split `out` into chunks of `chunk_len` elements and invoke
/// `f(state, chunk_index, chunk)` exactly once per chunk, using up to
/// `threads` workers with work stealing (see [`steal_indexed`]).
/// `init` builds one scratch state per worker (register files, RNGs, …),
/// so `f` can reuse allocations across chunks.
///
/// Chunk boundaries depend only on `chunk_len`, never on `threads` or on
/// steal timing, and each chunk is written by exactly one worker; with a
/// pure `f` the filled buffer is bitwise independent of the worker count.
/// With `threads <= 1` everything runs on the calling thread in index
/// order.
pub fn par_chunks_indexed<O, S>(
    out: &mut [O],
    chunk_len: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [O]) + Sync,
) -> SchedStats
where
    O: Send,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let total = out.len();
    let n_chunks = total.div_ceil(chunk_len);
    let base = out.as_mut_ptr() as usize;
    steal_indexed(n_chunks, threads, init, move |state, idx| {
        let start = idx * chunk_len;
        let len = chunk_len.min(total - start);
        // SAFETY: `steal_indexed` invokes each index exactly once across
        // all workers (single-CAS claim, asserted in debug builds), and
        // chunks at distinct indices are disjoint subslices of `out`,
        // which outlives the call. So every element is aliased by at
        // most one live `&mut` at a time.
        let chunk = unsafe { std::slice::from_raw_parts_mut((base as *mut O).add(start), len) };
        f(state, idx, chunk);
    })
}

// ---------------------------------------------------------------------
// worker pool
// ---------------------------------------------------------------------

/// Jobs hand workers a lifetime-erased task reference; the submitter
/// does not return until every worker that observed the reference has
/// finished with it, which is what makes the erasure sound.
type Task = &'static (dyn Fn(usize) + Sync);

struct JobState {
    task: Task,
    /// Pool-worker slots this job still accepts (submitter is slot 0).
    extra: usize,
    started: usize,
    finished: usize,
    accepting: bool,
    /// First panic payload from a pool worker, re-raised by the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolState {
    spawned: usize,
    job: Option<JobState>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is installed (workers wait here).
    work: Condvar,
    /// Signalled when a worker finishes a slot or a job completes
    /// (submitters wait here).
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            spawned: 0,
            job: None,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

fn spawn_pool_worker(id: usize) {
    std::thread::Builder::new()
        .name(format!("csfma-sched-{id}"))
        .spawn(|| {
            let p = pool();
            let mut st = p.state.lock().unwrap();
            loop {
                let grabbed = match st.job.as_mut() {
                    Some(j) if j.accepting && j.started < j.extra => {
                        j.started += 1;
                        Some((j.task, j.started)) // slots 1..=extra
                    }
                    _ => None,
                };
                match grabbed {
                    Some((task, slot)) => {
                        drop(st);
                        let result = panic::catch_unwind(AssertUnwindSafe(|| task(slot)));
                        st = p.state.lock().unwrap();
                        let j = st.job.as_mut().expect("job vanished under live worker");
                        j.finished += 1;
                        if let Err(payload) = result {
                            j.panic.get_or_insert(payload);
                        }
                        p.done.notify_all();
                    }
                    None => st = p.work.wait(st).unwrap(),
                }
            }
        })
        .expect("failed to spawn scheduler pool worker");
}

/// Run `task(slot)` on `workers` workers: the calling thread takes slot
/// 0, parked pool threads take slots `1..workers`. Returns after every
/// participating worker has returned; panics (from any worker) are
/// re-raised on the caller.
fn run_on_pool(workers: usize, task: &(dyn Fn(usize) + Sync)) {
    debug_assert!((2..=MAX_WORKERS).contains(&workers));
    let p = pool();
    let extra = workers - 1;
    // SAFETY: we wait below until `finished == started` with `accepting`
    // cleared before dropping the job, so no pool worker can hold this
    // reference after `run_on_pool` returns.
    let task_static: Task = unsafe { std::mem::transmute(task) };
    {
        let mut st = p.state.lock().unwrap();
        // one job at a time: later submitters queue here
        while st.job.is_some() {
            st = p.done.wait(st).unwrap();
        }
        while st.spawned < extra {
            spawn_pool_worker(st.spawned);
            st.spawned += 1;
        }
        st.job = Some(JobState {
            task: task_static,
            extra,
            started: 0,
            finished: 0,
            accepting: true,
            panic: None,
        });
    }
    p.work.notify_all();

    // participate as slot 0
    let own = panic::catch_unwind(AssertUnwindSafe(|| task(0)));

    // close enrolment and wait for helpers to drain
    let mut st = p.state.lock().unwrap();
    st.job.as_mut().unwrap().accepting = false;
    loop {
        let j = st.job.as_ref().unwrap();
        if j.finished == j.started {
            break;
        }
        st = p.done.wait(st).unwrap();
    }
    let worker_panic = st.job.take().unwrap().panic;
    drop(st);
    p.done.notify_all(); // wake queued submitters

    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunk_layout_is_thread_independent() {
        let fill = |threads: usize| {
            let mut out = vec![0u64; 1000];
            par_chunks_indexed(
                &mut out,
                7,
                threads,
                || 0u64,
                |_, idx, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (idx as u64) << 32 | k as u64;
                    }
                },
            );
            out
        };
        let one = fill(1);
        assert_eq!(one, fill(2));
        assert_eq!(one, fill(8));
        // and the layout is the chunks_mut layout
        assert_eq!(one[0], 0);
        assert_eq!(one[7], 1 << 32);
        assert_eq!(one[999], (142u64 << 32) | 5);
    }

    #[test]
    fn single_chunk_batches_run_inline() {
        let mut out = vec![0u8; 3];
        let stats = par_chunks_indexed(&mut out, 64, 8, || (), |_, i, c| c.fill(i as u8 + 1));
        assert_eq!(out, vec![1, 1, 1]);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn steal_indexed_claims_every_index_exactly_once() {
        for &(n, threads) in &[(0usize, 8usize), (1, 8), (5, 2), (129, 4), (1000, 8)] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let stats = steal_indexed(
                n,
                threads,
                || (),
                |_, i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} at n={n}");
            }
            assert!(stats.workers >= 1 && stats.workers <= threads.max(1) as u64);
        }
    }

    #[test]
    fn deque_pop_and_steal_partition_the_range() {
        let d = IndexDeque::new(0, 100);
        let mut got = vec![0u32; 100];
        while let Some((s, l)) = d.pop_front(3) {
            for g in &mut got[s..s + l] {
                *g += 1;
            }
            if let Some((s, l)) = d.steal_back() {
                for g in &mut got[s..s + l] {
                    *g += 1;
                }
            }
        }
        assert!(got.iter().all(|&g| g == 1));
    }

    #[test]
    fn grain_policy_is_pure_and_bounded() {
        assert_eq!(adaptive_grain(157, 1), 157);
        assert_eq!(adaptive_grain(2, 8), 1);
        assert!(adaptive_grain(1_000_000, 8) <= MAX_GRAIN);
        for n in 0..200 {
            for w in 1..=16 {
                let g = adaptive_grain(n, w);
                assert_eq!(g, adaptive_grain(n, w));
                assert!(g >= 1);
            }
        }
    }

    #[test]
    fn worker_panic_propagates_after_drain() {
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            steal_indexed(
                64,
                4,
                || (),
                |_, i| {
                    if i == 37 {
                        panic!("boom at {i}");
                    }
                },
            );
        }));
        assert!(r.is_err());
        // the pool must still be usable afterwards
        let n = AtomicU64::new(0);
        steal_indexed(
            100,
            4,
            || (),
            |_, _| {
                n.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(n.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_jobs_degrade_to_inline() {
        let outer = AtomicU64::new(0);
        let stats = steal_indexed(
            8,
            4,
            || (),
            |_, _| {
                let inner = steal_indexed(16, 4, || (), |_, _| {});
                assert_eq!(inner.workers, 1);
                outer.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(outer.load(Ordering::Relaxed), 8);
        assert!(stats.workers >= 1);
    }
}
