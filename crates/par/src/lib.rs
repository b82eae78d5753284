#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Std-only deterministic fork-join parallelism for the 3D-Flow workspace.
//!
//! The build environment has no registry access, so this crate provides
//! the minimal worker-pool primitive the legalizer needs on top of
//! [`std::thread::scope`] alone: an indexed parallel map whose output is
//! a pure function of the input — **independent of the thread count and
//! of how the scheduler interleaves the workers**.
//!
//! # Determinism contract
//!
//! [`par_map`] (and [`par_map_with`]) evaluate `f(i)` for every index
//! `i in 0..len` and return the results **in index order**. Work is
//! distributed dynamically (an atomic claim counter, so an unlucky slow
//! item does not stall a statically-chunked neighbour), but since each
//! item's result depends only on its index, the assembled output vector
//! is identical for 1, 2, or 64 threads. Callers that need a
//! deterministic *reduction* over the results apply it to the returned
//! vector in index order — see `flow3d_core::driver::flow_pass`
//! for the canonical example.
//!
//! # Thread-count resolution
//!
//! [`resolve_threads`] turns a configuration knob into a concrete pool
//! size: an explicit positive value wins, otherwise the `FLOW3D_THREADS`
//! environment variable, otherwise [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable consulted by [`resolve_threads`] when no
/// explicit thread count is configured.
const THREADS_ENV: &str = "FLOW3D_THREADS";

/// Number of hardware threads, with a fallback of 1 when the platform
/// cannot report it.
// flow3d-tidy: allow(dead-pub) — worker-pool tuning surface (flow3d::par) for embedders
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a requested worker count to a concrete pool size.
///
/// * `requested > 0` — taken verbatim (an explicit `--threads`/config
///   value overrides everything).
/// * `requested == 0` — the `FLOW3D_THREADS` environment variable if it
///   parses to a positive integer, else [`available`].
///
/// The result is always at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available()
}

/// Maps `f` over `0..len` on up to `threads` scoped workers and returns
/// the results in index order (see the crate docs for the determinism
/// contract).
///
/// `threads <= 1`, `len <= 1`, or a single effective worker all take the
/// inline path — no thread is spawned, so cheap call sites pay nothing.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once the scope joins.
pub fn par_map<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (results, _) = par_map_with(threads, len, || (), |(), i| f(i));
    results
}

/// [`par_map`] with worker-local scratch state: every worker calls
/// `init()` once and threads the value through all the items it claims
/// (epoch-reset search scratch, per-worker profiles, …).
///
/// Returns `(results, worker_states)`. `results[i] == f(_, i)` in index
/// order, exactly as [`par_map`]. `worker_states` holds one entry per
/// worker that ran, in worker order; **which items each worker processed
/// is scheduling-dependent**, so only order-insensitive aggregates of
/// the states (counter sums, merged profiles) are deterministic.
///
/// # Panics
///
/// A panic inside `init` or `f` propagates to the caller once the scope
/// joins.
pub fn par_map_with<S, T, FI, F>(threads: usize, len: usize, init: FI, f: F) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut pool: Vec<()> = Vec::new();
    par_map_with_pool(
        threads,
        len,
        &mut pool,
        || (),
        init,
        |(), state, i| f(state, i),
    )
}

/// [`par_map_with`] with an additional caller-owned **pool** of worker
/// resources that persists across calls.
///
/// Each worker borrows one `&mut P` slot from `pool` for the duration of
/// the call (the pool is grown with `mk_pool` up to the effective worker
/// count first), while `init()` still produces a fresh per-call state
/// `S`. This splits worker-local data by lifetime: amortized scratch
/// that should keep its allocations across many calls (search arenas,
/// heaps, candidate buffers) goes in the pool; data that must start fresh
/// every call (per-round worker profiles, which would otherwise be
/// merged twice) stays in `S`.
///
/// Which pool slot serves which items is scheduling-dependent, so pooled
/// resources must never influence results — only carry reusable
/// capacity. The determinism contract on the returned `(results,
/// worker_states)` is exactly [`par_map_with`]'s.
///
/// # Panics
///
/// A panic inside `init` or `f` propagates to the caller once the scope
/// joins.
pub fn par_map_with_pool<P, S, T, FP, FI, F>(
    threads: usize,
    len: usize,
    pool: &mut Vec<P>,
    mk_pool: FP,
    init: FI,
    f: F,
) -> (Vec<T>, Vec<S>)
where
    P: Send,
    S: Send,
    T: Send,
    FP: Fn() -> P,
    FI: Fn() -> S + Sync,
    F: Fn(&mut P, &mut S, usize) -> T + Sync,
{
    let workers = threads.max(1).min(len);
    while pool.len() < workers.max(1) {
        pool.push(mk_pool());
    }
    if workers <= 1 {
        let mut state = init();
        let slot = &mut pool[0];
        let results = (0..len).map(|i| f(slot, &mut state, i)).collect();
        return (results, vec![state]);
    }

    let next = AtomicUsize::new(0);
    let next_ref = &next;
    let f_ref = &f;
    let init_ref = &init;
    let mut collected: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    let mut states: Vec<S> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .iter_mut()
            .take(workers)
            .map(|slot| {
                scope.spawn(move || {
                    let mut state = init_ref();
                    let mut out = Vec::new();
                    loop {
                        let i = next_ref.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        out.push((i, f_ref(slot, &mut state, i)));
                    }
                    (out, state)
                })
            })
            .collect();
        for h in handles {
            // join() only errs if the worker panicked; resume the panic
            // on the caller's thread.
            match h.join() {
                Ok((out, state)) => {
                    collected.push(out);
                    states.push(state);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Reassemble in index order: scheduling decided who computed what,
    // the indices decide where it goes.
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for out in collected {
        for (i, v) in out {
            slots[i] = Some(v);
        }
    }
    let results = slots
        .into_iter()
        // flow3d-tidy: allow(panic-unwrap) — invariant: workers claim disjoint index sets that cover 0..len
        .map(|s| s.expect("every index claimed exactly once"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8, 33] {
            let out = par_map(threads, 100, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_and_tiny_lengths() {
        assert!(par_map(8, 0, |i| i).is_empty());
        assert_eq!(par_map(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map(64, 3, |i| format!("x{i}"));
        assert_eq!(out, ["x0", "x1", "x2"]);
    }

    #[test]
    fn worker_states_cover_all_items() {
        // Each worker counts the items it claimed; the total must be the
        // input length regardless of how the claims were distributed.
        for threads in [1, 4] {
            let (out, states) = par_map_with(
                threads,
                57,
                || 0usize,
                |count, i| {
                    *count += 1;
                    i
                },
            );
            assert_eq!(out.len(), 57);
            assert_eq!(states.iter().sum::<usize>(), 57);
            assert!(states.len() <= threads.max(1));
        }
    }

    #[test]
    fn parallel_equals_serial_for_stateful_pure_work() {
        let work = |_: &mut (), i: usize| (0..i).fold(0u64, |a, b| a.wrapping_add(b as u64 * 7));
        let (serial, _) = par_map_with(1, 200, || (), work);
        let (parallel, _) = par_map_with(7, 200, || (), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn explicit_request_wins_resolution() {
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn env_override_is_consulted() {
        // This is the only test in the binary that mutates the variable,
        // and resolve_threads(0) is not called concurrently elsewhere.
        let saved = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(resolve_threads(0), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(resolve_threads(0) >= 1); // falls back to hardware count
        std::env::set_var(THREADS_ENV, "7");
        assert_eq!(resolve_threads(4), 4); // explicit beats env
        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn pool_persists_and_grows_across_calls() {
        let mut pool: Vec<Vec<usize>> = Vec::new();
        // Serial call seeds exactly one slot and reuses it per item.
        let (out, states) = par_map_with_pool(
            1,
            3,
            &mut pool,
            Vec::new,
            || (),
            |p, (), i| {
                p.push(i);
                p.len()
            },
        );
        assert_eq!(pool.len(), 1);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(states.len(), 1);
        // A wider call grows the pool to the worker count but keeps the
        // capacity (here: contents) accumulated by the existing slot.
        par_map_with_pool(4, 8, &mut pool, Vec::new, || (), |p, (), i| p.push(i));
        assert_eq!(pool.len(), 4);
        let total: usize = pool.iter().map(Vec::len).sum();
        assert_eq!(total, 3 + 8, "old slot contents survive, 8 new claims");
    }

    #[test]
    fn pool_zero_length_matches_par_map_with() {
        let mut pool: Vec<u32> = Vec::new();
        let (out, states) = par_map_with_pool(8, 0, &mut pool, || 0, || 41, |_, s, i| *s + i);
        assert!(out.is_empty());
        assert_eq!(states, vec![41], "len==0 still yields one init() state");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn pooled_results_match_unpooled_for_pure_work() {
        let work = |i: usize| (0..i).fold(1u64, |a, b| a.wrapping_mul(b as u64 | 1));
        let (plain, _) = par_map_with(6, 150, || (), |(), i| work(i));
        let mut pool: Vec<[u64; 4]> = Vec::new();
        let (pooled, _) =
            par_map_with_pool(6, 150, &mut pool, || [0u64; 4], || (), |_, (), i| work(i));
        assert_eq!(plain, pooled);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        par_map(4, 16, |i| {
            if i == 9 {
                panic!("worker boom");
            }
            i
        });
    }
}
