//! Parallel execution of per-source sweeps.
//!
//! All-sources measurements (dilation, eccentricity, APSP) are
//! embarrassingly parallel over sources, and every caller in this
//! workspace reduces per-source partials **serially in source order** —
//! so parallel runs produce byte-identical output to serial runs.
//!
//! The build environment vendors no third-party crates, so the engine
//! is dependency-free: `std::thread::scope` over contiguous chunks of
//! an output slice. With one worker every function here is exactly the
//! serial loop, which is the oracle every parallel run is checked
//! against.
//!
//! The width is a runtime value only: callers that want workers pass
//! them through the `*_with_threads` constructors, and the default
//! constructors use [`threads`], which reads `WCDS_THREADS` and
//! otherwise stays serial.

/// Number of worker threads the default constructors use: the
/// `WCDS_THREADS` environment variable when it is set and parses to at
/// least 1, else 1.
pub fn threads() -> usize {
    threads_from(std::env::var("WCDS_THREADS").ok().as_deref())
}

/// The worker count a `WCDS_THREADS` value selects: the value trimmed
/// and parsed when it is at least 1, else 1 (unset, empty, zero,
/// negative and non-numeric values all mean serial).
fn threads_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok()).unwrap_or(1).max(1)
}

/// Fills `out[i] = f(state, i)` for every index, splitting the indices
/// into `nthreads` contiguous chunks.
///
/// `make_state` runs once per worker to build reusable per-worker state
/// (search scratch, buffers); `f` then runs for each index of that
/// worker's chunk, in order. With `nthreads <= 1` everything runs on
/// the calling thread — the degenerate case is exactly the serial loop,
/// so results never depend on the thread count.
pub fn map_indices_with<T, S>(
    nthreads: usize,
    out: &mut [T],
    make_state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) where
    T: Send,
    S: Send,
{
    let workers = if nthreads <= 1 || out.len() <= 1 { 1 } else { nthreads.min(out.len()) };
    let mut states: Vec<S> = (0..workers).map(|_| make_state()).collect();
    map_indices_in(&mut states, out, f);
}

/// [`map_indices_with`] over caller-owned per-worker state: the indices
/// are split into `states.len()` contiguous chunks (fewer when `out` is
/// shorter) and worker `c` runs on `states[c]`, so scratch buffers
/// survive from one call to the next. One state (or an `out` of at
/// most one element) runs everything on the calling thread; `states`
/// must not be empty unless `out` is.
pub fn map_indices_in<T, S>(states: &mut [S], out: &mut [T], f: impl Fn(&mut S, usize) -> T + Sync)
where
    T: Send,
    S: Send,
{
    let n = out.len();
    debug_assert!(n == 0 || !states.is_empty(), "no worker state for {n} indices");
    if states.len() <= 1 || n <= 1 {
        if let Some(state) = states.first_mut() {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(state, i);
            }
        }
        return;
    }
    let chunk = n.div_ceil(states.len().min(n));
    std::thread::scope(|scope| {
        for (c, (slots, state)) in out.chunks_mut(chunk).zip(states.iter_mut()).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = c * chunk;
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = f(state, base + j);
                }
            });
        }
    });
}

/// [`map_indices_with`] returning a fresh `Vec` of `n` results.
pub fn map_indices<T, S>(
    nthreads: usize,
    n: usize,
    make_state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    T: Send + Default + Clone,
    S: Send,
{
    let mut out = vec![T::default(); n];
    map_indices_with(nthreads, &mut out, make_state, f);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_for_every_thread_count() {
        let want: Vec<u64> = (0..97u64).map(|i| i * i + 7).collect();
        for nthreads in [1, 2, 3, 8, 97, 200] {
            let got = map_indices(nthreads, 97, || 7u64, |s, i| (i * i) as u64 + *s);
            assert_eq!(got, want, "nthreads {nthreads}");
        }
    }

    #[test]
    fn caller_owned_states_persist_across_calls() {
        // each state counts the indices it served; the counts survive
        // into the next call and cover every index of both calls
        let mut states = vec![0usize; 3];
        for _ in 0..2 {
            let mut out = vec![0usize; 10];
            map_indices_in(&mut states, &mut out, |calls, i| {
                *calls += 1;
                i * 2
            });
            assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert_eq!(states.iter().sum::<usize>(), 20);
        assert!(states.iter().all(|&c| c > 0), "every worker served a chunk: {states:?}");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(map_indices(4, 0, || (), |_, i| i), Vec::<usize>::new());
        assert_eq!(map_indices(4, 1, || (), |_, i| i), vec![0]);
    }

    #[test]
    fn per_worker_state_is_isolated() {
        // each worker's state counts its own calls; totals must cover
        // every index exactly once
        let marks = map_indices(3, 30, || 0usize, |calls, i| {
            *calls += 1;
            i
        });
        assert_eq!(marks, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn threads_from_parses_the_env_value() {
        assert_eq!(threads_from(None), 1);
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 2 ")), 2);
        assert_eq!(threads_from(Some("0")), 1);
        assert_eq!(threads_from(Some("abc")), 1);
        assert_eq!(threads_from(Some("-1")), 1);
        assert_eq!(threads_from(Some("")), 1);
    }
}
