//! Opt-in parallel execution of per-source sweeps (`rayon` feature).
//!
//! All-sources measurements (dilation, eccentricity, APSP) are
//! embarrassingly parallel over sources, and every caller in this
//! workspace reduces per-source partials **serially in source order** —
//! so parallel runs produce byte-identical output to serial runs.
//!
//! The build environment vendors no third-party crates, so the engine
//! is dependency-free: `std::thread::scope` over contiguous chunks of
//! an output slice. The cargo feature keeps the crate's historical
//! `rayon` name (and CLI `--features rayon` spelling) even though no
//! external crate backs it; without the feature every function here
//! degrades to the serial loop.
//!
//! Worker count comes from [`threads`]: the `WCDS_THREADS` environment
//! variable when set, else [`std::thread::available_parallelism`].

/// Number of worker threads the parallel engine will use.
///
/// With the `rayon` feature off this is always 1. With it on, the
/// `WCDS_THREADS` environment variable overrides (values `< 1` are
/// clamped to 1), falling back to the machine's available parallelism.
pub fn threads() -> usize {
    #[cfg(not(feature = "rayon"))]
    {
        1
    }
    #[cfg(feature = "rayon")]
    {
        match std::env::var("WCDS_THREADS") {
            Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
            Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
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

    #[cfg(not(feature = "rayon"))]
    #[test]
    fn threads_is_one_without_the_feature() {
        assert_eq!(threads(), 1);
    }

    #[cfg(feature = "rayon")]
    #[test]
    fn threads_honors_env_override() {
        // NB: set_var is fine here; tests in this module run in one process
        // and this is the only test reading the variable with the feature on.
        std::env::set_var("WCDS_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("WCDS_THREADS", "0");
        assert_eq!(threads(), 1);
        std::env::remove_var("WCDS_THREADS");
        assert!(threads() >= 1);
    }
}
