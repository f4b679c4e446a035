//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crate registry, so the workspace vendors
//! the one piece of the rayon API it still uses: [`current_num_threads`],
//! the worker count a batch or scan defaults to. The workers themselves
//! are `std::thread::scope` threads that the batch pipeline starts
//! (`race_logic::striped`); this shim runs no pool and spawns no thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of threads available to parallel operations: the
/// `RAYON_NUM_THREADS` environment variable when set to a positive
/// integer (mirroring real rayon's global-pool override — read per
/// call, since this shim has no pool to pin), otherwise the hardware
/// parallelism.
#[must_use]
pub fn current_num_threads() -> usize {
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn current_num_threads_follows_the_override() {
        let set = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        match set {
            Some(n) => assert_eq!(super::current_num_threads(), n),
            None => assert!(super::current_num_threads() >= 1),
        }
    }
}
