//! Benchmark harness reproducing every table and figure of
//! *"Tiled QR factorization algorithms"*.
//!
//! The crate is organised around one module per kind of result:
//!
//! * [`report`] — plain-text table formatting shared by all binaries;
//! * [`timing`] — wall-clock measurement of individual kernels (in and out
//!   of cache, Figures 4–5), of the sequential kernel speed `γ_seq`, and of
//!   complete factorizations (Tables 6–9, Figures 1, 6);
//! * [`model`] — the model-exact results: coarse-grain time-steps
//!   (Table 2), tiled time-steps (Tables 3–4), critical paths and overheads
//!   (Table 5, Figures 2–3, 7–8 "theoretical" series) and the roofline
//!   predictions (Figures 1, 6 "predicted" series);
//! * [`experiments`] — the experiment entry points used by the
//!   `table*`/`figure*` binaries, each returning a ready-to-print report.
//!
//! Every binary accepts its problem sizes from environment variables so the
//! paper-scale runs (`p = 40`, `nb = 200`) can be requested explicitly while
//! the defaults stay laptop-friendly; each binary is named after the paper
//! table or figure it reproduces.
//!
//! Beside the binaries, the crate holds three microbenches built on
//! [`microbench`]: `bench_kernels` (the six tile kernels, written to
//! `BENCH_kernels.json`), `bench_trees` (the elimination-list generators)
//! and `bench_cp_simulation` (the critical-path simulator). Everything
//! above the kernels — executor, context, service — is timed by the
//! workspace's `benchmark/` package alone. `BENCH_executor.json`,
//! `BENCH_factorization.json`, `BENCH_context.json` and
//! `BENCH_service.json` at the repository root are frozen history: the
//! last output of the runtime benches this crate used to hold, written by
//! nothing now.

#![warn(missing_docs)]

pub mod experiments;
pub mod microbench;
pub mod model;
pub mod report;
pub mod timing;

/// Scenario sizes shared by the experimental (wall-clock) binaries.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Number of tile rows (the paper uses 40).
    pub p: usize,
    /// Tile size in scalars (the paper uses 200).
    pub nb: usize,
    /// Number of worker threads (the paper's machine has 48 cores).
    pub threads: usize,
}

impl Scenario {
    /// Reads the scenario from the environment (`TILEQR_P`, `TILEQR_NB`,
    /// `TILEQR_THREADS`), falling back to laptop-friendly defaults.
    pub fn from_env() -> Self {
        let p = std::env::var("TILEQR_P")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        let nb = std::env::var("TILEQR_NB")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32);
        let threads = std::env::var("TILEQR_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            });
        Scenario { p, nb, threads }
    }

    /// The paper's experimental sizes (`p = 40`, `nb = 200`, 48 threads).
    /// Only practical on a large machine; exposed for completeness.
    pub fn paper_scale() -> Self {
        Scenario {
            p: 40,
            nb: 200,
            threads: 48,
        }
    }

    /// The list of `q` values (tile columns) exercised by the wall-clock
    /// experiments, mirroring the paper's `q ∈ {1, 2, 4, 5, 10, 20, 40}`
    /// scaled to the configured `p`.
    pub fn q_values(&self) -> Vec<usize> {
        [1usize, 2, 4, 5, 10, 20, 40]
            .iter()
            .map(|&q| q.min(self.p))
            .filter(|&q| q >= 1)
            .collect::<Vec<_>>()
            .into_iter()
            .fold(Vec::new(), |mut acc, q| {
                if acc.last() != Some(&q) {
                    acc.push(q);
                }
                acc
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_q_values_are_deduplicated_and_capped() {
        let s = Scenario {
            p: 8,
            nb: 16,
            threads: 2,
        };
        assert_eq!(s.q_values(), vec![1, 2, 4, 5, 8]);
        let s = Scenario {
            p: 40,
            nb: 16,
            threads: 2,
        };
        assert_eq!(s.q_values(), vec![1, 2, 4, 5, 10, 20, 40]);
    }

    #[test]
    fn paper_scale_matches_the_paper() {
        let s = Scenario::paper_scale();
        assert_eq!((s.p, s.nb, s.threads), (40, 200, 48));
    }
}
