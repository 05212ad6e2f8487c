//! # perfbench — a deterministic virtual-time benchmark
//!
//! Four workloads measure the strongly atomic STM from outside, through the
//! libraries' public API only. Three (`jbb`, `barrier`, `overload`) run
//! closed-loop clients on the simulated multiprocessor, whose virtual
//! cycles repeat exactly for a seed; the fourth (`tmir`) compiles a TMIR
//! program and prices its bytecode-VM runs with the same cycle table. See
//! `README.md` in this directory for the workloads, units and metrics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod bench;
pub mod jbb;
pub mod overload;
pub mod pct;
pub mod sim;
pub mod tee;
pub mod tmir;

use stm_core::config::{ClockMode, Granularity, IsolationLevel, StmConfig};

/// The STM configuration every workload starts from: the defaults, with
/// every setting an environment variable could change pinned, so a run
/// depends on its seed alone.
pub fn pinned_config(dea: bool) -> StmConfig {
    StmConfig {
        dea,
        granularity: Granularity::PerObject,
        isolation: IsolationLevel::StrongAtomicity,
        multiversion: false,
        clock: ClockMode::Global,
        ..StmConfig::default()
    }
}

/// splitmix64: the input generator. One stream per (seed, purpose).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}
