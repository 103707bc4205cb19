//! Quantum circuit simulators.
//!
//! Substrates S3 and S4 of the dynamic-assertion reproduction (see the
//! workspace `DESIGN.md`): the QUIRK-equivalent ideal simulator the paper
//! uses for Figures 6–7, and the `ibmqx4`-equivalent noisy execution used
//! for Tables 1–2.
//!
//! * [`StateVector`] — pure states with gate application, measurement
//!   collapse, and QUIRK-style post-selection,
//! * [`DensityMatrix`] — mixed states with Kraus channels, projection,
//!   partial trace,
//! * [`Counts`] — outcome histograms with the post-selection filtering
//!   ([`Counts::filter_bit`]) at the heart of the paper's NISQ use case,
//! * [`compile`] / [`program`] — the compile-once execution layer:
//!   circuits lower to a [`CompiledProgram`] (matrices pre-materialized,
//!   adjacent single-qubit gates fused, noise channels pre-bound, the
//!   statevector fast path decided up front) that the per-shot hot loops
//!   execute,
//! * [`batch`] / [`kernel`] — the batched execution layer: a compile-time
//!   planner groups contiguous runs of disjoint 1q/controlled-1q ops
//!   (the wide layers assertion instrumentation produces) into
//!   [`PlanNode::BatchedApply`] nodes, and cache-blocked SoA kernels
//!   execute each group in one pass over the amplitude array —
//!   bit-identical to per-op application,
//! * [`cache`] — the keyed [`ProgramCache`] (circuit structural hash ×
//!   noise-model fingerprint × compile options) that makes repeated
//!   sweep analyses compile-free, with hit/miss/eviction counters,
//! * [`pool`] — the persistent work-stealing [`ShardPool`] that executes
//!   shot shards; thousands of small `run_compiled` calls amortize
//!   thread-spawn cost to ~zero,
//! * [`simd`] — explicit-width vector implementations of the amplitude
//!   run primitives with runtime CPU-feature dispatch (AVX2 / NEON /
//!   scalar, `QSIM_SIMD` override), bit-identical across backends by a
//!   strict no-FMA, same-association contract,
//! * [`stabilizer`] — the bit-packed Aaronson–Gottesman tableau
//!   executor: Clifford-only programs (eligibility decided at compile
//!   time, carried on the [`CompiledProgram`]) run in `O(n²)` memory,
//!   reaching thousands of qubits where amplitude backends stop near 30,
//! * [`hybrid`] — Clifford routing: the maximal Clifford prefix
//!   (recorded at compile time) runs per shot on the tableau, the live
//!   state is materialized as amplitudes at the first non-Clifford
//!   island, and the separately compiled suffix finishes the shot on
//!   the amplitude executor,
//! * [`Backend`] implementations: [`StatevectorBackend`] (ideal),
//!   [`TrajectoryBackend`] (Monte-Carlo noisy, multi-threaded),
//!   [`DensityMatrixBackend`] (exact noisy with measurement branching),
//!   [`StabilizerBackend`] (Clifford tableau), and [`HybridBackend`]
//!   (tableau prefix + amplitude suffix) — all consuming
//!   [`CompiledProgram`] through a shared deterministic shot-sharding
//!   harness ([`run_compiled_sharded`]).
//!
//! # Bit conventions
//!
//! Qubit `i` is bit `i` (LSB) of a basis-state index; classical bit `i`
//! is bit `i` of a [`Counts`] key. Strings render MSB-first.
//!
//! # Example
//!
//! ```
//! use qsim::{Backend, DensityMatrixBackend};
//! use qcircuit::library;
//! use qnoise::presets;
//!
//! # fn main() -> Result<(), qsim::SimError> {
//! let mut bell = library::bell();
//! bell.measure_all();
//! let backend = DensityMatrixBackend::new(presets::ibmqx4());
//! let dist = backend.exact_distribution(&bell)?;
//! // Noise leaks probability into the odd-parity outcomes.
//! assert!(dist.probability(0b01) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod apply;
pub mod batch;
pub mod cache;
pub mod compile;
pub mod counts;
pub mod density;
pub mod error;
pub mod executor;
pub mod expectation;
pub mod hybrid;
pub mod kernel;
pub mod pool;
pub mod prefix;
pub mod program;
pub mod simd;
pub mod stabilizer;
pub mod statevector;

pub use batch::{BatchPlan, PlanNode};
pub use cache::{CacheStats, ProgramCache, ProgramKey};
pub use compile::{
    compile, compile_extension, compile_with, extension_fusion_safe, CompileOptions,
};
pub use counts::{bitstring, key_from_str, Counts};
pub use density::DensityMatrix;
pub use error::{CliffordBlock, SimError};
pub use executor::{
    amplitude_snapshot_head, run_compiled_from, run_compiled_sharded, run_compiled_sharded_on,
    run_compiled_sharded_scoped, run_compiled_shot, run_shot, shard_seed, sweep_point_seed,
    tranche_seed, Backend, BackendKind, DensityMatrixBackend, ExactDistribution, RunResult,
    ShotRecord, StatevectorBackend, TrajectoryBackend, SNAPSHOT_MAX_QUBITS,
};
pub use expectation::{Pauli, PauliString};
pub use hybrid::{HybridBackend, MAX_HANDOFF_QUBITS};
pub use kernel::BatchKernel;
pub use pool::{PoolGauges, PoolScope, PoolStats, ShardPool};
pub use prefix::PrefixRegistry;
pub use program::{CompiledKind, CompiledOp, CompiledProgram, FastPath, HybridPlan};
pub use simd::SimdBackend;
pub use stabilizer::{
    run_clifford_sharded, run_clifford_sharded_on, run_clifford_shot, CliffordOp, CliffordOpKind,
    CliffordProgram, PauliNoise, SettledHead, StabilizerBackend, Tableau,
};
pub use statevector::StateVector;
