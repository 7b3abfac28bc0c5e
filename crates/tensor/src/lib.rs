//! # fda-tensor
//!
//! Dense `f32` linear-algebra substrate for the Federated Dynamic Averaging
//! (FDA) reproduction.
//!
//! The FDA paper trains neural networks whose parameters are ultimately
//! manipulated as *flat vectors* (model drifts `u_t^(k) = w_t^(k) - w_t0`,
//! AllReduce averages, sketch inputs). This crate provides:
//!
//! * [`rng`] — a deterministic, seedable xoshiro256++ generator with
//!   uniform / normal (Box–Muller) sampling, so every experiment in the
//!   repository is reproducible from a seed.
//! * [`vector`] — allocation-free hot-loop kernels over `&[f32]` slices
//!   (dot, axpy, norms, in-place averaging) used by optimizers, monitors
//!   and the communication layer.
//! * [`simd`] — the runtime-dispatched kernel layer behind [`vector`] and
//!   the GEMM: AVX-512 FMA, AVX2+FMA and scalar arms selected once per
//!   process (`FDA_FORCE_KERNEL` overrides for testing).
//! * [`matrix`] — a row-major [`Matrix`] with a blocked GEMM used by the
//!   neural-network layers.
//! * [`stats`] — summary statistics (median, quantiles, linear fits) used
//!   by the benchmark harnesses (e.g. the Θ ≈ c·d fit of Figure 12).
//!
//! No external BLAS and no dependencies: determinism and portability matter
//! more than peak FLOPs for reproducing the paper's *algorithmic* results.

pub mod alloc;
pub mod matrix;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use rng::Rng;
