//! # fda-comm
//!
//! The communication substrate for the FDA reproduction.
//!
//! The paper measures communication as "the total data (in bytes)
//! transmitted by all workers" (§4.1), explicitly agnostic to the cluster
//! fabric. This crate therefore provides:
//!
//! * [`sim::SimNetwork`] — an in-process AllReduce over worker buffers with
//!   exact per-worker byte accounting under the paper's per-worker-payload
//!   convention ([`cost::per_worker_charge`]), which the TCP coordinator
//!   applies to the bytes it measures.
//! * [`cost::Environment`] — wall-time models for the three deployment
//!   regimes of Figure 12 (FL at 0.5 Gbps, Balanced, ARIS-HPC InfiniBand),
//!   used to translate (bytes, steps) into time and pick Θ.
//! * [`compress`] — the payload codecs (dense, uniform-8bit, top-k,
//!   drift-mask) and the delta downlink, shared by the simulator and the
//!   TCP runtime.

pub mod compress;
pub mod cost;
pub mod sim;

pub use compress::{
    apply_delta_downlink, delta_downlink, Codec, CodecError, CodecSpec, Dense32, DownlinkSpec,
    DriftMask, TopK, Uniform8Bit,
};
pub use cost::{per_worker_charge, Environment};
pub use sim::SimNetwork;
