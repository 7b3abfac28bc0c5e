//! TCP-transport parity suite: a multi-**process** FDA run over loopback
//! must be bit-identical to the sequential in-process simulator — final
//! parameters of every replica, per-round variance estimates, the full
//! sync-decision sequence — and the bytes *measured* on the sockets must
//! equal the bytes the simulator *charges*, exactly.
//!
//! This is the `pool_determinism.rs` pattern lifted across the process
//! boundary: same K × variant matrix, but every worker is a spawned
//! `fda_node` OS process and every state/model payload genuinely crosses
//! a TCP socket through `fda_core::wire`. On the single-core build host,
//! bit-identity (not speedup) is the correctness proof for the
//! distributed runtime.
//!
//! Hang guard: the coordinator and workers carry socket read timeouts, so
//! a wedged peer fails the test with an I/O error instead of blocking CI
//! forever (the workflow adds an outer `timeout` as a second fence).

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig, FdaVariant};
use fda::core::strategy::Strategy;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{run, NetReport, RunOptions};
use std::path::Path;

const STEPS: u32 = 8;

fn spec(k: usize, fda: FdaConfig) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        fda,
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps: STEPS,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "net-parity".to_string(),
    }
}

fn variants() -> Vec<(&'static str, FdaConfig)> {
    // Θ small enough that the horizon exercises model AllReduces, so the
    // parity claim covers the expensive phase too (same values as
    // `pool_determinism.rs`).
    vec![
        ("sketch", FdaConfig::sketch_auto(0.01)),
        ("linear", FdaConfig::linear(0.01)),
        (
            "exact",
            FdaConfig {
                variant: FdaVariant::Exact,
                theta: 0.01,
            },
        ),
    ]
}

/// Runs the job on the sequential simulator and as a K-process TCP
/// cluster, then asserts bit-identity and measured-== -charged accounting.
fn assert_parity(k: usize, tag: &str, fda: FdaConfig) {
    let spec = spec(k, fda);
    let processes = RunOptions {
        node_bin: Some(Path::new(env!("CARGO_BIN_EXE_fda_node"))),
        ..RunOptions::default()
    };
    let report = run(&spec, &processes)
        .report
        .unwrap_or_else(|e| panic!("k={k} {tag}: {e}"));

    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let mut decisions = Vec::new();
    let mut estimates = Vec::new();
    for _ in 0..STEPS {
        let out = sim.step();
        decisions.push(out.synced);
        estimates.push(out.variance_estimate.expect("fda reports estimates"));
    }

    let case = format!("k={k} variant={tag}");
    assert_eq!(
        report.decisions, decisions,
        "{case}: sync schedule diverged"
    );
    for (step, (a, b)) in report.estimates.iter().zip(&estimates).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{case}: estimate diverged at step {step}"
        );
    }
    assert_eq!(report.syncs, sim.syncs(), "{case}: sync count diverged");
    for w in 0..k {
        assert_eq!(
            report.worker_params[w],
            sim.cluster().worker(w).params(),
            "{case}: worker {w} final replica diverged"
        );
    }
    assert_eq!(
        report.charged_bytes,
        sim.comm_bytes(),
        "{case}: TCP charged accounting != simulator"
    );
    assert_eq!(
        report.measured_payload_bytes, report.charged_bytes,
        "{case}: bytes measured on the socket != bytes charged"
    );
    if k > 1 {
        assert!(
            report.decisions.iter().any(|&d| d),
            "{case}: horizon should exercise at least one model AllReduce"
        );
        // Real frames cost real (framing) bytes on top of the payloads.
        assert!(
            report.raw_rx_bytes > report.measured_payload_bytes,
            "{case}: raw socket traffic must exceed the payload convention"
        );
    }
}

/// Runs a Θ = 0 job (every round is a model AllReduce, so dense and
/// delta runs share one frame schedule and their wire traffic is directly
/// comparable) under the given downlink spec, against a simulator with
/// the downlink mirrored via [`Fda::set_downlink`]. Asserts bit-identity
/// and measured == charged, then returns the report for cross-run byte
/// comparisons.
fn assert_downlink_parity(k: usize, tag: &str, downlink: fda::comm::DownlinkSpec) -> NetReport {
    let mut spec = spec(k, FdaConfig::linear(0.0));
    spec.downlink = downlink;
    let processes = RunOptions {
        node_bin: Some(Path::new(env!("CARGO_BIN_EXE_fda_node"))),
        ..RunOptions::default()
    };
    let report = run(&spec, &processes)
        .report
        .unwrap_or_else(|e| panic!("k={k} {tag}: {e}"));

    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    sim.set_downlink(spec.downlink);
    let mut decisions = Vec::new();
    let mut estimates = Vec::new();
    for _ in 0..STEPS {
        let out = sim.step();
        decisions.push(out.synced);
        estimates.push(out.variance_estimate.expect("fda reports estimates"));
    }

    let case = format!("k={k} downlink={tag}");
    assert!(
        report.decisions.iter().all(|&d| d),
        "{case}: Θ = 0 must sync every round"
    );
    assert_eq!(
        report.decisions, decisions,
        "{case}: sync schedule diverged"
    );
    for (step, (a, b)) in report.estimates.iter().zip(&estimates).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{case}: estimate diverged at step {step}"
        );
    }
    for w in 0..k {
        assert_eq!(
            report.worker_params[w],
            sim.cluster().worker(w).params(),
            "{case}: worker {w} final replica diverged"
        );
    }
    assert_eq!(
        report.charged_bytes,
        sim.comm_bytes(),
        "{case}: TCP charged accounting != simulator"
    );
    assert_eq!(
        report.measured_payload_bytes, report.charged_bytes,
        "{case}: bytes measured on the socket != bytes charged"
    );
    report
}

/// The delta-downlink acceptance matrix: for K ∈ {2, 4}, a lossily coded
/// downlink reconstructs the same consensus as the simulator mirror bit
/// for bit, charges exactly the same (worker-uplink) bytes as dense, and
/// puts strictly fewer downlink and raw-transmit bytes on the wire.
#[test]
fn delta_downlink_matches_simulator_and_beats_dense_on_the_wire() {
    use fda::comm::{CodecSpec, DownlinkSpec};
    for k in [2usize, 4] {
        let dense = assert_downlink_parity(k, "dense", DownlinkSpec::Dense);
        let delta = assert_downlink_parity(
            k,
            "delta-uniform8",
            DownlinkSpec::Delta {
                codec: CodecSpec::Uniform8 { chunk: 256 },
            },
        );
        assert_eq!(
            delta.charged_bytes, dense.charged_bytes,
            "k={k}: downlink coding must not change the charged (uplink) bytes"
        );
        assert!(
            delta.downlink_model_bytes < dense.downlink_model_bytes,
            "k={k}: coded downlink ({}) must undercut the dense broadcast ({})",
            delta.downlink_model_bytes,
            dense.downlink_model_bytes
        );
        assert!(
            delta.raw_tx_bytes < dense.raw_tx_bytes,
            "k={k}: coded downlink must shrink raw coordinator tx ({} vs {})",
            delta.raw_tx_bytes,
            dense.raw_tx_bytes
        );
    }
}

/// `Delta { codec: Dense }` takes the delta wire path (AvgModelDelta
/// frames, reconstruction at the worker) and must still agree with its
/// simulator mirror bit for bit.
#[test]
fn delta_dense_downlink_is_bit_identical_to_its_mirror() {
    use fda::comm::{CodecSpec, DownlinkSpec};
    assert_downlink_parity(
        2,
        "delta-dense",
        DownlinkSpec::Delta {
            codec: CodecSpec::Dense,
        },
    );
}

/// The acceptance matrix: K = 4 processes for every monitor variant.
#[test]
fn k4_processes_match_simulator_for_all_variants() {
    for (tag, fda) in variants() {
        assert_parity(4, tag, fda);
    }
}

/// K coverage: the degenerate single-process cluster and the K = 2 pair
/// (LinearFDA keeps the K sweep cheap; the full variant matrix runs at
/// K = 4 above).
#[test]
fn k1_and_k2_processes_match_simulator() {
    assert_parity(1, "linear", FdaConfig::linear(0.01));
    assert_parity(2, "linear", FdaConfig::linear(0.01));
    assert_parity(2, "sketch", FdaConfig::sketch_auto(0.01));
}
