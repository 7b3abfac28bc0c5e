//! Codec parity suite: the `net_parity` bit-identity claim, parameterized
//! over the uplink payload codec.
//!
//! For every codec in {dense-f32, uniform-8bit, top-k, drift-mask}, a
//! K-process TCP run over loopback must retrace the sequential simulator
//! bit-for-bit — sync decisions, variance-estimate bits, final replica
//! bits — and the payload bytes *measured* on the sockets must equal the
//! encoded bytes the simulator *charges*, exactly. This works because sim
//! and socket share one lossy path by construction: both sides reconstruct
//! states and model uploads via `decode(encode(v))` with the same codec,
//! so a lossy codec changes the trajectory identically on both sides.
//!
//! Hang guard: socket read timeouts on both ends; CI adds an outer
//! `timeout` fence.

use fda::comm::CodecSpec;
use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig, FdaVariant};
use fda::core::strategy::Strategy;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{run, RunOptions};
use std::path::Path;

const STEPS: u32 = 8;

fn spec(k: usize, codec: CodecSpec) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        // Sketch states give every codec a nontrivial summary to compress
        // (LinearFDA's one-float summary would make top-k degenerate), and
        // Θ = 0.01 forces model AllReduces inside the horizon so the
        // coded model path is exercised too.
        fda: FdaConfig::sketch_auto(0.01),
        codec,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps: STEPS,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "codec-parity".to_string(),
    }
}

/// The codec matrix. Parameters are sized for the scaled LeNet sketch
/// summary: top-k keeps a strict subset of coordinates, drift-mask's
/// threshold sits inside the observed drift-summary magnitude range so it
/// genuinely masks (neither all nor nothing).
fn codecs() -> Vec<CodecSpec> {
    vec![
        CodecSpec::Dense,
        CodecSpec::Uniform8 { chunk: 256 },
        CodecSpec::TopK { k: 64 },
        CodecSpec::DriftMask { threshold: 0.2 },
    ]
}

/// Runs the job sequentially and as a K-process TCP cluster under the
/// same codec, then asserts bit-identity and measured == charged.
/// Returns the run's charged bytes for cross-codec comparisons.
fn assert_codec_parity(k: usize, codec: CodecSpec) -> u64 {
    let spec = spec(k, codec);
    let processes = RunOptions {
        node_bin: Some(Path::new(env!("CARGO_BIN_EXE_fda_node"))),
        ..RunOptions::default()
    };
    let report = run(&spec, &processes)
        .report
        .unwrap_or_else(|e| panic!("k={k} codec={}: {e}", codec.name()));

    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    sim.set_codec(codec);
    let mut decisions = Vec::new();
    let mut estimates = Vec::new();
    for _ in 0..STEPS {
        let out = sim.step();
        decisions.push(out.synced);
        estimates.push(out.variance_estimate.expect("fda reports estimates"));
    }

    let case = format!("k={k} codec={}", codec.name());
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
    assert!(
        report.decisions.iter().any(|&d| d),
        "{case}: horizon should exercise at least one coded model AllReduce"
    );
    report.charged_bytes
}

/// The acceptance matrix at K = 4: every codec, spawned OS processes.
#[test]
fn k4_processes_match_simulator_for_all_codecs() {
    let mut charged = Vec::new();
    for codec in codecs() {
        charged.push((codec, assert_codec_parity(4, codec)));
    }
    // Compression must actually compress: every non-dense codec moves
    // strictly fewer accounted bytes than dense over the same horizon.
    let dense = charged[0].1;
    for (codec, bytes) in &charged[1..] {
        assert!(
            *bytes < dense,
            "codec {} charged {bytes} >= dense {dense}",
            codec.name()
        );
    }
}

/// K coverage at K = 2 for every codec.
#[test]
fn k2_processes_match_simulator_for_all_codecs() {
    for codec in codecs() {
        assert_codec_parity(2, codec);
    }
}

/// A dense-coded job must produce the exact trajectory and accounting of
/// a pre-codec run: the codec field's `Dense` default is byte-invisible.
#[test]
fn dense_codec_is_byte_invisible() {
    let with_default = spec(2, CodecSpec::default());
    let explicit = spec(2, CodecSpec::Dense);
    assert_eq!(
        fda::core::wire::encode_job(&with_default),
        fda::core::wire::encode_job(&explicit)
    );
    // The exact-variant sim run with a Dense codec charges exactly what
    // the historical dense path charges (same fast path, by construction).
    let task = with_default.synth.generate(&with_default.task_name);
    let mut plain = Fda::new(
        FdaConfig {
            variant: FdaVariant::Exact,
            theta: 0.01,
        },
        with_default.cluster.clone(),
        &task,
    );
    let mut coded = Fda::new(
        FdaConfig {
            variant: FdaVariant::Exact,
            theta: 0.01,
        },
        with_default.cluster.clone(),
        &task,
    );
    coded.set_codec(CodecSpec::Dense);
    for _ in 0..4 {
        let a = plain.step();
        let b = coded.step();
        assert_eq!(a.synced, b.synced);
        assert_eq!(
            a.variance_estimate.map(f32::to_bits),
            b.variance_estimate.map(f32::to_bits)
        );
    }
    assert_eq!(plain.comm_bytes(), coded.comm_bytes());
}
