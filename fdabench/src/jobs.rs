//! The benchmark's workloads and the jobs they run. Every input is a
//! deterministic function of the `--seed` argument.

use fda::comm::{CodecSpec, DownlinkSpec};
use fda::core::cluster::ClusterConfig;
use fda::core::fda::FdaConfig;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::data::{Partition, TaskData};
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;

/// The seed the benchmark is tuned and reported on.
pub const DEFAULT_SEED: u64 = 1;

/// `sim-lenet-target`: the test-accuracy target and the step cap. Steps
/// to 0.91 vary with the draw by a coefficient of variation of ~0.37
/// (0.91 sits near the accuracy plateau, where the first evaluation above
/// target is close to a coin flip); at 0.85 it is ~0.19, which twenty
/// draws average down to a steady figure.
pub const LENET_TARGET: f32 = 0.85;
pub const LENET_MAX_STEPS: u64 = 4_000;
/// Sub-seeds per `sim-lenet-target` run: the cost to target is averaged
/// over this many independent (data, init) draws derived from `--seed`,
/// so one unlucky draw does not move the reported figure.
pub const LENET_DRAWS: u64 = 20;

/// `net-head-*`: worker threads (= connections) and the round horizons.
/// The per-round figures come from the difference between a long and a
/// short run, which cancels connection set-up and final collection.
pub const HEAD_WORKERS: usize = 2;
pub const HEAD_ROUNDS_LONG: u32 = 400;
pub const HEAD_ROUNDS_SHORT: u32 = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential simulator, LeNet-5 SketchFDA to a test-accuracy target.
    SimLenetTarget,
    /// TCP transport, TransferHead, a state and model AllReduce every
    /// round, dense uplink and downlink.
    NetHeadSync,
    /// The same job with uniform-8bit uplinks and delta-coded downlinks.
    NetHeadCoded,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "sim-lenet-target" => Some(Workload::SimLenetTarget),
            "net-head-sync" => Some(Workload::NetHeadSync),
            "net-head-coded" => Some(Workload::NetHeadCoded),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimLenetTarget => "sim-lenet-target",
            Workload::NetHeadSync => "net-head-sync",
            Workload::NetHeadCoded => "net-head-coded",
        }
    }
}

/// SplitMix64 of `(seed, draw, stream)`: independent seeds per draw and
/// per consumer (data generator vs cluster).
pub fn derive_seed(seed: u64, draw: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(draw.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(stream.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One `sim-lenet-target` draw: the task generator, the cluster and FDA.
pub struct LenetJob {
    pub synth: SynthSpec,
    pub cluster: ClusterConfig,
    pub fda: FdaConfig,
}

pub const LENET_TASK: &str = "synth-mnist";

impl LenetJob {
    pub fn new(seed: u64, draw: u64, workers: usize) -> LenetJob {
        LenetJob {
            synth: SynthSpec {
                seed: derive_seed(seed, draw, 0),
                ..SynthSpec::synth_mnist()
            },
            cluster: ClusterConfig {
                model: ModelId::Lenet5,
                workers,
                batch_size: 32,
                optimizer: OptimizerKind::paper_adam(),
                partition: Partition::Iid,
                seed: derive_seed(seed, draw, 1),
                parallel: false,
            },
            fda: FdaConfig::sketch_auto(0.02),
        }
    }

    pub fn task(&self) -> TaskData {
        self.synth.generate(LENET_TASK)
    }
}

/// The `net-head-*` job at a given round horizon.
pub fn head_spec(workload: Workload, seed: u64, rounds: u32) -> JobSpec {
    let (codec, downlink) = match workload {
        Workload::NetHeadCoded => (
            CodecSpec::Uniform8 { chunk: 1024 },
            DownlinkSpec::Delta {
                codec: CodecSpec::Uniform8 { chunk: 256 },
            },
        ),
        _ => (CodecSpec::Dense, DownlinkSpec::Dense),
    };
    JobSpec {
        cluster: ClusterConfig {
            model: ModelId::TransferHead,
            workers: HEAD_WORKERS,
            batch_size: 32,
            optimizer: OptimizerKind::paper_adamw(),
            partition: Partition::Iid,
            seed: derive_seed(seed, 0, 1),
            parallel: false,
        },
        fda: FdaConfig::sketch_auto(0.0),
        codec,
        downlink,
        steps: rounds,
        synth: SynthSpec {
            seed: derive_seed(seed, 0, 0),
            ..SynthSpec::synth_cifar100_features()
        },
        task_name: "synth-cifar100-features".to_string(),
    }
}
