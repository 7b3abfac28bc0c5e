//! Emits `BENCH_gemm_im2col.json` — the perf record for what the
//! end-to-end benchmark (`fdabench`) does not measure: kernels and layers
//! in isolation, the pooled worker runtime, and per-codec state bytes.
//!
//! Every timing goes through [`time_spread`] (the phase split samples the
//! `fda_obs` histograms once per pass instead) and is reported as
//! p10/median/p90 over [`REPS`] reps after a warm-up:
//!
//! * `gemm_us`: the naive reference GEMM vs the blocked kernel on im2col
//!   shapes (LeNet- and VGG16-scale), with speedup and GF/s from the
//!   medians and the dispatched SIMD arm under `kernel_dispatch`;
//! * `conv_layer_us`: per-layer Conv2d forward/backward at training batch
//!   size on channel-major activations; the backward runs with the input
//!   gradient (`full`) and, for the first LeNet conv, as a model's first
//!   trained layer runs it (`params_only`, no input gradient);
//! * `local_step_k4`: one cluster `local_step` at K = 4 for the LeNet and
//!   VGG16 zoo models, sequential and on the persistent worker pool;
//! * `step_phases_k4`: `Fda::step` at Θ = 0 split into local-step /
//!   monitor / AllReduce time for the LeNet- and DenseNet-scale models,
//!   sequential vs pooled;
//! * `rendezvous_us`: one pool dispatch vs K scoped thread spawns;
//! * `codec_state_bytes`: charged state bytes per uplink codec (no timing).
//!
//! Transport cost, coordinator allocations and telemetry overhead are
//! `fdabench` metrics (`net.*`, `obs.telemetry_overhead_pct`).
//!
//! Run from the workspace root (`cargo run --release --bin
//! bench_gemm_im2col`); the JSON is written to the current directory. Pass
//! `--smoke` for a fast CI run (fewer calls per rep, nothing written), or
//! `--gemm-only` to print just the GEMM table for kernel-tuning loops.

use fda_comm::CodecSpec;
use fda_core::cluster::{Cluster, ClusterConfig};
use fda_core::experiments::spec_for;
use fda_core::fda::{Fda, FdaConfig};
use fda_core::pool::WorkerPool;
use fda_core::strategy::Strategy as _;
use fda_data::synth::SynthSpec;
use fda_data::Partition;
use fda_nn::conv::Conv2d;
use fda_nn::init::Init;
use fda_nn::layer::Layer as _;
use fda_nn::zoo::ModelId;
use fda_nn::Shape3;
use fda_tensor::{matrix, Matrix, Rng};
use std::fmt::Write as _;
use std::time::Instant;

/// Repetitions behind every spread.
const REPS: usize = 9;

/// p10 / median / p90 of a sample, in microseconds.
#[derive(Clone, Copy)]
struct Spread {
    p10: f64,
    median: f64,
    p90: f64,
}

impl Spread {
    fn of(us: &[f64]) -> Spread {
        let q = |p| fda_tensor::stats::quantile(us, p);
        Spread {
            p10: q(0.1),
            median: q(0.5),
            p90: q(0.9),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"p10\": {:.1}, \"median\": {:.1}, \"p90\": {:.1}}}",
            self.p10, self.median, self.p90
        )
    }
}

/// The spread of `f`'s wall time over [`REPS`] reps after one warm-up
/// call, each rep averaging `iters` calls.
fn time_spread<F: FnMut()>(iters: u32, mut f: F) -> Spread {
    f();
    let us: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    Spread::of(&us)
}

struct GemmResult {
    tag: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive: Spread,
    blocked: Spread,
}

impl GemmResult {
    fn shape(&self) -> String {
        format!("{}_{}x{}x{}", self.tag, self.m, self.k, self.n)
    }

    fn speedup(&self) -> f64 {
        self.naive.median / self.blocked.median
    }

    /// Dispatched-kernel throughput in GFLOP/s at the median (2·m·n·k flops
    /// per GEMM).
    fn gflops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k) as f64 / self.blocked.median / 1e3
    }
}

fn bench_gemm(tag: &'static str, m: usize, k: usize, n: usize, smoke: bool) -> GemmResult {
    let mut rng = Rng::new(7);
    let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
    let mut out = Matrix::zeros(m, n);
    let iters = if smoke {
        1
    } else {
        (100_000_000 / (2 * m * n * k)).clamp(3, 500) as u32
    };
    let naive = time_spread(iters, || {
        out.clear();
        matrix::naive::gemm_accumulate(&a, &b, &mut out);
    });
    let mut scratch = matrix::Scratch::new();
    let blocked = time_spread(iters, || {
        matrix::gemm_into_with(&a, &b, &mut out, &mut scratch);
    });
    GemmResult {
        tag,
        m,
        k,
        n,
        naive,
        blocked,
    }
}

struct ConvLayerResult {
    tag: &'static str,
    batch: usize,
    /// `"full"` (input gradient included) or `"params_only"`
    /// (`Layer::backward_params`, a model's first trained layer).
    backward_kind: &'static str,
    forward: Spread,
    backward: Spread,
}

/// Per-layer conv forward/backward wall time at training batch size, on
/// channel-major activations (input handed by value, clone included — the
/// same protocol as the pre-layout-refactor baseline, so the numbers are
/// directly comparable across changes). `params_only` times the backward
/// a model's first trained layer runs.
fn bench_conv_layer(
    tag: &'static str,
    in_shape: Shape3,
    out_c: usize,
    batch: usize,
    iters: u32,
    params_only: bool,
) -> ConvLayerResult {
    let mut rng = Rng::new(7);
    let mut conv = Conv2d::new(in_shape, out_c, 3, 1, Init::HeNormal, &mut rng);
    let mut x = Matrix::zeros(in_shape.c, batch * in_shape.spatial());
    Rng::new(9).fill_normal(x.as_mut_slice(), 0.0, 1.0);
    let forward = time_spread(iters, || {
        let _ = conv.forward(x.clone(), true);
    });
    let out = conv.out_shape();
    let mut dy = Matrix::zeros(out.c, batch * out.spatial());
    Rng::new(11).fill_normal(dy.as_mut_slice(), 0.0, 1.0);
    let _ = conv.forward(x.clone(), true);
    let backward = time_spread(iters, || {
        if params_only {
            conv.backward_params(dy.clone());
        } else {
            let _ = conv.backward(dy.clone());
        }
    });
    ConvLayerResult {
        tag,
        batch,
        backward_kind: if params_only { "params_only" } else { "full" },
        forward,
        backward,
    }
}

/// The K = 4 cluster every step section runs: the model's paper spec,
/// IID shards, seed 3.
fn k4_cluster(model: ModelId, parallel: bool) -> ClusterConfig {
    let spec = spec_for(model);
    ClusterConfig {
        model,
        workers: 4,
        batch_size: spec.batch,
        optimizer: spec.optimizer,
        partition: Partition::Iid,
        seed: 3,
        parallel,
    }
}

struct StepResult {
    model: &'static str,
    seq: Spread,
    pooled: Spread,
}

fn bench_steps(model: ModelId, name: &'static str, iters: u32) -> StepResult {
    let task = spec_for(model).make_task();
    let time = |parallel| {
        let mut cluster = Cluster::new(k4_cluster(model, parallel), &task);
        time_spread(iters, || {
            cluster.local_step();
        })
    };
    StepResult {
        model: name,
        seq: time(false),
        pooled: time(true),
    }
}

/// Per-phase spreads of one averaged `Fda::step`.
struct PhaseSplit {
    local_step: Spread,
    monitor: Spread,
    allreduce: Spread,
    step: Spread,
}

impl PhaseSplit {
    fn json(&self) -> String {
        format!(
            "{{\"local_step_us\": {}, \"monitor_us\": {}, \"allreduce_us\": {}, \"step_us\": {}}}",
            self.local_step.json(),
            self.monitor.json(),
            self.allreduce.json(),
            self.step.json(),
        )
    }
}

struct StepPhasesResult {
    model: &'static str,
    seq: PhaseSplit,
    pooled: PhaseSplit,
}

/// Average per-step phase split over `steps` steps, one sample per pass
/// over [`REPS`] passes (a fresh FDA instance per pass, so sync history is
/// comparable). Θ = 0 synchronizes every step, so the AllReduce phase is
/// exercised — and timed — on every step. Phase timings are the sum
/// deltas of the `fda_obs` registry histograms `Fda::step` feeds.
fn measure_phases(model: ModelId, parallel: bool, steps: usize) -> PhaseSplit {
    let task = spec_for(model).make_task();
    let reg = fda_obs::registry();
    let hists = [
        reg.histogram(fda_core::fda::HIST_LOCAL_STEP_US),
        reg.histogram(fda_core::fda::HIST_MONITOR_US),
        reg.histogram(fda_core::fda::HIST_ALLREDUCE_US),
    ];
    fda_obs::set_enabled(true);
    // Per pass: local step, monitor, AllReduce, and their sum.
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        let mut fda = Fda::new(
            FdaConfig::sketch_auto(0.0),
            k4_cluster(model, parallel),
            &task,
        );
        fda.step(); // warm-up: sizes every scratch buffer
        let base: Vec<u64> = hists.iter().map(|h| h.sum()).collect();
        for _ in 0..steps {
            fda.step();
        }
        let mut total = 0.0;
        for (i, h) in hists.iter().enumerate() {
            let us = (h.sum() - base[i]) as f64 / steps as f64;
            samples[i].push(us);
            total += us;
        }
        samples[3].push(total);
    }
    fda_obs::set_enabled(false);
    PhaseSplit {
        local_step: Spread::of(&samples[0]),
        monitor: Spread::of(&samples[1]),
        allreduce: Spread::of(&samples[2]),
        step: Spread::of(&samples[3]),
    }
}

/// Raw per-step dispatch cost: K scoped threads spawned-and-joined vs one
/// rendezvous of the persistent pool.
fn bench_rendezvous(k: usize, iters: u32) -> (Spread, Spread) {
    let scoped = time_spread(iters, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..k)
                .map(|_| scope.spawn(|| std::hint::black_box(0u64)))
                .collect();
            for h in handles {
                let _ = h.join();
            }
        });
    });
    let mut pool = WorkerPool::new(k);
    let pooled = time_spread(iters, || {
        pool.run(&|lane| {
            std::hint::black_box(lane);
        });
    });
    (scoped, pooled)
}

/// Charged state bytes per uplink codec over 30 steps of a K = 4 LeNet
/// job at Θ = ∞ (a state rendezvous every step, no model AllReduce, so
/// the bytes are pure state payload), from the simulator. The simulator
/// charges exactly what the socket carries: `codec_parity` asserts
/// measured == charged on the same codecs over TCP.
fn codec_state_bytes() -> Vec<(&'static str, u64)> {
    let task = SynthSpec {
        n_train: 240,
        n_test: 80,
        ..SynthSpec::synth_mnist()
    }
    .generate("codec-bench");
    let cluster = ClusterConfig {
        model: ModelId::Lenet5,
        workers: 4,
        batch_size: 16,
        optimizer: fda_optim::OptimizerKind::paper_adam(),
        partition: Partition::Iid,
        seed: 3,
        parallel: false,
    };
    [
        ("dense", CodecSpec::Dense),
        ("uniform8", CodecSpec::Uniform8 { chunk: 256 }),
        ("topk64", CodecSpec::TopK { k: 64 }),
        ("driftmask0.2", CodecSpec::DriftMask { threshold: 0.2 }),
    ]
    .into_iter()
    .map(|(name, codec)| {
        let mut fda = Fda::new(FdaConfig::sketch_auto(f32::MAX), cluster.clone(), &task);
        fda.set_codec(codec);
        for _ in 0..30 {
            fda.step();
        }
        (name, fda.comm_bytes())
    })
    .collect()
}

/// Appends `"name": [ rows ],` with one row per line.
fn push_rows(json: &mut String, name: &str, rows: impl IntoIterator<Item = String>) {
    let rows: Vec<String> = rows.into_iter().collect();
    let _ = writeln!(json, "  \"{name}\": [\n    {}\n  ],", rows.join(",\n    "));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gemm_only = std::env::args().any(|a| a == "--gemm-only");
    // im2col GEMM shapes: (out_c) × (in_c·k·k) × (batch·out_h·out_w).
    let gemms = [
        bench_gemm("lenet_conv2", 12, 54, 1152, smoke),
        bench_gemm("lenet_conv1", 6, 9, 4608, smoke),
        bench_gemm("vgg16_conv", 64, 576, 9216, smoke),
        bench_gemm("dense_square", 256, 256, 256, smoke),
    ];
    if gemm_only {
        // Fast kernel-tuning loop: print the GEMM table and exit without
        // touching the JSON.
        println!("kernel: {}", fda_tensor::simd::kernels().name());
        for g in &gemms {
            println!(
                "{}: naive {:.1} us, blocked {:.1} us [p10 {:.1}, p90 {:.1}] ({:.2} GF/s), speedup {:.2}",
                g.shape(),
                g.naive.median,
                g.blocked.median,
                g.blocked.p10,
                g.blocked.p90,
                g.gflops(),
                g.speedup(),
            );
        }
        return;
    }
    let conv_iters = if smoke { 20 } else { 200 };
    // The LeNet conv stack plus a VGG16*-scale layer, at training batch 32.
    let conv = |tag, in_shape, out_c, params_only| {
        bench_conv_layer(tag, in_shape, out_c, 32, conv_iters, params_only)
    };
    let conv_layers = [
        conv("lenet_conv1", Shape3::new(1, 12, 12), 6, false),
        conv("lenet_conv1", Shape3::new(1, 12, 12), 6, true),
        conv("lenet_conv2", Shape3::new(6, 6, 6), 12, false),
        conv("vgg_conv2b", Shape3::new(16, 6, 6), 16, false),
    ];
    let step_iters = if smoke { 2 } else { 20 };
    let steps = [
        bench_steps(ModelId::Lenet5, "lenet5", step_iters),
        bench_steps(ModelId::Vgg16Star, "vgg16", step_iters),
    ];
    let phase_steps = if smoke { 2 } else { 10 };
    let phases = [
        (ModelId::Lenet5, "lenet5"),
        (ModelId::DenseNet201, "densenet201"),
    ]
    .map(|(model, name)| StepPhasesResult {
        model: name,
        seq: measure_phases(model, false, phase_steps),
        pooled: measure_phases(model, true, phase_steps),
    });
    let (scoped, pooled) = bench_rendezvous(4, if smoke { 20 } else { 200 });
    let codec_bytes = codec_state_bytes();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let kn = fda_tensor::simd::kernels();
    let forced = std::env::var("FDA_FORCE_KERNEL").ok();
    let available: Vec<String> = fda_tensor::simd::all_supported()
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"kernel_dispatch\": {{\"selected\": \"{}\", \"forced\": {}, \
         \"available\": [{}], \"mr\": {}, \"nr\": {}}},",
        kn.name(),
        forced.map_or("null".to_string(), |f| format!("\"{f}\"")),
        available.join(", "),
        kn.mr,
        kn.nr,
    );
    let _ = writeln!(json, "  \"reps\": {REPS},");
    push_rows(
        &mut json,
        "gemm_us",
        gemms.iter().map(|g| {
            format!(
                "{{\"shape\": \"{}\", \"naive_us\": {}, \"blocked_us\": {}, \"speedup\": {:.2}, \"gflops\": {:.1}, \"kernel\": \"{}\"}}",
                g.shape(),
                g.naive.json(),
                g.blocked.json(),
                g.speedup(),
                g.gflops(),
                kn.name(),
            )
        }),
    );
    push_rows(
        &mut json,
        "conv_layer_us",
        conv_layers.iter().map(|c| {
            format!(
                "{{\"layer\": \"{}\", \"batch\": {}, \"backward_kind\": \"{}\", \"forward_us\": {}, \"backward_us\": {}}}",
                c.tag,
                c.batch,
                c.backward_kind,
                c.forward.json(),
                c.backward.json(),
            )
        }),
    );
    push_rows(
        &mut json,
        "local_step_k4",
        steps.iter().map(|s| {
            format!(
                "{{\"model\": \"{}\", \"seq_us\": {}, \"pooled_us\": {}, \"pooled_speedup\": {:.2}}}",
                s.model,
                s.seq.json(),
                s.pooled.json(),
                s.seq.median / s.pooled.median,
            )
        }),
    );
    push_rows(
        &mut json,
        "step_phases_k4",
        phases.iter().map(|p| {
            format!(
                "{{\"model\": \"{}\", \"variant\": \"sketch_auto_theta0\", \"seq\": {}, \"pooled\": {}, \
                 \"pooled_speedup_monitor_allreduce\": {:.2}}}",
                p.model,
                p.seq.json(),
                p.pooled.json(),
                (p.seq.monitor.median + p.seq.allreduce.median)
                    / (p.pooled.monitor.median + p.pooled.allreduce.median),
            )
        }),
    );
    let _ = writeln!(
        json,
        "  \"rendezvous_us\": {{\"k\": 4, \"scoped_spawn_us\": {}, \"pool_dispatch_us\": {}}},",
        scoped.json(),
        pooled.json(),
    );
    let dense_bytes = codec_bytes[0].1;
    push_rows(
        &mut json,
        "codec_state_bytes",
        codec_bytes.iter().map(|&(codec, bytes)| {
            format!(
                "{{\"codec\": \"{codec}\", \"charged_bytes\": {bytes}, \"dense_over_codec\": {:.2}}}",
                dense_bytes as f64 / bytes as f64,
            )
        }),
    );
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"Every timing is p10/median/p90 in microseconds over `reps` reps after a warm-up, each rep averaging a fixed number of calls; speedups and gflops use the medians. gemm_us: the naive reference vs the blocked kernel on the runtime-dispatched SIMD arm (kernel_dispatch.selected; override with FDA_FORCE_KERNEL). conv_layer_us: Conv2d forward/backward on channel-major activations, input clone included; params_only is the backward of a model's first trained layer (no input gradient). local_step_k4: one Cluster::local_step at K=4, single-thread (seq) vs the persistent WorkerPool (pooled). step_phases_k4: Fda::step at theta=0 (sync every step), SketchAuto monitor, K=4, one sample per pass of fresh-instance steps, from the fda_obs histograms Fda::step feeds. rendezvous_us: one pool dispatch vs K scoped thread spawns. Pooled speedups need host_cores > 1. codec_state_bytes: charged state bytes of 30 simulator steps of a K=4 LeNet job at theta inf under each uplink codec (equal to socket-measured bytes, which codec_parity asserts); dense_over_codec is the compression ratio.\""
    );
    json.push('}');

    if smoke {
        println!("{json}");
        println!("\nsmoke mode: not writing BENCH_gemm_im2col.json");
        return;
    }
    std::fs::write("BENCH_gemm_im2col.json", &json).expect("write BENCH_gemm_im2col.json");
    println!("{json}");
}
