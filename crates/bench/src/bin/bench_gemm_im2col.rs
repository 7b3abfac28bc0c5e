//! Emits `BENCH_gemm_im2col.json` — the perf trajectory record for the
//! compute hot path.
//!
//! Measures, in one process so machine drift cancels:
//!
//! * the naive reference GEMM vs the blocked kernel on im2col shapes
//!   (LeNet-scale and VGG16-scale), with per-shape GF/s and the dispatched
//!   SIMD kernel arm recorded under `kernel_dispatch`,
//! * `conv_layer_us`: per-layer Conv2d forward/backward wall time at
//!   training batch size on the channel-major layout, as p10/median/p90
//!   over `CONV_REPS` reps; the backward runs with the input gradient
//!   (`full`) and, for the first LeNet conv, as a model's first trained
//!   layer runs it (`params_only`, no input gradient),
//! * end-to-end cluster `local_step` throughput (steps/sec) for the LeNet
//!   and VGG16 zoo models, sequential and pooled-parallel,
//! * `step_phases`: the full `Fda::step` split into local-step / monitor /
//!   AllReduce wall time (Θ = 0 ⇒ every step pays all three phases), for
//!   the LeNet- and DenseNet-scale models, sequential vs pooled,
//! * `rendezvous_us`: the raw per-step dispatch cost of the persistent
//!   pool vs the scoped spawn-per-step it replaced.
//!
//! Run from the workspace root (`cargo run --release --bin
//! bench_gemm_im2col`); the JSON is written to the current directory so
//! future perf PRs have a baseline to compare against. Pass `--smoke` for
//! a fast CI sanity run (reduced reps, nothing written), or `--gemm-only`
//! to print just the GEMM table for kernel-tuning loops (nothing written).

use fda_core::cluster::{Cluster, ClusterConfig};
use fda_core::experiments::spec_for;
use fda_core::fda::{Fda, FdaConfig};
use fda_core::pool::WorkerPool;
use fda_core::strategy::Strategy as _;
use fda_data::Partition;
use fda_nn::conv::Conv2d;
use fda_nn::init::Init;
use fda_nn::layer::Layer as _;
use fda_nn::zoo::ModelId;
use fda_nn::Shape3;
use fda_tensor::{matrix, Matrix, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Thread-local allocation counter behind the global allocator, for
/// `net_alloc_per_round`: `run_with_thread_workers` runs the coordinator
/// on the calling thread and the workers on their own threads, so the
/// calling thread's count is exactly the coordinator's.
struct ThreadCountingAlloc;

thread_local! {
    // Const-init `Cell<u64>`: no destructor, no lazy initialization, so
    // the allocator can touch it without recursing.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCountingAlloc = ThreadCountingAlloc;

/// Best-of-`reps` wall time for `f`, each rep averaging `iters` calls.
fn best_time<F: FnMut()>(reps: usize, iters: u32, mut f: F) -> Duration {
    f(); // warm-up
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed() / iters);
    }
    best
}

struct GemmResult {
    tag: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive: Duration,
    blocked: Duration,
}

impl GemmResult {
    /// Dispatched-kernel throughput in GFLOP/s (2·m·n·k flops per GEMM).
    fn gflops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k) as f64 / self.blocked.as_secs_f64() / 1e9
    }
}

fn bench_gemm(tag: &'static str, m: usize, k: usize, n: usize) -> GemmResult {
    let mut rng = Rng::new(7);
    let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
    let mut out = Matrix::zeros(m, n);
    let iters = (100_000_000 / (2 * m * n * k)).clamp(3, 500) as u32;
    let naive = best_time(5, iters, || {
        out.clear();
        matrix::naive::gemm_accumulate(&a, &b, &mut out);
    });
    let mut scratch = matrix::Scratch::new();
    let blocked = best_time(5, iters, || {
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

/// Repetitions behind each `conv_layer_us` spread.
const CONV_REPS: usize = 9;

/// p10 / median / p90 of a timing distribution, in microseconds.
struct Spread {
    p10: f64,
    median: f64,
    p90: f64,
}

impl Spread {
    fn json(&self) -> String {
        format!(
            "{{\"p10\": {:.1}, \"median\": {:.1}, \"p90\": {:.1}}}",
            self.p10, self.median, self.p90
        )
    }
}

/// The spread of `f`'s wall time over `reps` reps after one warm-up call,
/// each rep averaging `iters` calls.
fn time_spread<F: FnMut()>(reps: usize, iters: u32, mut f: F) -> Spread {
    f();
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    let q = |p| fda_tensor::stats::quantile(&us, p);
    Spread {
        p10: q(0.1),
        median: q(0.5),
        p90: q(0.9),
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
/// directly comparable across PRs). `params_only` times the backward a
/// model's first trained layer runs.
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
    let forward = time_spread(CONV_REPS, iters, || {
        let _ = conv.forward(x.clone(), true);
    });
    let out = conv.out_shape();
    let mut dy = Matrix::zeros(out.c, batch * out.spatial());
    Rng::new(11).fill_normal(dy.as_mut_slice(), 0.0, 1.0);
    let _ = conv.forward(x.clone(), true);
    let backward = time_spread(CONV_REPS, iters, || {
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

struct StepResult {
    model: &'static str,
    steps_per_sec: f64,
    steps_per_sec_parallel: f64,
}

fn bench_steps(model: ModelId, name: &'static str) -> StepResult {
    let spec = spec_for(model);
    let task = spec.make_task();
    let mk = |parallel| {
        Cluster::new(
            ClusterConfig {
                model,
                workers: 4,
                batch_size: spec.batch,
                optimizer: spec.optimizer,
                partition: Partition::Iid,
                seed: 3,
                parallel,
            },
            &task,
        )
    };
    let mut seq = mk(false);
    let seq_t = best_time(5, 20, || {
        seq.local_step();
    });
    let mut par = mk(true);
    let par_t = best_time(5, 20, || {
        par.local_step();
    });
    StepResult {
        model: name,
        steps_per_sec: 1.0 / seq_t.as_secs_f64(),
        steps_per_sec_parallel: 1.0 / par_t.as_secs_f64(),
    }
}

/// Per-phase microseconds of one averaged `Fda::step`.
#[derive(Clone, Copy, Default)]
struct PhaseSplit {
    local_step_us: f64,
    monitor_us: f64,
    allreduce_us: f64,
}

impl PhaseSplit {
    fn total(&self) -> f64 {
        self.local_step_us + self.monitor_us + self.allreduce_us
    }
}

struct StepPhasesResult {
    model: &'static str,
    variant: &'static str,
    seq: PhaseSplit,
    pooled: PhaseSplit,
}

/// Average per-step phase split over `steps` steps, best of `reps` passes
/// (fresh FDA instance per pass so sync history is comparable). Θ = 0
/// synchronizes every step, so the AllReduce phase is exercised — and
/// timed — on every single step. Phase timings come from the `fda_obs`
/// registry histograms `Fda::step` feeds (sum deltas bracketing each
/// pass), not a bespoke instrumented step.
fn measure_phases(model: ModelId, parallel: bool, reps: usize, steps: usize) -> PhaseSplit {
    let spec = spec_for(model);
    let task = spec.make_task();
    let reg = fda_obs::registry();
    let hists = [
        reg.histogram(fda_core::fda::HIST_LOCAL_STEP_US),
        reg.histogram(fda_core::fda::HIST_MONITOR_US),
        reg.histogram(fda_core::fda::HIST_ALLREDUCE_US),
    ];
    fda_obs::set_enabled(true);
    let mut best: Option<PhaseSplit> = None;
    for _ in 0..reps {
        let mut fda = Fda::new(
            FdaConfig::sketch_auto(0.0),
            ClusterConfig {
                model,
                workers: 4,
                batch_size: spec.batch,
                optimizer: spec.optimizer,
                partition: Partition::Iid,
                seed: 3,
                parallel,
            },
            &task,
        );
        fda.step(); // warm-up: sizes every scratch buffer
        let base: Vec<u64> = hists.iter().map(|h| h.sum()).collect();
        for _ in 0..steps {
            fda.step();
        }
        let delta = |i: usize| -> f64 { (hists[i].sum() - base[i]) as f64 / steps as f64 };
        let acc = PhaseSplit {
            local_step_us: delta(0),
            monitor_us: delta(1),
            allreduce_us: delta(2),
        };
        if best.is_none_or(|b| acc.total() < b.total()) {
            best = Some(acc);
        }
    }
    fda_obs::set_enabled(false);
    best.expect("reps >= 1")
}

fn bench_step_phases(
    model: ModelId,
    name: &'static str,
    reps: usize,
    steps: usize,
) -> StepPhasesResult {
    StepPhasesResult {
        model: name,
        variant: "sketch_auto_theta0",
        seq: measure_phases(model, false, reps, steps),
        pooled: measure_phases(model, true, reps, steps),
    }
}

struct NetBenchResult {
    /// TCP wall time per FDA round, Θ = ∞ (state rendezvous only).
    tcp_state_round_us: f64,
    /// Sequential-simulator wall time per round, same job.
    sim_state_round_us: f64,
    /// TCP wall time per round, Θ = 0 (state + full model AllReduce).
    tcp_sync_round_us: f64,
    /// Simulator wall time per round, Θ = 0.
    sim_sync_round_us: f64,
    /// Charged bytes of the Θ = 0 TCP run (simulator convention).
    charged_bytes: u64,
    /// Same run's payload bytes measured on the sockets.
    measured_payload_bytes: u64,
    /// Same run's raw socket bytes (framing + control plane included).
    raw_socket_bytes: u64,
    /// Same run's consensus-downlink frame bytes (uncharged broadcasts).
    downlink_bytes: u64,
    /// Coordinator-thread marginal heap allocations per steady-state
    /// round (Θ = ∞ state rendezvous, differenced over two run lengths).
    alloc_per_round: f64,
}

/// Loopback TCP round-trip cost of the real socket transport vs the
/// sequential simulator, per FDA round at K = 4 (thread workers speaking
/// real TCP; handshake + per-worker task generation amortize over
/// `steps`). On a single-core host the delta is pure transport overhead —
/// serialization, framing, syscalls, scheduling.
fn bench_net(k: usize, steps: u32, reps: usize) -> NetBenchResult {
    use fda_core::wire::JobSpec;
    use fda_data::synth::SynthSpec;
    // The Θ = 0 job runs the delta-coded downlink (`delta:uniform8:256`,
    // simulator mirrored via `Fda::set_downlink`): every round pays a
    // model AllReduce, so the consensus broadcast dominates raw tx and the
    // coded delta is what keeps raw_over_charged low.
    let downlink_for = |theta: f32| {
        if theta == 0.0 {
            fda_comm::DownlinkSpec::Delta {
                codec: fda_comm::CodecSpec::Uniform8 { chunk: 256 },
            }
        } else {
            fda_comm::DownlinkSpec::Dense
        }
    };
    let spec = |theta: f32, steps: u32| JobSpec {
        cluster: ClusterConfig {
            model: ModelId::Lenet5,
            workers: k,
            batch_size: 16,
            optimizer: fda_optim::OptimizerKind::paper_adam(),
            partition: Partition::Iid,
            seed: 3,
            parallel: false,
        },
        fda: FdaConfig::sketch_auto(theta),
        codec: fda_comm::CodecSpec::Dense,
        downlink: downlink_for(theta),
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "net-bench".to_string(),
    };
    let tcp_round = |theta: f32| -> (f64, fda_net::NetReport) {
        let mut best = f64::MAX;
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            let report =
                fda_net::run_with_thread_workers(&spec(theta, steps)).expect("net bench run");
            best = best.min(t.elapsed().as_secs_f64() / steps as f64 * 1e6);
            last = Some(report);
        }
        (best, last.expect("reps >= 1"))
    };
    let sim_round = |theta: f32| -> f64 {
        let job = spec(theta, steps);
        let task = job.synth.generate(&job.task_name);
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            let mut fda = Fda::new(job.fda, job.cluster.clone(), &task);
            fda.set_downlink(job.downlink);
            for _ in 0..steps {
                fda.step();
            }
            best = best.min(t.elapsed().as_secs_f64() / steps as f64 * 1e6);
        }
        best
    };
    // Coordinator-thread allocations per steady-state round: run the
    // Θ = ∞ job at two lengths and difference, so per-run setup
    // (listener, handshakes, config/resume frames) cancels out.
    let coordinator_allocs = |steps: u32| -> u64 {
        let before = THREAD_ALLOCS.with(Cell::get);
        fda_net::run_with_thread_workers(&spec(f32::MAX, steps)).expect("alloc probe run");
        THREAD_ALLOCS.with(Cell::get) - before
    };
    let _ = coordinator_allocs(3); // warm-up: metric registration etc.
    let (n1, n2) = (3u32, 27u32);
    let alloc_per_round =
        (coordinator_allocs(n2).saturating_sub(coordinator_allocs(n1))) as f64 / (n2 - n1) as f64;
    let (tcp_state_round_us, _) = tcp_round(f32::MAX);
    let (tcp_sync_round_us, sync_report) = tcp_round(0.0);
    assert_eq!(
        sync_report.measured_payload_bytes, sync_report.charged_bytes,
        "net bench: measured socket payload diverged from charged bytes"
    );
    NetBenchResult {
        tcp_state_round_us,
        sim_state_round_us: sim_round(f32::MAX),
        tcp_sync_round_us,
        sim_sync_round_us: sim_round(0.0),
        charged_bytes: sync_report.charged_bytes,
        measured_payload_bytes: sync_report.measured_payload_bytes,
        raw_socket_bytes: sync_report.raw_tx_bytes + sync_report.raw_rx_bytes,
        downlink_bytes: sync_report.downlink_model_bytes,
        alloc_per_round,
    }
}

struct CodecBenchResult {
    codec: &'static str,
    /// Charged payload bytes over the whole Θ = ∞ horizon (state
    /// rendezvous every round, no model AllReduce — isolates the state
    /// payload the codec compresses).
    charged_bytes: u64,
    /// TCP wall time per FDA round under this codec.
    tcp_round_us: f64,
}

/// Per-codec state-payload cost on the wire: the same K = 4 LeNet job as
/// `bench_net`, Θ = ∞ so every round is a state rendezvous and the
/// charged bytes are pure state payload. Dense is the baseline the
/// compression ratios are quoted against.
fn bench_codecs(k: usize, steps: u32, reps: usize) -> Vec<CodecBenchResult> {
    use fda_comm::CodecSpec;
    use fda_core::wire::JobSpec;
    use fda_data::synth::SynthSpec;
    let matrix: [(&'static str, CodecSpec); 4] = [
        ("dense", CodecSpec::Dense),
        ("uniform8", CodecSpec::Uniform8 { chunk: 256 }),
        ("topk64", CodecSpec::TopK { k: 64 }),
        ("driftmask0.2", CodecSpec::DriftMask { threshold: 0.2 }),
    ];
    matrix
        .into_iter()
        .map(|(name, codec)| {
            let spec = JobSpec {
                cluster: ClusterConfig {
                    model: ModelId::Lenet5,
                    workers: k,
                    batch_size: 16,
                    optimizer: fda_optim::OptimizerKind::paper_adam(),
                    partition: Partition::Iid,
                    seed: 3,
                    parallel: false,
                },
                fda: FdaConfig::sketch_auto(f32::MAX),
                codec,
                downlink: fda_comm::DownlinkSpec::Dense,
                steps,
                synth: SynthSpec {
                    n_train: 240,
                    n_test: 80,
                    ..SynthSpec::synth_mnist()
                },
                task_name: "codec-bench".to_string(),
            };
            let mut best = f64::MAX;
            let mut report = None;
            for _ in 0..reps {
                let t = Instant::now();
                let r = fda_net::run_with_thread_workers(&spec).expect("codec bench run");
                best = best.min(t.elapsed().as_secs_f64() / steps as f64 * 1e6);
                report = Some(r);
            }
            let report = report.expect("reps >= 1");
            assert_eq!(
                report.measured_payload_bytes, report.charged_bytes,
                "codec bench {name}: measured socket payload diverged from charged bytes"
            );
            CodecBenchResult {
                codec: name,
                charged_bytes: report.charged_bytes,
                tcp_round_us: best,
            }
        })
        .collect()
}

struct TelemetryOverheadResult {
    steps_per_sec_disabled: f64,
    steps_per_sec_enabled: f64,
    overhead_pct: f64,
}

/// Full-telemetry cost at K = 4: the same Θ = 0 LeNet job stepped with
/// telemetry globally disabled (the default) vs fully enabled — registry
/// spans live *and* per-round JSONL streaming to disk. The disabled path
/// must stay within noise; the enabled path is budgeted at < 2% overhead.
fn bench_telemetry_overhead(reps: usize, steps: usize) -> TelemetryOverheadResult {
    let spec = spec_for(ModelId::Lenet5);
    let task = spec.make_task();
    let mk = || {
        Fda::new(
            FdaConfig::sketch_auto(0.0),
            ClusterConfig {
                model: ModelId::Lenet5,
                workers: 4,
                batch_size: spec.batch,
                optimizer: spec.optimizer,
                partition: Partition::Iid,
                seed: 3,
                parallel: false,
            },
            &task,
        )
    };
    // One pass of `steps` steps, telemetry on or off; passes alternate
    // off/on so slow machine drift cancels out of the comparison instead
    // of landing entirely on whichever mode runs second.
    let pass = |telemetry: bool| -> f64 {
        fda_obs::set_enabled(telemetry);
        let path = std::env::temp_dir().join("fda_bench_telemetry.jsonl");
        let mut fda = mk();
        if telemetry {
            let writer = fda_obs::JsonlWriter::create(&path).expect("telemetry temp file");
            fda.set_telemetry(Some(writer));
        }
        fda.step(); // warm-up
        let t = Instant::now();
        for _ in 0..steps {
            fda.step();
        }
        let per_step = t.elapsed().as_secs_f64() / steps as f64;
        if telemetry {
            fda.set_telemetry(None);
            std::fs::remove_file(&path).ok();
        }
        fda_obs::set_enabled(false);
        per_step
    };
    let mut disabled = f64::MAX;
    let mut enabled = f64::MAX;
    for _ in 0..reps {
        disabled = disabled.min(pass(false));
        enabled = enabled.min(pass(true));
    }
    TelemetryOverheadResult {
        steps_per_sec_disabled: 1.0 / disabled,
        steps_per_sec_enabled: 1.0 / enabled,
        overhead_pct: (enabled - disabled) / disabled * 100.0,
    }
}

/// Raw per-step dispatch cost: K scoped threads spawned-and-joined (what
/// PR 1 paid every `local_step`) vs one rendezvous of the persistent pool.
fn bench_rendezvous(k: usize, iters: u32) -> (f64, f64) {
    let scoped = best_time(5, iters, || {
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
    let pooled = best_time(5, iters, || {
        pool.run(&|lane| {
            std::hint::black_box(lane);
        });
    });
    (scoped.as_secs_f64() * 1e6, pooled.as_secs_f64() * 1e6)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gemm_only = std::env::args().any(|a| a == "--gemm-only");
    // im2col GEMM shapes: (out_c) × (in_c·k·k) × (batch·out_h·out_w).
    let gemms = [
        bench_gemm("lenet_conv2", 12, 54, 1152),
        bench_gemm("lenet_conv1", 6, 9, 4608),
        bench_gemm("vgg16_conv", 64, 576, 9216),
        bench_gemm("dense_square", 256, 256, 256),
    ];
    if gemm_only {
        // Fast kernel-tuning loop: print the GEMM table and exit without
        // touching the JSON.
        println!("kernel: {}", fda_tensor::simd::kernels().name());
        for g in &gemms {
            println!(
                "{}_{}x{}x{}: naive {:.1} us, blocked {:.1} us ({:.2} GF/s), speedup {:.2}",
                g.tag,
                g.m,
                g.k,
                g.n,
                g.naive.as_secs_f64() * 1e6,
                g.blocked.as_secs_f64() * 1e6,
                g.gflops(),
                g.naive.as_secs_f64() / g.blocked.as_secs_f64(),
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
    let steps = [
        bench_steps(ModelId::Lenet5, "lenet5"),
        bench_steps(ModelId::Vgg16Star, "vgg16"),
    ];
    let (phase_reps, phase_steps) = if smoke { (1, 3) } else { (4, 10) };
    let phases = [
        bench_step_phases(ModelId::Lenet5, "lenet5", phase_reps, phase_steps),
        bench_step_phases(ModelId::DenseNet201, "densenet201", phase_reps, phase_steps),
    ];
    let (scoped_us, pool_us) = bench_rendezvous(4, if smoke { 20 } else { 200 });
    let telemetry = bench_telemetry_overhead(if smoke { 1 } else { 5 }, if smoke { 3 } else { 30 });
    let net = bench_net(4, if smoke { 3 } else { 30 }, if smoke { 1 } else { 7 });
    let codec_runs = bench_codecs(4, if smoke { 3 } else { 30 }, if smoke { 1 } else { 3 });
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let kn = fda_tensor::simd::kernels();
    let forced = std::env::var("FDA_FORCE_KERNEL").ok();
    let available: Vec<&str> = fda_tensor::simd::all_supported()
        .iter()
        .map(|k| k.name())
        .collect();

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"kernel_dispatch\": {{\"selected\": \"{}\", \"forced\": {}, \
         \"available\": [{}], \"mr\": {}, \"nr\": {}}},",
        kn.name(),
        forced.map_or("null".to_string(), |f| format!("\"{f}\"")),
        available
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", "),
        kn.mr,
        kn.nr,
    );
    json.push_str("  \"gemm_us\": [\n");
    for (i, g) in gemms.iter().enumerate() {
        let sep = if i + 1 < gemms.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{}_{}x{}x{}\", \"naive_us\": {:.1}, \"blocked_us\": {:.1}, \"speedup\": {:.2}, \"gflops\": {:.1}, \"kernel\": \"{}\"}}{sep}",
            g.tag,
            g.m,
            g.k,
            g.n,
            g.naive.as_secs_f64() * 1e6,
            g.blocked.as_secs_f64() * 1e6,
            g.naive.as_secs_f64() / g.blocked.as_secs_f64(),
            g.gflops(),
            kn.name(),
        );
    }
    json.push_str("  ],\n  \"conv_layer_us\": [\n");
    for (i, c) in conv_layers.iter().enumerate() {
        let sep = if i + 1 < conv_layers.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"layer\": \"{}\", \"batch\": {}, \"backward_kind\": \"{}\", \"reps\": {CONV_REPS}, \"forward_us\": {}, \"backward_us\": {}}}{sep}",
            c.tag,
            c.batch,
            c.backward_kind,
            c.forward.json(),
            c.backward.json(),
        );
    }
    json.push_str("  ],\n  \"local_step_k4\": [\n");
    for (i, s) in steps.iter().enumerate() {
        let sep = if i + 1 < steps.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"steps_per_sec\": {:.1}, \"steps_per_sec_parallel\": {:.1}}}{sep}",
            s.model, s.steps_per_sec, s.steps_per_sec_parallel,
        );
    }
    json.push_str("  ],\n  \"step_phases_k4\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let sep = if i + 1 < phases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"variant\": \"{}\", \
             \"seq\": {{\"local_step_us\": {:.1}, \"monitor_us\": {:.1}, \"allreduce_us\": {:.1}, \"step_us\": {:.1}}}, \
             \"pooled\": {{\"local_step_us\": {:.1}, \"monitor_us\": {:.1}, \"allreduce_us\": {:.1}, \"step_us\": {:.1}}}, \
             \"pooled_speedup_monitor_allreduce\": {:.2}}}{sep}",
            p.model,
            p.variant,
            p.seq.local_step_us,
            p.seq.monitor_us,
            p.seq.allreduce_us,
            p.seq.total(),
            p.pooled.local_step_us,
            p.pooled.monitor_us,
            p.pooled.allreduce_us,
            p.pooled.total(),
            (p.seq.monitor_us + p.seq.allreduce_us)
                / (p.pooled.monitor_us + p.pooled.allreduce_us),
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"rendezvous_us\": {{\"k\": 4, \"scoped_spawn_us\": {scoped_us:.1}, \"pool_dispatch_us\": {pool_us:.1}}},",
    );
    let _ = writeln!(
        json,
        "  \"net_rendezvous_us\": {{\"k\": 4, \
         \"state_only\": {{\"tcp_round_us\": {:.1}, \"sim_round_us\": {:.1}, \"transport_overhead_us\": {:.1}}}, \
         \"full_sync\": {{\"tcp_round_us\": {:.1}, \"sim_round_us\": {:.1}, \"transport_overhead_us\": {:.1}}}, \
         \"net_alloc_per_round\": {:.1}, \
         \"bytes\": {{\"charged\": {}, \"measured_payload\": {}, \"raw_socket\": {}, \"downlink_bytes\": {}, \"raw_over_charged\": {:.2}}}}},",
        net.tcp_state_round_us,
        net.sim_state_round_us,
        net.tcp_state_round_us - net.sim_state_round_us,
        net.tcp_sync_round_us,
        net.sim_sync_round_us,
        net.tcp_sync_round_us - net.sim_sync_round_us,
        net.alloc_per_round,
        net.charged_bytes,
        net.measured_payload_bytes,
        net.raw_socket_bytes,
        net.downlink_bytes,
        net.raw_socket_bytes as f64 / net.charged_bytes as f64,
    );
    json.push_str("  \"codec_state_bytes\": [\n");
    let dense_bytes = codec_runs[0].charged_bytes;
    for (i, c) in codec_runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"codec\": \"{}\", \"charged_bytes\": {}, \"dense_over_codec\": {:.2}, \"tcp_round_us\": {:.1}}}{}",
            c.codec,
            c.charged_bytes,
            dense_bytes as f64 / c.charged_bytes as f64,
            c.tcp_round_us,
            if i + 1 == codec_runs.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"telemetry_overhead\": {{\"model\": \"lenet5\", \"k\": 4, \
         \"steps_per_sec_disabled\": {:.1}, \"steps_per_sec_enabled\": {:.1}, \"overhead_pct\": {:.2}}},",
        telemetry.steps_per_sec_disabled,
        telemetry.steps_per_sec_enabled,
        telemetry.overhead_pct,
    );
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"naive-vs-blocked measured back-to-back in one process; seed-era all-naive LeNet local_step was ~6.3ms (159 steps/sec) on this host. gemm_us.blocked_us runs the runtime-dispatched SIMD kernel layer (kernel_dispatch.selected; override with FDA_FORCE_KERNEL); the PR 4 autovectorized-blocked baseline on this host was lenet_conv2 32.9, lenet_conv1 17.1, vgg16_conv 17542.0, dense_square 620.8 us. conv_layer_us: Conv2d forward/backward on channel-major activations, input clone included; the PR 2 sample-major baseline on this host was lenet_conv1 43.1/90.7, lenet_conv2 65.9/124.8, vgg_conv2b 213.0/411.5 us (fwd/bwd). step_phases: Fda::step at theta=0 (sync every step), SketchAuto monitor, K=4; 'pooled' = persistent WorkerPool (ClusterConfig::parallel), 'seq' = single-thread reference. rendezvous_us compares one pool dispatch against the K scoped thread spawns PR 1 paid per step. net_rendezvous_us: the real TCP loopback transport (fda_net, thread workers speaking the socket protocol, K=4 LeNet) vs the sequential simulator on the same job; state_only = theta inf (state rendezvous every round, dense downlink), full_sync = theta 0 (plus a model AllReduce every round) running the delta-coded downlink delta:uniform8:256 with the simulator mirrored via Fda::set_downlink; transport_overhead_us is the per-round cost of serialization + framing + syscalls on this host. net_alloc_per_round is the coordinator thread's marginal heap allocations per steady-state round (theta inf, differenced over two run lengths; the alloc_regression test fences it). bytes.charged is the simulator convention, bytes.measured_payload the same convention measured frame-by-frame on the socket (asserted equal), bytes.raw_socket counts every byte both directions including framing, control plane and coordinator broadcasts, bytes.downlink_bytes the uncharged consensus-downlink frames inside it; the dense-downlink seed-era baseline was raw_over_charged 2.07 — the coded delta is what holds it under 1.5. Parallel speedups require host_cores > 1; on a single-core host the pooled numbers measure pure rendezvous overhead. codec_state_bytes: the same K=4 LeNet TCP job at theta inf (state rendezvous every round, no model AllReduce) under each uplink codec; charged_bytes is the horizon's accounted state payload (measured==charged asserted), dense_over_codec the compression ratio vs the dense baseline. step_phases timings come from the fda_obs registry histograms Fda::step feeds (microsecond sum deltas per pass). telemetry_overhead: the theta=0 K=4 LeNet job with telemetry globally disabled vs fully enabled (registry spans + per-round JSONL to a temp file); overhead_pct is the enabled-path per-step cost, budgeted < 2%.\""
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
