//! The traced run (`--trace 1`): the benchmark rebuilds each FDA round
//! from the crates' public calls, records a span around every call into a
//! layer, proves the composition bit-identical to the program's own round
//! (`Fda::step`, or the TCP run's `NetReport`), and reports per-layer self
//! times plus what the spans leave unattributed.
//!
//! Spans are the benchmark's own; nothing inside the program is
//! instrumented. Telemetry the program already emits (round-event JSONL,
//! `fda_obs` switch) is read as it is.

use crate::alloc::thread_allocs;
use crate::check::{decision_string, estimate_bits, params_hash, Checks};
use crate::jobs::{self, LenetJob, Workload};
use crate::layers::Layer;
use crate::measure::{self, median, net_run, NetPrint};
use crate::Metric;
use fda::comm::{apply_delta_downlink, delta_downlink, SimNetwork};
use fda::core::cluster::ClusterConfig;
use fda::core::fda::Fda;
use fda::core::monitor::{LocalState, VarianceMonitor};
use fda::core::strategy::Strategy;
use fda::core::wire::{
    decode_state_coded, decode_vector_coded, encode_state_coded_into, encode_state_into,
    encode_vector_coded_into, encode_vector_into, state_frame_overhead, JobSpec,
};
use fda::data::batch::BatchSampler;
use fda::data::{Dataset, TaskData};
use fda::net::frame::{read_frame_into, write_frame};
use fda::net::{FrameKind, Msg, NetReport};
use fda::nn::{Sequential, SoftmaxCrossEntropy};
use fda::obs::{JsonlWriter, RoundEvent};
use fda::optim::Optimizer;
use fda::tensor::{vector, Rng};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Minimum interleaved (off, on) pairs behind an overhead figure; more
/// run while the time budget lasts.
const MIN_PAIRS: usize = 3;
/// Steps per `sim-lenet-target` telemetry-overhead sample.
const SIM_TELEMETRY_STEPS: u64 = 150;
/// Rounds per `net-head-*` telemetry-overhead sample.
const NET_TELEMETRY_ROUNDS: u32 = 150;

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

struct Rec {
    layer: Layer,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder. With `on == false` every span is a plain call,
/// which is how the untraced twin of a traced run is timed.
struct Tracer {
    on: bool,
    spans: Vec<Rec>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, layer: Layer) {
        if self.on {
            let now = Instant::now();
            self.spans.push(Rec {
                layer,
                parent: self.open.last().copied(),
                start: now,
                end: now,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn end(&mut self) {
        if self.on {
            let id = self.open.pop().expect("end without begin");
            self.spans[id].end = Instant::now();
        }
    }

    /// Runs `f` inside a span of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let r = f();
        self.end();
        r
    }

    /// Self time per layer (span duration minus its children's), in
    /// seconds, indexed by `Layer as usize`.
    fn self_times(&self) -> [f64; Layer::COUNT] {
        let dur = |r: &Rec| r.end.duration_since(r.start).as_secs_f64();
        let mut children = vec![0.0f64; self.spans.len()];
        for r in &self.spans {
            if let Some(p) = r.parent {
                children[p] += dur(r);
            }
        }
        let mut times = [0.0; Layer::COUNT];
        for (r, c) in self.spans.iter().zip(&children) {
            times[r.layer as usize] += dur(r) - c;
        }
        times
    }

    /// Total duration of the spans of `layer`, in seconds.
    fn total(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|r| r.layer == layer)
            .map(|r| r.end.duration_since(r.start).as_secs_f64())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Workers rebuilt from public parts
// ---------------------------------------------------------------------------

/// One worker as `ClusterConfig::build_worker` makes it, with its sampler
/// and optimizer (private inside `Worker`) rebuilt from the same public
/// constructors and seed derivation. The bit-identity checks prove the
/// rebuild exact.
struct Replica {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    sampler: BatchSampler,
    channels: Option<usize>,
    params: Vec<f32>,
    grads: Vec<f32>,
    drift: Vec<f32>,
    state: LocalState,
    /// Uplink scratch: the encoded state or model payload.
    up: Vec<u8>,
}

fn replicas(
    cfg: &ClusterConfig,
    train: &Dataset,
    monitor: &dyn VarianceMonitor,
) -> (Vec<Replica>, Vec<f32>) {
    let shards = cfg.partition.shards(train, cfg.workers, cfg.seed ^ 0x5AAD);
    let template = cfg.model.build(cfg.seed, 0);
    let dim = template.param_count();
    let w0 = template.params_flat();
    let reps = shards
        .into_iter()
        .enumerate()
        .map(|(k, shard)| {
            let mut model = cfg.model.build(cfg.seed, cfg.seed ^ (k as u64 + 1));
            model.load_params(&w0);
            let channels = model.input_shape().map(|s| s.c);
            Replica {
                model,
                optimizer: cfg.optimizer.build(dim),
                sampler: BatchSampler::new(
                    shard,
                    cfg.batch_size,
                    Rng::new(cfg.seed ^ 0xBA7C4).split(k as u64),
                ),
                channels,
                params: vec![0.0; dim],
                grads: vec![0.0; dim],
                drift: vec![0.0; dim],
                state: monitor.local_state(&vec![0.0; dim]),
                up: Vec::new(),
            }
        })
        .collect();
    (reps, w0)
}

/// `Worker::step_once`, call by call.
fn local_step(tr: &mut Tracer, r: &mut Replica, train: &Dataset) {
    let (x, y) = tr.span(Layer::Sample, || r.sampler.sample_native(train, r.channels));
    tr.span(Layer::Backward, || r.model.zero_grads());
    let logits = tr.span(Layer::Forward, || r.model.forward_native(x, true));
    let (_, dlogits, _) = tr.span(Layer::Loss, || SoftmaxCrossEntropy.forward(&logits, &y));
    tr.span(Layer::Backward, || {
        r.model.backward(&dlogits);
    });
    tr.span(Layer::ParamCopy, || {
        r.model.copy_params_to(&mut r.params);
        r.model.copy_grads_to(&mut r.grads);
    });
    tr.span(Layer::Optim, || r.optimizer.step(&mut r.params, &r.grads));
    tr.span(Layer::ParamCopy, || r.model.load_params(&r.params));
}

fn worker_params(reps: &[Replica]) -> u64 {
    let params: Vec<Vec<f32>> = reps.iter().map(|r| r.model.params_flat()).collect();
    params_hash(params.iter().map(Vec::as_slice))
}

/// Per-layer self times of a traced run, per in-parallel step (µs), with
/// the unattributed share of the run span.
struct Attribution {
    per_step_us: [f64; Layer::COUNT],
    round_us: f64,
    unattributed_share: f64,
}

fn attribute(tr: &Tracer, steps: u64, checks: &mut Checks) -> Attribution {
    let times = tr.self_times();
    let wall = tr.total(Layer::Run);
    let unattributed = times[Layer::Run as usize] + times[Layer::Round as usize];
    let accounted: f64 = times.iter().sum();
    checks.check(
        times.iter().all(|&t| t >= 0.0) && (accounted - wall).abs() <= 1e-9 * wall.max(1.0),
        || format!("trace does not account for the run: {accounted} s of {wall} s"),
    );
    let steps = steps.max(1) as f64;
    Attribution {
        per_step_us: times.map(|t| t * 1e6 / steps),
        round_us: tr.total(Layer::Round) * 1e6 / steps,
        unattributed_share: unattributed / wall,
    }
}

/// Times `sample(false)` against `sample(true)` in pairs, alternating
/// which runs first, for at least [`MIN_PAIRS`] pairs and then until
/// `deadline`; returns `(on − off) / off` of the medians, in percent.
/// A sample of `None` (a failed run) drops its pair.
fn interleave(deadline: Instant, mut sample: impl FnMut(bool) -> Option<f64>) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut pair = 0;
    while pair < MIN_PAIRS || Instant::now() < deadline {
        let first_on = pair % 2 == 1;
        let a = sample(first_on);
        let b = sample(!first_on);
        let (x_off, x_on) = if first_on { (b, a) } else { (a, b) };
        if let (Some(x_off), Some(x_on)) = (x_off, x_on) {
            off.push(x_off);
            on.push(x_on);
        }
        pair += 1;
    }
    if off.is_empty() {
        return f64::NAN;
    }
    let off = median(&off);
    (median(&on) - off) / off * 100.0
}

/// Scratch directory inside the working directory for telemetry streams.
const SCRATCH_DIR: &str = ".fdabench";

fn scratch_file(name: &str) -> PathBuf {
    std::fs::create_dir_all(SCRATCH_DIR).expect("create the scratch directory");
    PathBuf::from(SCRATCH_DIR).join(name)
}

/// Removes a scratch file, and the scratch directory once it is empty.
fn remove_scratch(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
}

fn layer_metrics(
    a: &Attribution,
    eval_ms: f64,
    dense_over_coded: f64,
    net: NetLayer,
    telemetry_overhead_pct: f64,
    trace_overhead_pct: f64,
) -> Vec<Metric> {
    let us = |l: Layer| a.per_step_us[l as usize];
    vec![
        Metric::new("data.sample_us", us(Layer::Sample), "us"),
        Metric::new("nn.forward_us", us(Layer::Forward), "us"),
        Metric::new("nn.loss_us", us(Layer::Loss), "us"),
        Metric::new("nn.backward_us", us(Layer::Backward), "us"),
        Metric::new("nn.eval_ms", eval_ms, "ms"),
        Metric::new("optim.step_us", us(Layer::Optim), "us"),
        Metric::new("core.param_copy_us", us(Layer::ParamCopy), "us"),
        Metric::new("core.monitor.local_state_us", us(Layer::LocalState), "us"),
        Metric::new("core.monitor.estimate_us", us(Layer::Estimate), "us"),
        Metric::new("core.allreduce_us", us(Layer::Allreduce), "us"),
        Metric::new("comm.encode_us", us(Layer::Encode), "us"),
        Metric::new("comm.decode_us", us(Layer::Decode), "us"),
        Metric::new("comm.delta_downlink_us", us(Layer::DeltaDownlink), "us"),
        Metric::new("comm.dense_over_coded", dense_over_coded, "ratio"),
        Metric::new("net.frame_write_us", us(Layer::FrameWrite), "us"),
        Metric::new("net.frame_read_us", us(Layer::FrameRead), "us"),
        Metric::new("net.frames_per_step", net.frames_per_step, "count"),
        Metric::new("net.raw_bytes_per_step", net.raw_bytes_per_step, "B"),
        Metric::new("net.raw_over_charged", net.raw_over_charged, "ratio"),
        Metric::new("net.coord_allocs_per_step", net.allocs_per_step, "count"),
        Metric::new("net.deposit_wait_us.p50", net.deposit_p50_us, "us"),
        Metric::new("net.deposit_wait_us.p90", net.deposit_p90_us, "us"),
        Metric::new("net.drops", net.drops, "count"),
        Metric::new("obs.telemetry_overhead_pct", telemetry_overhead_pct, "%"),
        Metric::new("trace.round_us", a.round_us, "us"),
        Metric::new("trace.unattributed_share", a.unattributed_share, "ratio"),
        Metric::new("trace.overhead_pct", trace_overhead_pct, "%"),
    ]
}

/// Transport-side per-layer figures (all zero where no socket exists).
#[derive(Default)]
struct NetLayer {
    frames_per_step: f64,
    raw_bytes_per_step: f64,
    raw_over_charged: f64,
    allocs_per_step: f64,
    deposit_p50_us: f64,
    deposit_p90_us: f64,
    drops: f64,
}

// ---------------------------------------------------------------------------
// sim-lenet-target
// ---------------------------------------------------------------------------

/// What the composed to-target run produced.
struct Composed {
    out: measure::ToTarget,
    evals: u64,
    wall: f64,
}

/// `run_to_target` over `Fda::step` (dense, sequential), call by call.
fn compose_lenet(tr: &mut Tracer, job: &LenetJob, task: &TaskData) -> Composed {
    let t = Instant::now();
    let run = measure::lenet_run_config();
    let cfg = &job.cluster;
    let template = cfg.model.build(cfg.seed, 0);
    let mut monitor = job.fda.variant.build_monitor(template.param_count());
    let (mut reps, w0) = replicas(cfg, &task.train, monitor.as_ref());
    let k = reps.len();
    let mut w_sync = w0;
    let mut net = SimNetwork::new(k);
    let mut eval_model = cfg.model.build(0, 0);
    let mut avg = vec![0.0f32; w_sync.len()];
    let mut scratch = vec![0.0f32; w_sync.len()];
    let (mut steps, mut evals) = (0u64, 0u64);
    let mut decisions = Vec::new();

    tr.begin(Layer::Run);
    let mut evaluate = |tr: &mut Tracer, reps: &[Replica]| -> f32 {
        evals += 1;
        tr.span(Layer::Eval, || {
            // `Cluster::average_params`, then the harness's evaluation.
            vector::fill(&mut avg, 0.0);
            for r in reps {
                r.model.copy_params_to(&mut scratch);
                vector::add_assign(&mut avg, &scratch);
            }
            vector::scale(&mut avg, 1.0 / reps.len() as f32);
            eval_model.load_params(&avg);
            eval_model.evaluate_batched(task.test.features(), task.test.labels(), run.eval_batch)
        })
    };
    let mut acc = evaluate(tr, &reps);
    while acc < run.accuracy_target && steps < run.max_steps {
        for _ in 0..run.eval_every {
            tr.begin(Layer::Round);
            for r in reps.iter_mut() {
                local_step(tr, r, &task.train);
            }
            steps += 1;
            for r in reps.iter_mut() {
                tr.span(Layer::ParamCopy, || r.model.copy_params_to(&mut r.drift));
                tr.span(Layer::LocalState, || {
                    vector::sub_assign(&mut r.drift, &w_sync);
                    monitor.local_state_into(&r.drift, &mut r.state);
                });
            }
            net.charge_allreduce(monitor.state_bytes());
            let estimate = tr.span(Layer::Estimate, || {
                let refs: Vec<&LocalState> = reps.iter().map(|r| &r.state).collect();
                monitor.estimate(&LocalState::average_refs(&refs))
            });
            let sync = estimate > job.fda.theta;
            decisions.push(sync);
            if sync {
                let mut bufs: Vec<Vec<f32>> = tr.span(Layer::ParamCopy, || {
                    reps.iter().map(|r| r.model.params_flat()).collect()
                });
                tr.span(Layer::Allreduce, || net.allreduce_mean(&mut bufs));
                tr.span(Layer::ParamCopy, || {
                    for (r, b) in reps.iter_mut().zip(&bufs) {
                        r.model.load_params(b);
                    }
                });
                let w_new = bufs.swap_remove(0);
                tr.span(Layer::Allreduce, || monitor.on_sync(&w_new, &w_sync));
                w_sync = w_new;
            }
            tr.end();
            if steps >= run.max_steps {
                break;
            }
        }
        acc = evaluate(tr, &reps);
    }
    tr.end();
    Composed {
        out: measure::ToTarget {
            reached: acc >= run.accuracy_target,
            steps,
            bytes: net.total_bytes(),
            decisions: decision_string(&decisions),
            params_hash: worker_params(&reps),
            final_acc: acc,
        },
        evals,
        wall: t.elapsed().as_secs_f64(),
    }
}

/// Telemetry off vs on (registry spans plus the round-event JSONL),
/// interleaved, over `Fda::step`.
fn sim_telemetry_overhead(job: &LenetJob, task: &TaskData, deadline: Instant) -> f64 {
    let path = scratch_file("sim-telemetry.jsonl");
    let pct = interleave(deadline, |on| {
        let mut fda = Fda::new(job.fda, job.cluster.clone(), task);
        if on {
            fda::obs::set_enabled(true);
            let writer = JsonlWriter::create(&path).expect("create telemetry stream");
            fda.set_telemetry(Some(writer));
        }
        let t = Instant::now();
        for _ in 0..SIM_TELEMETRY_STEPS {
            fda.step();
        }
        let wall = t.elapsed().as_secs_f64();
        fda.set_telemetry(None);
        fda::obs::set_enabled(false);
        Some(wall)
    });
    remove_scratch(&path);
    pct
}

pub fn sim(seed: u64, budget: Duration, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let job = LenetJob::new(seed, 0, 4);
    let task = job.task();

    // The program's own run: the reference the composition must equal.
    let mut fda = Fda::new(job.fda, job.cluster.clone(), &task);
    let (reference, _, _) = measure::lenet_to_target(&mut fda, &task);
    checks.check(reference.reached, || {
        "reference run missed the target".into()
    });

    // Traced and untraced compositions, interleaved; the first traced one
    // supplies the attribution.
    let mut first: Option<(Tracer, Composed)> = None;
    let trace_overhead = interleave(start + budget / 2, |on| {
        let mut tr = Tracer::new(on);
        let composed = compose_lenet(&mut tr, &job, &task);
        checks.equal("composition vs Fda::step", &reference, &composed.out);
        let wall = composed.wall;
        if on && first.is_none() {
            first = Some((tr, composed));
        }
        Some(wall)
    });
    let (traced, composed) = first.expect("at least one traced composition");
    let a = attribute(&traced, composed.out.steps, checks);
    let eval_ms = a.per_step_us[Layer::Eval as usize] * composed.out.steps as f64
        / 1e3
        / composed.evals as f64;
    let telemetry = sim_telemetry_overhead(&job, &task, start + budget);
    layer_metrics(
        &a,
        eval_ms,
        1.0,
        NetLayer::default(),
        telemetry,
        trace_overhead,
    )
}

// ---------------------------------------------------------------------------
// net-head-*
// ---------------------------------------------------------------------------

/// A loopback TCP pair carrying the round's frames through the transport's
/// own `write_frame` / `read_frame_into`. A reader thread drains the far
/// end and acknowledges each frame's kind and payload length.
struct FramePipe {
    tx: TcpStream,
    acks: mpsc::Receiver<(u8, usize)>,
    reader: std::thread::JoinHandle<()>,
    /// `(kind, payload length)` of each frame pushed since the last drain.
    expected: Vec<(u8, usize)>,
    frames: u64,
}

impl FramePipe {
    fn open() -> std::io::Result<FramePipe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (mut rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        let (ack_tx, acks) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            while let Ok((kind, _epoch)) = read_frame_into(&mut rx, &mut buf) {
                if ack_tx.send((kind as u8, buf.len() - 1)).is_err() {
                    break;
                }
            }
        });
        Ok(FramePipe {
            tx,
            acks,
            reader,
            expected: Vec::new(),
            frames: 0,
        })
    }

    /// Sends one frame (`net.frame_write`); the far end reads it while the
    /// round goes on.
    fn push(&mut self, tr: &mut Tracer, kind: FrameKind, payload: &[u8]) -> bool {
        self.frames += 1;
        self.expected.push((kind as u8, payload.len()));
        let tx = &mut self.tx;
        tr.span(Layer::FrameWrite, || write_frame(tx, 1, kind, payload))
            .is_ok()
    }

    /// Waits until the far end has read every frame pushed since the last
    /// drain, each intact (`net.frame_read`: the part of the reads the
    /// round's other work did not hide). One wake-up per round instead of
    /// one per frame keeps thread scheduling out of the figure.
    fn drain(&mut self, tr: &mut Tracer) -> bool {
        let (acks, expected) = (&self.acks, &self.expected);
        let ok = tr.span(Layer::FrameRead, || {
            expected.iter().all(|e| acks.recv() == Ok(*e))
        });
        self.expected.clear();
        ok
    }

    fn close(self) {
        let _ = self.tx.shutdown(std::net::Shutdown::Both);
        drop(self.tx);
        let _ = self.reader.join();
    }
}

/// What the composed net round sequence produced.
struct NetComposed {
    print: NetPrint,
    frames_ok: bool,
    frames: u64,
    dense_bytes: u64,
    wall: f64,
}

/// The coordinator's and workers' round (`Coordinator::run` with the
/// worker loop of `fda_net::worker`), call by call, with every frame
/// pushed through `pipe`.
fn compose_head(
    tr: &mut Tracer,
    spec: &JobSpec,
    task: &TaskData,
    pipe: &mut FramePipe,
) -> NetComposed {
    let t = Instant::now();
    let cfg = &spec.cluster;
    let template = cfg.model.build(cfg.seed, 0);
    let dim = template.param_count();
    let mut monitor = spec.fda.variant.build_monitor(dim);
    let shape = monitor.local_state(&vec![0.0; dim]);
    let overhead = state_frame_overhead(&shape);
    let codec = spec.codec.build();
    let coded = !spec.codec.is_dense();
    let downlink = spec.downlink.build();
    let (mut reps, w0) = replicas(cfg, &task.train, monitor.as_ref());
    let k = reps.len();
    let mut w_sync = w0;
    let mut net = SimNetwork::new(k);
    let mut bcast: Vec<u8> = Vec::new();
    let (mut decisions, mut estimates) = (Vec::new(), Vec::new());
    let mut frames_ok = true;
    let mut dense_bytes = 0u64;
    let frames_before = pipe.frames;

    tr.begin(Layer::Run);
    for _ in 0..spec.steps {
        tr.begin(Layer::Round);
        // Workers: local step, state, encoded deposit.
        let mut states = Vec::with_capacity(k);
        let mut payloads = Vec::with_capacity(k);
        for r in reps.iter_mut() {
            local_step(tr, r, &task.train);
            tr.span(Layer::ParamCopy, || r.model.copy_params_to(&mut r.params));
            tr.span(Layer::LocalState, || {
                vector::sub_into(&r.params, &w_sync, &mut r.drift);
                monitor.local_state_into(&r.drift, &mut r.state);
            });
            tr.span(Layer::Encode, || {
                r.up.clear();
                encode_state_coded_into(&r.state, codec.as_ref(), &mut r.up);
            });
            frames_ok &= pipe.push(tr, FrameKind::State, &r.up);
            // Coordinator: decode against the expected shape.
            let decoded = tr.span(Layer::Decode, || {
                decode_state_coded(&r.up, &shape, codec.as_ref())
            });
            states.push(decoded.expect("state decodes"));
            payloads.push(r.up.len() as u64 - overhead);
            dense_bytes += 4 + 4 * r.state.summary_slice().len() as u64;
        }
        if coded {
            net.charge_per_worker(&payloads);
        } else {
            net.charge_allreduce(monitor.state_bytes());
        }
        // Coordinator: reduce, decide, broadcast.
        let refs: Vec<&LocalState> = states.iter().collect();
        let avg = tr.span(Layer::Estimate, || LocalState::average_refs(&refs));
        let estimate = tr.span(Layer::Estimate, || monitor.estimate(&avg));
        let sync = estimate > spec.fda.theta;
        decisions.push(sync);
        estimates.push(estimate);
        tr.span(Layer::Encode, || {
            bcast.clear();
            bcast.push(sync as u8);
            encode_state_into(&avg, &mut bcast);
        });
        for _ in 0..k {
            frames_ok &= pipe.push(tr, FrameKind::AvgState, &bcast);
            let msg = tr.span(Layer::Decode, || Msg::decode(FrameKind::AvgState, &bcast));
            let agrees = match msg {
                Ok(Msg::AvgState { state, sync: s }) => {
                    tr.span(Layer::Estimate, || {
                        monitor.estimate(&state) > spec.fda.theta
                    }) == s
                }
                _ => false,
            };
            frames_ok &= agrees;
        }
        if sync {
            // Workers: coded model uploads; coordinator: decode and reduce.
            let mut bufs = Vec::with_capacity(k);
            let mut model_payloads = Vec::with_capacity(k);
            for r in reps.iter_mut() {
                tr.span(Layer::Encode, || {
                    r.up.clear();
                    encode_vector_coded_into(&r.params, codec.as_ref(), &mut r.up);
                });
                frames_ok &= pipe.push(tr, FrameKind::Model, &r.up);
                let v = tr.span(Layer::Decode, || {
                    decode_vector_coded(&r.up, dim, codec.as_ref())
                });
                bufs.push(v.expect("model decodes"));
                model_payloads.push(r.up.len() as u64 - 4);
                dense_bytes += 4 * dim as u64;
            }
            tr.span(Layer::Allreduce, || {
                if coded {
                    net.allreduce_mean_with(&mut bufs, &model_payloads);
                } else {
                    net.allreduce_mean(&mut bufs);
                }
            });
            let mean = bufs.swap_remove(0);
            // Downlink: dense consensus, or the coded delta against the
            // previous consensus that every worker reconstructs.
            let mut received = Vec::with_capacity(k);
            let consensus = match &downlink {
                Some(dc) => {
                    let (payload, recon) = tr.span(Layer::DeltaDownlink, || {
                        delta_downlink(&w_sync, &mean, dc.as_ref())
                    });
                    bcast.clear();
                    bcast.extend_from_slice(&(dim as u32).to_le_bytes());
                    bcast.extend_from_slice(&payload);
                    for _ in 0..k {
                        frames_ok &= pipe.push(tr, FrameKind::AvgModelDelta, &bcast);
                        let v = tr.span(Layer::DeltaDownlink, || {
                            apply_delta_downlink(&w_sync, &bcast[4..], dc.as_ref())
                        });
                        received.push(v.expect("delta decodes"));
                    }
                    recon
                }
                None => {
                    tr.span(Layer::Encode, || {
                        bcast.clear();
                        encode_vector_into(&mean, &mut bcast);
                    });
                    for _ in 0..k {
                        frames_ok &= pipe.push(tr, FrameKind::AvgModel, &bcast);
                        match tr.span(Layer::Decode, || Msg::decode(FrameKind::AvgModel, &bcast)) {
                            Ok(Msg::AvgModel(v)) => received.push(v),
                            _ => frames_ok = false,
                        }
                    }
                    mean
                }
            };
            frames_ok &= received.iter().all(|v| *v == consensus);
            tr.span(Layer::ParamCopy, || {
                for (r, v) in reps.iter_mut().zip(&received) {
                    r.model.load_params(v);
                }
            });
            tr.span(Layer::Allreduce, || monitor.on_sync(&consensus, &w_sync));
            w_sync = consensus;
        }
        frames_ok &= pipe.drain(tr);
        tr.end();
    }
    tr.end();
    NetComposed {
        print: NetPrint {
            decisions: decision_string(&decisions),
            estimates: estimate_bits(&estimates),
            params_hash: worker_params(&reps),
            charged: net.total_bytes(),
        },
        frames_ok,
        frames: pipe.frames - frames_before,
        dense_bytes,
        wall: t.elapsed().as_secs_f64(),
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the interleaved telemetry-off/on TCP runs yield.
struct NetTelemetry {
    overhead_pct: f64,
    /// Every deposit latency the "on" runs' round events recorded, in µs.
    deposits_us: Vec<f64>,
    drops: u64,
    /// A telemetry-off run's report, for checking compositions against.
    report: Option<NetReport>,
}

/// Telemetry off vs on over the TCP run, interleaved; the "on" runs'
/// round-event JSONL supplies the deposit latencies and drops.
fn net_telemetry(spec: &JobSpec, deadline: Instant, checks: &mut Checks) -> NetTelemetry {
    let path = scratch_file("net-telemetry.jsonl");
    let mut deposits_us = Vec::new();
    let mut drops = 0u64;
    let mut report = None;
    let overhead_pct = interleave(deadline, |tele| {
        if !tele {
            let (wall, r) = net_run(spec, checks)?;
            report.get_or_insert(r);
            return Some(wall);
        }
        fda::obs::set_enabled(true);
        let t = Instant::now();
        let run = fda::net::run_with_thread_workers_telemetry(spec, Some(&path));
        let wall = t.elapsed().as_secs_f64();
        fda::obs::set_enabled(false);
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("telemetry run: {e}"));
                return None;
            }
        };
        checks.equal(
            "measured payload bytes vs charged",
            run.measured_payload_bytes,
            run.charged_bytes,
        );
        let lines = fda::obs::read_jsonl(&path).unwrap_or_default();
        let rounds: Vec<RoundEvent> = lines
            .iter()
            .filter_map(|j| RoundEvent::from_json(j).ok())
            .collect();
        checks.equal("round events", rounds.len(), spec.steps as usize);
        for ev in &rounds {
            deposits_us.extend(ev.deposit_us.iter().map(|&(_, us)| us as f64));
            drops += ev.drops.len() as u64;
        }
        Some(wall)
    });
    remove_scratch(&path);
    NetTelemetry {
        overhead_pct,
        deposits_us,
        drops,
        report,
    }
}

pub fn net(workload: Workload, seed: u64, budget: Duration, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let long = jobs::head_spec(workload, seed, jobs::HEAD_ROUNDS_LONG);
    let short = jobs::head_spec(workload, seed, jobs::HEAD_ROUNDS_SHORT);
    let mid = jobs::head_spec(workload, seed, NET_TELEMETRY_ROUNDS);
    let task = long.synth.generate(&long.task_name);
    let extra = f64::from(jobs::HEAD_ROUNDS_LONG - jobs::HEAD_ROUNDS_SHORT);

    // Transport counts from a short/long pair: marginal coordinator-thread
    // allocations and socket bytes per round.
    let _ = net_run(&short, checks);
    let probe = |spec: &JobSpec, checks: &mut Checks| {
        let before = thread_allocs();
        let run = net_run(spec, checks);
        (thread_allocs() - before, run.map(|(_, r)| r))
    };
    let (allocs_s, run_s) = probe(&short, checks);
    let (allocs_l, run_l) = probe(&long, checks);
    let mut layer = NetLayer::default();
    if let (Some(rs), Some(rl)) = (&run_s, &run_l) {
        let raw = |r: &NetReport| (r.raw_tx_bytes + r.raw_rx_bytes) as f64;
        let raw_delta = raw(rl) - raw(rs);
        layer.raw_bytes_per_step = raw_delta / extra;
        layer.raw_over_charged = raw_delta / (rl.charged_bytes - rs.charged_bytes) as f64;
        layer.allocs_per_step = allocs_l.saturating_sub(allocs_s) as f64 / extra;
    }

    let mut tele = net_telemetry(&mid, start + budget / 2, checks);
    tele.deposits_us.sort_by(f64::total_cmp);
    layer.deposit_p50_us = percentile(&tele.deposits_us, 50.0);
    layer.deposit_p90_us = percentile(&tele.deposits_us, 90.0);
    layer.drops = tele.drops as f64;

    // The long composition, traced, supplies the attribution; mid-length
    // ones, traced and untraced in turn, the tracing overhead. Each must
    // retrace the TCP run of its horizon.
    let mut pipe = FramePipe::open().expect("open loopback frame pipe");
    let mut traced = Tracer::new(true);
    let composed = compose_head(&mut traced, &long, &task, &mut pipe);
    verify(&composed, run_l.as_ref(), checks);
    let trace_overhead = interleave(start + budget, |on| {
        let c = compose_head(&mut Tracer::new(on), &mid, &task, &mut pipe);
        verify(&c, tele.report.as_ref(), checks);
        Some(c.wall)
    });
    pipe.close();
    let a = attribute(&traced, u64::from(long.steps), checks);
    layer.frames_per_step = composed.frames as f64 / f64::from(long.steps);

    let eval_ms = match &run_l {
        Some(r) => {
            let walls: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(measure::test_accuracy(
                        &task,
                        long.cluster.model,
                        &r.final_params,
                    ));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&walls)
        }
        None => f64::NAN,
    };

    layer_metrics(
        &a,
        eval_ms,
        composed.dense_bytes as f64 / composed.print.charged as f64,
        layer,
        tele.overhead_pct,
        trace_overhead,
    )
}

/// A composition must deliver every frame intact and retrace the TCP run.
fn verify(c: &NetComposed, tcp: Option<&NetReport>, checks: &mut Checks) {
    checks.check(c.frames_ok, || {
        "a frame or broadcast arrived altered".into()
    });
    if let Some(r) = tcp {
        checks.equal("composed round vs TCP run", &NetPrint::of(r), &c.print);
    }
}
