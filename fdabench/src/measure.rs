//! End-to-end runs (`--trace 0`): the program's own entry points, timed
//! from outside with telemetry off, every output checked.

use crate::check::{decision_string, estimate_bits, params_hash, Checks};
use crate::jobs::{self, LenetJob, Workload};
use crate::Metric;
use fda::core::baselines::Synchronous;
use fda::core::cluster::Cluster;
use fda::core::fda::Fda;
use fda::core::harness::{run_to_target, RunConfig};
use fda::core::strategy::{StepOutcome, Strategy};
use fda::core::wire::JobSpec;
use fda::data::TaskData;
use fda::net::NetReport;
use fda::obs::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions per net run (their median is `setup_s`).
const NET_SETUP_REPS: usize = 15;
/// Minimum (short, long) run pairs per net run.
const NET_MIN_PAIRS: usize = 4;

/// Median; NaN for no samples (every run failed its checks).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean; NaN for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Test accuracy of `params` on `task`'s test split, the way
/// `run_to_target` evaluates the global model.
pub fn test_accuracy(task: &TaskData, model: fda::nn::zoo::ModelId, params: &[f32]) -> f32 {
    let mut m = model.build(0, 0);
    m.load_params(params);
    m.evaluate_batched(task.test.features(), task.test.labels(), 256)
}

/// A strategy wrapper that times `step` (so evaluation is excluded from
/// the step rate) and records the decision sequence.
struct Timed<'a> {
    inner: &'a mut dyn Strategy,
    step_time: Duration,
    decisions: Vec<bool>,
}

impl<'a> Timed<'a> {
    fn new(inner: &'a mut dyn Strategy) -> Timed<'a> {
        Timed {
            inner,
            step_time: Duration::ZERO,
            decisions: Vec::new(),
        }
    }
}

impl Strategy for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn step(&mut self) -> StepOutcome {
        let t = Instant::now();
        let out = self.inner.step();
        self.step_time += t.elapsed();
        self.decisions.push(out.synced);
        out
    }

    fn cluster(&self) -> &Cluster {
        self.inner.cluster()
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        self.inner.cluster_mut()
    }

    fn syncs(&self) -> u64 {
        self.inner.syncs()
    }

    fn comm_bytes(&self) -> u64 {
        self.inner.comm_bytes()
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn global_params(&self) -> Vec<f32> {
        self.inner.global_params()
    }
}

/// What one to-target run produced; repeats of a draw must match exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ToTarget {
    pub reached: bool,
    pub steps: u64,
    pub bytes: u64,
    pub decisions: String,
    pub params_hash: u64,
    pub final_acc: f32,
}

/// The harness settings of `sim-lenet-target` (evaluation every 10 steps).
pub fn lenet_run_config() -> RunConfig {
    RunConfig::to_target(jobs::LENET_TARGET, jobs::LENET_MAX_STEPS)
}

/// Runs `strategy` to the `sim-lenet-target` target through the program's
/// harness; returns the outcome, the wall time and the time inside `step`.
pub fn lenet_to_target(strategy: &mut dyn Strategy, task: &TaskData) -> (ToTarget, f64, f64) {
    let mut timed = Timed::new(strategy);
    let t = Instant::now();
    let res = run_to_target(&mut timed, task, &lenet_run_config());
    let wall = t.elapsed().as_secs_f64();
    let cluster = timed.cluster();
    let params: Vec<Vec<f32>> = (0..cluster.workers())
        .map(|k| cluster.worker(k).params())
        .collect();
    let out = ToTarget {
        reached: res.reached,
        steps: res.steps,
        bytes: res.comm_bytes,
        decisions: decision_string(&timed.decisions),
        params_hash: params_hash(params.iter().map(Vec::as_slice)),
        final_acc: res.trace.last().map_or(f32::NAN, |p| p.test_acc),
    };
    (out, wall, timed.step_time.as_secs_f64())
}

/// `sim-lenet-target`: whole passes over the draws until the budget is
/// spent (at least one). Counts come from each draw's first run, and
/// every repeat must reproduce them bit for bit.
pub fn sim(seed: u64, budget: Duration, checks: &mut Checks) -> Vec<Metric> {
    let draws = jobs::LENET_DRAWS as usize;
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); draws];
    let mut first: Vec<Option<ToTarget>> = vec![None; draws];
    let mut rates = Vec::new();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < budget {
        for (d, first) in first.iter_mut().enumerate() {
            if pass > 0 && start.elapsed() >= budget {
                break;
            }
            let job = LenetJob::new(seed, d as u64, 4);
            let t = Instant::now();
            let task = job.task();
            let mut fda = Fda::new(job.fda, job.cluster.clone(), &task);
            setups.push(t.elapsed().as_secs_f64());
            let (out, wall, in_step) = lenet_to_target(&mut fda, &task);
            eprintln!(
                "draw {d}: {} steps, {} B, {wall:.3} s",
                out.steps, out.bytes
            );
            let mut ok = checks.check(out.reached, || {
                format!("draw {d}: target not reached in {} steps", out.steps)
            });
            match first {
                None => *first = Some(out.clone()),
                Some(f) => ok &= checks.equal("sim-lenet-target repeat", &*f, &out),
            }
            if ok {
                times[d].push(wall);
                rates.push(out.steps as f64 / in_step);
            }
        }
        pass += 1;
    }
    let firsts: Vec<&ToTarget> = first.iter().flatten().collect();
    let per_draw =
        |f: &dyn Fn(&ToTarget) -> f64| mean(&firsts.iter().map(|o| f(o)).collect::<Vec<_>>());
    let timed: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let total_steps: u64 = firsts.iter().map(|o| o.steps).sum();
    let total_bytes: u64 = firsts.iter().map(|o| o.bytes).sum();
    vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("time_to_target_s", mean(&timed), "s"),
        Metric::new("steps_to_target", per_draw(&|o| o.steps as f64), "steps"),
        Metric::new("bytes_to_target", per_draw(&|o| o.bytes as f64), "B"),
        Metric::new("steps_per_s", median(&rates), "1/s"),
        Metric::new(
            "charged_bytes_per_step",
            total_bytes as f64 / total_steps as f64,
            "B",
        ),
        Metric::new(
            "final_test_acc",
            per_draw(&|o| f64::from(o.final_acc)),
            "ratio",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The set-up a net job performs before its first round: every worker
/// generates the task and builds its replica, the coordinator binds and
/// builds its template model and monitor.
fn net_setup(spec: &JobSpec) {
    for k in 0..spec.cluster.workers {
        let task = spec.synth.generate(&spec.task_name);
        black_box(spec.cluster.build_worker(&task.train, k));
    }
    let coordinator = fda::net::Coordinator::bind("127.0.0.1:0").expect("bind loopback");
    let template = spec.cluster.model.build(spec.cluster.seed, 0);
    black_box(spec.fda.variant.build_monitor(template.param_count()));
    black_box(coordinator);
}

/// Runs a net job once and checks measured == charged.
pub fn net_run(spec: &JobSpec, checks: &mut Checks) -> Option<(f64, NetReport)> {
    let t = Instant::now();
    let report = fda::net::run_with_thread_workers(spec);
    let wall = t.elapsed().as_secs_f64();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            checks.check(false, || format!("net run ({} rounds): {e}", spec.steps));
            return None;
        }
    };
    let ok = checks.equal(
        "measured payload bytes vs charged",
        report.measured_payload_bytes,
        report.charged_bytes,
    );
    ok.then_some((wall, report))
}

/// What a net run must reproduce on every repeat and in the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct NetPrint {
    pub decisions: String,
    pub estimates: Vec<u32>,
    pub params_hash: u64,
    pub charged: u64,
}

impl NetPrint {
    pub fn of(report: &NetReport) -> NetPrint {
        NetPrint {
            decisions: decision_string(&report.decisions),
            estimates: estimate_bits(&report.estimates),
            params_hash: params_hash(report.worker_params.iter().map(Vec::as_slice)),
            charged: report.charged_bytes,
        }
    }
}

/// The simulator's trajectory on the same job (codec and downlink
/// mirrored), in the shape of a net run's fingerprint.
pub fn simulate(spec: &JobSpec, task: &TaskData) -> NetPrint {
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), task);
    sim.set_codec(spec.codec);
    sim.set_downlink(spec.downlink);
    let mut decisions = Vec::new();
    let mut estimates = Vec::new();
    for _ in 0..spec.steps {
        let out = sim.step();
        decisions.push(out.synced);
        estimates.push(out.variance_estimate.unwrap_or(f32::NAN));
    }
    let params: Vec<Vec<f32>> = (0..spec.cluster.workers)
        .map(|k| sim.cluster().worker(k).params())
        .collect();
    NetPrint {
        decisions: decision_string(&decisions),
        estimates: estimate_bits(&estimates),
        params_hash: params_hash(params.iter().map(Vec::as_slice)),
        charged: sim.comm_bytes(),
    }
}

/// `net-head-*`: alternating (short, long) run pairs until the budget is
/// spent; per-round time is the long-minus-short difference.
pub fn net(workload: Workload, seed: u64, budget: Duration, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let long = jobs::head_spec(workload, seed, jobs::HEAD_ROUNDS_LONG);
    let short = jobs::head_spec(workload, seed, jobs::HEAD_ROUNDS_SHORT);
    let extra_rounds = f64::from(jobs::HEAD_ROUNDS_LONG - jobs::HEAD_ROUNDS_SHORT);

    let setups: Vec<f64> = (0..NET_SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            net_setup(&long);
            t.elapsed().as_secs_f64()
        })
        .collect();
    // Warm-up: first-use costs (thread stacks, metric handles) stay out of
    // the pairs.
    let _ = net_run(&short, checks);

    let mut reference: Option<(NetPrint, NetReport)> = None;
    let mut per_round = Vec::new();
    let mut long_walls = Vec::new();
    let mut pair = 0;
    while pair < NET_MIN_PAIRS || start.elapsed() < budget {
        let (s, l) = if pair % 2 == 0 {
            let s = net_run(&short, checks);
            (s, net_run(&long, checks))
        } else {
            let l = net_run(&long, checks);
            (net_run(&short, checks), l)
        };
        pair += 1;
        let (Some((ts, _)), Some((tl, report))) = (s, l) else {
            continue;
        };
        let print = NetPrint::of(&report);
        let same = match &reference {
            None => {
                reference = Some((print, report));
                true
            }
            Some((p, _)) => checks.equal("net run repeat", p, &print),
        };
        if same {
            eprintln!("pair {pair}: short {ts:.3} s, long {tl:.3} s");
            per_round.push((tl - ts) / extra_rounds);
            long_walls.push(tl);
        }
    }

    let task = long.synth.generate(&long.task_name);
    let (charged, final_acc) = match &reference {
        Some((print, report)) => {
            checks.equal("net run vs simulator", print, &simulate(&long, &task));
            (
                report.charged_bytes as f64,
                f64::from(test_accuracy(
                    &task,
                    long.cluster.model,
                    &report.final_params,
                )),
            )
        }
        None => (f64::NAN, f64::NAN),
    };
    let rounds = f64::from(long.steps);
    vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("time_to_target_s", median(&long_walls), "s"),
        Metric::new("steps_to_target", rounds, "steps"),
        Metric::new("bytes_to_target", charged, "B"),
        Metric::new("steps_per_s", 1.0 / median(&per_round), "1/s"),
        Metric::new("charged_bytes_per_step", charged / rounds, "B"),
        Metric::new("final_test_acc", final_acc, "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The single-worker (K = 1, Synchronous) baseline of the
/// `sim-lenet-target` task, averaged over the same draws.
pub fn reference(seed: u64) -> Json {
    let mut rows = Vec::new();
    let (mut steps, mut walls) = (Vec::new(), Vec::new());
    for d in 0..jobs::LENET_DRAWS {
        let job = LenetJob::new(seed, d, 1);
        let task = job.task();
        let mut sync = Synchronous::new(job.cluster.clone(), &task);
        let (out, wall, _) = lenet_to_target(&mut sync, &task);
        steps.push(out.steps as f64);
        walls.push(wall);
        rows.push(Json::Obj(vec![
            ("draw".into(), Json::u64(d)),
            ("reached".into(), Json::Bool(out.reached)),
            ("steps".into(), Json::u64(out.steps)),
            ("bytes".into(), Json::u64(out.bytes)),
            ("wall_s".into(), Json::f64(wall)),
            ("final_test_acc".into(), Json::f32(out.final_acc)),
        ]));
    }
    Json::Obj(vec![
        (
            "task".into(),
            Json::str("sim-lenet-target, K = 1, Synchronous"),
        ),
        ("seed".into(), Json::u64(seed)),
        ("steps_to_target".into(), Json::f64(mean(&steps))),
        ("time_to_target_s".into(), Json::f64(mean(&walls))),
        ("draws".into(), Json::Arr(rows)),
    ])
}
