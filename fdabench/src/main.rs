//! `fdabench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path fdabench/Cargo.toml -- \
//!     --workload sim-lenet-target --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (see [`jobs::Workload`]) for about `--seconds`
//! seconds (`sim-lenet-target` always finishes its draws), checks the
//! program's outputs, and prints as its last stdout line one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics with tracing off; `--trace 1` runs the traced
//! composition and reports the per-layer metrics. A `provenance` line
//! (host cores and steal share, SIMD kernel arm, commit, compiler)
//! precedes the result.
//!
//! Two auxiliary modes:
//!
//! * `--reference [--seed n]` runs the single-worker (K = 1,
//!   Synchronous) baseline of the `sim-lenet-target` task once and prints
//!   its cost to target (recorded in `fdabench/reference.json`).
//! * `--compare <base> <new>` compares two saved stdout captures metric
//!   by metric, and refuses when they were taken on different kernel
//!   arms.

mod alloc;
mod check;
mod jobs;
mod layers;
mod measure;
mod trace;

use check::Checks;
use fda::obs::json::{self, Json};
use jobs::Workload;
use std::process::ExitCode;

/// Parsed command line.
enum Mode {
    Run {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Reference {
        seed: u64,
    },
    Compare {
        base: String,
        new: String,
    },
}

const USAGE: &str = "usage: fdabench --workload <sim-lenet-target|net-head-sync|net-head-coded> \
--seed <n> --seconds <s> --trace <0|1>\n       fdabench --reference [--seed <n>]\n       \
fdabench --compare <base-output> <new-output>";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = jobs::DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = None;
    let mut reference = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--reference" {
            reference = true;
            i += 1;
            continue;
        }
        if flag == "--compare" {
            return match &args[i + 1..] {
                [base, new] => Ok(Mode::Compare {
                    base: base.clone(),
                    new: new.clone(),
                }),
                _ => Err("--compare takes exactly two files".into()),
            };
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
        i += 2;
    }
    if reference {
        return Ok(Mode::Reference { seed });
    }
    Ok(Mode::Run {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The host's `(steal, total)` CPU ticks so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The run's provenance: what a result is only comparable under. The
/// host's steal share over the run tells a slow run on a contended host
/// from a slow program.
fn provenance(workload: &str, seed: u64, trace: bool, ticks: Option<(u64, u64)>) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal_pct = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Json::f64((s1 - s0) as f64 * 100.0 / (t1 - t0) as f64)
        }
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::u64(seed)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::u64(cores as u64)),
        ("host_steal_pct".into(), steal_pct),
        (
            "kernel_arm".into(),
            Json::str(fda::tensor::simd::kernels().name()),
        ),
        (
            "forced_kernel".into(),
            std::env::var("FDA_FORCE_KERNEL").map_or(Json::Null, Json::str),
        ),
        ("commit".into(), Json::str(git_commit())),
        ("rustc".into(), Json::str(env!("FDABENCH_RUSTC"))),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (a plain source tree reports `unknown`).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn result_json(checks: &Checks, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::f64(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.failed() == 0)),
        ("attempted".into(), Json::u64(checks.attempted())),
        ("failed".into(), Json::u64(checks.failed())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let budget = std::time::Duration::from_secs(seconds);
    let ticks = cpu_ticks();
    let mut checks = Checks::default();
    let metrics = match (workload, trace) {
        (Workload::SimLenetTarget, false) => measure::sim(seed, budget, &mut checks),
        (Workload::SimLenetTarget, true) => trace::sim(seed, budget, &mut checks),
        (w, false) => measure::net(w, seed, budget, &mut checks),
        (w, true) => trace::net(w, seed, budget, &mut checks),
    };
    let expected = if trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "metric set drifted from BENCHMARK.json");
    for failure in checks.failures() {
        eprintln!("check failed: {failure}");
    }
    println!(
        "provenance {}",
        provenance(workload.name(), seed, trace, ticks)
    );
    println!(
        "failed_share {}",
        checks.failed() as f64 / checks.attempted() as f64
    );
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

/// Reads a saved stdout capture: its provenance object and result object.
fn read_capture(path: &str) -> Result<(Json, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prov = text
        .lines()
        .find_map(|l| l.strip_prefix("provenance "))
        .ok_or_else(|| format!("{path}: no provenance line"))?;
    let result = text
        .lines()
        .last()
        .ok_or_else(|| format!("{path}: empty"))?;
    let parse = |s: &str| json::parse(s).map_err(|e| format!("{path}: {e:?}"));
    Ok((parse(prov)?, parse(result)?))
}

fn compare(base: &str, new: &str) -> Result<(), String> {
    let (base_prov, base_res) = read_capture(base)?;
    let (new_prov, new_res) = read_capture(new)?;
    for key in ["kernel_arm", "forced_kernel", "workload", "trace"] {
        if base_prov.get(key) != new_prov.get(key) {
            return Err(format!(
                "refusing to compare: {key} differs ({} vs {})",
                base_prov.get(key).map_or("-".into(), |j| j.to_string()),
                new_prov.get(key).map_or("-".into(), |j| j.to_string())
            ));
        }
    }
    let metric = |res: &Json, name: &str| -> Option<f64> {
        res.get("metrics")?.get(name)?.get("value")?.as_f64()
    };
    let names = base_res
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("base capture has no metrics")?;
    println!(
        "{:<32} {:>16} {:>16} {:>9}",
        "metric", "base", "new", "new/base"
    );
    for (name, _) in names {
        let (Some(b), Some(n)) = (metric(&base_res, name), metric(&new_res, name)) else {
            continue;
        };
        println!("{name:<32} {b:>16.6} {n:>16.6} {:>9.4}", n / b);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fdabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        } => run(workload, seed, seconds, trace),
        Mode::Reference { seed } => {
            println!("{}", measure::reference(seed));
            ExitCode::SUCCESS
        }
        Mode::Compare { base, new } => match compare(&base, &new) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fdabench: {e}");
                ExitCode::from(3)
            }
        },
    }
}
