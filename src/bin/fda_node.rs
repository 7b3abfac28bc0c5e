//! `fda_node` — one node of the TCP FDA cluster.
//!
//! Roles:
//!
//! * `fda_node worker --connect <addr> --id <k>` — join a coordinator as
//!   worker `k`; the job config arrives over the socket. `--fault <spec>`
//!   (repeatable; e.g. `kill@3`, `stall@2:500`, `flip@4:17`, `trunc@1:9`,
//!   `exit@5`) injects scripted faults, `--rejoin <attempts>` enables
//!   reconnect-with-resume after a lost session. A terminal scripted
//!   fault exits with code 86 so harnesses can tell scripted deaths from
//!   crashes.
//! * `fda_node coordinator --workers <K> [options]` — bind, wait for `K`
//!   externally started workers, run the job, print a JSON report.
//! * `fda_node demo --workers <K> [options]` — coordinator that spawns its
//!   own `K` worker processes from this binary (the one-command loopback
//!   deployment; also what the parity suite drives). `--fault <w>:<spec>`
//!   scripts a fault into spawned worker `w`.
//!
//! Common options (coordinator/demo): `--model lenet5`, `--variant
//! sketch|linear|exact`, `--theta <f32>`, `--steps <n>`, `--seed <n>`,
//! `--batch <n>`, `--train <n>`, `--test <n>`, `--listen <addr>`,
//! `--min-workers <n>`, `--deposit-timeout-ms <ms>`.
//!
//! Observability (coordinator/demo): `--telemetry <path>` streams the
//! versioned round-event JSONL (`fda_obs` schema) to `path`;
//! `--metrics-addr <addr>` enables the metrics registry and serves
//! Prometheus text exposition over HTTP at `addr`. The run report printed
//! on stdout is the schema's one-line `"run"` record.

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{FdaConfig, FdaVariant};
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::data::Partition;
use fda::net::{
    run_event, run_worker, Coordinator, FaultAction, FaultPlan, NetReport, RejoinPolicy,
    RoundPolicy, RunOptions, WorkerOptions, WorkerOutcome, FAULT_EXIT_CODE,
};
use fda::nn::zoo::ModelId;
use fda::optim::OptimizerKind;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  fda_node worker --connect <addr> --id <k> [--timeout-secs <t>]\n               \
         [--fault <spec>]... [--rejoin <attempts>]\n  \
         fda_node coordinator --workers <K> [--listen <addr>] [job options]\n  \
         fda_node demo --workers <K> [--fault <w>:<spec>]... [job options]\n\n\
         job options: --model lenet5|vgg16|densenet121|densenet201|transfer\n               \
         --variant sketch|linear|exact  --theta <f32>  --steps <n>\n               \
         --seed <n>  --batch <n>  --train <n>  --test <n>\n               \
         --codec dense|uniform8[:chunk]|topk:<k>|driftmask:<t>\n               \
         --min-workers <n>  --deposit-timeout-ms <ms>\n               \
         --telemetry <path>  --metrics-addr <addr>\n\n\
         fault specs: kill@N  exit@N  stall@N:<ms>  flip@N:<bit>  trunc@N:<keep>"
    );
    std::process::exit(2);
}

/// Pulls the value following `--flag`, if present.
fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| usage()).clone())
}

/// Pulls every value following a repeatable `--flag`.
fn opt_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| args.get(i + 1).unwrap_or_else(|| usage()).clone())
        .collect()
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match opt_value(args, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("fda_node: bad value for {flag}: {v}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn job_from_args(args: &[String]) -> JobSpec {
    let workers: usize = parse(args, "--workers", 4);
    let model = match opt_value(args, "--model").as_deref() {
        None | Some("lenet5") => ModelId::Lenet5,
        Some("vgg16") => ModelId::Vgg16Star,
        Some("densenet121") => ModelId::DenseNet121,
        Some("densenet201") => ModelId::DenseNet201,
        Some("transfer") => ModelId::TransferHead,
        Some(other) => {
            eprintln!("fda_node: unknown model {other}");
            std::process::exit(2);
        }
    };
    let variant = match opt_value(args, "--variant").as_deref() {
        None | Some("sketch") => FdaVariant::SketchAuto,
        Some("linear") => FdaVariant::Linear,
        Some("exact") => FdaVariant::Exact,
        Some(other) => {
            eprintln!("fda_node: unknown variant {other}");
            std::process::exit(2);
        }
    };
    let codec = match opt_value(args, "--codec") {
        None => fda::comm::CodecSpec::Dense,
        Some(v) => fda::comm::CodecSpec::parse(&v).unwrap_or_else(|e| {
            eprintln!("fda_node: bad --codec {v}: {e}");
            std::process::exit(2);
        }),
    };
    let downlink = match opt_value(args, "--downlink") {
        None => fda::comm::DownlinkSpec::Dense,
        Some(v) => fda::comm::DownlinkSpec::parse(&v).unwrap_or_else(|e| {
            eprintln!("fda_node: bad --downlink {v}: {e}");
            std::process::exit(2);
        }),
    };
    JobSpec {
        cluster: ClusterConfig {
            model,
            workers,
            batch_size: parse(args, "--batch", 16),
            optimizer: OptimizerKind::paper_adam(),
            partition: Partition::Iid,
            seed: parse(args, "--seed", 7u64),
            parallel: false,
        },
        fda: FdaConfig {
            variant,
            theta: parse(args, "--theta", 0.02f32),
        },
        codec,
        downlink,
        steps: parse(args, "--steps", 20u32),
        synth: SynthSpec {
            n_train: parse(args, "--train", 960),
            n_test: parse(args, "--test", 240),
            ..SynthSpec::synth_mnist()
        },
        task_name: "fda-node".to_string(),
    }
}

fn round_policy_from_args(args: &[String]) -> RoundPolicy {
    RoundPolicy {
        min_workers: parse(args, "--min-workers", 1usize),
        deposit_timeout: Duration::from_millis(parse(args, "--deposit-timeout-ms", 30_000u64)),
        admissions: Vec::new(),
    }
}

/// Prints the run report: the telemetry schema's `"run"` record, one line
/// of versioned JSON (`fda_obs` SCHEMA_VERSION) — parse it, don't regex it.
fn print_report(report: &NetReport, spec: &JobSpec) {
    println!("{}", run_event(report, spec).to_json());
}

/// Handles `--telemetry` / `--metrics-addr`: returns the telemetry sink
/// path (threaded to the coordinator) and, when scraping is requested,
/// the live metrics server (kept alive for the whole run) after globally
/// enabling the registry.
fn obs_from_args(args: &[String]) -> (Option<PathBuf>, Option<fda::obs::MetricsServer>) {
    let telemetry = opt_value(args, "--telemetry").map(PathBuf::from);
    let server = opt_value(args, "--metrics-addr").map(|addr| {
        let server = fda::obs::MetricsServer::bind(addr.as_str()).unwrap_or_else(|e| {
            eprintln!("fda_node: metrics bind {addr} failed: {e}");
            std::process::exit(1);
        });
        fda::obs::set_enabled(true);
        eprintln!(
            "fda_node: serving metrics on http://{}/metrics",
            server.addr()
        );
        server
    });
    (telemetry, server)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let role = args.first().map(String::as_str);
    match role {
        Some("worker") => {
            let addr = opt_value(&args, "--connect").unwrap_or_else(|| usage());
            let id: u32 = parse(&args, "--id", u32::MAX);
            if id == u32::MAX {
                usage();
            }
            let timeout = Duration::from_secs(parse(&args, "--timeout-secs", 20u64));
            let faults: Vec<FaultAction> = opt_values(&args, "--fault")
                .iter()
                .map(|s| {
                    FaultAction::parse_arg(s).unwrap_or_else(|e| {
                        eprintln!("fda_node worker {id}: {e}");
                        std::process::exit(2);
                    })
                })
                .collect();
            let rejoin_attempts: u32 = parse(&args, "--rejoin", 0u32);
            let opts = WorkerOptions {
                connect_timeout: timeout,
                rejoin: (rejoin_attempts > 0).then(|| RejoinPolicy {
                    max_attempts: rejoin_attempts,
                    ..RejoinPolicy::default()
                }),
                faults,
                exit_process_on_fault: true,
                backoff_seed: u64::from(id),
                ..WorkerOptions::default()
            };
            match run_worker(addr.as_str(), id, &opts) {
                Ok(WorkerOutcome::Completed(summary)) => {
                    eprintln!(
                        "fda_node worker {id}: done ({} steps, {} syncs, {} rejoins)",
                        summary.steps, summary.syncs, summary.rejoins
                    );
                }
                // `exit_process_on_fault` normally exits before this arm;
                // keep it as a backstop so the contract holds regardless.
                Ok(WorkerOutcome::Faulted { step, action }) => {
                    eprintln!(
                        "fda_node worker {id}: scripted fault {} at step {step}",
                        action.to_arg()
                    );
                    std::process::exit(FAULT_EXIT_CODE);
                }
                Err(e) => {
                    eprintln!("fda_node worker {id}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("coordinator") => {
            let spec = job_from_args(&args);
            let (telemetry, _metrics) = obs_from_args(&args);
            let listen = opt_value(&args, "--listen").unwrap_or("127.0.0.1:0".to_string());
            let mut coordinator = Coordinator::bind(listen.as_str()).unwrap_or_else(|e| {
                eprintln!("fda_node coordinator: bind failed: {e}");
                std::process::exit(1);
            });
            coordinator.set_policy(round_policy_from_args(&args));
            if let Some(path) = telemetry {
                coordinator.set_telemetry(path);
            }
            eprintln!(
                "fda_node coordinator: waiting for {} workers on {}",
                spec.cluster.workers,
                coordinator.local_addr().expect("bound listener"),
            );
            match coordinator.run(&spec) {
                Ok(report) => print_report(&report, &spec),
                Err(e) => {
                    eprintln!("fda_node coordinator: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("demo") => {
            let spec = job_from_args(&args);
            let mut plan = FaultPlan::new();
            for spec_str in opt_values(&args, "--fault") {
                let parsed = spec_str
                    .split_once(':')
                    .ok_or_else(|| format!("demo fault '{spec_str}': expected <worker>:<spec>"))
                    .and_then(|(w, rest)| {
                        let worker: u32 = w
                            .parse()
                            .map_err(|_| format!("demo fault '{spec_str}': bad worker '{w}'"))?;
                        Ok((worker, FaultAction::parse_arg(rest)?))
                    });
                match parsed {
                    Ok((worker, action)) => plan = plan.fault(worker, action),
                    Err(e) => {
                        eprintln!("fda_node demo: {e}");
                        std::process::exit(2);
                    }
                }
            }
            let node_bin = std::env::current_exe().expect("own binary path");
            let policy = round_policy_from_args(&args);
            let (telemetry, _metrics) = obs_from_args(&args);
            let opts = RunOptions {
                node_bin: Some(&node_bin),
                plan,
                policy,
                telemetry: telemetry.as_deref(),
                ..RunOptions::default()
            };
            match fda::net::run(&spec, &opts).report {
                Ok(report) => print_report(&report, &spec),
                Err(e) => {
                    eprintln!("fda_node demo: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
