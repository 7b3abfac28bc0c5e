//! Run harness: whole FDA jobs over loopback TCP.
//!
//! [`run`] binds a [`Coordinator`] on a free loopback port, starts the
//! job's `K` workers, drives the job on the calling thread and collects
//! how every worker ended. [`RunOptions::node_bin`] picks where the
//! workers live:
//!
//! * `None` — **threads** of the calling process, each speaking real TCP.
//!   Unit tests and the benches use these (no process-spawn cost in the
//!   measurement, sockets still real), and each thread's own ending comes
//!   back in [`LoopbackRun::workers`].
//! * `Some(bin)` — **OS processes** spawned from an `fda_node` binary: the
//!   multi-process deployment the paper's byte accounting is about.
//!   Children are killed if the run fails, so a wedged worker cannot leak
//!   past it.
//!
//! A [`FaultPlan`] scripts faults into either kind, and one rule judges
//! worker endings for both: a worker failure fails the run unless the
//! plan targets that worker or the coordinator failed — then the
//! coordinator's error (a typed [`NetError::Quorum`], say) is the result.

use crate::coordinator::{Coordinator, NetReport, RoundPolicy};
use crate::fault::{FaultPlan, RejoinPolicy};
use crate::frame::NetError;
use crate::worker::{run_worker, WorkerOptions, WorkerOutcome};
use fda_core::wire::JobSpec;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The coordinator's window for all `K` workers to connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

/// A thread worker's connect window. Threads dial a listener that is
/// already bound, so only a redial after a lost session ever waits, and it
/// gives up soon once the run is over.
const THREAD_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long spawned workers get to exit after shutdown before being
/// killed.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// How to run a job over loopback. `RunOptions::default()` is a clean
/// thread-worker run under the default timeouts and policy.
#[derive(Debug, Clone)]
pub struct RunOptions<'a> {
    /// `None`: workers are threads. `Some(bin)`: workers are processes of
    /// a binary accepting `worker --connect <addr> --id <k>` (the
    /// workspace's `fda_node`); their stderr is inherited so failures
    /// surface in test output.
    pub node_bin: Option<&'a Path>,
    /// Scripted faults. A worker the plan targets may fail without
    /// failing the run.
    pub plan: FaultPlan,
    /// The coordinator's per-round liveness policy.
    pub policy: RoundPolicy,
    /// Whether a worker that loses its session redials. Processes take
    /// its attempt count (`fda_node worker --rejoin`) with the default
    /// backoff.
    pub rejoin: Option<RejoinPolicy>,
    /// The coordinator's and thread workers' per-read/per-write socket
    /// timeout, so an injected hang becomes a timeout, not a wedged run.
    pub io_timeout: Duration,
    /// Where the coordinator streams its round-event JSONL ([`fda_obs`]
    /// schema), if anywhere.
    pub telemetry: Option<&'a Path>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            node_bin: None,
            plan: FaultPlan::new(),
            policy: RoundPolicy::default(),
            rejoin: None,
            io_timeout: WorkerOptions::default().io_timeout,
            telemetry: None,
        }
    }
}

/// How a loopback run ended.
#[derive(Debug)]
pub struct LoopbackRun {
    /// The coordinator's result, unless a worker the plan does not target
    /// failed while the coordinator succeeded.
    pub report: Result<NetReport, NetError>,
    /// Each thread worker's own ending, indexed by id. Empty for
    /// processes, whose endings are exit statuses.
    pub workers: Vec<Result<WorkerOutcome, NetError>>,
}

/// Runs `spec` over loopback TCP as `opts` describes.
///
/// # Panics
/// Panics if a worker thread panics.
pub fn run(spec: &JobSpec, opts: &RunOptions) -> LoopbackRun {
    let (coordinator, addr) = match bind(opts) {
        Ok(bound) => bound,
        Err(e) => {
            return LoopbackRun {
                report: Err(e),
                workers: Vec::new(),
            }
        }
    };
    match opts.node_bin {
        None => run_threads(spec, opts, coordinator, addr),
        Some(node_bin) => LoopbackRun {
            report: run_processes(spec, opts, node_bin, coordinator, addr),
            workers: Vec::new(),
        },
    }
}

/// Binds the coordinator on a free loopback port, configured by `opts`.
fn bind(opts: &RunOptions) -> Result<(Coordinator, SocketAddr), NetError> {
    let mut coordinator = Coordinator::bind("127.0.0.1:0")?;
    coordinator.set_timeouts(CONNECT_TIMEOUT, opts.io_timeout);
    coordinator.set_policy(opts.policy.clone());
    if let Some(path) = opts.telemetry {
        coordinator.set_telemetry(path);
    }
    let addr = coordinator.local_addr()?;
    Ok((coordinator, addr))
}

fn run_threads(
    spec: &JobSpec,
    opts: &RunOptions,
    coordinator: Coordinator,
    addr: SocketAddr,
) -> LoopbackRun {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.cluster.workers as u32)
            .map(|id| {
                let wopts = WorkerOptions {
                    connect_timeout: THREAD_CONNECT_TIMEOUT,
                    io_timeout: opts.io_timeout,
                    rejoin: opts.rejoin,
                    faults: opts.plan.faults_for(id),
                    exit_process_on_fault: false,
                    backoff_seed: 0x0DD_BA11 ^ u64::from(id),
                };
                scope.spawn(move || run_worker(addr, id, &wopts))
            })
            .collect();
        let report = coordinator.run(spec);
        // Unbind the listener before joining: a worker still retrying a
        // rejoin gets connection-refused promptly instead of parking on a
        // dead rendezvous until its io timeout.
        drop(coordinator);
        let workers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let failure = workers.iter().enumerate().find_map(|(id, w)| match w {
            Err(e) if !opts.plan.has_fault(id as u32) => {
                Some(NetError::Protocol(format!("worker {id} failed: {e}")))
            }
            _ => None,
        });
        let report = report.and_then(|r| failure.map_or(Ok(r), Err));
        LoopbackRun { report, workers }
    })
}

fn run_processes(
    spec: &JobSpec,
    opts: &RunOptions,
    node_bin: &Path,
    coordinator: Coordinator,
    addr: SocketAddr,
) -> Result<NetReport, NetError> {
    let mut guard = ReapGuard {
        children: Vec::new(),
    };
    for id in 0..spec.cluster.workers as u32 {
        let rejoin = opts.rejoin.map(|p| p.max_attempts.to_string());
        let child = Command::new(node_bin)
            .args([
                "worker",
                "--connect",
                &addr.to_string(),
                "--id",
                &id.to_string(),
            ])
            .args(opts.plan.worker_args(id))
            .args(rejoin.iter().flat_map(|n| ["--rejoin", n]))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        guard.children.push(child);
    }
    let report = coordinator.run(spec);
    // Unbind before reaping, so a redialing worker is refused at once.
    drop(coordinator);
    // A coordinator failure forgives every ending; dropping the guard
    // kills the workers.
    let report = report?;
    guard.reap(&opts.plan)?;
    Ok(report)
}

/// Kills still-running children on drop, so a failed run cannot leak
/// worker processes.
struct ReapGuard {
    children: Vec<Child>,
}

impl ReapGuard {
    /// Waits for every child to exit, killing laggards after
    /// [`REAP_TIMEOUT`]. Returns an error naming the first child that
    /// exited unsuccessfully, unless `plan` targets it (any exit status
    /// accepted — a scripted death may surface as
    /// [`crate::fault::FAULT_EXIT_CODE`] or as a nonzero error exit,
    /// depending on where the fault cut the protocol).
    fn reap(mut self, plan: &FaultPlan) -> Result<(), NetError> {
        let deadline = Instant::now() + REAP_TIMEOUT;
        for (id, child) in self.children.iter_mut().enumerate() {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break status,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            break child.wait().map_err(NetError::Io)?;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(NetError::Io(e)),
                }
            };
            if !status.success() && !plan.has_fault(id as u32) {
                // Return without clearing: `Drop` still kills the
                // remaining (possibly wedged) siblings.
                return Err(NetError::Protocol(format!(
                    "worker process {id} exited with {status}"
                )));
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for ReapGuard {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A clean thread-worker run's report. Kept as a name of its own because
/// the benchmark (`fdabench`) calls it and pins its signature.
///
/// # Panics
/// Panics if a worker thread panics.
pub fn run_with_thread_workers(spec: &JobSpec) -> Result<NetReport, NetError> {
    run(spec, &RunOptions::default()).report
}

/// [`run_with_thread_workers`] with an optional round-event JSONL sink.
/// Kept as a name of its own because the benchmark (`fdabench`) calls it
/// and pins its signature.
///
/// # Panics
/// Panics if a worker thread panics.
pub fn run_with_thread_workers_telemetry(
    spec: &JobSpec,
    telemetry: Option<&Path>,
) -> Result<NetReport, NetError> {
    run(
        spec,
        &RunOptions {
            telemetry,
            ..RunOptions::default()
        },
    )
    .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_core::cluster::ClusterConfig;
    use fda_core::fda::{Fda, FdaConfig};
    use fda_core::strategy::Strategy;
    use fda_data::synth::SynthSpec;

    fn tiny_spec(k: usize, fda: FdaConfig, steps: u32) -> JobSpec {
        JobSpec {
            cluster: ClusterConfig {
                workers: k,
                ..ClusterConfig::small_test(k)
            },
            fda,
            codec: fda_comm::CodecSpec::Dense,
            downlink: fda_comm::DownlinkSpec::Dense,
            steps,
            synth: SynthSpec {
                n_train: 240,
                n_test: 80,
                ..SynthSpec::synth_mnist()
            },
            task_name: "tiny".to_string(),
        }
    }

    /// Thread-worker smoke parity: a K = 2 LinearFDA TCP run must retrace
    /// the sequential simulator bit-for-bit (the full multi-process matrix
    /// lives in the root `net_parity` integration suite).
    #[test]
    fn loopback_run_matches_simulator() {
        let spec = tiny_spec(2, FdaConfig::linear(0.02), 6);
        let report = run_with_thread_workers(&spec).expect("net run");

        let task = spec.synth.generate(&spec.task_name);
        let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
        let mut decisions = Vec::new();
        let mut estimates = Vec::new();
        for _ in 0..spec.steps {
            let out = sim.step();
            decisions.push(out.synced);
            estimates.push(out.variance_estimate.expect("fda reports estimates"));
        }
        assert_eq!(report.decisions, decisions, "sync schedule diverged");
        assert_eq!(report.estimates, estimates, "estimates diverged");
        assert!(report.syncs > 0, "horizon should exercise a sync");
        for (kk, params) in report.worker_params.iter().enumerate() {
            assert_eq!(
                params,
                &sim.cluster().worker(kk).params(),
                "worker {kk} final params diverged"
            );
        }
        assert_eq!(report.charged_bytes, sim.comm_bytes(), "charged diverged");
        assert_eq!(
            report.measured_payload_bytes, report.charged_bytes,
            "socket-measured payload != charged"
        );
        // Framing + control plane exist but are small.
        assert!(report.raw_rx_bytes > report.measured_payload_bytes);
        // A fault-free run keeps everyone: K joins, zero drops.
        assert_eq!(report.survivors, vec![0, 1]);
        assert_eq!(report.events.len(), 2);
    }

    /// K = 1 degenerate cluster: runs, charges nothing (the accounting
    /// convention), still produces the simulator's exact trajectory.
    #[test]
    fn single_worker_run_charges_nothing() {
        let spec = tiny_spec(1, FdaConfig::linear(0.05), 4);
        let report = run_with_thread_workers(&spec).expect("net run");
        assert_eq!(report.charged_bytes, 0);
        assert_eq!(report.measured_payload_bytes, 0);
        assert!(report.raw_rx_bytes > 0, "frames still crossed the socket");

        let task = spec.synth.generate(&spec.task_name);
        let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
        let decisions: Vec<bool> = (0..spec.steps).map(|_| sim.step().synced).collect();
        assert_eq!(report.decisions, decisions);
        assert_eq!(report.worker_params[0], sim.cluster().worker(0).params());
    }
}
