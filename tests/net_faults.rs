//! Chaos suite for the elastic TCP transport: scripted faults, worker
//! churn, quorum aborts, and reconnect with versioned state handoff.
//!
//! The load-bearing claim is **replayability**: a [`FaultPlan`] is a pure
//! value, the coordinator's reduce runs in worker-id order over the
//! survivor set, and rejoins happen at scheduled rounds — so running the
//! same plan twice must produce bit-identical decisions, estimates, final
//! parameters, and membership logs. Chaos that cannot be replayed cannot
//! be debugged; chaos that can be replayed is just another deterministic
//! trajectory.
//!
//! Hang guard: every socket carries an in-code timeout and the CI job
//! wraps the suite in an outer `timeout`, so an injected stall converts
//! to a typed drop, never a wedged run.

use fda::core::cluster::ClusterConfig;
use fda::core::fda::FdaConfig;
use fda::core::monitor::{SketchMonitor, VarianceMonitor};
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::coordinator::HELLO_TIMEOUT;
use fda::net::frame::read_frame_into;
use fda::net::{
    run, run_with_thread_workers, run_worker, Coordinator, DropReason, FaultAction, FaultPlan,
    FrameKind, LoopbackRun, MemberEvent, MembershipEvent, Msg, NetError, NetReport, RejoinPolicy,
    RoundPolicy, RunOptions, WorkerOptions, WorkerOutcome, PROTOCOL_VERSION,
};
use fda::sketch::SketchConfig;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(15);

fn spec(k: usize, steps: u32) -> JobSpec {
    JobSpec {
        cluster: ClusterConfig {
            workers: k,
            ..ClusterConfig::small_test(k)
        },
        fda: FdaConfig::linear(0.01),
        codec: fda::comm::CodecSpec::Dense,
        downlink: fda::comm::DownlinkSpec::Dense,
        steps,
        synth: SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        },
        task_name: "net-faults".to_string(),
    }
}

fn policy(min_workers: usize) -> RoundPolicy {
    RoundPolicy {
        min_workers,
        deposit_timeout: Duration::from_secs(10),
        admissions: Vec::new(),
    }
}

/// A thread-worker run of `spec` under a fault plan.
fn chaos(
    spec: &JobSpec,
    plan: &FaultPlan,
    policy: RoundPolicy,
    rejoin: Option<RejoinPolicy>,
) -> LoopbackRun {
    let opts = RunOptions {
        plan: plan.clone(),
        policy,
        rejoin,
        io_timeout: IO_TIMEOUT,
        ..RunOptions::default()
    };
    run(spec, &opts)
}

/// Bitwise comparison of two surviving trajectories.
fn assert_bit_identical(a: &NetReport, b: &NetReport, case: &str) {
    assert_eq!(a.decisions, b.decisions, "{case}: decisions diverged");
    assert_eq!(
        a.estimates.len(),
        b.estimates.len(),
        "{case}: estimate count diverged"
    );
    for (step, (x, y)) in a.estimates.iter().zip(&b.estimates).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{case}: estimate diverged at step {step}"
        );
    }
    assert_eq!(a.survivors, b.survivors, "{case}: survivor sets diverged");
    assert_eq!(a.events, b.events, "{case}: membership logs diverged");
    assert_eq!(a.syncs, b.syncs, "{case}: sync counts diverged");
    assert_eq!(
        a.worker_params, b.worker_params,
        "{case}: final replicas diverged"
    );
    assert_eq!(
        a.final_params, b.final_params,
        "{case}: final mean diverged"
    );
    assert_eq!(
        a.charged_bytes, b.charged_bytes,
        "{case}: charged accounting diverged"
    );
    assert_eq!(
        a.measured_payload_bytes, b.measured_payload_bytes,
        "{case}: measured accounting diverged"
    );
}

fn drops_of(report: &NetReport) -> Vec<MembershipEvent> {
    report
        .events
        .iter()
        .filter(|e| matches!(e.event, MemberEvent::Dropped(_)))
        .copied()
        .collect()
}

/// The acceptance scenario: K = 4 spawned worker **processes**, worker 2
/// scripted to die (process exit) before its step-4 state. The run must
/// complete with K′ = 3 survivors, and twice with the same plan must be
/// bit-identical end to end.
#[test]
fn k4_process_kill_survives_with_k3_bit_identically() {
    let spec = spec(4, 8);
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let plan = FaultPlan::new().fault(2, FaultAction::ExitBeforeState(4));

    let opts = RunOptions {
        node_bin: Some(node_bin),
        plan,
        policy: policy(2),
        io_timeout: IO_TIMEOUT,
        ..RunOptions::default()
    };
    let processes = || {
        run(&spec, &opts)
            .report
            .expect("chaos run should survive a single death")
    };
    let a = processes();
    let b = processes();

    assert_eq!(a.survivors, vec![0, 1, 3], "worker 2 must be gone");
    assert_eq!(a.worker_params.len(), 3);
    assert_eq!(a.decisions.len(), 8, "all rounds ran");
    assert_eq!(
        drops_of(&a),
        vec![MembershipEvent {
            round: 4,
            worker: 2,
            event: MemberEvent::Dropped(DropReason::Disconnect),
        }],
        "exactly one drop, at the scripted round"
    );
    assert!(
        a.decisions.iter().any(|&d| d),
        "horizon should exercise a post-drop model AllReduce"
    );
    assert_bit_identical(&a, &b, "k4 process kill");
}

/// Dropping below quorum aborts with the typed error — naming the round
/// and the headcount — instead of hanging or half-finishing.
#[test]
fn below_quorum_aborts_with_typed_error() {
    let spec = spec(4, 8);
    let plan = FaultPlan::new()
        .fault(1, FaultAction::KillBeforeState(3))
        .fault(2, FaultAction::KillBeforeState(3));

    let LoopbackRun { report, workers } = chaos(&spec, &plan, policy(3), None);
    match report {
        Err(NetError::Quorum {
            round,
            alive,
            min_workers,
        }) => {
            assert_eq!(round, 3);
            assert_eq!(alive, 2);
            assert_eq!(min_workers, 3);
        }
        other => panic!("expected quorum abort, got {other:?}"),
    }
    // The scripted workers ended by fault; the innocent ones lost their
    // coordinator and ended with a (retryable, but unretried) error.
    for id in [1usize, 2] {
        assert!(
            matches!(workers[id], Ok(WorkerOutcome::Faulted { step: 3, .. })),
            "worker {id} should have faulted at step 3: {:?}",
            workers[id]
        );
    }
    for id in [0usize, 3] {
        assert!(workers[id].is_err(), "worker {id} should have lost the run");
    }
}

/// A bit-flipped state frame fails the checksum and becomes a clean
/// per-worker protocol drop; the survivors' trajectory is replayable.
#[test]
fn corrupt_frame_drops_worker_as_protocol_violation() {
    let spec = spec(3, 6);
    let plan = FaultPlan::new().fault(1, FaultAction::FlipStateBit { step: 2, bit: 137 });

    let LoopbackRun {
        report: a,
        workers: workers_a,
    } = chaos(&spec, &plan, policy(1), None);
    let b = chaos(&spec, &plan, policy(1), None).report;
    let a = a.expect("run survives a corrupt frame");
    let b = b.expect("run survives a corrupt frame");

    assert_eq!(a.survivors, vec![0, 2]);
    assert_eq!(
        drops_of(&a),
        vec![MembershipEvent {
            round: 2,
            worker: 1,
            event: MemberEvent::Dropped(DropReason::Protocol),
        }]
    );
    assert!(
        workers_a[1].is_err(),
        "the corrupting worker loses its session"
    );
    assert_bit_identical(&a, &b, "corrupt frame");
}

/// A stalled worker trips the round's deposit deadline and is dropped as
/// a timeout; the round completes with the remaining workers.
#[test]
fn stalled_worker_is_dropped_on_deposit_deadline() {
    let spec = spec(3, 5);
    let plan = FaultPlan::new().fault(2, FaultAction::StallState { step: 1, ms: 4_000 });
    let tight = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_millis(1_000),
        admissions: Vec::new(),
    };

    let LoopbackRun { report, workers } = chaos(&spec, &plan, tight, None);
    let report = report.expect("run survives a stalled worker");
    assert_eq!(report.survivors, vec![0, 1]);
    assert_eq!(report.decisions.len(), 5, "all rounds ran");
    assert_eq!(
        drops_of(&report),
        vec![MembershipEvent {
            round: 1,
            worker: 2,
            event: MemberEvent::Dropped(DropReason::Timeout),
        }]
    );
    assert!(workers[2].is_err(), "the stalled worker loses its session");
}

/// The full elastic loop: worker 3's state frame is truncated mid-wire at
/// round 2 (a disconnect), it reconnects with backoff, and the scheduled
/// admission re-admits it at round 5 through the versioned `Resume`
/// handoff. All four workers finish; the whole churn trajectory —
/// including the rejoined replica's parameters — is bit-identical across
/// repeats.
#[test]
fn truncated_worker_rejoins_at_scheduled_round_bit_identically() {
    let spec = spec(4, 9);
    let plan = FaultPlan::new()
        .fault(3, FaultAction::TruncateState { step: 2, keep: 9 })
        .admit(5, 3);
    let policy = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_secs(10),
        admissions: plan.admissions.clone(),
    };
    let rejoin = RejoinPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
    };

    let LoopbackRun {
        report: a,
        workers: workers_a,
    } = chaos(&spec, &plan, policy.clone(), Some(rejoin));
    let b = chaos(&spec, &plan, policy, Some(rejoin)).report;
    let a = a.expect("elastic run completes");
    let b = b.expect("elastic run completes");

    assert_eq!(a.survivors, vec![0, 1, 2, 3], "everyone finishes");
    assert_eq!(a.worker_params.len(), 4);
    assert_eq!(a.decisions.len(), 9);
    let churn: Vec<MembershipEvent> = a
        .events
        .iter()
        .filter(|e| !matches!(e.event, MemberEvent::Joined { rejoin: false }))
        .copied()
        .collect();
    assert_eq!(
        churn,
        vec![
            MembershipEvent {
                round: 2,
                worker: 3,
                event: MemberEvent::Dropped(DropReason::Disconnect),
            },
            MembershipEvent {
                round: 5,
                worker: 3,
                event: MemberEvent::Joined { rejoin: true },
            },
        ],
        "one drop at round 2, one scheduled rejoin at round 5"
    );
    match &workers_a[3] {
        Ok(WorkerOutcome::Completed(summary)) => {
            assert_eq!(summary.rejoins, 1, "exactly one reconnect");
        }
        other => panic!("rejoined worker should complete: {other:?}"),
    }
    assert_bit_identical(&a, &b, "truncate + rejoin");
}

/// The elastic loop under a delta-coded downlink: worker 3 is truncated
/// off the run at round 2 and re-admitted at round 5. Steady-state
/// consensus rides `AvgModelDelta` frames, but the `Resume` handoff stays
/// a dense snapshot — so the rejoining replica lands on the exact
/// reconstruction consensus and the whole churn trajectory, delta frames
/// and all, replays bit for bit.
#[test]
fn truncated_worker_rejoins_under_delta_downlink_bit_identically() {
    let mut spec = spec(4, 9);
    // Θ = 0 keeps a model AllReduce — and therefore a delta downlink — in
    // every round, including the rejoin round.
    spec.fda = FdaConfig::linear(0.0);
    spec.downlink = fda::comm::DownlinkSpec::Delta {
        codec: fda::comm::CodecSpec::Uniform8 { chunk: 256 },
    };
    let plan = FaultPlan::new()
        .fault(3, FaultAction::TruncateState { step: 2, keep: 9 })
        .admit(5, 3);
    let policy = RoundPolicy {
        min_workers: 1,
        deposit_timeout: Duration::from_secs(10),
        admissions: plan.admissions.clone(),
    };
    let rejoin = RejoinPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
    };

    let LoopbackRun {
        report: a,
        workers: workers_a,
    } = chaos(&spec, &plan, policy.clone(), Some(rejoin));
    let b = chaos(&spec, &plan, policy, Some(rejoin)).report;
    let a = a.expect("elastic delta run completes");
    let b = b.expect("elastic delta run completes");

    assert_eq!(a.survivors, vec![0, 1, 2, 3], "everyone finishes");
    assert!(a.decisions.iter().all(|&d| d), "Θ = 0 syncs every round");
    assert!(
        a.downlink_model_bytes > 0,
        "delta downlinks actually went out"
    );
    match &workers_a[3] {
        Ok(WorkerOutcome::Completed(summary)) => {
            assert_eq!(summary.rejoins, 1, "exactly one reconnect");
        }
        other => panic!("rejoined worker should complete: {other:?}"),
    }
    assert_eq!(
        a.measured_payload_bytes, a.charged_bytes,
        "measured == charged holds under churn + delta downlink"
    );
    assert_eq!(
        a.downlink_model_bytes, b.downlink_model_bytes,
        "delta frame bytes replay"
    );
    assert_bit_identical(&a, &b, "truncate + rejoin under delta downlink");
}

/// The zero-fault chaos path is the plain path: an empty plan under the
/// chaos io timeout must reproduce `run_with_thread_workers` bit for bit,
/// with full membership and measured == charged accounting.
#[test]
fn empty_plan_matches_clean_run_bitwise() {
    let spec = spec(3, 6);
    let LoopbackRun {
        report: chaos,
        workers,
    } = chaos(&spec, &FaultPlan::new(), RoundPolicy::default(), None);
    let chaos = chaos.expect("zero-fault chaos run");
    let clean = run_with_thread_workers(&spec).expect("clean run");

    assert_bit_identical(&chaos, &clean, "zero-fault vs clean");
    assert_eq!(chaos.survivors, vec![0, 1, 2]);
    assert!(drops_of(&chaos).is_empty(), "no drops without faults");
    assert_eq!(
        chaos.measured_payload_bytes, chaos.charged_bytes,
        "measured == charged still holds on the chaos path"
    );
    for (id, w) in workers.iter().enumerate() {
        assert!(
            matches!(w, Ok(WorkerOutcome::Completed(_))),
            "worker {id} should complete: {w:?}"
        );
    }
}

/// Stray peers on the coordinator port at formation — a silent socket,
/// raw non-protocol bytes, a hello speaking another protocol version and
/// a hello with an out-of-range id — cost only their own connections: the
/// run forms with the K real workers and reproduces the clean run bit for
/// bit. The silent socket costs its hello deadline, not the io timeout.
#[test]
fn stray_peers_at_formation_leave_the_run_bit_identical() {
    let spec = spec(2, 6);
    let clean = run_with_thread_workers(&spec).expect("clean run");

    let mut coordinator = Coordinator::bind("127.0.0.1:0").expect("bind loopback");
    assert!(IO_TIMEOUT >= 3 * HELLO_TIMEOUT);
    coordinator.set_timeouts(Duration::from_secs(20), IO_TIMEOUT);
    let addr = coordinator.local_addr().expect("bound address");
    let started = Instant::now();
    // Every stray connects before any worker does; the silent one first,
    // so formation must get past it.
    let silent = TcpStream::connect(addr).expect("silent peer connects");
    let mut garbage = TcpStream::connect(addr).expect("garbage peer connects");
    garbage
        .write_all(b"GET / HTTP/1.0\r\n\r\n")
        .expect("garbage sent");
    let mut stale = TcpStream::connect(addr).expect("stale peer connects");
    Msg::Hello {
        version: PROTOCOL_VERSION + 1,
        worker_id: 0,
        last_epoch: 0,
    }
    .send(&mut stale, 0)
    .expect("stale hello sent");
    let mut out_of_range = TcpStream::connect(addr).expect("out-of-range peer connects");
    Msg::hello(spec.cluster.workers as u32, 0)
        .send(&mut out_of_range, 0)
        .expect("out-of-range hello sent");

    let (report, outcomes) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u32)
            .map(|id| scope.spawn(move || run_worker(addr, id, &WorkerOptions::default())))
            .collect();
        let report = coordinator.run(&spec);
        // Unbind before joining so workers of a failed run see a reset
        // instead of waiting out their io timeout.
        drop(coordinator);
        let outcomes: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect();
        (report, outcomes)
    });
    let elapsed = started.elapsed();
    drop((silent, garbage, stale, out_of_range));

    let report = report.expect("stray peers must not end the run");
    for outcome in &outcomes {
        assert!(
            matches!(outcome, Ok(WorkerOutcome::Completed(_))),
            "worker should complete: {outcome:?}"
        );
    }
    assert!(
        elapsed < IO_TIMEOUT / 2,
        "a silent socket stalled formation: the run took {elapsed:?}"
    );
    assert_bit_identical(&report, &clean, "stray peers vs clean");
    assert_eq!(report.survivors, vec![0, 1]);
}

/// A checksum-valid `AvgState` whose summary belongs to another monitor —
/// a Sketch summary sent to a LinearFDA worker — ends the worker with a
/// typed decode error, not a panic inside the monitor.
#[test]
fn mismatched_avg_state_is_a_worker_decode_error() {
    let spec = spec(1, 3);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let worker = std::thread::spawn(move || {
        let opts = WorkerOptions {
            io_timeout: IO_TIMEOUT,
            ..WorkerOptions::default()
        };
        run_worker(addr, 0, &opts)
    });

    // A fake coordinator: the join handshake, then the round-0 deposit.
    let (mut conn, _) = listener.accept().expect("worker connects");
    conn.set_read_timeout(Some(IO_TIMEOUT)).expect("timeout");
    let (hello, _) = Msg::recv(&mut conn).expect("hello");
    assert!(matches!(hello, Msg::Hello { worker_id: 0, .. }));
    Msg::Config(Box::new(spec.clone()))
        .send(&mut conn, 1)
        .expect("config sent");
    let w0 = spec.cluster.model.build(spec.cluster.seed, 0).params_flat();
    Msg::Resume {
        round: 0,
        model: w0,
        prev_model: None,
    }
    .send(&mut conn, 1)
    .expect("resume sent");
    let (kind, _) = read_frame_into(&mut conn, &mut Vec::new()).expect("deposit");
    assert_eq!(kind, FrameKind::State);

    let drift = [0.5f32; 64];
    let sketch = SketchMonitor::new(SketchConfig::new(3, 16, 5), drift.len()).local_state(&drift);
    Msg::AvgState {
        state: sketch,
        sync: false,
    }
    .send(&mut conn, 1)
    .expect("avg-state sent");

    let outcome = worker.join().expect("the worker must not panic");
    assert!(
        matches!(outcome, Err(NetError::Decode(_))),
        "expected a decode error, got {outcome:?}"
    );
}

/// Seeded plans are values: the same seed draws the same chaos, and a
/// drawn plan never schedules worker 0 (quorum floor).
#[test]
fn seeded_plans_replay() {
    for seed in [1u64, 7, 42, 0xDEAD] {
        let a = FaultPlan::from_seed(seed, 6, 12);
        let b = FaultPlan::from_seed(seed, 6, 12);
        assert_eq!(a.faults, b.faults, "seed {seed} must replay");
        assert!(!a.has_fault(0), "seed {seed}: worker 0 must be spared");
    }
}
