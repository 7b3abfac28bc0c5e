//! Telemetry acceptance suite for the `fda_obs` round-event stream.
//!
//! Three claims:
//!
//! 1. A K = 4 **spawned-process** chaos run with `--telemetry` emits one
//!    round event per FDA round whose per-kind byte fields *reconcile*:
//!    summed over rounds they equal the coordinator's cumulative measured
//!    total, which equals the charged total — and the drop records match
//!    the `NetReport` membership buckets exactly.
//! 2. The sequential simulator emits a **schema-identical** stream for the
//!    same job: same keys, same order, same JSON types per event kind —
//!    only the `source` field differs.
//! 3. `fda_node demo` prints the schema's one-line `"run"` record on
//!    stdout; this is the parse-don't-regex regression test for the run
//!    report.

use fda::core::cluster::ClusterConfig;
use fda::core::fda::{Fda, FdaConfig};
use fda::core::strategy::Strategy;
use fda::core::wire::JobSpec;
use fda::data::synth::SynthSpec;
use fda::net::{run, FaultAction, FaultPlan, MemberEvent, RoundPolicy, RunOptions};
use fda::obs::{read_jsonl, Json, JsonlWriter, RoundEvent, RunEvent, SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use std::time::Duration;

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
        task_name: "obs-telemetry".to_string(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fda_obs_{}_{name}.jsonl", std::process::id()))
}

/// Splits a parsed stream into (round events, the single trailing run
/// event), failing on anything malformed.
fn split_stream(lines: &[Json]) -> (Vec<RoundEvent>, RunEvent) {
    assert!(lines.len() >= 2, "stream needs rounds + a run summary");
    let (last, rounds) = lines.split_last().expect("non-empty");
    let rounds = rounds
        .iter()
        .map(|l| RoundEvent::from_json(l).expect("round event parses"))
        .collect();
    let run = RunEvent::from_json(last).expect("run event parses");
    (rounds, run)
}

/// K = 4 spawned `fda_node` processes, one scripted death, telemetry on:
/// the JSONL byte ledger must reconcile with the coordinator's report and
/// the drop records must match the membership buckets.
#[test]
fn k4_faulted_process_run_round_events_reconcile() {
    let spec = spec(4, 8);
    let node_bin = Path::new(env!("CARGO_BIN_EXE_fda_node"));
    let plan = FaultPlan::new().fault(2, FaultAction::ExitBeforeState(4));
    let policy = RoundPolicy {
        min_workers: 2,
        deposit_timeout: Duration::from_secs(10),
        admissions: Vec::new(),
    };
    let path = temp_path("k4_faulted");

    let opts = RunOptions {
        node_bin: Some(node_bin),
        plan,
        policy,
        io_timeout: Duration::from_secs(60),
        telemetry: Some(&path),
        ..RunOptions::default()
    };
    let report = run(&spec, &opts)
        .report
        .expect("chaos run survives one death");

    let lines = read_jsonl(&path).expect("telemetry stream readable");
    std::fs::remove_file(&path).ok();
    let (rounds, run) = split_stream(&lines);
    assert_eq!(rounds.len(), spec.steps as usize, "one event per round");

    // Byte reconciliation: per-round frame-kind bytes sum to the
    // cumulative measured total, which equals the charged total.
    let summed: u64 = rounds.iter().map(|r| r.state_bytes + r.model_bytes).sum();
    let last = rounds.last().expect("rounds");
    assert_eq!(
        summed, last.measured_bytes,
        "per-round bytes must sum to the ledger"
    );
    assert_eq!(
        last.measured_bytes, last.charged_bytes,
        "measured != charged"
    );
    assert_eq!(run.charged_bytes, report.charged_bytes);
    assert_eq!(run.measured_payload_bytes, report.measured_payload_bytes);
    assert_eq!(summed, report.measured_payload_bytes, "JSONL != NetReport");
    assert!(run.measured_equals_charged());

    // Cumulative fields are monotone and rounds are 1-based in order.
    for (i, pair) in rounds.windows(2).enumerate() {
        assert_eq!(pair[0].round, i as u32 + 1);
        assert!(pair[1].charged_bytes >= pair[0].charged_bytes);
        assert!(pair[1].measured_bytes >= pair[0].measured_bytes);
    }

    // Drop records match the NetReport membership buckets exactly.
    let report_drops: Vec<(u32, u32, String)> = report
        .events
        .iter()
        .filter_map(|e| match e.event {
            MemberEvent::Dropped(r) => Some((e.round, e.worker, r.as_str().to_string())),
            MemberEvent::Joined { .. } => None,
        })
        .collect();
    let jsonl_drops: Vec<(u32, u32, String)> = rounds
        .iter()
        .flat_map(|r| {
            r.drops
                .iter()
                .map(move |d| (r.round - 1, d.worker, d.reason.clone()))
        })
        .collect();
    assert_eq!(jsonl_drops, report_drops, "drop buckets diverged");
    assert!(
        jsonl_drops.iter().any(|(_, w, _)| *w == 2),
        "the scripted death of worker 2 must be recorded"
    );

    // The faulted round carries the shrunken quorum and a bumped epoch.
    assert_eq!(rounds[0].alive, 4);
    assert_eq!(rounds.last().expect("rounds").alive, 3);
    assert!(rounds.last().expect("rounds").epoch > rounds[0].epoch);

    // Deposit latencies: one pair per alive worker, ids in range.
    for r in &rounds {
        assert_eq!(r.deposit_us.len() as u32, r.alive);
        assert!(r.deposit_us.iter().all(|(w, _)| *w < 4));
    }

    // Run summary mirrors the report.
    assert_eq!(run.source, "net");
    assert_eq!(run.survivors, report.survivors);
    assert_eq!(run.syncs, report.syncs);
    assert_eq!(run.membership.len(), report.events.len());
    let decisions: String = report
        .decisions
        .iter()
        .map(|&d| if d { '1' } else { '0' })
        .collect();
    assert_eq!(run.decisions, decisions);
}

/// The simulator's stream for the same job must be schema-identical to
/// the net stream: same keys in the same order per event kind, and its
/// own ledger must reconcile (measured == charged by construction).
#[test]
fn simulator_stream_is_schema_identical_to_net_stream() {
    let spec = spec(4, 8);

    // Net side: thread workers keep this test cheap; schema is what the
    // spawned test above already validated.
    let net_path = temp_path("schema_net");
    fda::net::run_with_thread_workers_telemetry(&spec, Some(&net_path)).expect("net run");
    let net_lines = read_jsonl(&net_path).expect("net stream");
    std::fs::remove_file(&net_path).ok();

    // Sim side: the same job stepped through the sequential simulator.
    let sim_path = temp_path("schema_sim");
    let task = spec.synth.generate(&spec.task_name);
    let mut sim = Fda::new(spec.fda, spec.cluster.clone(), &task);
    let writer = JsonlWriter::create(&sim_path).expect("sim sink");
    assert!(sim.set_telemetry(Some(writer)), "Fda accepts telemetry");
    for _ in 0..spec.steps {
        sim.step();
    }
    assert!(sim.set_telemetry(None), "detach flushes the run summary");
    let sim_lines = read_jsonl(&sim_path).expect("sim stream");
    std::fs::remove_file(&sim_path).ok();

    assert_eq!(sim_lines.len(), net_lines.len(), "stream lengths diverge");
    let keys = |v: &Json| -> Vec<String> {
        v.as_obj()
            .expect("events are objects")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    let type_tag = |v: &Json| -> &'static str {
        match v {
            Json::Null => "null-or-num", // non-finite floats serialize as null
            Json::Bool(_) => "bool",
            Json::Num(_) => "null-or-num",
            Json::Str(_) => "str",
            Json::Arr(_) => "arr",
            Json::Obj(_) => "obj",
        }
    };
    for (i, (s, n)) in sim_lines.iter().zip(&net_lines).enumerate() {
        assert_eq!(keys(s), keys(n), "line {i}: key set/order diverged");
        for ((key, sv), (_, nv)) in s.as_obj().unwrap().iter().zip(n.as_obj().unwrap()) {
            if key == "source" {
                assert_eq!(sv.as_str(), Some("sim"));
                assert_eq!(nv.as_str(), Some("net"));
                continue;
            }
            assert_eq!(
                type_tag(sv),
                type_tag(nv),
                "line {i} key {key:?}: JSON type diverged"
            );
        }
    }

    // The sim ledger reconciles on its own terms.
    let (rounds, run) = split_stream(&sim_lines);
    assert_eq!(rounds.len(), spec.steps as usize);
    let summed: u64 = rounds.iter().map(|r| r.state_bytes + r.model_bytes).sum();
    assert_eq!(summed, run.charged_bytes, "sim per-round bytes must sum");
    assert!(
        run.measured_equals_charged(),
        "sim measures what it charges"
    );
    assert_eq!(run.charged_bytes, sim.comm_bytes(), "ledger != simulator");
    for r in &rounds {
        assert_eq!(r.source, "sim");
        assert_eq!(r.epoch, 1, "sim has no membership churn");
        assert_eq!(r.alive, 4);
        assert!(r.deposit_us.is_empty() && r.drops.is_empty());
    }
}

/// `fda_node demo` prints the one-line `"run"` record on stdout — parse
/// it (never regex it) and check the load-bearing fields.
#[test]
fn node_demo_prints_parseable_run_report() {
    let node_bin = env!("CARGO_BIN_EXE_fda_node");
    let tele_path = temp_path("demo");
    let out = std::process::Command::new(node_bin)
        .args([
            "demo",
            "--workers",
            "2",
            "--steps",
            "4",
            "--variant",
            "linear",
            "--theta",
            "0.01",
            "--train",
            "240",
            "--test",
            "80",
            "--telemetry",
        ])
        .arg(&tele_path)
        .args(["--metrics-addr", "127.0.0.1:0"])
        .output()
        .expect("fda_node demo runs");
    assert!(
        out.status.success(),
        "demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let line = stdout.lines().last().expect("a report line");
    let parsed = fda::obs::json::parse(line).expect("report is valid JSON");
    assert_eq!(parsed.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
    let run = RunEvent::from_json(&parsed).expect("report is a run event");
    assert_eq!(run.source, "net");
    assert_eq!(run.workers, 2);
    assert_eq!(run.steps, 4);
    assert_eq!(run.variant, "LinearFDA");
    assert_eq!(run.codec, "dense-f32");
    assert_eq!(run.decisions.len(), 4);
    assert!(run.measured_equals_charged());
    assert_eq!(run.survivors, vec![0, 1]);
    assert_eq!(run.membership.len(), 2, "two joins, no drops");

    // The demo's --telemetry stream reconciles too.
    let lines = read_jsonl(&tele_path).expect("demo telemetry stream");
    std::fs::remove_file(&tele_path).ok();
    let (rounds, tele_run) = split_stream(&lines);
    assert_eq!(rounds.len(), 4);
    let summed: u64 = rounds.iter().map(|r| r.state_bytes + r.model_bytes).sum();
    assert_eq!(summed, tele_run.measured_payload_bytes);
    assert_eq!(
        tele_run.to_json().to_string(),
        line,
        "stdout == stream tail"
    );
}
