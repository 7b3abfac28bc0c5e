//! The TCP worker loop.
//!
//! A worker process is one half of the protocol. It rebuilds its exact
//! simulator replica from the config frame —
//! [`fda_core::cluster::ClusterConfig::build_worker`] derives model init,
//! `w_0`, dropout stream, shard and batch order deterministically from
//! `(seed, id)` — and then drives [`Worker::step_once`], the *same*
//! training code path the simulator's `Cluster::local_step` runs.
//! Everything that crosses the process boundary goes through
//! `fda_core::wire`, whose decode is exact (f32 bits round-trip), so the
//! K-process trajectory is bit-identical to the K-worker simulator.
//!
//! # Sessions, faults and rejoin
//!
//! One *session* is one connection's worth of protocol: connect (with
//! exponential backoff + jitter under `connect_timeout`), hello, `Config`,
//! the versioned `Resume` handoff, then rounds from `Resume.round`
//! onwards. Scripted [`FaultAction`]s fire when the session is about to
//! upload a given step's state. If the session dies retryably
//! (disconnect, timeout) and a [`RejoinPolicy`] is set, the worker opens a
//! new session presenting its id + last-seen epoch; the coordinator's
//! `Resume` tells it where to restart. A rejoin is a **warm restart**: the
//! replica, optimizer state and data stream are rebuilt from `(seed, id)`
//! and the parameters are loaded from the consensus model — deterministic
//! given the coordinator's admission schedule, though not a continuation
//! of the dropped session's local trajectory.

use crate::fault::{Backoff, FaultAction, RejoinPolicy, FAULT_EXIT_CODE};
use crate::frame::{
    encode_frame, read_frame_into, write_frame, CountingStream, FrameKind, NetError,
};
use crate::protocol::{decode_avg_state, downlink_kind, Msg};
use fda_core::cluster::Worker;
use fda_core::round::{apply_downlink, evaluate, RoundEngine};
use fda_core::wire::{encode_state_coded_into, encode_vector_coded_into, JobSpec};
use fda_tensor::vector;
use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Summary a worker returns after a completed run (for logging/tests; the
/// authoritative trajectory lives in the coordinator's report).
#[derive(Debug, Clone, Copy)]
pub struct WorkerSummary {
    /// Steps performed (across all sessions).
    pub steps: u64,
    /// Synchronizations participated in.
    pub syncs: u64,
    /// Times this worker reconnected after losing a session.
    pub rejoins: u64,
}

/// How a worker run ended.
#[derive(Debug, Clone, Copy)]
pub enum WorkerOutcome {
    /// Ran every remaining round through shutdown.
    Completed(WorkerSummary),
    /// A terminal scripted fault ended the run on purpose. Spawned worker
    /// processes exit with [`FAULT_EXIT_CODE`] instead of returning this
    /// (see [`WorkerOptions::exit_process_on_fault`]).
    Faulted {
        /// Step the fault fired at.
        step: u32,
        /// The scripted action.
        action: FaultAction,
    },
}

/// Knobs for one worker run.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Deadline for each session's connect loop (the coordinator may
    /// still be binding when a spawned worker starts).
    pub connect_timeout: Duration,
    /// Per-read/per-write socket timeout (the hang guard).
    pub io_timeout: Duration,
    /// When set, retryable session failures trigger reconnect attempts;
    /// when `None`, the first failure is final.
    pub rejoin: Option<RejoinPolicy>,
    /// Scripted faults for this worker.
    pub faults: Vec<FaultAction>,
    /// Spawned processes set this so a terminal fault exits the process
    /// with [`FAULT_EXIT_CODE`] (the harness reaper treats that exit as
    /// scripted); in-process (thread) workers leave it false and return
    /// [`WorkerOutcome::Faulted`] instead.
    pub exit_process_on_fault: bool,
    /// Perturbs backoff jitter only — never numerics.
    pub backoff_seed: u64,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            connect_timeout: Duration::from_secs(20),
            io_timeout: Duration::from_secs(60),
            rejoin: None,
            faults: Vec::new(),
            exit_process_on_fault: false,
            backoff_seed: 0,
        }
    }
}

/// One connection's worth of protocol state.
struct Session {
    stream: CountingStream<TcpStream>,
    id: u32,
    /// Epoch of the last frame received — stamped on everything this
    /// session sends, so the coordinator can tell live deposits from a
    /// zombie's.
    epoch: u32,
    /// Round-persistent receive buffer (frame bodies land here; the
    /// payload of the last received frame is `rbuf[1..]`).
    rbuf: Vec<u8>,
}

impl Session {
    /// Connects with exponential backoff + jitter under the
    /// `connect_timeout` deadline, then sends the extended hello. The
    /// address is borrowed through the backoff loop — retries never clone
    /// it.
    fn connect<A: ToSocketAddrs + ?Sized>(
        addr: &A,
        id: u32,
        last_epoch: u32,
        opts: &WorkerOptions,
        backoff: &mut Backoff,
    ) -> Result<Session, NetError> {
        let deadline = Instant::now() + opts.connect_timeout;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::from_io(e));
                    }
                    let wait = backoff
                        .next_delay()
                        .min(deadline.saturating_duration_since(now));
                    std::thread::sleep(wait);
                }
            }
        };
        backoff.reset();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(opts.io_timeout))?;
        stream.set_write_timeout(Some(opts.io_timeout))?;
        let mut stream = CountingStream::new(stream);
        Msg::hello(id, last_epoch).send(&mut stream, last_epoch)?;
        Ok(Session {
            stream,
            id,
            epoch: last_epoch,
            rbuf: Vec::new(),
        })
    }

    fn recv(&mut self) -> Result<Msg, NetError> {
        let (kind, epoch) = read_frame_into(&mut self.stream, &mut self.rbuf)?;
        self.epoch = epoch;
        Msg::decode(kind, &self.rbuf[1..])
    }

    /// Receives one frame that must be of `kind`, returning its payload
    /// uninterpreted — the path for payloads whose decoding needs the
    /// job's codecs or this worker's shapes.
    fn recv_payload(&mut self, kind: FrameKind) -> Result<&[u8], NetError> {
        let (got, epoch) = read_frame_into(&mut self.stream, &mut self.rbuf)?;
        self.epoch = epoch;
        if got != kind {
            return Err(NetError::Protocol(format!(
                "worker {}: expected {}, got {}",
                self.id,
                kind.label(),
                got.label()
            )));
        }
        Ok(&self.rbuf[1..])
    }

    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        msg.send(&mut self.stream, self.epoch)
    }

    /// Sends a pre-encoded payload as one frame — the uplink path for
    /// codec-encoded state/model payloads, which `Msg` cannot represent
    /// (their byte form depends on the job's negotiated codec).
    fn send_frame(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), NetError> {
        write_frame(&mut self.stream, self.epoch, kind, payload)
    }

    fn protocol_err(&self, expected: &str, got: &Msg) -> NetError {
        NetError::Protocol(format!(
            "worker {}: expected {expected}, got {}",
            self.id,
            got.kind().label()
        ))
    }

    fn shutdown(&self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
    }
}

/// How one session ended (distinct from how the whole run ends: a
/// retryable session error may turn into a rejoin).
enum SessionEnd {
    Completed { steps: u64 },
    Faulted { step: u32, action: FaultAction },
}

/// Runs one worker to completion, surviving session loss when a
/// [`RejoinPolicy`] is configured. This is the entry point for both
/// in-process (thread) workers and the `fda_node worker` binary.
pub fn run_worker<A: ToSocketAddrs>(
    addr: A,
    id: u32,
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, NetError> {
    let policy = opts.rejoin.unwrap_or_default();
    let mut backoff = Backoff::new(
        policy.base_backoff,
        policy.max_backoff,
        opts.backoff_seed ^ (0x5EED ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut last_epoch = 0u32;
    let mut attempts_left = opts.rejoin.map(|p| p.max_attempts).unwrap_or(0);
    let mut rejoins = 0u64;
    let mut syncs = 0u64;

    loop {
        let mut session = Session::connect(&addr, id, last_epoch, opts, &mut backoff)?;
        match run_session(&mut session, opts, &mut syncs) {
            Ok(SessionEnd::Completed { steps }) => {
                return Ok(WorkerOutcome::Completed(WorkerSummary {
                    steps,
                    syncs,
                    rejoins,
                }));
            }
            Ok(SessionEnd::Faulted { step, action }) => {
                session.shutdown();
                if opts.exit_process_on_fault {
                    std::process::exit(FAULT_EXIT_CODE);
                }
                return Ok(WorkerOutcome::Faulted { step, action });
            }
            Err(e) if e.is_retryable() && attempts_left > 0 => {
                attempts_left -= 1;
                rejoins += 1;
                last_epoch = session.epoch;
                session.shutdown();
            }
            Err(e) => return Err(e),
        }
    }
}

/// One session: `Config` → `Resume` handoff → rounds from `Resume.round`.
fn run_session(
    session: &mut Session,
    opts: &WorkerOptions,
    syncs: &mut u64,
) -> Result<SessionEnd, NetError> {
    let spec: JobSpec = match session.recv()? {
        Msg::Config(job) => *job,
        other => return Err(session.protocol_err("config", &other)),
    };
    let (start_round, resume_model, resume_prev) = match session.recv()? {
        Msg::Resume {
            round,
            model,
            prev_model,
        } => (round, model, prev_model),
        other => return Err(session.protocol_err("resume", &other)),
    };

    let task = spec.synth.generate(&spec.task_name);
    let mut worker: Worker = spec.cluster.build_worker(&task.train, session.id as usize);
    let dim = worker.model().param_count();
    for v in std::iter::once(&resume_model).chain(&resume_prev) {
        if v.len() != dim {
            return Err(NetError::Protocol(format!(
                "worker {}: resume model has {} params, replica has {dim}",
                session.id,
                v.len()
            )));
        }
    }

    // The versioned handoff: the engine (the job's monitor, Θ and codecs)
    // adopts the consensus model as `w_t0` and, when a synchronization
    // already happened, adopts it over the previous consensus so that
    // direction-tracking monitors (LinearFDA's ξ) replay `on_sync` and
    // match the workers that never left, bit for bit. At formation this
    // loads `w_0` into a replica already holding `w_0` — a bitwise no-op.
    worker.model_mut().load_params(&resume_model);
    let mut engine = match resume_prev {
        Some(prev) => {
            let mut engine = RoundEngine::for_job(&spec, prev);
            engine.adopt(resume_model);
            engine
        }
        None => RoundEngine::for_job(&spec, resume_model),
    };
    // Under a delta downlink the consensus arrives as an `AvgModelDelta`
    // frame coded against the last synced model; `Resume` stays dense.
    let downlink_kind = downlink_kind(spec.downlink);
    let mut params = vec![0.0f32; dim];
    let mut drift = vec![0.0f32; dim];
    // Round-persistent uplink scratch: every State/Model payload is
    // encoded into this buffer in place, so steady-state rounds don't
    // allocate on the send path.
    let mut ubuf: Vec<u8> = Vec::new();

    for step in start_round..spec.steps {
        // (1) Local training — the simulator's exact code path.
        worker.step_once(&task.train);
        worker.model().copy_params_to(&mut params);

        // (2) Local state from the drift — the point scripted faults hit.
        vector::sub_into(&params, engine.consensus(), &mut drift);
        let state = engine.monitor().local_state(&drift);
        ubuf.clear();
        encode_state_coded_into(&state, engine.codec(), &mut ubuf);
        match apply_faults(session, step, opts, &ubuf)? {
            FaultOutcome::Sent => {}
            FaultOutcome::Terminal(action) => {
                return Ok(SessionEnd::Faulted { step, action });
            }
        }

        // (3) The averaged state, decoded against this round's own state
        // as the template, so a summary of another kind or shape is a
        // decode error. Every worker holds the same S̄ and evaluates
        // `H(S̄) > Θ` itself with the engine's rule — the decision byte is
        // a cross-check, not a trusted oracle; any disagreement (a
        // coordinator running different monitor code, a corrupted frame
        // that still decoded) is a protocol error, not a silent divergence.
        let payload = session.recv_payload(FrameKind::AvgState)?;
        let (avg, sync) = decode_avg_state(payload, Some(&state))?;
        let (_, local_decision) = evaluate(engine.monitor(), &avg, engine.theta());
        if local_decision != sync {
            return Err(NetError::Protocol(format!(
                "worker {}: local H(S̄) decision ({local_decision}) disagrees \
                 with coordinator broadcast ({sync})",
                session.id
            )));
        }

        // (4) Conditional model AllReduce.
        if sync {
            ubuf.clear();
            encode_vector_coded_into(&params, engine.codec(), &mut ubuf);
            session.send_frame(FrameKind::Model, &ubuf)?;
            let payload = session.recv_payload(downlink_kind)?;
            let avg = apply_downlink(engine.consensus(), payload, engine.downlink())?;
            worker.model_mut().load_params(&avg);
            params.copy_from_slice(&avg);
            engine.adopt(avg);
            *syncs += 1;
        }
    }

    // Final replica collection + shutdown.
    session.send(&Msg::FinalModel(params))?;
    match session.recv()? {
        Msg::Shutdown => {}
        other => return Err(session.protocol_err("shutdown", &other)),
    }
    Ok(SessionEnd::Completed {
        steps: u64::from(spec.steps - start_round),
    })
}

enum FaultOutcome {
    /// The state frame went out (clean, delayed, or deliberately mangled).
    Sent,
    /// A terminal fault fired; the session is over by design.
    Terminal(FaultAction),
}

/// Applies every scripted fault anchored to `step` in place of (or around)
/// the state upload. `state_payload` is the already codec-encoded state —
/// faults mangle the exact bytes a clean send would have produced.
fn apply_faults(
    session: &mut Session,
    step: u32,
    opts: &WorkerOptions,
    state_payload: &[u8],
) -> Result<FaultOutcome, NetError> {
    let mut actions: Vec<FaultAction> = opts
        .faults
        .iter()
        .filter(|a| a.step() == step)
        .copied()
        .collect();
    actions.sort_by_key(|a| a.is_terminal()); // stalls first, then at most one terminal
    for action in actions {
        match action {
            FaultAction::StallState { ms, .. } => {
                std::thread::sleep(Duration::from_millis(u64::from(ms)));
            }
            FaultAction::KillBeforeState(_) => {
                return Ok(FaultOutcome::Terminal(action));
            }
            FaultAction::ExitBeforeState(_) => {
                if opts.exit_process_on_fault {
                    std::process::exit(FAULT_EXIT_CODE);
                }
                return Ok(FaultOutcome::Terminal(action));
            }
            FaultAction::FlipStateBit { bit, .. } => {
                // Corrupt the frame past the length field so the
                // coordinator reads a complete frame and the checksum —
                // not a short read — must catch it.
                let mut frame = encode_frame(session.epoch, FrameKind::State, state_payload);
                let body_bits = (frame.len() - 4) * 8;
                let b = bit as usize % body_bits;
                frame[4 + b / 8] ^= 1 << (b % 8);
                session.stream.write_all(&frame)?;
                session.stream.flush()?;
                return Ok(FaultOutcome::Sent);
            }
            FaultAction::TruncateState { keep, .. } => {
                let frame = encode_frame(session.epoch, FrameKind::State, state_payload);
                let keep = (keep as usize).min(frame.len().saturating_sub(1));
                session.stream.write_all(&frame[..keep])?;
                session.stream.flush()?;
                session.shutdown();
                // The session is unusable; surface it as the disconnect
                // the coordinator also observes, so the rejoin machinery
                // takes over.
                return Err(NetError::Disconnect(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "scripted mid-frame truncation",
                )));
            }
        }
    }
    session.send_frame(FrameKind::State, state_payload)?;
    Ok(FaultOutcome::Sent)
}
