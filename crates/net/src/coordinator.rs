//! The TCP coordinator: deposit → deterministic reduce → broadcast,
//! surviving worker churn.
//!
//! One FDA round on the wire is a three-phase rendezvous over sockets:
//!
//! 1. **deposit** — every live worker uploads its local state frame;
//! 2. **reduce** — the survivors' decoded states go to the
//!    [`RoundEngine`], the same server half the simulator's `Fda::step`
//!    runs: it charges them, averages them **in worker-id order**,
//!    evaluates `H(S̄_t)` and decides;
//! 3. **broadcast** — every live worker receives the averaged state plus
//!    the decision, so the conditional model AllReduce is
//!    cluster-consistent without an extra round.
//!
//! On a sync round the engine also averages the decoded model uploads and
//! produces the consensus downlink, so a K-process TCP run is
//! bit-identical to the simulator by construction and its charged byte
//! ledger is the simulator's. Independently, every data-plane frame that
//! actually crosses a socket is *measured* (payload convention and raw
//! bytes); the parity suite asserts measured == charged.
//!
//! # Failure model
//!
//! Each round has a deposit deadline and a `min_workers` quorum
//! ([`RoundPolicy`]). A worker that times out, disconnects, or sends a
//! malformed frame is **dropped from the round**: its deposit is
//! discarded, the id-order reduce runs over the survivor set, and the run
//! continues with K′ < K. Every membership change bumps the **epoch**;
//! frames are stamped with it, and a connection's deposits are validated
//! against the epoch last announced *to that connection* — a zombie's
//! stale frames are skipped, never averaged. Dropping below quorum aborts
//! the run with [`NetError::Quorum`] instead of hanging or half-finishing.
//! A dropped worker may be re-admitted at a scheduled round
//! ([`RoundPolicy::admissions`]) via the versioned `Resume` handoff. The
//! full argument lives in DESIGN.md § "Failure model".

use crate::frame::{write_frame, CountingStream, FrameKind, NetError, PROTOCOL_VERSION};
use crate::protocol::{downlink_kind, encode_avg_state_into, recv_frame_at_epoch_into, Msg};
use fda_comm::{AccountingMode, SimNetwork};
use fda_core::monitor::LocalState;
use fda_core::round::RoundEngine;
use fda_core::wire::{decode_state_coded, decode_vector_coded, state_frame_overhead, JobSpec};
use fda_obs::{DropRecord, JsonlWriter, MembershipRecord, RunEvent};
use fda_tensor::vector;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long a new connection gets to send its hello. Workers send it
/// right after connecting, so a peer silent this long is a stray: it costs
/// the handshake this long, not the full io timeout.
pub const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// Why the coordinator dropped a worker from the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Missed the round's deposit deadline.
    Timeout,
    /// Socket closed or reset mid-protocol.
    Disconnect,
    /// Sent a frame that failed checksum/decode/shape validation, or the
    /// wrong message kind for the phase.
    Protocol,
}

impl DropReason {
    /// Stable lowercase name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::Timeout => "timeout",
            DropReason::Disconnect => "disconnect",
            DropReason::Protocol => "protocol",
        }
    }
}

/// What happened to one worker's membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEvent {
    /// The worker entered the run — at formation (`rejoin: false`) or via
    /// a scheduled re-admission after a drop (`rejoin: true`).
    Joined {
        /// Whether this join is a reconnect of a previously dropped worker.
        rejoin: bool,
    },
    /// The worker was dropped from the run.
    Dropped(DropReason),
}

/// One membership change, anchored to the round it took effect in.
/// Drops during the final replica collection use `round == steps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Round index the event took effect at.
    pub round: u32,
    /// Worker id.
    pub worker: u32,
    /// The change.
    pub event: MemberEvent,
}

/// Per-round liveness policy: deadline, quorum, and the deterministic
/// re-admission schedule.
#[derive(Debug, Clone)]
pub struct RoundPolicy {
    /// Abort with [`NetError::Quorum`] when fewer workers remain.
    pub min_workers: usize,
    /// Budget for collecting all of a round's deposits; a worker whose
    /// state has not arrived when the budget runs out is dropped.
    pub deposit_timeout: Duration,
    /// `(round, worker_id)`: re-admit `worker_id` at the start of `round`,
    /// *waiting* for it if it has not reconnected yet. Scheduling
    /// admissions — rather than admitting whenever a reconnect happens to
    /// land — is what makes a churn trajectory replayable: reconnect
    /// timing depends on OS scheduling and backoff jitter, the schedule
    /// does not.
    pub admissions: Vec<(u32, u32)>,
}

impl Default for RoundPolicy {
    fn default() -> RoundPolicy {
        RoundPolicy {
            min_workers: 1,
            deposit_timeout: Duration::from_secs(30),
            admissions: Vec::new(),
        }
    }
}

/// Outcome of a coordinated TCP run — the transport-side mirror of a
/// simulator trajectory, for bit-parity checks and byte-accounting audits.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Model synchronizations performed.
    pub syncs: u64,
    /// Per-round sync decisions, in step order.
    pub decisions: Vec<bool>,
    /// Per-round variance estimates `H(S̄_t)`, in step order.
    pub estimates: Vec<f32>,
    /// Bytes charged by the [`RoundEngine`] — the simulator's convention
    /// (state payload per step, model payload per sync, per worker),
    /// summed across membership eras when the worker set changed.
    pub charged_bytes: u64,
    /// Bytes *measured* on the sockets under the same payload convention:
    /// every data-plane frame that was actually averaged, fed through the
    /// accounting mode at the round's live worker count. Equals
    /// `charged_bytes` iff the traffic that crossed the fabric is exactly
    /// what the simulator charges.
    pub measured_payload_bytes: u64,
    /// Raw bytes the coordinator transmitted (framing, control plane and
    /// broadcasts included), dropped connections included.
    pub raw_tx_bytes: u64,
    /// Raw bytes the coordinator received.
    pub raw_rx_bytes: u64,
    /// Frame-payload bytes of the consensus-model downlink broadcasts
    /// (`AvgModel`/`AvgModelDelta`), summed over workers and syncs —
    /// uncharged control-plane traffic, reported so delta downlinks can be
    /// audited against the dense baseline.
    pub downlink_model_bytes: u64,
    /// Final replica parameters of each worker that finished the run, in
    /// [`NetReport::survivors`] order (== worker-id order). On a fault-free
    /// run this is every worker, indexed by id.
    pub worker_params: Vec<Vec<f32>>,
    /// Mean of the surviving final replicas (uncharged evaluation model).
    pub final_params: Vec<f32>,
    /// Worker ids that completed the run, ascending.
    pub survivors: Vec<u32>,
    /// Every membership change, in occurrence order: K `Joined` events at
    /// round 0, then drops/rejoins as they happened.
    pub events: Vec<MembershipEvent>,
}

/// The rendezvous server side of the transport.
pub struct Coordinator {
    listener: TcpListener,
    accept_timeout: Duration,
    read_timeout: Duration,
    policy: RoundPolicy,
    telemetry: Option<PathBuf>,
}

/// One accepted worker connection.
///
/// `epoch` is the membership epoch last *stamped on a frame sent to this
/// peer* — the epoch the worker will echo back, and therefore the one its
/// deposits are validated against. It intentionally lags the
/// coordinator's global epoch until the next send: a worker that deposited
/// before learning of a concurrent membership change is not a zombie.
struct Conn {
    stream: CountingStream<TcpStream>,
    epoch: u32,
    /// Round-persistent receive buffer: [`Members::recv_each`] leaves
    /// the frame body here (kind byte + payload, so the payload is
    /// `rbuf[1..]`), and steady-state deposits never allocate per frame —
    /// the buffer only grows to the largest frame this peer ever sends.
    rbuf: Vec<u8>,
}

impl Conn {
    fn send_raw(&mut self, epoch: u32, kind: FrameKind, payload: &[u8]) -> Result<(), NetError> {
        self.epoch = epoch;
        write_frame(&mut self.stream, epoch, kind, payload)
    }

    fn set_read_timeout(&self, t: Duration) -> std::io::Result<()> {
        self.stream.get_ref().set_read_timeout(Some(t))
    }
}

/// Closes a connection and banks its raw byte counters.
fn retire(conn: Conn, raw: &mut (u64, u64)) {
    raw.0 += conn.stream.tx_bytes();
    raw.1 += conn.stream.rx_bytes();
    let _ = conn.stream.get_ref().shutdown(std::net::Shutdown::Both);
}

/// Maps a per-connection receive/send error to the drop bucket the
/// membership log records.
fn drop_reason(e: &NetError) -> DropReason {
    match e {
        NetError::Timeout(_) => DropReason::Timeout,
        NetError::Disconnect(_) | NetError::Io(_) => DropReason::Disconnect,
        NetError::Decode(_) | NetError::Protocol(_) | NetError::Quorum { .. } => {
            DropReason::Protocol
        }
    }
}

/// A run's connections, indexed by worker id, with the live set, the
/// membership log, the epoch and the quorum rule. A phase runs over the
/// live ids in ascending order; every per-worker failure becomes a drop,
/// and the phase ends by [`Members::settle`]-ing its drops.
struct Members {
    conns: Vec<Option<Conn>>,
    /// Live worker ids, ascending.
    live: Vec<usize>,
    /// Reconnects waiting for their scheduled admission.
    parked: Vec<(usize, Conn)>,
    events: Vec<MembershipEvent>,
    epoch: u32,
    /// `(tx, rx)` raw bytes of retired connections.
    raw: (u64, u64),
    min_workers: usize,
    /// Socket timeout outside the deposit deadline.
    read_timeout: Duration,
}

impl Members {
    /// Parks reconnect hellos. A hello claiming a live id is a zombie and
    /// is closed; a second reconnect of the same parked id replaces the
    /// first (the worker retried).
    fn park(&mut self, hellos: Vec<(usize, Conn)>) {
        for (id, conn) in hellos {
            if self.conns[id].is_some() {
                retire(conn, &mut self.raw);
                continue;
            }
            if let Some(pos) = self.parked.iter().position(|(pid, _)| *pid == id) {
                retire(self.parked.swap_remove(pos).1, &mut self.raw);
            }
            self.parked.push((id, conn));
        }
    }

    /// Applies a phase's drops — close, log, bump the epoch once — then
    /// enforces the quorum ([`NetError::Quorum`] below `min_workers`).
    fn settle(&mut self, drops: &[(usize, DropReason)], round: u32) -> Result<(), NetError> {
        for &(id, reason) in drops {
            let conn = self.conns[id].take().expect("dropping a live conn");
            retire(conn, &mut self.raw);
            self.events.push(MembershipEvent {
                round,
                worker: id as u32,
                event: MemberEvent::Dropped(reason),
            });
        }
        if !drops.is_empty() {
            self.epoch += 1;
            self.live.retain(|&id| self.conns[id].is_some());
        }
        if self.live.len() < self.min_workers {
            return Err(NetError::Quorum {
                round,
                alive: self.live.len(),
                min_workers: self.min_workers,
            });
        }
        Ok(())
    }

    /// Receives one current-epoch `kind` frame from each live worker, in
    /// id order, and hands `accept` the worker id, the payload and the
    /// time spent waiting for it. A failed read, another kind, or a
    /// payload `accept` rejects drops the worker, so the accepted payloads
    /// are exactly the survivors'. With a `deadline`, each read gets the
    /// time remaining until it.
    fn recv_each(
        &mut self,
        kind: FrameKind,
        round: u32,
        deadline: Option<Instant>,
        mut accept: impl FnMut(usize, &[u8], Duration) -> bool,
    ) -> Result<(), NetError> {
        let mut drops = Vec::new();
        for &id in &self.live {
            let conn = self.conns[id].as_mut().expect("live");
            if let Some(deadline) = deadline {
                let remaining = deadline.saturating_duration_since(Instant::now());
                conn.set_read_timeout(remaining.max(Duration::from_millis(1)))?;
            }
            let t0 = Instant::now();
            match recv_frame_at_epoch_into(&mut conn.stream, conn.epoch, &mut conn.rbuf) {
                Ok(k) if k == kind && accept(id, &conn.rbuf[1..], t0.elapsed()) => {}
                Ok(_) => drops.push((id, DropReason::Protocol)),
                Err(e) => drops.push((id, drop_reason(&e))),
            }
        }
        self.settle(&drops, round)?;
        if deadline.is_some() {
            for conn in self.conns.iter().flatten() {
                conn.set_read_timeout(self.read_timeout)?;
            }
        }
        Ok(())
    }

    /// Sends `payload` as one `kind` frame to each live worker — one
    /// encoded buffer fanned out, each header stamped separately. A failed
    /// write drops the worker.
    fn send_each(&mut self, kind: FrameKind, payload: &[u8], round: u32) -> Result<(), NetError> {
        let mut drops = Vec::new();
        for &id in &self.live {
            let conn = self.conns[id].as_mut().expect("live");
            if let Err(e) = conn.send_raw(self.epoch, kind, payload) {
                drops.push((id, drop_reason(&e)));
            }
        }
        self.settle(&drops, round)
    }
}

impl Coordinator {
    /// Binds the rendezvous listener. `127.0.0.1:0` picks a free loopback
    /// port (read it back via [`Coordinator::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Coordinator, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Coordinator {
            listener,
            accept_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(60),
            policy: RoundPolicy::default(),
            telemetry: None,
        })
    }

    /// The bound address workers should connect to.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Replaces the hang guards: how long to wait for all `K` workers to
    /// connect (also the wait budget for a scheduled re-admission), and
    /// the per-read/per-write socket timeout outside the deposit phase. A
    /// worker that stalls past the I/O timeout — silent on a read, or not
    /// draining its receive buffer on a write — is dropped (or fails the
    /// run, during formation) instead of wedging the rendezvous forever.
    pub fn set_timeouts(&mut self, accept: Duration, io: Duration) {
        self.accept_timeout = accept;
        self.read_timeout = io;
    }

    /// Replaces the per-round liveness policy (quorum, deposit deadline,
    /// admission schedule).
    pub fn set_policy(&mut self, policy: RoundPolicy) {
        self.policy = policy;
    }

    /// Streams the versioned round-event JSONL ([`fda_obs`] schema) to
    /// `path`: one `"round"` record per FDA round — decision, estimate,
    /// per-worker deposit latency, drops, and the byte ledger — and one
    /// `"run"` summary record at the end. The stream is schema-identical
    /// to the simulator's (`RunConfig::with_telemetry`); only the
    /// `source` field differs.
    pub fn set_telemetry(&mut self, path: impl Into<PathBuf>) {
        self.telemetry = Some(path.into());
    }

    /// Completes one accepted connection's hello handshake, returning the
    /// claimed worker id. The hello read runs under [`HELLO_TIMEOUT`].
    fn handshake(&self, stream: TcpStream, k: usize) -> Result<(usize, Conn), NetError> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(HELLO_TIMEOUT.min(self.read_timeout)))?;
        stream.set_write_timeout(Some(self.read_timeout))?;
        let mut conn = Conn {
            stream: CountingStream::new(stream),
            epoch: 0,
            rbuf: Vec::new(),
        };
        let (version, id) = match Msg::recv(&mut conn.stream)? {
            (
                Msg::Hello {
                    version, worker_id, ..
                },
                _,
            ) => (version, worker_id as usize),
            (other, _) => {
                return Err(NetError::Protocol(format!(
                    "expected hello, got {}",
                    other.kind().label()
                )));
            }
        };
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "worker {id} speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"
            )));
        }
        if id >= k {
            return Err(NetError::Protocol(format!(
                "worker id {id} out of range for K = {k}"
            )));
        }
        conn.set_read_timeout(self.read_timeout)?;
        Ok((id, conn))
    }

    /// Accepts every pending connection without blocking and returns the
    /// ones that completed their hello. A connection that fails its
    /// handshake — a bad frame, the wrong message kind or version, an id
    /// out of range, silence past [`HELLO_TIMEOUT`] — is closed: a stray
    /// peer costs only its own connection. Only an error from the listener
    /// itself fails.
    fn accept_hellos(&self, k: usize) -> Result<Vec<(usize, Conn)>, NetError> {
        let mut hellos = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => hellos.extend(self.handshake(stream, k).ok()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(hellos),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Accepts `k` workers and indexes them by worker id. A hello for an
    /// id already formed is closed; strays do not reset the deadline.
    fn accept_workers(&self, k: usize) -> Result<Vec<Conn>, NetError> {
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + self.accept_timeout;
        let mut slots: Vec<Option<Conn>> = (0..k).map(|_| None).collect();
        let mut accepted = 0usize;
        loop {
            for (id, conn) in self.accept_hellos(k)? {
                if slots[id].is_none() {
                    slots[id] = Some(conn);
                    accepted += 1;
                }
            }
            if accepted == k {
                return Ok(slots
                    .into_iter()
                    .map(|s| s.expect("all accepted"))
                    .collect());
            }
            if Instant::now() >= deadline {
                return Err(NetError::Protocol(format!(
                    "only {accepted}/{k} workers connected within {:?}",
                    self.accept_timeout
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Runs the full FDA job across `spec.cluster.workers` TCP workers and
    /// returns the trajectory report. Blocks until the run completes, a
    /// membership drop takes it below quorum, or a formation failure.
    ///
    /// # Panics
    /// Panics on degenerate specs (`workers == 0` or `steps == 0`).
    pub fn run(&self, spec: &JobSpec) -> Result<NetReport, NetError> {
        let k = spec.cluster.workers;
        assert!(k >= 1, "coordinator: need at least one worker");
        assert!(spec.steps >= 1, "coordinator: need at least one step");
        let template = spec.cluster.model.build(spec.cluster.seed, 0);
        let dim = template.param_count();
        let mut engine = RoundEngine::for_job(spec, template.params_flat());
        // Template for validating deposit shapes before the reduce.
        let state_shape = engine.monitor().local_state(&vec![0.0f32; dim]);
        // Accounted bytes follow the simulator's convention: a state
        // charges its raw 4-byte drift scalar plus the encoded summary (the
        // tag/dims header is uncharged self-description), a model charges
        // its encoded payload (minus the 4-byte length header).
        let state_overhead = state_frame_overhead(&state_shape);
        let mode = AccountingMode::PerWorkerPayload;
        let downlink_kind = downlink_kind(spec.downlink);
        let mut tele: Option<JsonlWriter> = match &self.telemetry {
            Some(path) => Some(JsonlWriter::create(path)?),
            None => None,
        };

        // Formation: accept all K, then the uniform join handshake —
        // Config followed by the versioned handoff. At formation the
        // handoff is `Resume { round: 0, model: w_0, prev: None }`, a
        // bitwise no-op for a fresh replica, so there is exactly one join
        // path for first joins and rejoins alike.
        let mut m = Members {
            conns: self.accept_workers(k)?.into_iter().map(Some).collect(),
            live: (0..k).collect(),
            parked: Vec::new(),
            events: (0..k as u32)
                .map(|w| MembershipEvent {
                    round: 0,
                    worker: w,
                    event: MemberEvent::Joined { rejoin: false },
                })
                .collect(),
            epoch: 1,
            raw: (0, 0),
            min_workers: self.policy.min_workers,
            read_timeout: self.read_timeout,
        };
        let config_payload = fda_core::wire::encode_job(spec);
        let resume = resume_payload(0, &engine);
        for conn in m.conns.iter_mut().flatten() {
            conn.send_raw(m.epoch, FrameKind::Config, &config_payload)?;
            conn.send_raw(m.epoch, FrameKind::Resume, &resume)?;
        }

        // The charged ledger; the engine moves it to K′ on a membership
        // change, so a fault-free run keeps one era end to end.
        let mut net = SimNetwork::new(k);
        let mut measured_payload = 0u64;
        let mut decisions = Vec::with_capacity(spec.steps as usize);
        let mut estimates = Vec::with_capacity(spec.steps as usize);
        let mut downlink_model_bytes = 0u64;

        // Round-persistent scratch: the avg-state broadcast is encoded once
        // per round into `bcast` and fanned out as a borrowed slice, and a
        // phase's accepted payloads — exactly the survivors', in id order —
        // collect into reused buffers, so the steady-state round loop
        // performs a small constant number of allocations.
        let mut bcast: Vec<u8> = Vec::new();
        let mut states: Vec<LocalState> = Vec::with_capacity(k);
        let mut models: Vec<Vec<f32>> = Vec::with_capacity(k);
        let mut bytes: Vec<u64> = Vec::with_capacity(k);
        // Survivors' payload bytes, measured under the accounting mode.
        let measure = |bytes: &[u64]| -> u64 {
            bytes
                .iter()
                .map(|&b| mode.per_worker_bytes(b, bytes.len()))
                .sum()
        };

        for step in 0..spec.steps {
            // Membership events appended past this mark belong to this
            // round's telemetry.
            let events_mark = m.events.len();
            let mut deposit_us: Vec<(u32, u64)> = Vec::new();

            // (0) Scheduled re-admissions: wait for each worker due this
            // round, then replay the join handshake at the bumped epoch
            // with the current consensus state.
            let due: Vec<u32> = self
                .policy
                .admissions
                .iter()
                .filter(|&&(r, _)| r == step)
                .map(|&(_, w)| w)
                .collect();
            for w in due {
                let id = w as usize;
                if id >= k || m.conns[id].is_some() {
                    return Err(NetError::Protocol(format!(
                        "admission schedule: worker {w} at round {step} is not a dropped worker"
                    )));
                }
                let deadline = Instant::now() + self.accept_timeout;
                let mut conn = loop {
                    m.park(self.accept_hellos(k)?);
                    if let Some(pos) = m.parked.iter().position(|(pid, _)| *pid == id) {
                        break m.parked.swap_remove(pos).1;
                    }
                    if Instant::now() >= deadline {
                        return Err(NetError::Protocol(format!(
                            "scheduled rejoin of worker {w} at round {step} did not arrive \
                             within {:?}",
                            self.accept_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                };
                m.epoch += 1;
                conn.send_raw(m.epoch, FrameKind::Config, &config_payload)?;
                conn.send_raw(m.epoch, FrameKind::Resume, &resume_payload(step, &engine))?;
                m.conns[id] = Some(conn);
                m.live.insert(m.live.partition_point(|&x| x < id), id);
                m.events.push(MembershipEvent {
                    round: step,
                    worker: w,
                    event: MemberEvent::Joined { rejoin: true },
                });
            }

            // (1) Deposit: one state frame per live worker, read in id
            // order under the round's deadline. The coded decoder
            // validates tag, dims and payload totality against the
            // expected template before any allocation; a mismatch is a
            // protocol drop.
            states.clear();
            bytes.clear();
            let deadline = Instant::now() + self.policy.deposit_timeout;
            m.recv_each(
                FrameKind::State,
                step,
                Some(deadline),
                |id, payload, waited| match decode_state_coded(
                    payload,
                    &state_shape,
                    engine.codec(),
                ) {
                    Ok(s) => {
                        if tele.is_some() {
                            deposit_us.push((id as u32, waited.as_micros() as u64));
                        }
                        states.push(s);
                        bytes.push(payload.len() as u64 - state_overhead);
                        true
                    }
                    Err(_) => false,
                },
            )?;

            // (2) The engine charges, reduces (survivors in id order) and
            // decides; the deposits it averaged are measured.
            measured_payload += measure(&bytes);
            let refs: Vec<&LocalState> = states.iter().collect();
            let (estimate, sync) = engine.decide(&mut net, &refs, &bytes, None);
            estimates.push(estimate);
            decisions.push(sync);

            // (3) Broadcast the averaged state + decision.
            bcast.clear();
            encode_avg_state_into(engine.avg_state(), sync, &mut bcast);
            m.send_each(FrameKind::AvgState, &bcast, step)?;

            // (4) Conditional model AllReduce over the uploads that
            // arrive (a model charges its encoded payload; the 4-byte
            // length header is framing), then the engine's downlink.
            if sync {
                models.clear();
                bytes.clear();
                m.recv_each(
                    FrameKind::Model,
                    step,
                    None,
                    |_, payload, _| match decode_vector_coded(payload, dim, engine.codec()) {
                        Ok(v) => {
                            models.push(v);
                            bytes.push(payload.len() as u64 - 4);
                            true
                        }
                        Err(_) => false,
                    },
                )?;
                measured_payload += measure(&bytes);
                let uploads: Vec<&[f32]> = models.iter().map(Vec::as_slice).collect();
                let downlink = engine.sync(&mut net, &uploads, &bytes, None);
                m.send_each(downlink_kind, downlink, step)?;
                downlink_model_bytes += m.live.len() as u64 * downlink.len() as u64;
            }

            if let Some(w) = tele.as_mut() {
                let mut ev = engine.round_event("net", step + 1, m.epoch, measured_payload);
                ev.deposit_us = deposit_us;
                ev.drops = m.events[events_mark..]
                    .iter()
                    .filter_map(|e| match e.event {
                        MemberEvent::Dropped(r) => Some(DropRecord {
                            worker: e.worker,
                            reason: r.as_str().to_string(),
                        }),
                        MemberEvent::Joined { .. } => None,
                    })
                    .collect();
                w.write(&ev.to_json())?;
            }
        }

        // Final collection (uncharged, like `Cluster::average_params`).
        let mut worker_params: Vec<Vec<f32>> = Vec::with_capacity(k);
        m.recv_each(
            FrameKind::FinalModel,
            spec.steps,
            None,
            |_, payload, _| match Msg::decode(FrameKind::FinalModel, payload) {
                Ok(Msg::FinalModel(v)) if v.len() == dim => {
                    worker_params.push(v);
                    true
                }
                _ => false,
            },
        )?;
        for conn in m.conns.iter_mut().flatten() {
            conn.send_raw(m.epoch, FrameKind::Shutdown, &[])?;
            conn.stream.flush()?;
        }

        let refs: Vec<&[f32]> = worker_params.iter().map(|p| p.as_slice()).collect();
        let final_params = vector::mean(&refs);
        let live = m
            .conns
            .iter()
            .flatten()
            .chain(m.parked.iter().map(|(_, c)| c));
        let (live_tx, live_rx) = live.fold((0, 0), |(tx, rx), c| {
            (tx + c.stream.tx_bytes(), rx + c.stream.rx_bytes())
        });
        let report = NetReport {
            syncs: engine.syncs(),
            decisions,
            estimates,
            charged_bytes: net.total_bytes(),
            measured_payload_bytes: measured_payload,
            raw_tx_bytes: m.raw.0 + live_tx,
            raw_rx_bytes: m.raw.1 + live_rx,
            downlink_model_bytes,
            worker_params,
            final_params,
            survivors: m.live.iter().map(|&id| id as u32).collect(),
            events: m.events,
        };
        if let Some(mut w) = tele {
            w.write(&run_event(&report, spec).to_json())?;
            w.flush()?;
        }
        Ok(report)
    }
}

/// Builds the schema'd end-of-run summary record from a finished run — the
/// record `fda_node` prints as its run report and every telemetry stream
/// ends with. Membership events serialize as `"join"`, `"rejoin"`, or
/// `"drop-<reason>"`.
pub fn run_event(report: &NetReport, spec: &JobSpec) -> RunEvent {
    let membership = report
        .events
        .iter()
        .map(|e| {
            let event = match e.event {
                MemberEvent::Joined { rejoin: false } => "join".to_string(),
                MemberEvent::Joined { rejoin: true } => "rejoin".to_string(),
                MemberEvent::Dropped(r) => format!("drop-{}", r.as_str()),
            };
            MembershipRecord {
                round: e.round,
                worker: e.worker,
                event,
            }
        })
        .collect();
    RunEvent {
        source: "net".into(),
        workers: spec.cluster.workers as u32,
        variant: spec.fda.variant.name().into(),
        theta: spec.fda.theta,
        steps: spec.steps,
        syncs: report.syncs,
        decisions: report
            .decisions
            .iter()
            .map(|&d| if d { '1' } else { '0' })
            .collect(),
        codec: spec.codec.name().into(),
        charged_bytes: report.charged_bytes,
        measured_payload_bytes: report.measured_payload_bytes,
        raw_tx_bytes: report.raw_tx_bytes,
        raw_rx_bytes: report.raw_rx_bytes,
        survivors: report.survivors.clone(),
        membership,
    }
}

/// The `Resume` handoff payload at `round`: the engine's consensus pair —
/// for a rejoin, exactly what the survivors hold (the reconstruction,
/// under a delta downlink).
fn resume_payload(round: u32, engine: &RoundEngine) -> Vec<u8> {
    let msg = Msg::Resume {
        round,
        model: engine.consensus().to_vec(),
        prev_model: engine.prev_consensus().map(<[f32]>::to_vec),
    };
    msg.encode().1
}
