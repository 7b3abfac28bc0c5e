//! Typed messages over the frame layer.
//!
//! A [`Msg`] is one control-plane frame — hello, config, resume, final
//! model, shutdown — or one of the two dense broadcasts (`AvgState`,
//! `AvgModel`); payloads are `fda_core::wire` encodings. The data-plane
//! uplinks (`State`, `Model`) are not `Msg`s: their bytes depend on the
//! job's codec and their decode on the receiver's shapes, so senders
//! encode them with the `wire` `_into` encoders and receivers take them
//! off [`recv_frame_at_epoch_into`] and decode against a template. Those
//! payload bytes are exactly what the round engine charges.
//!
//! Every frame carries the coordinator's **membership epoch** in its
//! header. Senders stamp frames with the last epoch they were told;
//! receivers validate with [`recv_frame_at_epoch_into`], which *discards*
//! frames from an older epoch (a zombie connection's in-flight deposit
//! racing a drop/rejoin) instead of averaging them, and rejects frames
//! claiming a future epoch as protocol violations.

use crate::frame::{read_frame_into, write_frame, FrameKind, NetError, PROTOCOL_VERSION};
use fda_comm::compress::Dense32;
use fda_comm::DownlinkSpec;
use fda_core::monitor::LocalState;
use fda_core::wire::{
    decode_job, decode_state, decode_state_coded, decode_vector, decode_vector_at, encode_job,
    encode_state_into, encode_vector_into, JobSpec,
};
use std::io::{Read, Write};

/// How many consecutive stale-epoch frames [`recv_frame_at_epoch_into`]
/// will discard on one connection before declaring the peer a protocol
/// violator. A legitimate zombie has at most a handful of in-flight
/// frames; an endless stale stream is a broken or hostile peer.
pub const MAX_STALE_FRAMES: u32 = 8;

/// One protocol message (see [`FrameKind`] for the direction of each).
#[derive(Debug)]
pub enum Msg {
    /// Worker → coordinator handshake.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u16,
        /// The worker's stable id in `0..K` — the reduction order key.
        worker_id: u32,
        /// The membership epoch the worker last observed — 0 on a fresh
        /// join, the last broadcast epoch on a reconnect (so the
        /// coordinator can tell a rejoin from a restart).
        last_epoch: u32,
    },
    /// Coordinator → worker: the job (boxed: a `JobSpec` dwarfs every
    /// other variant, and `Msg` values travel through `Result`s and
    /// matches where the large-variant footprint would tax all of them).
    Config(Box<JobSpec>),
    /// Coordinator → worker: the averaged state and the round's decision.
    AvgState {
        /// `S̄_t`, averaged in worker-id order over the round's survivors.
        state: LocalState,
        /// `H(S̄_t) > Θ` — whether a model AllReduce follows.
        sync: bool,
    },
    /// Coordinator → worker: the consensus model.
    AvgModel(Vec<f32>),
    /// Worker → coordinator: final replica (uncharged evaluation traffic).
    FinalModel(Vec<f32>),
    /// Coordinator → worker: the versioned state handoff sent on every
    /// (re)join, right after [`Msg::Config`].
    Resume {
        /// The round the worker resumes at (0 at initial formation).
        round: u32,
        /// The consensus model — `w_0` before any sync, the last
        /// AllReduced model after.
        model: Vec<f32>,
        /// The consensus model of the *previous* synchronization, when one
        /// exists — what `LinearMonitor::on_sync` needs to reconstruct ξ
        /// bit-identically to the workers that never left.
        prev_model: Option<Vec<f32>>,
    },
    /// Coordinator → worker: run complete.
    Shutdown,
}

impl Msg {
    /// Builds the handshake message for this library's protocol version.
    pub fn hello(worker_id: u32, last_epoch: u32) -> Msg {
        Msg::Hello {
            version: PROTOCOL_VERSION,
            worker_id,
            last_epoch,
        }
    }

    /// Serializes this message's frame kind and payload.
    pub fn encode(&self) -> (FrameKind, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Msg::Hello {
                version,
                worker_id,
                last_epoch,
            } => {
                p.extend_from_slice(&version.to_le_bytes());
                p.extend_from_slice(&worker_id.to_le_bytes());
                p.extend_from_slice(&last_epoch.to_le_bytes());
            }
            Msg::Config(job) => p = encode_job(job),
            Msg::AvgState { state, sync } => encode_avg_state_into(state, *sync, &mut p),
            Msg::AvgModel(v) | Msg::FinalModel(v) => encode_vector_into(v, &mut p),
            Msg::Resume {
                round,
                model,
                prev_model,
            } => {
                p.extend_from_slice(&round.to_le_bytes());
                p.push(prev_model.is_some() as u8);
                encode_vector_into(model, &mut p);
                if let Some(prev) = prev_model {
                    encode_vector_into(prev, &mut p);
                }
            }
            Msg::Shutdown => {}
        }
        (self.kind(), p)
    }

    /// Writes this message as one frame stamped with `epoch`.
    pub fn send<W: Write>(&self, w: &mut W, epoch: u32) -> Result<(), NetError> {
        let (kind, payload) = self.encode();
        write_frame(w, epoch, kind, &payload)
    }

    /// Decodes a message from a frame's kind + payload.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Msg, NetError> {
        Ok(match kind {
            FrameKind::Hello => {
                if payload.len() != 10 {
                    return Err(NetError::Protocol(format!(
                        "hello payload must be 10 bytes, got {}",
                        payload.len()
                    )));
                }
                Msg::Hello {
                    version: u16::from_le_bytes(payload[0..2].try_into().expect("len 2")),
                    worker_id: u32::from_le_bytes(payload[2..6].try_into().expect("len 4")),
                    last_epoch: u32::from_le_bytes(payload[6..10].try_into().expect("len 4")),
                }
            }
            FrameKind::Config => Msg::Config(Box::new(decode_job(payload)?)),
            FrameKind::AvgState => {
                let (state, sync) = decode_avg_state(payload, None)?;
                Msg::AvgState { state, sync }
            }
            FrameKind::AvgModel => Msg::AvgModel(decode_vector(payload)?),
            FrameKind::FinalModel => Msg::FinalModel(decode_vector(payload)?),
            FrameKind::Resume => {
                if payload.len() < 5 {
                    return Err(NetError::Protocol("resume payload too short".to_string()));
                }
                let round = u32::from_le_bytes(payload[0..4].try_into().expect("len 4"));
                let has_prev = match payload[4] {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(NetError::Protocol(format!("bad resume prev flag {b}")));
                    }
                };
                let mut off = 5usize;
                let model = decode_vector_at(payload, &mut off)?;
                let prev_model = if has_prev {
                    Some(decode_vector_at(payload, &mut off)?)
                } else {
                    None
                };
                if off != payload.len() {
                    return Err(NetError::Protocol(
                        "trailing bytes after resume payload".to_string(),
                    ));
                }
                Msg::Resume {
                    round,
                    model,
                    prev_model,
                }
            }
            FrameKind::Shutdown => {
                if !payload.is_empty() {
                    return Err(NetError::Protocol(
                        "shutdown carries no payload".to_string(),
                    ));
                }
                Msg::Shutdown
            }
            // Coded uplinks and delta downlinks need the job's codecs and
            // the receiver's shapes: receivers take them off the frame
            // layer, so one here arrived where a typed message was due.
            FrameKind::State | FrameKind::Model | FrameKind::AvgModelDelta => {
                return Err(NetError::Protocol(format!(
                    "{} frame where a typed message was due",
                    kind.label()
                )));
            }
        })
    }

    /// Reads the next message off the stream (through
    /// [`read_frame_into`]), returning it with the epoch its frame was
    /// stamped with.
    pub fn recv<R: Read>(r: &mut R) -> Result<(Msg, u32), NetError> {
        let mut buf = Vec::new();
        let (kind, epoch) = read_frame_into(r, &mut buf)?;
        Ok((Msg::decode(kind, &buf[1..])?, epoch))
    }

    /// The frame kind this message travels in.
    pub fn kind(&self) -> FrameKind {
        match self {
            Msg::Hello { .. } => FrameKind::Hello,
            Msg::Config(_) => FrameKind::Config,
            Msg::AvgState { .. } => FrameKind::AvgState,
            Msg::AvgModel(_) => FrameKind::AvgModel,
            Msg::FinalModel(_) => FrameKind::FinalModel,
            Msg::Resume { .. } => FrameKind::Resume,
            Msg::Shutdown => FrameKind::Shutdown,
        }
    }
}

/// Appends the `AvgState` payload, `[sync u8][dense state]` — the one
/// encoder of the layout, used by the coordinator's broadcast (straight
/// from the engine's averaged state, no copy) and by [`Msg::encode`].
pub fn encode_avg_state_into(state: &LocalState, sync: bool, out: &mut Vec<u8>) {
    out.push(sync as u8);
    encode_state_into(state, out);
}

/// Decodes an `AvgState` payload into `(S̄, sync)` — the one decoder of
/// the layout. A worker passes its own round state as `template`: the
/// summary's kind and shape must match it before anything is sized from
/// the header, so a mismatched broadcast is a [`NetError::Decode`], never
/// a monitor fed a summary it cannot estimate. Without a template (the
/// typed [`Msg::decode`] path) the payload's header gives the shape.
pub fn decode_avg_state(
    payload: &[u8],
    template: Option<&LocalState>,
) -> Result<(LocalState, bool), NetError> {
    let (&sync_byte, state_bytes) = payload
        .split_first()
        .ok_or_else(|| NetError::Protocol("empty avg-state payload".to_string()))?;
    let sync = match sync_byte {
        0 => false,
        1 => true,
        b => return Err(NetError::Protocol(format!("bad sync byte {b}"))),
    };
    let state = match template {
        Some(t) => decode_state_coded(state_bytes, t, &Dense32)?,
        None => decode_state(state_bytes)?,
    };
    Ok((state, sync))
}

/// The frame kind a job's consensus downlink travels in: `AvgModel`
/// for the dense broadcast, `AvgModelDelta` for a delta downlink.
pub fn downlink_kind(spec: DownlinkSpec) -> FrameKind {
    if spec.is_dense() {
        FrameKind::AvgModel
    } else {
        FrameKind::AvgModelDelta
    }
}

/// Receives the next frame stamped with exactly `epoch` into a
/// caller-owned buffer: on success `buf` holds the frame's body (kind
/// byte + payload, so the payload is `&buf[1..]`, as with
/// [`read_frame_into`]), uninterpreted.
///
/// Frames from an **older** epoch are discarded (up to
/// [`MAX_STALE_FRAMES`]): they are the in-flight deposits of a connection
/// that raced a membership change — a zombie's state must be dropped, not
/// averaged into `S̄`. They are skipped on their headers alone, so a
/// zombie's coded deposit is discardable without being decodable. A frame
/// claiming a **future** epoch is a protocol violation (the coordinator is
/// the only epoch authority). The round loops hold one buffer per
/// connection, so steady-state receives allocate nothing.
pub fn recv_frame_at_epoch_into<R: Read>(
    r: &mut R,
    epoch: u32,
    buf: &mut Vec<u8>,
) -> Result<FrameKind, NetError> {
    let mut stale = 0u32;
    loop {
        let (kind, frame_epoch) = read_frame_into(r, buf)?;
        if frame_epoch == epoch {
            return Ok(kind);
        }
        if frame_epoch > epoch {
            return Err(NetError::Protocol(format!(
                "frame from future epoch {frame_epoch} (current {epoch})"
            )));
        }
        stale += 1;
        if stale > MAX_STALE_FRAMES {
            return Err(NetError::Protocol(format!(
                "more than {MAX_STALE_FRAMES} stale-epoch frames (last {frame_epoch}, \
                 current {epoch})"
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_core::monitor::{LinearMonitor, SketchMonitor, VarianceMonitor};
    use fda_core::wire::{decode_vector_coded, encode_state_coded_into};
    use fda_sketch::SketchConfig;

    /// Sends `msg` at epoch 11 and receives it back through the runtime's
    /// receive path.
    fn roundtrip(msg: &Msg) -> Msg {
        let mut wire: Vec<u8> = Vec::new();
        msg.send(&mut wire, 11).unwrap();
        let mut buf = Vec::new();
        let kind = recv_frame_at_epoch_into(&mut std::io::Cursor::new(wire), 11, &mut buf).unwrap();
        Msg::decode(kind, &buf[1..]).unwrap()
    }

    #[test]
    fn hello_roundtrip() {
        match roundtrip(&Msg::hello(3, 42)) {
            Msg::Hello {
                version,
                worker_id,
                last_epoch,
            } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(worker_id, 3);
                assert_eq!(last_epoch, 42);
            }
            other => panic!("wrong kind: {}", other.kind().label()),
        }
    }

    /// The averaged state round-trips bitwise through the typed path and
    /// through a worker's template decode; a template of another summary
    /// kind is a decode error, not a state the monitor cannot estimate.
    #[test]
    fn state_and_avg_state_roundtrip_bitwise() {
        let drift: Vec<f32> = (0..96).map(|i| (i as f32 * 0.11).sin()).collect();
        let linear = LinearMonitor::new().local_state(&drift);
        let sketch =
            SketchMonitor::new(SketchConfig::new(3, 16, 5), drift.len()).local_state(&drift);
        for (state, other) in [(&linear, &sketch), (&sketch, &linear)] {
            match roundtrip(&Msg::AvgState {
                state: state.clone(),
                sync: true,
            }) {
                Msg::AvgState { state: back, sync } => {
                    assert_eq!(&back, state);
                    assert!(sync);
                }
                other => panic!("wrong kind: {}", other.kind().label()),
            }
            let mut payload = Vec::new();
            encode_avg_state_into(state, false, &mut payload);
            let (back, sync) = decode_avg_state(&payload, Some(state)).unwrap();
            assert_eq!(&back, state);
            assert!(!sync);
            assert!(matches!(
                decode_avg_state(&payload, Some(other)),
                Err(NetError::Decode(_))
            ));
        }
    }

    #[test]
    fn resume_roundtrip_with_and_without_prev() {
        let model: Vec<f32> = (0..50).map(|i| i as f32 * 0.25).collect();
        let prev: Vec<f32> = (0..50).map(|i| i as f32 * -0.5).collect();
        for prev_model in [None, Some(prev.clone())] {
            let msg = Msg::Resume {
                round: 6,
                model: model.clone(),
                prev_model: prev_model.clone(),
            };
            match roundtrip(&msg) {
                Msg::Resume {
                    round,
                    model: m,
                    prev_model: p,
                } => {
                    assert_eq!(round, 6);
                    assert_eq!(m, model);
                    assert_eq!(p, prev_model);
                }
                other => panic!("wrong kind: {}", other.kind().label()),
            }
        }
    }

    /// The zombie guard: stale-epoch frames are skipped, the current-epoch
    /// frame behind them is delivered, future epochs and stale floods are
    /// protocol errors.
    #[test]
    fn stale_epochs_skipped_future_rejected() {
        let state = LinearMonitor::new().local_state(&[1.0, 2.0, 3.0]);
        let mut deposit = Vec::new();
        encode_state_coded_into(&state, &Dense32, &mut deposit);
        let mut upload = Vec::new();
        encode_vector_into(&[9.0], &mut upload);
        let mut buf = Vec::new();
        // Uplinks are frame-layer payloads: the typed path refuses them.
        for (kind, payload) in [(FrameKind::State, &deposit), (FrameKind::Model, &upload)] {
            assert!(matches!(
                Msg::decode(kind, payload),
                Err(NetError::Protocol(_))
            ));
        }

        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 3, FrameKind::State, &deposit).unwrap(); // stale
        write_frame(&mut wire, 4, FrameKind::State, &deposit).unwrap(); // stale
        write_frame(&mut wire, 5, FrameKind::Model, &upload).unwrap(); // current
        let kind = recv_frame_at_epoch_into(&mut std::io::Cursor::new(wire), 5, &mut buf).unwrap();
        assert_eq!(kind, FrameKind::Model);
        assert_eq!(
            decode_vector_coded(&buf[1..], 1, &Dense32).unwrap(),
            vec![9.0]
        );

        // Future epoch → protocol violation.
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, 9, FrameKind::State, &deposit).unwrap();
        assert!(matches!(
            recv_frame_at_epoch_into(&mut std::io::Cursor::new(wire), 5, &mut buf),
            Err(NetError::Protocol(_))
        ));

        // A flood of stale frames → protocol violation, not an endless
        // discard loop.
        let mut wire: Vec<u8> = Vec::new();
        for _ in 0..(MAX_STALE_FRAMES + 2) {
            write_frame(&mut wire, 1, FrameKind::State, &deposit).unwrap();
        }
        assert!(matches!(
            recv_frame_at_epoch_into(&mut std::io::Cursor::new(wire), 5, &mut buf),
            Err(NetError::Protocol(_))
        ));
    }
}
