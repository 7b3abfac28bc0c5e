//! The server half of one FDA round — the single implementation both
//! drivers run: [`crate::fda::Fda`]'s `step` feeds it from memory and the
//! `fda_net` coordinator feeds it from sockets.
//!
//! Per round, [`RoundEngine`]
//!
//! 1. charges the survivors' state deposits, given in worker-id order with
//!    their payload byte counts, moving the ledger to the new headcount
//!    when membership changed ([`SimNetwork::set_workers`]);
//! 2. averages them in worker-id order and returns `H(S̄)` and the
//!    `H(S̄) > Θ` decision (Algorithm 1, lines 7–8);
//! 3. on a sync round, charges and averages the model uploads, encodes the
//!    consensus downlink — dense, or a coded delta against the previous
//!    consensus — and advances the consensus / previous-consensus pair.
//!
//! Drivers own everything else: producing deposits (local training, the
//! drift, the uplink codec), moving bytes, membership and telemetry sinks.
//! Workers evaluate the same decision through [`evaluate`].

use crate::monitor::{LocalState, VarianceMonitor};
use crate::pool::WorkerPool;
use crate::wire::{decode_vector_coded, encode_vector_into, DecodeError, JobSpec};
use fda_comm::SimNetwork;
use fda_comm::{apply_delta_downlink, delta_downlink, Codec, CodecSpec, Dense32, DownlinkSpec};
use fda_obs::RoundEvent;
use fda_tensor::vector;

/// Means over payloads shorter than this run on the calling thread even
/// when a pool is supplied: a rendezvous costs more than a few hundred
/// scalar adds (LinearFDA's summary is a single float). Both paths are
/// bit-identical, so the cutoff affects speed only.
const POOLED_REDUCE_MIN: usize = 256;

/// `H(S̄)` and the decision `H(S̄) > Θ` — the one place Θ is tested.
/// Workers re-evaluate it on the broadcast `S̄` to cross-check the
/// coordinator's decision byte.
pub fn evaluate(monitor: &dyn VarianceMonitor, avg: &LocalState, theta: f32) -> (f32, bool) {
    let estimate = monitor.estimate(avg);
    (estimate, estimate > theta)
}

/// The receiving half of [`RoundEngine::sync`]'s downlink: the new
/// consensus from a `[dim: u32][codec payload]` payload and the receiver's
/// consensus `prev` — the dense mean, or under a delta downlink
/// `prev + decode(delta)` ([`apply_delta_downlink`], the engine's own
/// reconstruction path). Total over hostile payloads.
pub fn apply_downlink(
    prev: &[f32],
    payload: &[u8],
    downlink: Option<&dyn Codec>,
) -> Result<Vec<f32>, DecodeError> {
    let Some(dc) = downlink else {
        return decode_vector_coded(payload, prev.len(), &Dense32);
    };
    if payload.get(..4) != Some(&(prev.len() as u32).to_le_bytes()[..]) {
        return Err(DecodeError::Malformed("downlink length mismatch"));
    }
    Ok(apply_delta_downlink(prev, &payload[4..], dc)?)
}

/// One coded upload in memory, as the simulator deposits it: replaces `v`
/// with the reconstruction a receiver decodes, `decode(encode(v))`, and
/// returns the encoded size the wire would carry. `enc` is the caller's
/// encode scratch, reused across calls, so a codec that overrides
/// [`Codec::encode_into`] and [`Codec::decode_into`] uploads without
/// allocating once `enc` has grown to the payload size.
///
/// # Panics
/// Panics only if the codec fails to decode its own encoding.
pub fn upload(codec: &dyn Codec, v: &mut [f32], enc: &mut Vec<u8>) -> u64 {
    enc.clear();
    codec.encode_into(v, enc);
    codec
        .decode_into(enc, v)
        .expect("codec decodes its own encoding");
    enc.len() as u64
}

/// The state AllReduce arithmetic: writes the worker-order mean of
/// `states` into `out`, which must already have their shape.
pub fn mean_state_into(
    states: &[&LocalState],
    out: &mut LocalState,
    pool: Option<&mut WorkerPool>,
) {
    out.drift_sq_norm = states.iter().map(|s| s.drift_sq_norm).sum::<f32>() / states.len() as f32;
    mean_into(
        pool,
        states.iter().map(|s| s.summary_slice()),
        out.summary_slice_mut(),
    );
}

/// Worker-order mean of equal-length payloads: `out = first`, then each
/// later source added in order, then scaled by `1/K` — the association of
/// `SimNetwork::allreduce_mean`. With a pool the mean runs chunk-parallel
/// over the payload, never over workers, so both paths give the same bits.
pub(crate) fn mean_into<'a, I>(pool: Option<&mut WorkerPool>, mut srcs: I, out: &mut [f32])
where
    I: ExactSizeIterator<Item = &'a [f32]>,
{
    match pool {
        Some(pool) if out.len() >= POOLED_REDUCE_MIN => {
            pool.chunked_mean(&srcs.collect::<Vec<_>>(), out);
        }
        _ => {
            let k = srcs.len();
            out.copy_from_slice(srcs.next().expect("mean of at least one payload"));
            for s in srcs {
                vector::add_assign(out, s);
            }
            vector::scale(out, 1.0 / k as f32);
        }
    }
}

/// Charges one participation per payload at the payload's byte count,
/// first moving the ledger to `payloads.len()` workers. Returns the bytes
/// charged.
fn charge(net: &mut SimNetwork, payloads: &[u64]) -> u64 {
    let before = net.total_bytes();
    net.set_workers(payloads.len());
    net.charge_per_worker(payloads);
    net.total_bytes() - before
}

/// What the engine knows about the latest round (telemetry).
#[derive(Debug, Clone, Copy, Default)]
struct RoundRecord {
    alive: u32,
    decision: bool,
    estimate: f32,
    state_bytes: u64,
    model_bytes: u64,
    charged_bytes: u64,
}

/// The server half of the FDA round: monitor, Θ, the job's codecs, the
/// consensus pair and the round record. See the module docs.
pub struct RoundEngine {
    monitor: Box<dyn VarianceMonitor>,
    theta: f32,
    codec: Box<dyn Codec>,
    /// Delta codec of the consensus downlink; `None` broadcasts it dense.
    downlink: Option<Box<dyn Codec>>,
    /// `w_t0`: the consensus every worker holds after the latest sync.
    consensus: Vec<f32>,
    /// The consensus before that (`None` until the first sync).
    prev: Option<Vec<f32>>,
    /// Reused `S̄` slot; shaped by the first deposit.
    avg: Option<LocalState>,
    /// Reused downlink payload: `[dim: u32][codec payload]`.
    payload: Vec<u8>,
    syncs: u64,
    last: RoundRecord,
}

impl RoundEngine {
    /// An engine at round 0: consensus `w0`, dense uplink and downlink.
    ///
    /// # Panics
    /// Panics if `theta < 0` (Θ = 0 syncs every round).
    pub fn new(monitor: Box<dyn VarianceMonitor>, theta: f32, w0: Vec<f32>) -> RoundEngine {
        assert!(theta >= 0.0, "fda: Θ must be non-negative");
        RoundEngine {
            monitor,
            theta,
            codec: CodecSpec::Dense.build(),
            downlink: None,
            consensus: w0,
            prev: None,
            avg: None,
            payload: Vec::new(),
            syncs: 0,
            last: RoundRecord::default(),
        }
    }

    /// The engine of a wire job — its monitor, Θ, uplink codec and
    /// downlink — at consensus `w0`: the one construction the coordinator
    /// and every worker share.
    pub fn for_job(job: &JobSpec, w0: Vec<f32>) -> RoundEngine {
        let monitor = job.fda.variant.build_monitor(w0.len());
        let mut engine = RoundEngine::new(monitor, job.fda.theta, w0);
        engine.set_codec(job.codec);
        engine.set_downlink(job.downlink);
        engine
    }

    /// Selects the job's uplink codec (state summaries and model uploads).
    ///
    /// # Panics
    /// Panics if the spec fails [`CodecSpec::validate`].
    pub fn set_codec(&mut self, spec: CodecSpec) {
        self.codec = spec.build();
    }

    /// Selects the consensus downlink: dense, or a coded delta against
    /// the previous consensus ([`fda_comm::compress::delta_downlink`]).
    ///
    /// # Panics
    /// Panics if the spec fails [`DownlinkSpec::validate`].
    pub fn set_downlink(&mut self, spec: DownlinkSpec) {
        self.downlink = spec.build();
    }

    /// The uplink codec: drivers encode, decode or roundtrip deposits
    /// through it.
    pub fn codec(&self) -> &dyn Codec {
        self.codec.as_ref()
    }

    /// The downlink's delta codec; `None` for the dense broadcast.
    pub fn downlink(&self) -> Option<&dyn Codec> {
        self.downlink.as_deref()
    }

    /// The monitor; drivers build local states with it.
    pub fn monitor(&self) -> &dyn VarianceMonitor {
        self.monitor.as_ref()
    }

    /// The variance threshold Θ.
    pub fn theta(&self) -> f32 {
        self.theta
    }

    /// Replaces Θ.
    ///
    /// # Panics
    /// Panics if `theta < 0`.
    pub fn set_theta(&mut self, theta: f32) {
        assert!(theta >= 0.0, "fda: Θ must be non-negative");
        self.theta = theta;
    }

    /// `w_t0`, the consensus after the latest sync (`w_0` before any).
    pub fn consensus(&self) -> &[f32] {
        &self.consensus
    }

    /// The consensus before [`RoundEngine::consensus`], once a sync has
    /// happened — what a rejoining worker replays `on_sync` with.
    pub fn prev_consensus(&self) -> Option<&[f32]> {
        self.prev.as_deref()
    }

    /// Model synchronizations so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The averaged state `S̄` of the latest [`RoundEngine::decide`].
    ///
    /// # Panics
    /// Panics before the first round.
    pub fn avg_state(&self) -> &LocalState {
        self.avg.as_ref().expect("avg_state before the first round")
    }

    /// Lines 7–8: charges the state deposits (`bytes[i]` is the payload of
    /// `states[i]`, survivors in worker-id order), averages them, and
    /// returns `(H(S̄), H(S̄) > Θ)`.
    ///
    /// # Panics
    /// Panics if `states` is empty or its length differs from `bytes`.
    pub fn decide(
        &mut self,
        net: &mut SimNetwork,
        states: &[&LocalState],
        bytes: &[u64],
        pool: Option<&mut WorkerPool>,
    ) -> (f32, bool) {
        assert_eq!(states.len(), bytes.len(), "round: one byte count per state");
        let state_bytes = charge(net, bytes);
        let avg = match &mut self.avg {
            Some(avg) if avg.same_shape(states[0]) => avg,
            slot => slot.insert(states[0].clone()),
        };
        mean_state_into(states, avg, pool);
        let (estimate, decision) = evaluate(self.monitor.as_ref(), avg, self.theta);
        self.last = RoundRecord {
            alive: states.len() as u32,
            decision,
            estimate,
            state_bytes,
            model_bytes: 0,
            charged_bytes: net.total_bytes(),
        };
        (estimate, decision)
    }

    /// The conditional model AllReduce: charges the uploads (`bytes[i]` is
    /// the payload of `uploads[i]`, survivors in worker-id order),
    /// averages them, advances the consensus pair and returns the downlink
    /// payload `[dim: u32][codec payload]` — the dense consensus, or under
    /// a delta downlink its coded delta against the previous consensus,
    /// whose reconstruction becomes the new consensus.
    ///
    /// # Panics
    /// Panics if `uploads` is empty, ragged, or not of the model dimension.
    pub fn sync(
        &mut self,
        net: &mut SimNetwork,
        uploads: &[&[f32]],
        bytes: &[u64],
        pool: Option<&mut WorkerPool>,
    ) -> &[u8] {
        assert_eq!(
            uploads.len(),
            bytes.len(),
            "round: one byte count per upload"
        );
        self.last.model_bytes = charge(net, bytes);
        self.last.charged_bytes = net.total_bytes();
        let dim = self.consensus.len();
        let mut mean = vec![0.0; dim];
        mean_into(pool, uploads.iter().copied(), &mut mean);
        self.payload.clear();
        let next = match &self.downlink {
            Some(dc) => {
                let (delta, recon) = delta_downlink(&self.consensus, &mean, dc.as_ref());
                self.payload.extend_from_slice(&(dim as u32).to_le_bytes());
                self.payload.extend_from_slice(&delta);
                recon
            }
            None => {
                encode_vector_into(&mean, &mut self.payload);
                mean
            }
        };
        self.adopt(next);
        self.syncs += 1;
        &self.payload
    }

    /// Advances the consensus pair to `next` and runs the monitor's sync
    /// hook — what every participant does after a sync: the engine in
    /// [`RoundEngine::sync`], a worker after [`apply_downlink`], a
    /// rejoining worker to replay its `Resume` handoff.
    pub fn adopt(&mut self, next: Vec<f32>) {
        let prev = std::mem::replace(&mut self.consensus, next);
        self.monitor.on_sync(&self.consensus, &prev);
        self.prev = Some(prev);
    }

    /// The latest round's event with every field the engine owns filled
    /// in; deposit latencies and drops are left empty for the driver.
    pub fn round_event(&self, source: &str, round: u32, epoch: u32, measured: u64) -> RoundEvent {
        let r = self.last;
        RoundEvent {
            source: source.into(),
            round,
            epoch,
            alive: r.alive,
            decision: r.decision,
            estimate: r.estimate,
            theta: self.theta,
            codec: self.codec.name().into(),
            state_bytes: r.state_bytes,
            model_bytes: r.model_bytes,
            charged_bytes: r.charged_bytes,
            measured_bytes: measured,
            deposit_us: Vec::new(),
            drops: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{ExactMonitor, LinearMonitor, SketchMonitor};
    use fda_sketch::SketchConfig;
    use fda_tensor::Rng;

    const DIM: usize = 300;

    fn vectors(k: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::new(seed);
        (0..k)
            .map(|_| {
                let mut v = vec![0.0f32; DIM];
                rng.fill_normal(&mut v, 0.0, 0.1);
                v
            })
            .collect()
    }

    fn monitors() -> Vec<Box<dyn VarianceMonitor>> {
        vec![
            Box::new(LinearMonitor::new()),
            Box::new(SketchMonitor::new(SketchConfig::new(3, 40, 5), DIM)),
            Box::new(ExactMonitor::new(DIM)),
        ]
    }

    /// Roundtrips each state's summary through `codec` in memory, as the
    /// simulator does, returning the per-worker payload bytes.
    fn deposit(states: &mut [LocalState], codec: &dyn Codec) -> Vec<u64> {
        let mut enc = Vec::new();
        states
            .iter_mut()
            .map(|s| 4 + upload(codec, s.summary_slice_mut(), &mut enc))
            .collect()
    }

    #[test]
    fn dense_deposits_charge_exactly_the_monitor_state_size() {
        for i in 0..monitors().len() {
            for k in [1usize, 2, 4] {
                let monitor = monitors().swap_remove(i);
                let (name, state_bytes) = (monitor.name(), monitor.state_bytes());
                let mut engine = RoundEngine::new(monitor, 1.0, vec![0.0; DIM]);
                let mut states: Vec<LocalState> = vectors(k, 3)
                    .iter()
                    .map(|u| engine.monitor().local_state(u))
                    .collect();
                let bytes = deposit(&mut states, &Dense32);
                let refs: Vec<&LocalState> = states.iter().collect();
                let mut net = SimNetwork::new(k);
                engine.decide(&mut net, &refs, &bytes, None);
                let mut flat = SimNetwork::new(k);
                flat.charge_allreduce(state_bytes);
                for w in 0..k {
                    assert_eq!(
                        net.worker_stats(w),
                        flat.worker_stats(w),
                        "{name} K={k} worker {w}"
                    );
                }
                assert_eq!(net.total_messages(), k as u64);
            }
        }
    }

    #[test]
    fn membership_change_banks_the_first_era() {
        let monitor = || -> Box<dyn VarianceMonitor> { Box::new(LinearMonitor::new()) };
        let mut engine = RoundEngine::new(monitor(), 0.0, vec![0.0; DIM]);
        let mut net = SimNetwork::new(4);
        let (mut era4, mut era3) = (SimNetwork::new(4), SimNetwork::new(3));
        for (k, era) in [(4usize, &mut era4), (3, &mut era3)] {
            for round in 0..2u64 {
                let mut states: Vec<LocalState> = vectors(k, round)
                    .iter()
                    .map(|u| engine.monitor().local_state(u))
                    .collect();
                let bytes = deposit(&mut states, &Dense32);
                let refs: Vec<&LocalState> = states.iter().collect();
                let (_, sync) = engine.decide(&mut net, &refs, &bytes, None);
                assert!(sync, "Θ = 0 syncs");
                era.charge_allreduce(engine.monitor().state_bytes());
                let mut models = vectors(k, 10 + round);
                let uploads: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
                engine.sync(&mut net, &uploads, &vec![DIM as u64 * 4; k], None);
                era.allreduce_mean(&mut models);
            }
        }
        assert_eq!(net.workers(), 3);
        assert_eq!(net.total_bytes(), era4.total_bytes() + era3.total_bytes());
        assert_eq!(
            net.total_messages(),
            era4.total_messages() + era3.total_messages()
        );
        for w in 0..3 {
            assert_eq!(net.worker_stats(w), era3.worker_stats(w));
        }
        assert_eq!(engine.syncs(), 4);
    }

    #[test]
    fn dense_downlink_carries_the_mean() {
        let mut engine = RoundEngine::new(Box::new(LinearMonitor::new()), 0.0, vec![0.5; DIM]);
        let mut net = SimNetwork::new(2);
        let models = vectors(2, 30);
        let uploads: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
        let payload = engine.sync(&mut net, &uploads, &[4, 4], None).to_vec();
        let mut mean = models[0].clone();
        vector::add_assign(&mut mean, &models[1]);
        vector::scale(&mut mean, 0.5);
        assert_eq!(engine.consensus(), mean.as_slice());
        assert_eq!(engine.prev_consensus(), Some(&[0.5; DIM][..]));
        let applied = apply_downlink(&[0.0; DIM], &payload, None).expect("decodes");
        assert_eq!(applied, mean);
        assert!(apply_downlink(&[0.0; DIM - 1], &payload, None).is_err());
    }

    #[test]
    fn delta_consensus_is_the_receivers_reconstruction() {
        let codecs = [
            CodecSpec::Dense,
            CodecSpec::Uniform8 { chunk: 64 },
            CodecSpec::TopK { k: 30 },
            CodecSpec::DriftMask { threshold: 0.05 },
        ];
        for codec in codecs {
            let mut engine = RoundEngine::new(Box::new(LinearMonitor::new()), 0.0, vec![0.5; DIM]);
            engine.set_downlink(DownlinkSpec::Delta { codec });
            let dc = codec.build();
            let mut net = SimNetwork::new(3);
            for round in 0..3u64 {
                let prev = engine.consensus().to_vec();
                let models = vectors(3, 20 + round);
                let uploads: Vec<&[f32]> = models.iter().map(|m| m.as_slice()).collect();
                let payload = engine.sync(&mut net, &uploads, &[4, 4, 4], None).to_vec();
                assert_eq!(payload[..4], (DIM as u32).to_le_bytes());
                let received =
                    apply_delta_downlink(&prev, &payload[4..], dc.as_ref()).expect("decodes");
                let applied = apply_downlink(&prev, &payload, Some(dc.as_ref())).expect("decodes");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(engine.consensus()),
                    bits(&received),
                    "{} round {round}",
                    codec.name()
                );
                assert_eq!(bits(&applied), bits(&received));
                assert_eq!(engine.prev_consensus(), Some(prev.as_slice()));
            }
        }
    }
}
