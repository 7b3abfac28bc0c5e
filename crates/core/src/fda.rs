//! Algorithm 1: Federated Dynamic Averaging.
//!
//! Per step `t` (paper, Algorithm 1):
//!
//! 1. every worker trains locally — `w_t^(k) ← Optimize(w_{t−1}^(k), B)`;
//! 2. every worker updates its local state `S_t^(k)` from its drift
//!    `u_t^(k) = w_t^(k) − w_t0`;
//! 3. the small states are AllReduced into `S̄_t` (cheap);
//! 4. if `H(S̄_t) > Θ` the models themselves are AllReduced (expensive) —
//!    otherwise the Round Invariant `Var(w_t) ≤ Θ` is certified and
//!    training continues locally.
//!
//! After each synchronization, `w_t0` becomes the fresh consensus model
//! and the model variance drops to exactly zero.

use crate::cluster::{Cluster, ClusterConfig};
use crate::monitor::{ExactMonitor, LinearMonitor, LocalState, SketchMonitor, VarianceMonitor};
use crate::pool::{run_lanes, SendPtr};
use crate::round::{upload, RoundEngine};
use crate::strategy::{StepOutcome, Strategy};
use fda_comm::{CodecSpec, DownlinkSpec};
use fda_data::TaskData;
use fda_obs::{JsonlWriter, MembershipRecord, RunEvent};
use fda_sketch::SketchConfig;
use fda_tensor::vector;

/// Registry histogram fed by phase 1 of every [`Fda::step`] (local
/// training), in microseconds. The bench reads phase splits from these
/// instead of a bespoke struct-return path.
pub const HIST_LOCAL_STEP_US: &str = "fda_step_local_us";
/// Registry histogram fed by phases 2–3 (drift + state build, state
/// reduction, the `H(S̄)` estimate), in microseconds.
pub const HIST_MONITOR_US: &str = "fda_step_monitor_us";
/// Registry histogram fed by phase 4 (the conditional model AllReduce;
/// ~0 µs samples on rounds where the Round Invariant held).
pub const HIST_ALLREDUCE_US: &str = "fda_step_allreduce_us";

/// Which FDA variant to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FdaVariant {
    /// SketchFDA with the given AMS sketch configuration (§3.1).
    Sketch(SketchConfig),
    /// SketchFDA with the sketch sized relative to the model dimension
    /// (`SketchConfig::scaled_for(d)`), preserving the paper's
    /// sketch-to-model cost ratio on our scaled zoo.
    SketchAuto,
    /// LinearFDA with the heuristic ξ (§3.2).
    Linear,
    /// Oracle monitor shipping full drifts — for tests/ablations only.
    Exact,
}

impl FdaVariant {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            FdaVariant::Sketch(_) | FdaVariant::SketchAuto => "SketchFDA",
            FdaVariant::Linear => "LinearFDA",
            FdaVariant::Exact => "ExactFDA",
        }
    }

    /// Builds this variant's monitor for a `dim`-parameter model — the
    /// single home of the variant → monitor mapping (including the
    /// `SketchAuto` sizing rule), shared by the simulator and the
    /// transport drivers so they cannot drift apart.
    pub fn build_monitor(&self, dim: usize) -> Box<dyn VarianceMonitor> {
        match self {
            FdaVariant::Sketch(sk) => Box::new(SketchMonitor::new(*sk, dim)),
            FdaVariant::SketchAuto => {
                Box::new(SketchMonitor::new(SketchConfig::scaled_for(dim), dim))
            }
            FdaVariant::Linear => Box::new(LinearMonitor::new()),
            FdaVariant::Exact => Box::new(ExactMonitor::new(dim)),
        }
    }
}

/// FDA configuration: the variant and the variance threshold Θ.
#[derive(Debug, Clone, Copy)]
pub struct FdaConfig {
    /// The monitor variant.
    pub variant: FdaVariant,
    /// The model-variance threshold Θ (Algorithm 1 input).
    pub theta: f32,
}

impl FdaConfig {
    /// SketchFDA with the paper's default sketch size (5 kB).
    pub fn sketch(theta: f32) -> FdaConfig {
        FdaConfig {
            variant: FdaVariant::Sketch(SketchConfig::paper_default()),
            theta,
        }
    }

    /// SketchFDA with the model-scaled sketch size.
    pub fn sketch_auto(theta: f32) -> FdaConfig {
        FdaConfig {
            variant: FdaVariant::SketchAuto,
            theta,
        }
    }

    /// LinearFDA.
    pub fn linear(theta: f32) -> FdaConfig {
        FdaConfig {
            variant: FdaVariant::Linear,
            theta,
        }
    }
}

/// The FDA strategy (Algorithm 1) over a simulated cluster: the workers
/// live in memory and every round's server half runs in a
/// [`RoundEngine`].
pub struct Fda {
    cluster: Cluster,
    engine: RoundEngine,
    variant_name: &'static str,
    /// Per-worker `d`-sized scratch (K × d), reused across steps: the
    /// drift `u_t^(k)`, then on sync rounds the model upload.
    bufs: Vec<Vec<f32>>,
    /// Per-worker local states, constructed in place each step.
    states: Vec<LocalState>,
    /// Per-worker uplink encode scratch, reused across steps.
    enc: Vec<Vec<u8>>,
    /// Per-worker payload bytes of the latest deposit or upload.
    bytes: Vec<u64>,
    /// Per-round JSONL telemetry attached via [`Strategy::set_telemetry`]
    /// and its decision log (one `'0'`/`'1'` per round), `None` unless
    /// attached.
    telemetry: Option<(JsonlWriter, String)>,
}

impl Fda {
    /// Builds FDA over a fresh cluster.
    ///
    /// # Panics
    /// Panics if `theta < 0` (Θ = 0 is allowed and behaves like
    /// Synchronous plus monitoring traffic).
    pub fn new(config: FdaConfig, cluster_config: ClusterConfig, task: &TaskData) -> Fda {
        Fda::over_cluster(config, Cluster::new(cluster_config, task))
    }

    /// Builds FDA with a caller-supplied monitor — the extension point for
    /// custom variance estimators (used by the ξ-choice ablation bench).
    pub fn with_monitor(monitor: Box<dyn VarianceMonitor>, theta: f32, cluster: Cluster) -> Fda {
        let (k, zeros) = (cluster.workers(), vec![0.0f32; cluster.dim()]);
        Fda {
            variant_name: monitor.name(),
            states: (0..k).map(|_| monitor.local_state(&zeros)).collect(),
            bufs: vec![zeros; k],
            enc: vec![Vec::new(); k],
            bytes: vec![0; k],
            engine: RoundEngine::new(monitor, theta, cluster.worker(0).params()),
            cluster,
            telemetry: None,
        }
    }

    /// Builds FDA over an existing cluster (used by sweeps that pre-build
    /// clusters).
    pub fn over_cluster(config: FdaConfig, cluster: Cluster) -> Fda {
        let monitor = config.variant.build_monitor(cluster.dim());
        let mut fda = Fda::with_monitor(monitor, config.theta, cluster);
        fda.variant_name = config.variant.name();
        fda
    }

    /// Selects the uplink payload codec: state summaries and model
    /// uploads are roundtripped through it in memory (the reconstruction
    /// a coordinator decodes from the wire) and charged at exactly the
    /// encoded byte counts, plus the raw 4-byte drift scalar per state.
    /// [`CodecSpec::Dense`] (the default) is the identity.
    ///
    /// # Panics
    /// Panics if the spec fails [`CodecSpec::validate`].
    pub fn set_codec(&mut self, spec: CodecSpec) {
        self.engine.set_codec(spec);
    }

    /// Selects the downlink mode. Under [`DownlinkSpec::Delta`] the
    /// post-sync consensus becomes the shared lossy reconstruction
    /// `prev + decode(encode(mean − prev))`
    /// ([`fda_comm::compress::delta_downlink`]), loaded into every worker
    /// uncharged (downlink bytes are outside the paper's convention).
    ///
    /// # Panics
    /// Panics if the spec fails [`DownlinkSpec::validate`].
    pub fn set_downlink(&mut self, spec: DownlinkSpec) {
        self.engine.set_downlink(spec);
    }

    /// The variance threshold Θ.
    pub fn theta(&self) -> f32 {
        self.engine.theta()
    }

    /// Replaces Θ (used by the adaptive controller of [`crate::adaptive`];
    /// all workers can apply the same deterministic update without extra
    /// communication).
    ///
    /// # Panics
    /// Panics if `theta < 0`.
    pub fn set_theta(&mut self, theta: f32) {
        self.engine.set_theta(theta);
    }

    /// The client half of an uplink, each worker on its own pool lane
    /// when the cluster is pooled: the worker's parameters into its
    /// scratch, then either its local state (Algorithm 1 line 6: the drift
    /// `w^(k) − w_t0` summarized by the monitor) with the summary
    /// roundtripped through the uplink codec, or — for `models` — the
    /// parameters themselves roundtripped. Buffers, encode scratch
    /// included, are lane-private and reused across steps, so with the
    /// dense and uniform-8bit codecs an uplink allocates nothing; both
    /// modes run identical per-worker arithmetic.
    fn uplink(&mut self, models: bool) {
        let engine = &self.engine;
        let (pool, workers, _) = self.cluster.parts();
        let wptr = SendPtr(workers.as_mut_ptr());
        let dptr = SendPtr(self.bufs.as_mut_ptr());
        let sptr = SendPtr(self.states.as_mut_ptr());
        let eptr = SendPtr(self.enc.as_mut_ptr());
        let bptr = SendPtr(self.bytes.as_mut_ptr());
        run_lanes(pool, workers.len(), &|lane| {
            // SAFETY: lane-private worker, buffer, state, encode scratch
            // and byte slot.
            let (w, buf, state, enc, bytes) = unsafe {
                (
                    &*wptr.get().add(lane),
                    &mut *dptr.get().add(lane),
                    &mut *sptr.get().add(lane),
                    &mut *eptr.get().add(lane),
                    &mut *bptr.get().add(lane),
                )
            };
            w.model().copy_params_to(buf);
            *bytes = if models {
                upload(engine.codec(), buf, enc)
            } else {
                vector::sub_assign(buf, engine.consensus());
                engine.monitor().local_state_into(buf, state);
                4 + upload(engine.codec(), state.summary_slice_mut(), enc)
            };
        });
    }

    /// Writes the end-of-run summary and closes the stream (called when
    /// telemetry is detached).
    fn emit_run_event(&mut self, (mut writer, decisions): (JsonlWriter, String)) {
        let charged = self.cluster.comm_bytes();
        let workers = self.cluster.workers() as u32;
        let event = RunEvent {
            source: "sim".into(),
            workers,
            variant: self.variant_name.to_string(),
            theta: self.engine.theta(),
            steps: decisions.len() as u32,
            syncs: self.engine.syncs(),
            decisions,
            codec: self.engine.codec().name().to_string(),
            charged_bytes: charged,
            measured_payload_bytes: charged,
            raw_tx_bytes: 0,
            raw_rx_bytes: 0,
            survivors: (0..workers).collect(),
            membership: (0..workers)
                .map(|w| MembershipRecord {
                    round: 0,
                    worker: w,
                    event: "join".into(),
                })
                .collect(),
        };
        let _ = writer.write(&event.to_json());
        let _ = writer.flush();
    }
}

impl Strategy for Fda {
    fn name(&self) -> String {
        self.variant_name.to_string()
    }

    fn step(&mut self) -> StepOutcome {
        // (1) Local training on every worker.
        let stats = {
            let _span = fda_obs::histogram!(HIST_LOCAL_STEP_US).span();
            self.cluster.local_step()
        };

        // (2)–(3) Local states from drifts, then the state AllReduce and
        //     the decision `H(S̄_t) > Θ` in the engine.
        let (estimate, synced) = {
            let _span = fda_obs::histogram!(HIST_MONITOR_US).span();
            self.uplink(false);
            let states: Vec<&LocalState> = self.states.iter().collect();
            let (pool, _, net) = self.cluster.parts();
            self.engine.decide(net, &states, &self.bytes, pool)
        };

        // (4) The conditional synchronization: the consensus the engine
        //     returns (the mean, or its delta-downlink reconstruction) is
        //     loaded into every worker.
        if synced {
            let _span = fda_obs::histogram!(HIST_ALLREDUCE_US).span();
            self.uplink(true);
            let uploads: Vec<&[f32]> = self.bufs.iter().map(Vec::as_slice).collect();
            let (pool, _, net) = self.cluster.parts();
            self.engine.sync(net, &uploads, &self.bytes, pool);
            self.cluster.load_global(self.engine.consensus());
        }

        if let Some((writer, decisions)) = &mut self.telemetry {
            decisions.push(if synced { '1' } else { '0' });
            let charged = self.cluster.comm_bytes();
            let round = decisions.len() as u32;
            let event = self.engine.round_event("sim", round, 1, charged);
            let _ = writer.write(&event.to_json());
        }

        StepOutcome {
            stats,
            synced,
            variance_estimate: Some(estimate),
        }
    }

    fn set_telemetry(&mut self, sink: Option<JsonlWriter>) -> bool {
        if let Some(session) = self.telemetry.take() {
            self.emit_run_event(session);
        }
        self.telemetry = sink.map(|writer| (writer, String::new()));
        true
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    fn syncs(&self) -> u64 {
        self.engine.syncs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fda_data::synth::SynthSpec;
    use fda_data::TaskData;

    fn tiny_task() -> TaskData {
        SynthSpec {
            n_train: 240,
            n_test: 80,
            ..SynthSpec::synth_mnist()
        }
        .generate("tiny")
    }

    fn tiny_cluster_config(k: usize) -> ClusterConfig {
        ClusterConfig::small_test(k)
    }

    #[test]
    fn variance_zero_after_every_sync() {
        let task = tiny_task();
        let mut fda = Fda::new(FdaConfig::linear(0.05), tiny_cluster_config(4), &task);
        let mut saw_sync = false;
        for _ in 0..30 {
            let out = fda.step();
            if out.synced {
                saw_sync = true;
                assert!(
                    fda.cluster().exact_variance() < 1e-9,
                    "variance must be exactly zero right after a sync"
                );
                assert!(fda.cluster().models_identical());
            }
        }
        assert!(saw_sync, "Θ small enough that syncs must happen");
    }

    #[test]
    fn round_invariant_certified_when_no_sync() {
        // With the exact monitor, H(S̄) = Var, so "no sync" must mean the
        // true variance is ≤ Θ at every step (the RI, Eq. 3).
        let task = tiny_task();
        let theta = 0.5;
        let mut fda = Fda::new(
            FdaConfig {
                variant: FdaVariant::Exact,
                theta,
            },
            tiny_cluster_config(4),
            &task,
        );
        for _ in 0..40 {
            let out = fda.step();
            if !out.synced {
                let v = fda.cluster().exact_variance();
                assert!(
                    v <= theta * 1.01 + 1e-6,
                    "RI violated without sync: Var = {v} > Θ = {theta}"
                );
            }
        }
    }

    #[test]
    fn linear_estimate_overestimates_true_variance() {
        let task = tiny_task();
        let mut fda = Fda::new(FdaConfig::linear(1e9), tiny_cluster_config(3), &task);
        for _ in 0..25 {
            let out = fda.step();
            let est = out.variance_estimate.expect("fda reports estimates");
            let truth = fda.cluster().exact_variance();
            assert!(
                est >= truth - 1e-3 * (1.0 + truth),
                "Theorem 3.2 violated: H = {est} < Var = {truth}"
            );
        }
    }

    #[test]
    fn theta_zero_syncs_every_step() {
        let task = tiny_task();
        let mut fda = Fda::new(FdaConfig::linear(0.0), tiny_cluster_config(3), &task);
        for _ in 0..10 {
            let out = fda.step();
            assert!(out.synced, "Θ = 0 must behave like Synchronous");
        }
        assert_eq!(fda.syncs(), 10);
    }

    #[test]
    fn huge_theta_never_syncs_and_communicates_only_states() {
        let task = tiny_task();
        let mut fda = Fda::new(FdaConfig::linear(f32::MAX), tiny_cluster_config(3), &task);
        for _ in 0..20 {
            let out = fda.step();
            assert!(!out.synced);
        }
        assert_eq!(fda.syncs(), 0);
        // 20 steps × 3 workers × 8-byte linear state.
        assert_eq!(fda.comm_bytes(), 20 * 3 * 8);
    }

    #[test]
    fn sketch_state_costs_dominate_linear_but_not_models() {
        let task = tiny_task();
        let k = 3;
        let mut sketch = Fda::new(FdaConfig::sketch(f32::MAX), tiny_cluster_config(k), &task);
        for _ in 0..5 {
            sketch.step();
        }
        let per_step_per_worker = 5_004u64; // paper's 5 kB + scalar
        assert_eq!(sketch.comm_bytes(), 5 * k as u64 * per_step_per_worker);
        // Still far below one model payload per step.
        let model_bytes = sketch.cluster().dim() as u64 * 4;
        assert!(per_step_per_worker < model_bytes);
    }

    #[test]
    fn higher_theta_means_fewer_syncs() {
        let task = tiny_task();
        let mut counts = Vec::new();
        for theta in [0.02f32, 0.2, 2.0] {
            let mut fda = Fda::new(FdaConfig::linear(theta), tiny_cluster_config(4), &task);
            for _ in 0..40 {
                fda.step();
            }
            counts.push(fda.syncs());
        }
        assert!(
            counts[0] >= counts[1] && counts[1] >= counts[2],
            "syncs must fall as Θ rises: {counts:?}"
        );
        assert!(counts[0] > counts[2], "sweep should actually differentiate");
    }

    #[test]
    fn xi_refreshes_after_second_sync() {
        let task = tiny_task();
        let mut fda = Fda::new(FdaConfig::linear(0.01), tiny_cluster_config(3), &task);
        let mut syncs_seen = 0;
        for _ in 0..60 {
            if fda.step().synced {
                syncs_seen += 1;
                if syncs_seen >= 2 {
                    break;
                }
            }
        }
        assert!(syncs_seen >= 2, "need two syncs to form ξ");
        // After ≥ 1 sync the monitor has a ξ; estimates must remain valid
        // over-estimates (checked implicitly by the RI test above), and the
        // estimate should now be able to drop below mean‖u‖².
        let out = fda.step();
        assert!(out.variance_estimate.is_some());
    }
}
