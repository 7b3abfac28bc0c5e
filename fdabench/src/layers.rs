//! Metric names, in the order `BENCHMARK.json` lists them, and the layer
//! spans the traced run records.

/// `--trace 0` metrics.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "time_to_target_s",
    "steps_to_target",
    "bytes_to_target",
    "steps_per_s",
    "charged_bytes_per_step",
    "final_test_acc",
    "peak_rss_mb",
];

/// `--trace 1` metrics.
pub const PER_LAYER: &[&str] = &[
    "data.sample_us",
    "nn.forward_us",
    "nn.loss_us",
    "nn.backward_us",
    "nn.eval_ms",
    "optim.step_us",
    "core.param_copy_us",
    "core.monitor.local_state_us",
    "core.monitor.estimate_us",
    "core.allreduce_us",
    "comm.encode_us",
    "comm.decode_us",
    "comm.delta_downlink_us",
    "comm.dense_over_coded",
    "net.frame_write_us",
    "net.frame_read_us",
    "net.frames_per_step",
    "net.raw_bytes_per_step",
    "net.raw_over_charged",
    "net.coord_allocs_per_step",
    "net.deposit_wait_us.p50",
    "net.deposit_wait_us.p90",
    "net.drops",
    "obs.telemetry_overhead_pct",
    "trace.round_us",
    "trace.unattributed_share",
    "trace.overhead_pct",
];

/// A traced span's layer. `Run` and `Round` are structure only: time they
/// cover that no layer span claims is the unattributed remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Run,
    Round,
    Sample,
    Forward,
    Loss,
    Backward,
    Eval,
    Optim,
    ParamCopy,
    LocalState,
    Estimate,
    Allreduce,
    Encode,
    Decode,
    DeltaDownlink,
    FrameWrite,
    FrameRead,
}

impl Layer {
    /// Number of layers (`FrameRead` is the last variant).
    pub const COUNT: usize = Layer::FrameRead as usize + 1;
}
