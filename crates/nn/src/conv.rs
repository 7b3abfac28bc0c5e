//! 2-D convolution via batch-level im2col on channel-major activations.
//!
//! The paper's models (LeNet-5, VGG16*, DenseNets) are convolutional; this
//! layer provides the same computational structure at CPU scale. The whole
//! minibatch is lowered into **one** column matrix
//! (`in_c·kh·kw × batch·out_h·out_w`), turning each of forward, weight-grad
//! and input-grad into a single large GEMM per layer — large enough for the
//! blocked kernel in `fda_tensor::matrix` to run at full tilt, instead of
//! one small GEMM per sample.
//!
//! Activations arrive and leave **channel-major** (`c × batch·spatial`,
//! per-sample column blocks — see [`crate::layer`]). That is exactly the
//! shape of the forward GEMM product `W · cols` and of the backward GEMM
//! operand `dy`, so the layer performs **no layout staging**: the GEMM
//! output *is* the layer output, and the incoming gradient feeds the
//! weight/input-gradient GEMMs directly. (Earlier revisions kept
//! sample-major activations and paid a full gather + scatter pass over
//! `out_c × batch·spatial` staging buffers on every forward *and* backward
//! of every conv layer.)
//!
//! The lowering runs in **batch-wide masked spans**. The exact copy-run
//! plan (`build_copy_plan`: which input positions feed which `cols`
//! positions, padding clipped) is fixed at construction; the executed
//! lowering merges a row's runs wherever the gap between two runs is the
//! same on the input side and the `cols` side, across the samples of the
//! batch too. A plane-preserving conv (`k = 2·pad + 1`, every zoo conv)
//! therefore lowers each `cols` row with **one** contiguous copy for the
//! whole batch instead of one short copy per output row per sample. The
//! gap positions inside a span are padded positions; a per-row pad mask,
//! applied in the same pass as a bitwise AND, writes them as exactly
//! `+0.0`. col2im is the adjoint: masked contiguous adds in the same row
//! order, where a masked position adds `+0.0` to an accumulator that
//! started at `+0.0` and so never changes its bits. Other geometries run
//! the same code and simply merge less.
//!
//! As a model's first trained layer (see [`Layer`]) the conv runs
//! [`Layer::backward_params`]: the weight and bias gradients only, with no
//! `Wᵀ · dy` GEMM, no col2im and no `dcol` buffer.
//!
//! All lowering buffers (`cols`, `dcol`, and the GEMM packing [`Scratch`])
//! are keyed on **capacity**: they grow to the largest batch seen and are
//! thereafter reshaped in place, so steady-state training performs no
//! per-step allocation inside the convolution beyond its output matrix —
//! and batch size changes (e.g. the ragged final chunk of an evaluation
//! pass) cost a memset instead of a reallocation.

use crate::init::Init;
use crate::layer::{Layer, Shape3};
use fda_tensor::{matrix, matrix::Scratch, Matrix, Rng};

/// A 2-D convolution with square stride-1 kernels and symmetric zero
/// padding.
///
/// Consumes and produces channel-major activations; the layer knows its
/// input [`Shape3`] from construction and asserts the incoming layout.
pub struct Conv2d {
    in_shape: Shape3,
    out_shape: Shape3,
    k: usize,
    pad: usize,
    /// Weights as `out_c × (in_c·k·k)`.
    w: Matrix,
    b: Vec<f32>,
    dw: Matrix,
    db: Vec<f32>,
    /// Batched column matrix from the last forward
    /// (`in_c·k·k × batch·spatial`). Every entry inside a span is
    /// rewritten by each lowering (input bits at valid positions, `+0.0`
    /// at padded ones); entries outside every span are padded positions,
    /// zeroed when the buffer is shaped and never written.
    cols: Matrix,
    /// Batch size the lowering buffers were built for (0 = not yet built).
    cols_batch: usize,
    /// Column-gradient buffer (`in_c·k·k × batch·spatial`), sized lazily on
    /// first input-gradient backward so inference-only use, and a model's
    /// first trained layer, never pay for it.
    dcol: Matrix,
    /// GEMM packing arena, reused across steps.
    scratch: Scratch,
    /// The copy plan merged within one sample (see [`push_merged`]).
    sample_spans: Vec<CopyRun>,
    /// `sample_spans` replicated over the `cols_batch` samples and merged
    /// across sample boundaries: the executed lowering.
    spans: Vec<CopyRun>,
    /// The pad mask every span is applied through.
    mask: PadMask,
}

/// One contiguous copy between a channel row of the input and a
/// column-matrix row:
/// `cols[row][dst ..+len] ↔ x[src_row][src ..+len]`. In the plan, `dst`
/// and `src` are relative to one sample's output block and input plane;
/// in the executed spans they are absolute batch columns.
#[derive(Debug, Clone, Copy)]
struct CopyRun {
    row: u32,
    src_row: u32,
    dst: u32,
    src: u32,
    len: u32,
}

/// Precomputes the exact im2col copy runs for a fixed geometry: all the
/// padding clipping and index arithmetic happens once at layer
/// construction, and adjacent runs that are contiguous on both sides (e.g.
/// the unclipped centre kernel column) are coalesced. Every position a run
/// covers is in bounds; the executed spans are derived from this plan.
fn build_copy_plan(in_shape: Shape3, out_shape: Shape3, k: usize, pad: usize) -> Vec<CopyRun> {
    let Shape3 { c, h, w } = in_shape;
    let (oh, ow) = (out_shape.h, out_shape.w);
    let pad = pad as isize;
    let mut plan: Vec<CopyRun> = Vec::new();
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (ch * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let ox_lo = (pad - kx as isize).max(0) as usize;
                    let ox_hi = (w as isize + pad - kx as isize).min(ow as isize).max(0) as usize;
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    let ix0 = (ox_lo as isize + kx as isize - pad) as usize;
                    let run = CopyRun {
                        row: row_idx as u32,
                        src_row: ch as u32,
                        dst: (oy * ow + ox_lo) as u32,
                        src: (iy as usize * w + ix0) as u32,
                        len: (ox_hi - ox_lo) as u32,
                    };
                    match plan.last_mut() {
                        Some(last)
                            if last.row == run.row
                                && last.src_row == run.src_row
                                && last.dst + last.len == run.dst
                                && last.src + last.len == run.src =>
                        {
                            last.len += run.len;
                        }
                        _ => plan.push(run),
                    }
                }
            }
        }
    }
    plan
}

/// Appends `run` to `spans`, extending the last span instead when both lie
/// in the same row and the gap between them is equal on the `cols` side
/// and the input side (`run.dst − last.dst == run.src − last.src`). The
/// merged span copies the gap too; those positions are padded ones, which
/// the pad mask zeroes.
fn push_merged(spans: &mut Vec<CopyRun>, run: CopyRun) {
    match spans.last_mut() {
        Some(last)
            if last.row == run.row
                && i64::from(run.dst) - i64::from(last.dst)
                    == i64::from(run.src) - i64::from(last.src) =>
        {
            last.len = run.dst + run.len - last.dst;
        }
        _ => spans.push(run),
    }
}

/// Writes into `spans` the executed lowering for `batch` samples: each
/// row's per-sample spans, shifted to every sample's column block and
/// merged across sample boundaries where the gaps allow.
fn build_spans(
    sample_spans: &[CopyRun],
    batch: usize,
    (in_spatial, spatial): (usize, usize),
    spans: &mut Vec<CopyRun>,
) {
    let offset = |s: usize, width: usize| {
        u32::try_from(s * width).expect("conv: batch too large for u32 span offsets")
    };
    spans.clear();
    for row in sample_spans.chunk_by(|a, b| a.row == b.row) {
        for s in 0..batch {
            for run in row {
                let dst = run.dst + offset(s, spatial);
                let src = run.src + offset(s, in_spatial);
                push_merged(spans, CopyRun { dst, src, ..*run });
            }
        }
    }
}

/// Calls `f(off, phase, n)` for each piece of a span that starts at batch
/// column `start`, runs `len` columns and may cross sample blocks of width
/// `period`: piece `[off, off + n)` of the span lies in one sample block,
/// at offset `phase` within it.
fn for_each_piece(start: usize, len: usize, period: usize, mut f: impl FnMut(usize, usize, usize)) {
    let (mut off, mut phase) = (0, start % period);
    while off < len {
        let n = (period - phase).min(len - off);
        f(off, phase, n);
        off += n;
        phase = 0;
    }
}

/// Pad mask per kernel position `ky·k + kx` over one sample's output
/// plane: all ones where the row reads an in-bounds input position, zero
/// where it reads padding. A row's pad pattern depends only on its kernel
/// position, so channel 0's plan runs define it.
struct PadMask {
    bits: Vec<u32>,
    kk: usize,
    spatial: usize,
}

impl PadMask {
    fn from_plan(plan: &[CopyRun], k: usize, spatial: usize) -> PadMask {
        let mut bits = vec![0u32; k * k * spatial];
        for run in plan.iter().filter(|r| r.src_row == 0) {
            let at = run.row as usize * spatial + run.dst as usize;
            bits[at..at + run.len as usize].fill(!0);
        }
        PadMask {
            bits,
            kk: k * k,
            spatial,
        }
    }

    /// The mask of `cols` row `row` over one sample's output plane.
    fn row(&self, row: u32) -> &[u32] {
        let at = row as usize % self.kk * self.spatial;
        &self.bits[at..at + self.spatial]
    }
}

/// Lowers a channel-major batch into `cols` along `spans`: one masked
/// contiguous copy per span, so padded positions read as exactly `+0.0`.
fn im2col(spans: &[CopyRun], mask: &PadMask, x: &Matrix, cols: &mut Matrix) {
    let (ncols, x_ncols) = (cols.cols(), x.cols());
    let (x_data, data) = (x.as_slice(), cols.as_mut_slice());
    for span in spans {
        let (len, start) = (span.len as usize, span.dst as usize);
        let dst = &mut data[span.row as usize * ncols + start..][..len];
        let src = &x_data[span.src_row as usize * x_ncols + span.src as usize..][..len];
        let row_mask = mask.row(span.row);
        for_each_piece(start, len, mask.spatial, |off, phase, n| {
            for ((d, s), m) in dst[off..off + n]
                .iter_mut()
                .zip(&src[off..off + n])
                .zip(&row_mask[phase..phase + n])
            {
                *d = f32::from_bits(s.to_bits() & m);
            }
        });
    }
}

/// Scatter-accumulates a column-matrix gradient back into a channel-major
/// input gradient along `spans` — the adjoint of [`im2col`]: masked
/// contiguous adds in row order. A masked position adds `+0.0`, which
/// leaves an accumulator that started at `+0.0` bit-for-bit unchanged.
fn col2im(spans: &[CopyRun], mask: &PadMask, dcol: &Matrix, dx: &mut Matrix) {
    let (ncols, dx_ncols) = (dcol.cols(), dx.cols());
    let (data, dx_data) = (dcol.as_slice(), dx.as_mut_slice());
    for span in spans {
        let (len, start) = (span.len as usize, span.dst as usize);
        let src = &data[span.row as usize * ncols + start..][..len];
        let dst = &mut dx_data[span.src_row as usize * dx_ncols + span.src as usize..][..len];
        let row_mask = mask.row(span.row);
        for_each_piece(start, len, mask.spatial, |off, phase, n| {
            for ((d, s), m) in dst[off..off + n]
                .iter_mut()
                .zip(&src[off..off + n])
                .zip(&row_mask[phase..phase + n])
            {
                *d += f32::from_bits(s.to_bits() & m);
            }
        });
    }
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// `pad` is applied on all four sides; output spatial size is
    /// `h + 2·pad − k + 1` (stride 1).
    ///
    /// # Panics
    /// Panics if the kernel is larger than the padded input (in either
    /// spatial dimension).
    pub fn new(
        in_shape: Shape3,
        out_c: usize,
        k: usize,
        pad: usize,
        init: Init,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            k <= in_shape.h + 2 * pad && k <= in_shape.w + 2 * pad,
            "conv: kernel {k} too large for input {in_shape:?} with pad {pad}"
        );
        let out_h = in_shape.h + 2 * pad - k + 1;
        let out_w = in_shape.w + 2 * pad - k + 1;
        let fan_in = in_shape.c * k * k;
        let fan_out = out_c * k * k;
        let mut w = Matrix::zeros(out_c, fan_in);
        init.fill(w.as_mut_slice(), fan_in, fan_out, rng);
        let out_shape = Shape3::new(out_c, out_h, out_w);
        let plan = build_copy_plan(in_shape, out_shape, k, pad);
        let mask = PadMask::from_plan(&plan, k, out_shape.spatial());
        let mut sample_spans = Vec::new();
        for &run in &plan {
            push_merged(&mut sample_spans, run);
        }
        Conv2d {
            in_shape,
            out_shape,
            k,
            pad,
            w,
            b: vec![0.0; out_c],
            dw: Matrix::zeros(out_c, fan_in),
            db: vec![0.0; out_c],
            cols: Matrix::zeros(0, 0),
            cols_batch: 0,
            dcol: Matrix::zeros(0, 0),
            scratch: Scratch::new(),
            sample_spans,
            spans: Vec::new(),
            mask,
        }
    }

    /// The input activation shape.
    pub fn in_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// The output activation shape.
    pub fn out_shape(&self) -> Shape3 {
        self.out_shape
    }

    /// (Re)shapes the `cols` lowering buffer and the executed spans for
    /// `batch` samples. A no-op when the batch size is unchanged — the
    /// common training case. Scratch is keyed on **capacity**, not exact
    /// shape: a batch-size change reshapes in place
    /// ([`Matrix::resize_zeroed`]) and only grows the allocation past its
    /// high-water mark, so the ragged final eval chunk costs a memset. The
    /// backward-only `dcol` buffer is sized lazily in
    /// [`Conv2d::ensure_backward_buffers`].
    fn ensure_buffers(&mut self, batch: usize) {
        if self.cols_batch == batch {
            return;
        }
        let fan_in = self.in_shape.c * self.k * self.k;
        let n = batch * self.out_shape.spatial();
        // The re-zero establishes the zeros outside every span, which no
        // lowering writes.
        self.cols.resize_zeroed(fan_in, n);
        self.dcol.resize_zeroed(0, 0);
        let spatials = (self.in_shape.spatial(), self.out_shape.spatial());
        build_spans(&self.sample_spans, batch, spatials, &mut self.spans);
        self.cols_batch = batch;
    }

    /// Shapes the backward staging buffer on first backward for the current
    /// batch size (capacity-keyed like the forward buffers).
    fn ensure_backward_buffers(&mut self) {
        let n = self.cols_batch * self.out_shape.spatial();
        if self.dcol.cols() != n {
            let fan_in = self.in_shape.c * self.k * self.k;
            self.dcol.resize_zeroed(fan_in, n);
        }
    }

    /// `dW += dy · colsᵀ` and `db +=` row sums of `dy`: the parameter half
    /// of the backward pass, the one place both
    /// [`Layer::backward`] and [`Layer::backward_params`] compute it.
    fn accumulate_param_grads(&mut self, dy: &Matrix) {
        let (oc, spatial) = (self.out_shape.c, self.out_shape.spatial());
        assert_eq!(
            dy.rows(),
            oc,
            "conv: grad not channel-major for {:?} (rows = {}, want out_c = {oc})",
            self.out_shape,
            dy.rows()
        );
        assert_eq!(
            dy.cols(),
            self.cols_batch * spatial,
            "conv: backward without matching forward (grad width {}, want batch {} × spatial {spatial})",
            dy.cols(),
            self.cols_batch
        );
        // One large GEMM for the whole batch; dy is already channel-major,
        // no staging gather.
        matrix::gemm_a_bt_accumulate_with(dy, &self.cols, &mut self.dw, &mut self.scratch);
        for c in 0..oc {
            self.db[c] += fda_tensor::vector::sum(dy.row(c));
        }
    }

    // -----------------------------------------------------------------
    // Test / property-suite support: the lowering operators as plain
    // matrix functions, so invariants (adjointness, plan coverage, span
    // vs plan bit-identity) can be checked from outside the crate.
    // -----------------------------------------------------------------

    /// Lowers a channel-major batch (`in_c × batch·in_spatial`) and
    /// returns a copy of the column matrix
    /// (`in_c·k·k × batch·out_spatial`). Test/diagnostic support — the hot
    /// path keeps the buffer internal.
    pub fn im2col_batch(&mut self, x: &Matrix) -> Matrix {
        let batch = self.in_shape.batch_of(x, "conv im2col input");
        self.ensure_buffers(batch);
        im2col(&self.spans, &self.mask, x, &mut self.cols);
        self.cols.clone()
    }

    /// The adjoint scatter: accumulates a column-matrix gradient
    /// (`in_c·k·k × batch·out_spatial`) back into a channel-major
    /// input-shaped matrix. Test/diagnostic support.
    pub fn col2im_batch(&self, dcol: &Matrix) -> Matrix {
        let spatial = self.out_shape.spatial();
        assert_eq!(
            dcol.rows(),
            self.in_shape.c * self.k * self.k,
            "conv: col2im rows mismatch"
        );
        assert_eq!(
            dcol.cols() % spatial,
            0,
            "conv: col2im width {} is not a multiple of out spatial {spatial}",
            dcol.cols()
        );
        let batch = dcol.cols() / spatial;
        let mut spans = Vec::new();
        let spatials = (self.in_shape.spatial(), spatial);
        build_spans(&self.sample_spans, batch, spatials, &mut spans);
        let mut dx = Matrix::zeros(self.in_shape.c, batch * self.in_shape.spatial());
        col2im(&spans, &self.mask, dcol, &mut dx);
        dx
    }

    /// The exact copy-run plan as
    /// `(cols_row, src_channel, dst_offset, src_offset, len)` tuples —
    /// offsets relative to a sample's output block / input plane, every
    /// covered position in bounds. Exposed so the workspace property suite
    /// can check coverage and disjointness invariants directly, and check
    /// the executed spans against it.
    pub fn plan_runs(&self) -> Vec<(usize, usize, usize, usize, usize)> {
        build_copy_plan(self.in_shape, self.out_shape, self.k, self.pad)
            .iter()
            .map(|r| {
                (
                    r.row as usize,
                    r.src_row as usize,
                    r.dst as usize,
                    r.src as usize,
                    r.len as usize,
                )
            })
            .collect()
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: Matrix, _train: bool) -> Matrix {
        let batch = self.in_shape.batch_of(&x, "conv input");
        let (oc, spatial) = (self.out_shape.c, self.out_shape.spatial());
        self.ensure_buffers(batch);
        im2col(&self.spans, &self.mask, &x, &mut self.cols);
        // One large GEMM for the whole batch; the product is already the
        // channel-major layer output — no staging scatter. Accumulate into
        // the freshly zeroed output (numerically identical to the
        // clearing `gemm_into_with`, minus one redundant pass over y).
        let mut y = Matrix::zeros(oc, batch * spatial);
        matrix::gemm_accumulate_with(&self.w, &self.cols, &mut y, &mut self.scratch);
        for c in 0..oc {
            let bias = self.b[c];
            for v in y.row_mut(c) {
                *v += bias;
            }
        }
        y
    }

    fn backward(&mut self, dy: Matrix) -> Matrix {
        self.accumulate_param_grads(&dy);
        self.ensure_backward_buffers();
        // dcol = Wᵀ · dy, then scatter it back along the spans.
        self.dcol.clear();
        matrix::gemm_at_b_accumulate_with(&self.w, &dy, &mut self.dcol, &mut self.scratch);
        let mut dx = Matrix::zeros(self.in_shape.c, self.cols_batch * self.in_shape.spatial());
        col2im(&self.spans, &self.mask, &self.dcol, &mut dx);
        dx
    }

    fn backward_params(&mut self, dy: Matrix) {
        self.accumulate_param_grads(&dy);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn params(&self) -> Vec<&[f32]> {
        vec![self.w.as_slice(), &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut [f32]> {
        vec![self.w.as_mut_slice(), &mut self.b]
    }

    fn grads(&self) -> Vec<&[f32]> {
        vec![self.dw.as_slice(), &self.db]
    }

    fn zero_grads(&mut self) {
        self.dw.clear();
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        assert_eq!(
            in_dim,
            self.in_shape.len(),
            "conv: wired to wrong input width"
        );
        self.out_shape.len()
    }

    fn in_shape3(&self) -> Option<Shape3> {
        Some(self.in_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-channel 3×3 input with a known 1-channel 2×2 kernel (pad 0).
    #[test]
    fn forward_known_values() {
        let mut rng = Rng::new(0);
        let in_shape = Shape3::new(1, 3, 3);
        let mut conv = Conv2d::new(in_shape, 1, 2, 0, Init::GlorotUniform, &mut rng);
        // Kernel = [[1, 0], [0, 1]] (trace of each 2×2 patch), bias 0.5.
        conv.w = Matrix::from_vec(1, 4, vec![1.0, 0.0, 0.0, 1.0]);
        conv.b = vec![0.5];
        // Channel-major, 1 channel × 1 sample: one row of the 3×3 plane.
        #[rustfmt::skip]
        let x = Matrix::from_vec(1, 9, vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ]);
        let y = conv.forward(x.clone(), true);
        // Patches: (1+5), (2+6), (4+8), (5+9) plus bias.
        assert_eq!(y.as_slice(), &[6.5, 8.5, 12.5, 14.5]);
        assert_eq!((y.rows(), y.cols()), (1, 4), "output is channel-major");
        assert_eq!(conv.out_shape(), Shape3::new(1, 2, 2));
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut rng = Rng::new(1);
        let conv = Conv2d::new(Shape3::new(2, 5, 5), 4, 3, 1, Init::HeNormal, &mut rng);
        assert_eq!(conv.out_shape(), Shape3::new(4, 5, 5));
        assert_eq!(conv.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn backward_bias_gradient_sums_spatial() {
        let mut rng = Rng::new(2);
        let mut conv = Conv2d::new(Shape3::new(1, 3, 3), 2, 2, 0, Init::HeNormal, &mut rng);
        let x = Matrix::from_vec(1, 9, (0..9).map(|i| i as f32).collect());
        let _ = conv.forward(x.clone(), true);
        // Channel-major gradient: 2 output channels × 4 spatial positions.
        let dy = Matrix::from_vec(2, 4, vec![1.0; 8]);
        let _ = conv.backward(dy);
        // Each output channel has 4 spatial positions with grad 1.
        assert_eq!(conv.grads()[1], &[4.0, 4.0]);
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint property,
        // which is exactly what makes the conv backward pass correct.
        let mut rng = Rng::new(3);
        let mut conv = Conv2d::new(Shape3::new(2, 4, 4), 3, 3, 1, Init::HeNormal, &mut rng);
        // Channel-major batch of 2 samples.
        let mut x = Matrix::zeros(2, 2 * 16);
        rng.clone().fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let col = conv.im2col_batch(&x);
        let mut y = Matrix::zeros(col.rows(), col.cols());
        rng.clone().fill_normal(y.as_mut_slice(), 0.0, 1.0);
        let forward_ip = fda_tensor::vector::dot(col.as_slice(), y.as_slice());
        let back = conv.col2im_batch(&y);
        let backward_ip = fda_tensor::vector::dot(x.as_slice(), back.as_slice());
        assert!(
            (forward_ip - backward_ip).abs() < 1e-2 * (1.0 + forward_ip.abs()),
            "{forward_ip} vs {backward_ip}"
        );
    }

    #[test]
    fn batch_forward_matches_per_sample() {
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new(Shape3::new(1, 4, 4), 2, 3, 1, Init::HeNormal, &mut rng);
        // Channel-major: 1 channel × 3 sample blocks of 16.
        let mut x = Matrix::zeros(1, 3 * 16);
        Rng::new(9).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let y_batch = conv.forward(x.clone(), true);
        let spatial = conv.out_shape().spatial();
        for s in 0..3 {
            let xi = Matrix::from_vec(1, 16, x.row(0)[s * 16..(s + 1) * 16].to_vec());
            let yi = conv.forward(xi.clone(), true);
            for c in 0..2 {
                assert_eq!(
                    yi.row(c),
                    &y_batch.row(c)[s * spatial..(s + 1) * spatial],
                    "sample {s} channel {c}"
                );
            }
        }
    }

    /// Regression for the kernel-size guard: `k == h + 2·pad` is the exact
    /// boundary (output collapses to 1×1 in that dimension) and must be
    /// accepted; one past it must panic.
    #[test]
    fn kernel_size_boundary_accepted() {
        let mut rng = Rng::new(5);
        // h = 3, pad = 1 ⇒ padded extent 5; a 5×5 kernel is exactly legal.
        let conv = Conv2d::new(Shape3::new(1, 3, 3), 2, 5, 1, Init::HeNormal, &mut rng);
        assert_eq!(conv.out_shape(), Shape3::new(2, 1, 1));
        // Unpadded boundary too: k == h with pad = 0.
        let conv0 = Conv2d::new(Shape3::new(1, 4, 4), 1, 4, 0, Init::HeNormal, &mut rng);
        assert_eq!(conv0.out_shape(), Shape3::new(1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "too large for input")]
    fn kernel_one_past_boundary_panics() {
        let mut rng = Rng::new(6);
        // Padded extent 5; a 6×6 kernel must be rejected.
        let _ = Conv2d::new(Shape3::new(1, 3, 3), 2, 6, 1, Init::HeNormal, &mut rng);
    }

    #[test]
    #[should_panic(expected = "not channel-major")]
    fn sample_major_input_panics() {
        let mut rng = Rng::new(13);
        let mut conv = Conv2d::new(Shape3::new(2, 4, 4), 3, 3, 1, Init::HeNormal, &mut rng);
        // A sample-major batch (4 samples × 32 features) has the wrong row
        // count for a 2-channel layer and must fail loudly.
        let _ = conv.forward(Matrix::zeros(4, 32), true);
    }

    /// Changing batch size between forwards resizes the lowering buffers
    /// and keeps results identical to a fresh layer.
    #[test]
    fn batch_size_change_is_safe() {
        let mut rng = Rng::new(7);
        let mut conv = Conv2d::new(Shape3::new(2, 5, 5), 3, 3, 1, Init::HeNormal, &mut rng);
        let mut big = Matrix::zeros(2, 4 * 25);
        Rng::new(11).fill_normal(big.as_mut_slice(), 0.0, 1.0);
        let mut small = Matrix::zeros(2, 2 * 25);
        Rng::new(12).fill_normal(small.as_mut_slice(), 0.0, 1.0);
        let _ = conv.forward(big.clone(), true);
        let y_small = conv.forward(small.clone(), true);
        // Fresh layer with identical weights for reference.
        let mut rng2 = Rng::new(7);
        let mut fresh = Conv2d::new(Shape3::new(2, 5, 5), 3, 3, 1, Init::HeNormal, &mut rng2);
        let y_ref = fresh.forward(small.clone(), true);
        assert_eq!(y_small.as_slice(), y_ref.as_slice());
    }

    /// The eval-pass pattern — full batches then a ragged final chunk,
    /// repeated — must reuse the lowering allocations (capacity-keyed
    /// scratch), not reallocate on every shape change, and results must
    /// stay correct through shrink and regrow.
    #[test]
    fn ragged_eval_chunks_reuse_lowering_buffers() {
        let mut rng = Rng::new(8);
        let mut conv = Conv2d::new(Shape3::new(1, 6, 6), 2, 3, 1, Init::HeNormal, &mut rng);
        let mut full = Matrix::zeros(1, 8 * 36);
        Rng::new(21).fill_normal(full.as_mut_slice(), 0.0, 1.0);
        let mut ragged = Matrix::zeros(1, 3 * 36);
        Rng::new(22).fill_normal(ragged.as_mut_slice(), 0.0, 1.0);

        let y_full_1 = conv.forward(full.clone(), false);
        let cols_ptr = conv.cols.as_slice().as_ptr();
        // Ragged chunk shrinks, next pass grows back: both within capacity.
        let y_ragged_1 = conv.forward(ragged.clone(), false);
        assert_eq!(conv.cols.as_slice().as_ptr(), cols_ptr, "cols reallocated");
        let y_full_2 = conv.forward(full.clone(), false);
        assert_eq!(conv.cols.as_slice().as_ptr(), cols_ptr, "cols reallocated");
        let y_ragged_2 = conv.forward(ragged.clone(), false);

        // Identical inputs ⇒ identical outputs across the reuse cycle.
        assert_eq!(y_full_1.as_slice(), y_full_2.as_slice());
        assert_eq!(y_ragged_1.as_slice(), y_ragged_2.as_slice());
    }
}
