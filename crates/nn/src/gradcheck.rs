//! Finite-difference gradient checking.
//!
//! Backprop bugs are the classic silent failure of hand-rolled NN code, so
//! every layer in this crate is validated against central finite
//! differences of the end-to-end loss. The checker perturbs parameters (and
//! optionally inputs) of a [`Sequential`] and compares `∂L/∂θ` with the
//! analytic gradients.

use crate::loss::SoftmaxCrossEntropy;
use crate::model::Sequential;
use fda_tensor::Matrix;

/// Result of a gradient check over a set of parameter coordinates.
///
/// For piecewise-linear networks (ReLU, MaxPool) a ±ε probe occasionally
/// crosses a kink — an argmax flip in a pool window, say — and the finite
/// difference there measures a *different linear piece* than the analytic
/// gradient. Those sparse outliers are properties of the probe, not bugs,
/// so the report keeps the full error distribution: smooth stacks should
/// assert on [`GradCheckReport::max_rel_err`], kinked stacks on
/// [`GradCheckReport::frac_above`] being small plus a tight quantile.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    rel_errors: Vec<f32>,
    /// Maximum relative error across checked coordinates.
    pub max_rel_err: f32,
    /// Number of parameter coordinates compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// Fraction of checked coordinates with relative error above `tol`.
    pub fn frac_above(&self, tol: f32) -> f32 {
        if self.rel_errors.is_empty() {
            return 0.0;
        }
        self.rel_errors.iter().filter(|&&e| e > tol).count() as f32 / self.rel_errors.len() as f32
    }

    /// Linear-interpolated quantile of the relative-error distribution.
    pub fn quantile(&self, q: f64) -> f32 {
        let v: Vec<f64> = self.rel_errors.iter().map(|&e| e as f64).collect();
        fda_tensor::stats::quantile(&v, q) as f32
    }
}

/// Compares analytic parameter gradients of softmax-CE loss against central
/// finite differences.
///
/// Both sides measure the **eval-mode** loss
/// ([`Sequential::compute_gradients_eval`]): dropout is the identity, so
/// stochastic layers do not inject probe noise and models with dropout are
/// checkable exactly. Checks `stride`-spaced coordinates (check all with
/// `stride = 1`). Relative error uses the standard symmetric denominator
/// `max(1e-4, |fd| + |analytic|)`.
pub fn check_param_gradients(
    model: &mut Sequential,
    x: &Matrix,
    labels: &[usize],
    eps: f32,
    stride: usize,
) -> GradCheckReport {
    assert!(stride >= 1, "gradcheck: stride must be positive");
    let (_, _) = model.compute_gradients_eval(x, labels);
    let analytic = model.grads_flat();
    let base = model.params_flat();
    let mut max_rel = 0.0f32;
    let mut checked = 0usize;

    let loss_at = |model: &mut Sequential, params: &[f32]| -> f32 {
        model.load_params(params);
        let logits = model.forward(x, false); // eval mode: no dropout noise
        let (loss, _, _) = SoftmaxCrossEntropy.forward(&logits, labels);
        loss
    };

    let mut params = base.clone();
    let mut rel_errors = Vec::with_capacity(base.len() / stride + 1);
    for i in (0..base.len()).step_by(stride) {
        params[i] = base[i] + eps;
        let lp = loss_at(model, &params);
        params[i] = base[i] - eps;
        let lm = loss_at(model, &params);
        params[i] = base[i];
        let fd = (lp - lm) / (2.0 * eps);
        let denom = (fd.abs() + analytic[i].abs()).max(1e-4);
        let rel = (fd - analytic[i]).abs() / denom;
        rel_errors.push(rel);
        if rel > max_rel {
            max_rel = rel;
        }
        checked += 1;
    }
    model.load_params(&base);
    GradCheckReport {
        rel_errors,
        max_rel_err: max_rel,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Tanh;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::init::Init;
    use crate::layer::Shape3;
    use crate::pool::{GlobalAvgPool, MaxPool2d};
    use fda_tensor::Rng;

    // NOTE: the stacks below use Tanh rather than ReLU on purpose: central
    // finite differences are only valid for (locally) smooth losses, and a
    // perturbation of ±ε across a ReLU kink or a MaxPool argmax flip shows
    // up as a large *apparent* error even when backprop is exact. MaxPool
    // itself is safe here because random normal activations are almost
    // never within ε of an argmax tie.

    fn batch(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
        let mut x = Matrix::zeros(rows, cols);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        x
    }

    #[test]
    fn dense_tanh_stack_gradients() {
        let mut rng = Rng::new(1);
        let mut m = Sequential::new("gc-dense", 6)
            .push(Dense::new(6, 10, Init::GlorotUniform, &mut rng))
            .push(Tanh::new())
            .push(Dense::new(10, 4, Init::GlorotUniform, &mut rng));
        let x = batch(&mut rng, 5, 6);
        let labels = vec![0, 1, 2, 3, 1];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        assert!(
            report.max_rel_err < 2e-2,
            "max relative error {} too large",
            report.max_rel_err
        );
    }

    #[test]
    fn conv_pool_stack_gradients() {
        let mut rng = Rng::new(2);
        let in_shape = Shape3::new(1, 6, 6);
        let conv = Conv2d::new(in_shape, 3, 3, 1, Init::HeNormal, &mut rng);
        let pool = MaxPool2d::new(conv.out_shape(), 2);
        let pooled = pool.out_shape();
        let flat = pooled.len();
        let mut m = Sequential::new("gc-conv", in_shape.len())
            .push(conv)
            .push(pool)
            .push(Tanh::new())
            .push(crate::dense::Flatten::new(pooled))
            .push(Dense::new(flat, 3, Init::HeNormal, &mut rng));
        let x = batch(&mut rng, 3, in_shape.len());
        let labels = vec![0, 1, 2];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        // MaxPool makes the loss piecewise-smooth in the conv weights: a
        // conv-weight perturbation shifts whole feature maps and can flip a
        // pool argmax, so a few coordinates legitimately disagree with the
        // probe. Require the overwhelming majority to match tightly and the
        // outliers to be sparse.
        assert!(
            report.quantile(0.95) < 3e-2,
            "p95 relative error {} too large",
            report.quantile(0.95)
        );
        assert!(
            report.frac_above(5e-2) < 0.05,
            "too many kink outliers: {}",
            report.frac_above(5e-2)
        );
    }

    /// Dedicated check for the batched-im2col convolution: a batch large
    /// enough that every sample's column block in the shared `cols` matrix
    /// is exercised, with a smooth (Tanh) stack so central differences are
    /// valid for every coordinate.
    #[test]
    fn batched_im2col_conv_gradients() {
        let mut rng = Rng::new(7);
        let in_shape = Shape3::new(2, 5, 5);
        let conv = Conv2d::new(in_shape, 4, 3, 1, Init::HeNormal, &mut rng);
        let out = conv.out_shape();
        let flat = out.len();
        let mut m = Sequential::new("gc-batched-conv", in_shape.len())
            .push(conv)
            .push(Tanh::new())
            .push(crate::dense::Flatten::new(out))
            .push(Dense::new(flat, 3, Init::HeNormal, &mut rng));
        let x = batch(&mut rng, 8, in_shape.len());
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        assert!(
            report.max_rel_err < 2e-2,
            "batched conv max relative error {} too large",
            report.max_rel_err
        );
        assert!(report.checked > 200, "should cover all conv parameters");
    }

    /// Conv edge geometries under the channel-major layout, each in a
    /// smooth Tanh stack so `max_rel_err` is assertable: the kernel at the
    /// exact padded-extent boundary (1×1 output), a 1×1 kernel, a
    /// non-square input, and padding wider than the kernel overhang.
    #[test]
    fn conv_edge_shape_gradients() {
        let cases: &[(Shape3, usize, usize, usize)] = &[
            (Shape3::new(1, 3, 3), 2, 5, 1), // k == h + 2·pad: 1×1 output
            (Shape3::new(2, 4, 4), 3, 1, 0), // 1×1 kernel (pure channel mix)
            (Shape3::new(2, 3, 5), 3, 3, 1), // non-square input h ≠ w
            (Shape3::new(1, 4, 4), 2, 3, 2), // pad wider than kernel overhang
        ];
        for (case, &(in_shape, oc, k, pad)) in cases.iter().enumerate() {
            let mut rng = Rng::new(40 + case as u64);
            let conv = Conv2d::new(in_shape, oc, k, pad, Init::HeNormal, &mut rng);
            let out = conv.out_shape();
            let flat = out.len();
            let mut m = Sequential::new("gc-conv-edge", in_shape.len())
                .push(conv)
                .push(Tanh::new())
                .push(crate::dense::Flatten::new(out))
                .push(Dense::new(flat, 3, Init::HeNormal, &mut rng));
            let x = batch(&mut rng, 4, in_shape.len());
            let labels = vec![0, 1, 2, 1];
            let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
            // Near-zero-gradient coordinates sit at the relative-error
            // clamp where f32 probe noise registers as a few percent, so
            // assert a tight p95 plus zero gross errors instead of a tight
            // max (a real layout bug throws most coordinates past 0.1).
            let ctx = format!("case {case} ({in_shape:?}, oc={oc}, k={k}, pad={pad})");
            assert!(
                report.quantile(0.95) < 1e-2,
                "{ctx}: p95 relative error {} too large",
                report.quantile(0.95)
            );
            assert!(
                report.max_rel_err < 1e-1,
                "{ctx}: gross error {}",
                report.max_rel_err
            );
        }
    }

    /// Exact MaxPool ties must not destabilize the check: the tied window
    /// feeds a dense head, whose weight perturbations cannot flip the
    /// argmax, so both central probes and the analytic gradient measure the
    /// same (first-in-scan-order) linear piece.
    #[test]
    fn maxpool_tie_gradients() {
        let mut rng = Rng::new(50);
        let in_shape = Shape3::new(1, 4, 4);
        let pool = MaxPool2d::new(in_shape, 2);
        let pooled = pool.out_shape();
        let mut m = Sequential::new("gc-pool-tie", in_shape.len())
            .push(pool)
            .push(crate::dense::Flatten::new(pooled))
            .push(Dense::new(4, 2, Init::GlorotUniform, &mut rng));
        // Every 2×2 window is an exact four-way tie.
        let x = Matrix::from_vec(2, 16, vec![1.5; 32]);
        let labels = vec![0, 1];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        assert!(
            report.max_rel_err < 2e-2,
            "tied-pool max relative error {} too large",
            report.max_rel_err
        );
    }

    /// Dropout layers in the stack: the checker runs the loss in eval mode
    /// on both sides, so dropout is the identity and the check is exact —
    /// this is the guarantee that makes the DenseNet zoo models checkable.
    #[test]
    fn dropout_in_eval_gradients() {
        let mut rng = Rng::new(60);
        let mut m = Sequential::new("gc-dropout", 6)
            .push(Dense::new(6, 12, Init::GlorotUniform, &mut rng))
            .push(crate::dropout::Dropout::new(0.5, 123))
            .push(Tanh::new())
            .push(Dense::new(12, 3, Init::GlorotUniform, &mut rng));
        let x = batch(&mut rng, 5, 6);
        let labels = vec![0, 1, 2, 0, 1];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        assert!(
            report.max_rel_err < 2e-2,
            "dropout-in-eval max relative error {} too large",
            report.max_rel_err
        );
    }

    /// A model whose first layer has no parameters: backward stops at the
    /// dense layer above the dropout and never runs the dropout, and the
    /// gradients still match the finite differences.
    #[test]
    fn dropout_first_layer_gradients() {
        let mut rng = Rng::new(61);
        let mut m = Sequential::new("gc-dropout-first", 6)
            .push(crate::dropout::Dropout::new(0.5, 321))
            .push(Dense::new(6, 8, Init::GlorotUniform, &mut rng))
            .push(Tanh::new())
            .push(Dense::new(8, 3, Init::GlorotUniform, &mut rng));
        let x = batch(&mut rng, 5, 6);
        let labels = vec![2, 1, 0, 0, 1];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        assert!(
            report.max_rel_err < 2e-2,
            "dropout-first max relative error {} too large",
            report.max_rel_err
        );
    }

    /// The whole zoo, end to end: every model (conv stacks with ReLU,
    /// MaxPool, Dropout, dense heads) must pass the finite-difference check
    /// under the channel-major layout. ReLU/MaxPool kinks make a sparse set
    /// of coordinates legitimately disagree with the probe, so the asserts
    /// are distributional (tight p95, sparse outliers).
    #[test]
    fn all_zoo_models_pass_gradcheck() {
        for id in crate::zoo::ModelId::ALL {
            let mut m = id.build(17, 99);
            let mut rng = Rng::new(0x600D + id.paper_d() as u64);
            let x = batch(&mut rng, 4, m.in_dim());
            let labels: Vec<usize> = (0..4).map(|i| (i * 3) % id.classes()).collect();
            // Budget ~220 checked coordinates per model. ε = 3e-3 balances
            // ReLU/MaxPool kink-crossing probability (shrinks with ε)
            // against f32 probe noise (grows as 1/ε); measured error
            // distributions across the zoo have p90 ≤ 0.022 and
            // frac>0.2 ≤ 0.009 there, so the asserts below carry 2–3×
            // margin while any layout/backprop bug (which throws the
            // majority of coordinates past 0.2) still fails loudly.
            let stride = (m.param_count() / 220).max(1);
            let report = check_param_gradients(&mut m, &x, &labels, 3e-3, stride);
            assert!(report.checked >= 200, "{}: too few coords", id.name());
            assert!(
                report.quantile(0.90) < 5e-2,
                "{}: p90 relative error {} too large",
                id.name(),
                report.quantile(0.90)
            );
            assert!(
                report.frac_above(5e-2) < 0.10,
                "{}: too many kink outliers: {}",
                id.name(),
                report.frac_above(5e-2)
            );
            assert!(
                report.frac_above(2e-1) < 0.03,
                "{}: gross errors: {}",
                id.name(),
                report.frac_above(2e-1)
            );
        }
    }

    #[test]
    fn gap_head_gradients() {
        let mut rng = Rng::new(3);
        let in_shape = Shape3::new(2, 4, 4);
        let conv = Conv2d::new(in_shape, 4, 3, 1, Init::HeNormal, &mut rng);
        let gap = GlobalAvgPool::new(conv.out_shape());
        let mut m = Sequential::new("gc-gap", in_shape.len())
            .push(conv)
            .push(Tanh::new())
            .push(gap)
            .push(Dense::new(4, 3, Init::HeNormal, &mut rng));
        let x = batch(&mut rng, 2, in_shape.len());
        let labels = vec![2, 0];
        let report = check_param_gradients(&mut m, &x, &labels, 1e-2, 1);
        assert!(
            report.max_rel_err < 3e-2,
            "max relative error {} too large",
            report.max_rel_err
        );
    }
}
