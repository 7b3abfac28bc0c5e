//! The [`Sequential`] model container and its flat-parameter API.

use crate::layer::{Layer, Shape3};
use crate::loss::{argmax, SoftmaxCrossEntropy};
use fda_tensor::Matrix;

/// A feed-forward stack of layers with a single flat-parameter view.
///
/// Built with [`Sequential::new`] + [`Sequential::push`]; wiring is
/// validated eagerly (each layer's expected input width must match the
/// previous layer's output width).
///
/// # Activation layout
///
/// The public API is **sample-major**: batches arrive as `batch × features`
/// rows, logits leave the same way. When the stack opens with a spatial
/// layer (conv/pool — detected via [`Layer::in_shape3`] on the first
/// `push`), the model's *native* input layout is **channel-major**
/// (`c × batch·spatial`): [`Sequential::forward`] converts once at entry
/// (for single-channel inputs this is a zero-cost reshape of the clone it
/// performed anyway), and the conv stack runs channel-major until a
/// [`crate::dense::Flatten`] / [`crate::pool::GlobalAvgPool`] converts
/// back. Hot callers that can produce channel-major batches directly (see
/// `fda_data::Dataset::gather_channel_major`) skip even that by using
/// [`Sequential::forward_native`] / [`Sequential::compute_gradients_native`],
/// which also take the batch by value instead of cloning.
pub struct Sequential {
    in_dim: usize,
    out_dim: usize,
    /// `Some` iff the first layer consumes channel-major activations; the
    /// model input is converted at entry in that case.
    input_shape: Option<Shape3>,
    /// Index of the lowest layer with parameters, where backward stops.
    first_trained: Option<usize>,
    layers: Vec<Box<dyn Layer>>,
    name: String,
}

impl Sequential {
    /// Creates an empty model that accepts `in_dim` features per sample.
    pub fn new(name: impl Into<String>, in_dim: usize) -> Self {
        Sequential {
            in_dim,
            out_dim: in_dim,
            input_shape: None,
            first_trained: None,
            layers: Vec::new(),
            name: name.into(),
        }
    }

    /// Appends a layer, validating that its expected input width matches.
    ///
    /// # Panics
    /// Panics (inside the layer's `out_dim`) if the wiring is inconsistent.
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.out_dim = layer.out_dim(self.out_dim);
        if self.layers.is_empty() {
            self.input_shape = layer.in_shape3();
        }
        if self.first_trained.is_none() && layer.param_count() > 0 {
            self.first_trained = Some(self.layers.len());
        }
        self.layers.push(Box::new(layer));
        self
    }

    /// The spatial input shape, `Some` iff this model's native input layout
    /// is channel-major (its first layer is a conv/pool layer).
    pub fn input_shape(&self) -> Option<Shape3> {
        self.input_shape
    }

    /// Converts a sample-major batch into this model's native input layout
    /// (allocating — the hot path hands [`Sequential::forward_native`] an
    /// owned batch instead).
    fn native_input(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "model: input width mismatch");
        match self.input_shape {
            Some(s) => x.to_channel_major(s.c),
            None => x.clone(),
        }
    }

    /// Model name (zoo identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width (number of classes for classifiers).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters `d`.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass through every layer (sample-major input batch; the
    /// entry conversion to the native layout happens here if needed).
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let h = self.native_input(x);
        self.forward_native(h, train)
    }

    /// Forward pass over a batch **already in this model's native input
    /// layout** (channel-major `c × batch·spatial` when
    /// [`Sequential::input_shape`] is `Some`, sample-major rows otherwise).
    /// Takes the batch by value — no clone, no conversion; this is the hot
    /// training-loop entry.
    ///
    /// # Panics
    /// Panics if the batch does not match the native layout.
    pub fn forward_native(&mut self, x: Matrix, train: bool) -> Matrix {
        match self.input_shape {
            Some(s) => {
                let _ = s.batch_of(&x, "model native input");
            }
            None => assert_eq!(x.cols(), self.in_dim, "model: input width mismatch"),
        }
        let mut h = x;
        for layer in &mut self.layers {
            h = layer.forward(h, train);
        }
        h
    }

    /// Backward pass; parameter gradients accumulate inside the layers.
    ///
    /// Stops at the first trained layer (see [`Layer`]): that layer
    /// computes only its parameter gradients
    /// ([`Layer::backward_params`]), and the parameter-free layers below
    /// it are not run, since nothing consumes the model's input gradient.
    pub fn backward(&mut self, dy: &Matrix) {
        let Some(first) = self.first_trained else {
            return;
        };
        let (below, above) = self.layers.split_at_mut(first + 1);
        let g = above
            .iter_mut()
            .rev()
            .fold(dy.clone(), |g, layer| layer.backward(g));
        below[first].backward_params(g);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Copies the flat parameter vector into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != self.param_count()`.
    pub fn copy_params_to(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.param_count(),
            "copy_params_to: size mismatch"
        );
        let mut off = 0;
        for layer in &self.layers {
            for p in layer.params() {
                out[off..off + p.len()].copy_from_slice(p);
                off += p.len();
            }
        }
    }

    /// Returns the flat parameter vector (allocating).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_count()];
        self.copy_params_to(&mut out);
        out
    }

    /// Loads a flat parameter vector into the layers.
    ///
    /// # Panics
    /// Panics if `src.len() != self.param_count()`.
    pub fn load_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.param_count(), "load_params: size mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.copy_from_slice(&src[off..off + p.len()]);
                off += p.len();
            }
        }
    }

    /// Copies the flat gradient vector into `out` (same layout as params).
    pub fn copy_grads_to(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.param_count(),
            "copy_grads_to: size mismatch"
        );
        let mut off = 0;
        for layer in &self.layers {
            for g in layer.grads() {
                out[off..off + g.len()].copy_from_slice(g);
                off += g.len();
            }
        }
    }

    /// Returns the flat gradient vector (allocating).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_count()];
        self.copy_grads_to(&mut out);
        out
    }

    /// One supervised step's worth of gradients: forward in train mode,
    /// softmax-CE loss, backward. Gradients are zeroed first, so after this
    /// call the layers hold exactly this batch's gradient.
    ///
    /// Returns `(mean loss, #correct)`.
    pub fn compute_gradients(&mut self, x: &Matrix, labels: &[usize]) -> (f32, usize) {
        let native = self.native_input(x);
        self.compute_gradients_native(native, labels)
    }

    /// [`Sequential::compute_gradients`] over a batch already in the native
    /// input layout, taken by value (the hot training-loop entry — no
    /// clone, no layout conversion).
    pub fn compute_gradients_native(&mut self, x: Matrix, labels: &[usize]) -> (f32, usize) {
        self.zero_grads();
        let logits = self.forward_native(x, true);
        let (loss, dlogits, correct) = SoftmaxCrossEntropy.forward(&logits, labels);
        self.backward(&dlogits);
        (loss, correct)
    }

    /// Like [`Sequential::compute_gradients`] but with training-only
    /// stochasticity disabled: the forward pass runs in **eval** mode, so
    /// dropout is the identity. The gradient checker uses this so the
    /// analytic gradients and the finite-difference probes (which evaluate
    /// the eval-mode loss) measure the same deterministic function.
    pub fn compute_gradients_eval(&mut self, x: &Matrix, labels: &[usize]) -> (f32, usize) {
        self.zero_grads();
        let logits = self.forward(x, false);
        let (loss, dlogits, correct) = SoftmaxCrossEntropy.forward(&logits, labels);
        self.backward(&dlogits);
        (loss, correct)
    }

    /// Evaluates mean loss and accuracy on a labelled set (eval mode).
    pub fn evaluate(&mut self, x: &Matrix, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward(x, false);
        let (loss, _, correct) = SoftmaxCrossEntropy.forward(&logits, labels);
        (loss, correct as f32 / labels.len() as f32)
    }

    /// Evaluates accuracy in mini-batches (bounds peak memory on big sets).
    pub fn evaluate_batched(&mut self, x: &Matrix, labels: &[usize], batch: usize) -> f32 {
        assert!(batch > 0, "evaluate_batched: batch must be positive");
        assert_eq!(x.rows(), labels.len(), "evaluate_batched: size mismatch");
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < x.rows() {
            let end = (start + batch).min(x.rows());
            let mut xb = Matrix::zeros(end - start, x.cols());
            for (i, r) in (start..end).enumerate() {
                xb.row_mut(i).copy_from_slice(x.row(r));
            }
            let logits = self.forward(&xb, false);
            for (i, r) in (start..end).enumerate() {
                if argmax(logits.row(i)) == labels[r] {
                    correct += 1;
                }
            }
            start = end;
        }
        correct as f32 / labels.len() as f32
    }

    /// Predicted class per row (eval mode).
    pub fn predict(&mut self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x, false);
        (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
    }

    /// A human-readable per-layer summary (name and parameter count).
    pub fn summary(&self) -> String {
        let mut s = format!("{} (d = {} params)\n", self.name, self.param_count());
        for (i, layer) in self.layers.iter().enumerate() {
            s.push_str(&format!(
                "  {:2}: {:<16} {:>8} params\n",
                i,
                layer.name(),
                layer.param_count()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use crate::dropout::Dropout;
    use crate::init::Init;
    use crate::zoo::ModelId;
    use fda_tensor::Rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        Sequential::new("tiny", 4)
            .push(Dense::new(4, 8, Init::GlorotUniform, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 3, Init::GlorotUniform, &mut rng))
    }

    #[test]
    fn param_roundtrip() {
        let mut m = tiny_mlp(1);
        let flat = m.params_flat();
        assert_eq!(flat.len(), m.param_count());
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut perturbed = flat.clone();
        for v in &mut perturbed {
            *v += 1.0;
        }
        m.load_params(&perturbed);
        assert_eq!(m.params_flat(), perturbed);
        m.load_params(&flat);
        assert_eq!(m.params_flat(), flat);
    }

    #[test]
    fn identical_seeds_identical_models() {
        let a = tiny_mlp(9).params_flat();
        let b = tiny_mlp(9).params_flat();
        assert_eq!(a, b, "same seed must give identical initialization");
    }

    #[test]
    fn gradient_layout_matches_params() {
        let mut m = tiny_mlp(2);
        let x = Matrix::from_vec(2, 4, vec![0.1; 8]);
        let (_, _) = m.compute_gradients(&x, &[0, 1]);
        let g = m.grads_flat();
        assert_eq!(g.len(), m.param_count());
        assert!(g.iter().any(|&v| v != 0.0), "gradients should be nonzero");
    }

    #[test]
    fn compute_gradients_zeroes_previous() {
        let mut m = tiny_mlp(3);
        let x = Matrix::from_vec(1, 4, vec![1.0; 4]);
        let _ = m.compute_gradients(&x, &[0]);
        let g1 = m.grads_flat();
        let _ = m.compute_gradients(&x, &[0]);
        let g2 = m.grads_flat();
        for (a, b) in g1.iter().zip(&g2) {
            assert!(
                (a - b).abs() < 1e-6,
                "gradients must not accumulate across calls"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut m = tiny_mlp(4);
        let x = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0,
            ],
        );
        let labels = vec![0, 1, 2, 0];
        let (loss0, _) = m.compute_gradients(&x, &labels);
        // Plain gradient descent for a few steps.
        for _ in 0..200 {
            let (_, _) = m.compute_gradients(&x, &labels);
            let g = m.grads_flat();
            let mut p = m.params_flat();
            for (pv, gv) in p.iter_mut().zip(&g) {
                *pv -= 0.5 * gv;
            }
            m.load_params(&p);
        }
        let (loss1, _) = m.compute_gradients(&x, &labels);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1} should shrink");
    }

    #[test]
    fn evaluate_batched_matches_full() {
        let mut m = tiny_mlp(5);
        let mut rng = Rng::new(77);
        let mut x = Matrix::zeros(10, 4);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let (_, acc_full) = m.evaluate(&x, &labels);
        let acc_batched = m.evaluate_batched(&x, &labels, 3);
        assert!((acc_full - acc_batched).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let mut m = tiny_mlp(6);
        let _ = m.forward(&Matrix::zeros(1, 5), false);
    }

    /// The parameter gradients of a train-mode step whose backward runs
    /// [`Layer::backward`] on every layer, input gradients included — the
    /// reference for the first-trained-layer rule.
    fn full_backward_grad_bits(m: &mut Sequential, x: &Matrix, labels: &[usize]) -> Vec<u32> {
        m.zero_grads();
        let logits = m.forward(x, true);
        let (_, dlogits, _) = SoftmaxCrossEntropy.forward(&logits, labels);
        let mut g = dlogits;
        for layer in m.layers.iter_mut().rev() {
            g = layer.backward(g);
        }
        m.grads_flat().iter().map(|v| v.to_bits()).collect()
    }

    /// `compute_gradients` stops at the first trained layer; its parameter
    /// gradients must equal the full backward's bit for bit, for every zoo
    /// model at batch 1 and 32 and for a model whose first layer has no
    /// parameters. Two identically seeded builds keep dropout masks equal.
    #[test]
    fn first_trained_layer_backward_matches_full_backward() {
        let build = |id: Option<ModelId>| match id {
            Some(id) => id.build(17, 99),
            None => {
                let mut rng = Rng::new(23);
                Sequential::new("dropout-first", 12)
                    .push(Dropout::new(0.3, 23))
                    .push(Dense::new(12, 16, Init::HeNormal, &mut rng))
                    .push(Relu::new())
                    .push(Dense::new(16, 10, Init::HeNormal, &mut rng))
            }
        };
        for id in ModelId::ALL.into_iter().map(Some).chain([None]) {
            for batch in [1usize, 32] {
                let (mut fast, mut reference) = (build(id), build(id));
                let mut x = Matrix::zeros(batch, fast.in_dim());
                Rng::new(batch as u64).fill_normal(x.as_mut_slice(), 0.0, 1.0);
                let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % fast.out_dim()).collect();
                let _ = fast.compute_gradients(&x, &labels);
                let got: Vec<u32> = fast.grads_flat().iter().map(|v| v.to_bits()).collect();
                let want = full_backward_grad_bits(&mut reference, &x, &labels);
                assert_eq!(
                    got,
                    want,
                    "{} batch {batch}: parameter gradients moved",
                    fast.name()
                );
            }
        }
    }
}
