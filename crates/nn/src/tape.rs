//! Dynamic reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse, accumulating gradients into
//! each node and finally into the [`ParamStore`]. Building the graph per step
//! keeps the engine flexible enough for the paper's composite architectures
//! (per-distance decoder fan-out, VAE reparameterization, loss mixtures)
//! without a static-graph compiler.
//!
//! Backward computes a delta only toward nodes that can reach a
//! [`Tape::param`] leaf: inputs, targets, masks, and anything built from them
//! alone get none, since their gradients could never reach the store.
//!
//! Row-stacked operands (`blocks` equal row blocks, one per copy of a shared
//! sub-network) get their weight gradients summed block by block, last block
//! first: [`Tape::linear_blocks`], [`Tape::pair_linear`] and
//! [`Tape::block_dot`]. That is the order in which
//! one tape branch per block, each with its own copy of the weight, would
//! deliver its gradient to the store, so stacking the branches leaves every
//! gradient bit unchanged.
//!
//! A tape keeps the buffers of the matrices it is done with and hands them
//! out again for new ones, and [`Tape::reset`] keeps every buffer for the next
//! pass. A training loop that records each step on one reset tape allocates
//! its matrices once instead of once per step, so the allocator never
//! returns their pages to the system only to fault them back in.
//!
//! Gradient correctness for every op is checked against central finite
//! differences in this module's tests.

use crate::kernels::{t_matmul_slices, Parallelism};
use crate::matrix::{Matrix, Weights};
use crate::params::{ParamId, ParamStore};

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Constant leaf (inputs, targets, masks).
    Input,
    /// Trainable leaf; gradients flow back into the store.
    Param(ParamId),
    /// `a @ b`
    MatMul(usize, usize),
    /// `a + broadcast_rows(b)` where `b` is `1 x m`.
    AddRow(usize, usize),
    /// [`Tape::linear_blocks`]: `(x, w, bias, blocks)`.
    Linear(usize, usize, usize, usize),
    /// [`Tape::pair_linear`]: `(parts with their row offsets into w, e, w,
    /// bias)`.
    PairLinear(Vec<(usize, usize)>, usize, usize, usize),
    /// [`Tape::block_dot`]: `(z, w, bias)`.
    BlockDot(usize, usize, usize),
    /// [`Tape::stack_col_blocks`]: `(a, width)`.
    StackColBlocks(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    /// Element-wise product.
    Mul(usize, usize),
    /// `a ⊙ broadcast_rows(r)` where `r` is `1 x m`.
    MulRow(usize, usize),
    /// `a ⊙ broadcast_cols(c)` where `c` is `n x 1`.
    MulCol(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    Relu(usize),
    Elu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    Softplus(usize),
    Exp(usize),
    /// `ln(1 + x)`, defined for `x > -1`; used by MSLE.
    Ln1p(usize),
    /// `ln(x + eps)`; used by binary cross-entropy.
    LnEps(usize, f32),
    Square(usize),
    /// Element-wise `1/x`.
    Recip(usize),
    /// Row sums: `n x m` → `n x 1`.
    RowSums(usize),
    SumAll(usize),
    MeanAll(usize),
    /// Horizontal concatenation; `(parent, col_offset)` pairs.
    HConcat(Vec<(usize, usize)>),
    SliceCols(usize, usize, usize),
    SliceRows(usize, usize, usize),
    /// Replicates a `1 x m` row `n` times.
    BroadcastRow(usize),
}

impl Op {
    /// Whether `f` holds for any node this op reads.
    fn any_parent(&self, f: impl Fn(usize) -> bool) -> bool {
        match self {
            Op::Input | Op::Param(_) => false,
            Op::MatMul(a, b)
            | Op::AddRow(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MulRow(a, b)
            | Op::MulCol(a, b) => f(*a) || f(*b),
            Op::Linear(x, w, b, _) | Op::BlockDot(x, w, b) => f(*x) || f(*w) || f(*b),
            Op::PairLinear(parts, e, w, b) => {
                parts.iter().any(|&(p, _)| f(p)) || f(*e) || f(*w) || f(*b)
            }
            Op::HConcat(parents) => parents.iter().any(|&(p, _)| f(p)),
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::Elu(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Softplus(a)
            | Op::Exp(a)
            | Op::Ln1p(a)
            | Op::LnEps(a, _)
            | Op::Square(a)
            | Op::Recip(a)
            | Op::RowSums(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SliceCols(a, _, _)
            | Op::SliceRows(a, _, _)
            | Op::BroadcastRow(a)
            | Op::StackColBlocks(a, _) => f(*a),
        }
    }
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// Whether a [`Op::Param`] leaf is reachable from this node, i.e.
    /// whether backward computes a delta toward it.
    needs_grad: bool,
}

/// Buffers of matrices a tape is done with, handed out again for new ones.
/// A buffer that goes unused for a whole pass is dropped, so a tape reset
/// once per step holds about one step's matrices however many steps it
/// records.
#[derive(Default)]
struct Spare {
    /// Returned during the current pass.
    ready: Vec<Vec<f32>>,
    /// Carried over into the current pass.
    idle: Vec<Vec<f32>>,
}

impl Spare {
    /// An empty buffer with room for `len` values: the smallest spare one
    /// that fits without wasting more than half of itself, else a new one.
    fn take(&mut self, len: usize) -> Vec<f32> {
        for list in [&mut self.idle, &mut self.ready] {
            let fit = (0..list.len())
                .filter(|&i| (len..=2 * len).contains(&list[i].capacity()))
                .min_by_key(|&i| list[i].capacity());
            if let Some(i) = fit {
                let mut buf = list.swap_remove(i);
                buf.clear();
                return buf;
            }
        }
        Vec::with_capacity(len)
    }

    fn put(&mut self, m: Matrix) {
        self.ready.push(m.into_vec());
    }

    /// Starts a new pass: drops what the last pass left unused.
    fn next_pass(&mut self) {
        self.idle = std::mem::take(&mut self.ready);
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// `f` of every element of `src`: [`Matrix::map`] into a spare buffer.
    fn map(&mut self, src: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        let mut buf = self.take(src.len());
        buf.extend(src.as_slice().iter().map(|&v| f(v)));
        Matrix::from_vec(src.rows(), src.cols(), buf)
    }

    /// [`Matrix::zip`] into a spare buffer.
    fn zip(&mut self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "zip shape mismatch");
        let mut buf = self.take(a.len());
        buf.extend(
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| f(x, y)),
        );
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }
}

/// `f` of every element of `g`, in `g`'s own buffer.
fn map_into(mut g: Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    g.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
    g
}

/// `g.zip(other, f)` computed in `g`'s own buffer.
fn zip_into(mut g: Matrix, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
    assert_eq!(g.shape(), other.shape(), "zip shape mismatch");
    for (v, &o) in g.as_mut_slice().iter_mut().zip(other.as_slice()) {
        *v = f(*v, o);
    }
    g
}

/// Reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Worker budget for the matrix products recorded on (and
    /// back-propagated through) this tape. Threaded kernels are bit-identical
    /// to the scalar ones, so this changes wall clock, never results.
    par: Parallelism,
    spare: Spare,
}

impl Tape {
    pub fn new() -> Self {
        Tape::default()
    }

    /// A tape whose matmul forward/backward kernels may use `par` workers.
    pub fn with_parallelism(par: Parallelism) -> Self {
        Tape {
            par,
            ..Tape::default()
        }
    }

    /// Forgets every recorded node for a new pass whose products may use
    /// `par` workers, keeping the buffers the finished pass used for the new
    /// pass's matrices.
    pub fn reset(&mut self, par: Parallelism) {
        for node in self.nodes.drain(..) {
            self.spare.put(node.value);
            if let Some(g) = node.grad {
                self.spare.put(g);
            }
        }
        self.spare.next_pass();
        self.par = par;
    }

    /// The configured kernel parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Number of recorded nodes (diagnostic).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let needs_grad = matches!(op, Op::Param(_)) || op.any_parent(|p| self.nodes[p].needs_grad);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records `f` of every element of `a`.
    fn push_map(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let value = self.spare.map(&self.nodes[a.0].value, f);
        self.push(value, op)
    }

    /// Records `f` of the element pairs of the equally shaped `a` and `b`.
    fn push_zip(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let value = self
            .spare
            .zip(&self.nodes[a.0].value, &self.nodes[b.0].value, f);
        self.push(value, op)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Records a constant leaf.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Input)
    }

    /// Records a trainable leaf by copying the parameter's current value.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = self.spare.map(store.value(id), |v| v);
        self.push(value, Op::Param(id))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut value = self.spare.zeros(am.rows(), bm.cols());
        am.matmul_acc_with(Weights::scan(bm), &mut value, self.par);
        self.push(value, Op::MatMul(a.0, b.0))
    }

    /// `a + bias` where `bias` is a `1 x m` row broadcast over `a`'s rows.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[bias.0].value);
        assert_eq!(bm.rows(), 1, "add_row bias must be a row vector");
        assert_eq!(am.cols(), bm.cols(), "add_row width mismatch");
        let mut value = self.spare.map(am, |v| v);
        add_bias(&mut value, bm);
        self.push(value, Op::AddRow(a.0, bias.0))
    }

    /// `x @ w + bias` in one node, `bias` a `1 x m` row added to every row
    /// after the product: the bits of [`Tape::matmul`] then
    /// [`Tape::add_row`].
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        self.linear_blocks(x, w, bias, 1)
    }

    /// [`Tape::linear`] over `x` stacked from `blocks` equal row blocks: `w`
    /// gets the sum of one `t_matmul` per block and `bias` the sum of one
    /// column sum per block, last block first.
    pub fn linear_blocks(&mut self, x: Var, w: Var, bias: Var, blocks: usize) -> Var {
        let (xm, wm) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        assert_row_blocks(xm, blocks);
        let mut value = self.spare.zeros(xm.rows(), wm.cols());
        xm.matmul_acc_with(Weights::scan(wm), &mut value, self.par);
        add_bias(&mut value, &self.nodes[bias.0].value);
        self.push(value, Op::Linear(x.0, w.0, bias.0, blocks))
    }

    /// `[p₀ | p₁ | … | e_i] · w + bias` for every row `i` of `e` and every
    /// row `r` of the equally tall `parts`, stacked block-major: row `i·n + r`
    /// of the result pairs row `r` of the parts with `e_i`. `w` has one row
    /// per part column, then one per `e` column; `bias` is `1 x m`.
    ///
    /// The parts' rows are multiplied once: each part adds its product into
    /// a shared `n`-row partial, in order, and every `(i, r)` accumulator
    /// then continues from partial row `r` through `e_i · w[e rows]`. Each
    /// output element therefore sees the terms of the concatenated row in
    /// ascending order from `+0.0`, the bits of a [`Tape::linear`] on the
    /// concatenation (see [`Matrix::matmul_acc_with`]).
    ///
    /// Backward gives `w` the sum of one `t_matmul` of the concatenated
    /// block `i` per block and `bias` the sum of one column sum per block,
    /// last block first; each part that needs a gradient the same block sum
    /// of its columns of `g · wᵀ`; and row `i` of `e` the column sums of
    /// block `i` of its columns of `g · wᵀ`. Columns of `g · wᵀ` that belong
    /// to parts before the first one needing a gradient are never computed.
    pub fn pair_linear(&mut self, parts: &[Var], e: Var, w: Var, bias: Var) -> Var {
        assert!(!parts.is_empty(), "pair_linear needs a part");
        let (em, wm) = (&self.nodes[e.0].value, &self.nodes[w.0].value);
        let n = self.nodes[parts[0].0].value.rows();
        let mut rest = Weights::scan(wm);
        let mut partial = self.spare.zeros(n, wm.cols());
        let mut offsets = Vec::with_capacity(parts.len());
        for p in parts {
            let pm = &self.nodes[p.0].value;
            assert_eq!(pm.rows(), n, "pair_linear parts differ in height");
            offsets.push((p.0, wm.rows() - rest.rows()));
            let (wp, tail) = rest.split_rows(pm.cols());
            pm.matmul_acc_with(wp, &mut partial, self.par);
            rest = tail;
        }
        assert_eq!(
            rest.rows(),
            em.cols(),
            "pair_linear: w has no row per e column"
        );
        let blocks = em.rows();
        assert!(blocks > 0, "pair_linear needs a row of e");
        let mut e_rows = self.spare.zeros(blocks * n, em.cols());
        let mut value = self.spare.zeros(blocks * n, wm.cols());
        for i in 0..blocks {
            for r in 0..n {
                e_rows.row_mut(i * n + r).copy_from_slice(em.row(i));
                value.row_mut(i * n + r).copy_from_slice(partial.row(r));
            }
        }
        e_rows.matmul_acc_with(rest, &mut value, self.par);
        add_bias(&mut value, &self.nodes[bias.0].value);
        self.spare.put(e_rows);
        self.spare.put(partial);
        self.push(value, Op::PairLinear(offsets, e.0, w.0, bias.0))
    }

    /// Row `r`, column `i` of the result is `z[i·n + r] · w[i] + bias[i]`:
    /// block `i` of the block-major `z` dotted with row `i` of `w`, summed
    /// from `+0.0` in ascending column order, then the bias added. `w` is
    /// `blocks × m`, `bias` is `1 × blocks`, the result `n × blocks`.
    pub fn block_dot(&mut self, z: Var, w: Var, bias: Var) -> Var {
        let (zm, wm, bm) = (
            &self.nodes[z.0].value,
            &self.nodes[w.0].value,
            &self.nodes[bias.0].value,
        );
        let blocks = wm.rows();
        assert_eq!(
            bm.shape(),
            (1, blocks),
            "block_dot needs one bias per block"
        );
        assert_eq!(zm.cols(), wm.cols(), "block_dot width mismatch");
        assert_row_blocks(zm, blocks);
        let n = zm.rows() / blocks;
        let mut value = self.spare.zeros(n, blocks);
        for r in 0..n {
            for (i, v) in value.row_mut(r).iter_mut().enumerate() {
                let mut acc = 0.0;
                for (zv, wv) in zm.row(i * n + r).iter().zip(wm.row(i)) {
                    acc += zv * wv;
                }
                *v = acc + bm.get(0, i);
            }
        }
        self.push(value, Op::BlockDot(z.0, w.0, bias.0))
    }

    /// Splits `a`'s columns into consecutive `width`-wide blocks and stacks
    /// them block-major: `n × (k·width)` becomes `(k·n) × width`, row
    /// `i·n + r` holding columns `i·width..(i+1)·width` of row `r`.
    pub fn stack_col_blocks(&mut self, a: Var, width: usize) -> Var {
        let am = &self.nodes[a.0].value;
        assert!(
            width > 0 && am.cols().is_multiple_of(width),
            "stack_col_blocks: width {width} does not divide {} columns",
            am.cols()
        );
        let (n, k) = (am.rows(), am.cols() / width);
        let mut value = self.spare.zeros(k * n, width);
        for i in 0..k {
            for r in 0..n {
                let src = &am.row(r)[i * width..(i + 1) * width];
                value.row_mut(i * n + r).copy_from_slice(src);
            }
        }
        self.push(value, Op::StackColBlocks(a.0, width))
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.push_zip(a, b, Op::Add(a.0, b.0), |x, y| x + y)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.push_zip(a, b, Op::Sub(a.0, b.0), |x, y| x - y)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.push_zip(a, b, Op::Mul(a.0, b.0), |x, y| x * y)
    }

    /// `a ⊙ r` with `r` a `1 x m` row broadcast over rows.
    pub fn mul_row(&mut self, a: Var, r: Var) -> Var {
        let (am, rm) = (&self.nodes[a.0].value, &self.nodes[r.0].value);
        assert_eq!(rm.rows(), 1, "mul_row weight must be a row vector");
        assert_eq!(am.cols(), rm.cols(), "mul_row width mismatch");
        let mut value = self.spare.map(am, |v| v);
        for i in 0..value.rows() {
            let row = value.row_mut(i);
            for (v, &w) in row.iter_mut().zip(rm.row(0)) {
                *v *= w;
            }
        }
        self.push(value, Op::MulRow(a.0, r.0))
    }

    /// `a ⊙ c` with `c` an `n x 1` column broadcast over columns.
    pub fn mul_col(&mut self, a: Var, c: Var) -> Var {
        let (am, cm) = (&self.nodes[a.0].value, &self.nodes[c.0].value);
        assert_eq!(cm.cols(), 1, "mul_col weight must be a column vector");
        assert_eq!(am.rows(), cm.rows(), "mul_col height mismatch");
        let mut value = self.spare.map(am, |v| v);
        for i in 0..value.rows() {
            let w = cm.get(i, 0);
            for v in value.row_mut(i) {
                *v *= w;
            }
        }
        self.push(value, Op::MulCol(a.0, c.0))
    }

    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        self.push_map(a, Op::Scale(a.0, k), |x| k * x)
    }

    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        self.push_map(a, Op::AddScalar(a.0), |x| x + k)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Relu(a.0), |x| x.max(0.0))
    }

    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        self.push_map(a, Op::Elu(a.0, alpha), |x| {
            if x > 0.0 {
                x
            } else {
                alpha * (x.exp() - 1.0)
            }
        })
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Sigmoid(a.0), stable_sigmoid)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Tanh(a.0), f32::tanh)
    }

    /// `softplus(x) = ln(1 + e^x)` — smooth non-negative reparameterization,
    /// used by the monotone baseline's weight constraints.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Softplus(a.0), stable_softplus)
    }

    pub fn exp(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Exp(a.0), |x| x.clamp(-30.0, 30.0).exp())
    }

    pub fn ln1p(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Ln1p(a.0), |x| x.max(-0.999_999).ln_1p())
    }

    pub fn ln_eps(&mut self, a: Var, eps: f32) -> Var {
        self.push_map(a, Op::LnEps(a.0, eps), |x| (x + eps).ln())
    }

    pub fn square(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Square(a.0), |x| x * x)
    }

    /// Element-wise reciprocal `1/x`. Inputs must be bounded away from zero
    /// (e.g. softmax denominators, which are ≥ 1 term of `exp`).
    pub fn recip(&mut self, a: Var) -> Var {
        self.push_map(a, Op::Recip(a.0), |x| 1.0 / x)
    }

    /// Row sums as an `n x 1` column vector.
    pub fn row_sums(&mut self, a: Var) -> Var {
        let src = &self.nodes[a.0].value;
        let mut value = self.spare.zeros(src.rows(), 1);
        for r in 0..src.rows() {
            value.set(r, 0, src.row(r).iter().sum());
        }
        self.push(value, Op::RowSums(a.0))
    }

    /// Sum of all elements as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.sum()]);
        self.push(value, Op::SumAll(a.0))
    }

    /// Mean of all elements as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.mean()]);
        self.push(value, Op::MeanAll(a.0))
    }

    /// Horizontal concatenation of equally-tall matrices.
    pub fn hconcat(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let rows = self.nodes[parts[0].0].value.rows();
        let mut parents = Vec::with_capacity(parts.len());
        let mut cols = 0;
        for v in parts {
            let m = &self.nodes[v.0].value;
            assert_eq!(m.rows(), rows, "hconcat row mismatch");
            parents.push((v.0, cols));
            cols += m.cols();
        }
        let mut value = self.spare.zeros(rows, cols);
        for &(p, at) in &parents {
            let m = &self.nodes[p].value;
            for r in 0..rows {
                value.row_mut(r)[at..at + m.cols()].copy_from_slice(m.row(r));
            }
        }
        self.push(value, Op::HConcat(parents))
    }

    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start <= end && end <= src.cols(), "slice_cols out of range");
        let mut value = self.spare.zeros(src.rows(), end - start);
        for r in 0..src.rows() {
            value.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
        }
        self.push(value, Op::SliceCols(a.0, start, end))
    }

    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start <= end && end <= src.rows(), "slice_rows out of range");
        let mut value = self.spare.zeros(end - start, src.cols());
        for r in start..end {
            value.row_mut(r - start).copy_from_slice(src.row(r));
        }
        self.push(value, Op::SliceRows(a.0, start, end))
    }

    /// Replicates a `1 x m` row vector into an `n x m` matrix.
    pub fn broadcast_row(&mut self, a: Var, n: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert_eq!(src.rows(), 1, "broadcast_row needs a row vector");
        let mut value = self.spare.zeros(n, src.cols());
        for r in 0..n {
            value.row_mut(r).copy_from_slice(src.row(0));
        }
        self.push(value, Op::BroadcastRow(a.0))
    }

    /// Adds `delta` into node `idx`'s gradient; a merged delta's buffer is
    /// kept for reuse.
    fn accumulate(&mut self, idx: usize, delta: Matrix) {
        match &mut self.nodes[idx].grad {
            Some(g) => {
                g.axpy(1.0, &delta);
                self.spare.put(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Back-propagates from a scalar `loss` node, writing parameter gradients
    /// into `store`. The tape can be dropped afterwards; gradients persist in
    /// the store until `zero_grads`. No delta is computed toward a node that
    /// cannot reach a parameter.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "loss must be scalar"
        );
        if !self.nodes[loss.0].needs_grad {
            return;
        }
        self.nodes[loss.0].grad = Some(Matrix::full(1, 1, 1.0));
        let par = self.par;

        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            let need = |p: usize| self.nodes[p].needs_grad;
            let spare = &mut self.spare;
            // Deltas are computed with immutable borrows, then accumulated.
            // An arm that does not hand `grad` on as a delta puts it back.
            let mut deltas: Vec<(usize, Matrix)> = Vec::new();
            match &self.nodes[i].op {
                Op::Input => spare.put(grad),
                Op::Param(id) => {
                    store.accumulate_grad(*id, &grad);
                    spare.put(grad);
                }
                Op::MatMul(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    if need(*a) {
                        let mut da = spare.zeros(grad.rows(), bv.rows());
                        grad.matmul_t_into(bv, &mut da, par);
                        deltas.push((*a, da));
                    }
                    if need(*b) {
                        deltas.push((*b, av.t_matmul_with(&grad, par)));
                    }
                    spare.put(grad);
                }
                Op::AddRow(a, b) => {
                    if need(*b) {
                        deltas.push((*b, grad.col_sums()));
                    }
                    if need(*a) {
                        deltas.push((*a, grad));
                    } else {
                        spare.put(grad);
                    }
                }
                Op::Linear(x, w, b, blocks) => {
                    let (xv, wv) = (&self.nodes[*x].value, &self.nodes[*w].value);
                    let rows = grad.rows() / blocks;
                    if need(*b) {
                        let db = sum_blocks_last_first(*blocks, |k| {
                            grad.col_sums_of(k * rows..(k + 1) * rows)
                        });
                        deltas.push((*b, db));
                    }
                    if need(*x) {
                        let mut dx = spare.zeros(grad.rows(), wv.rows());
                        grad.matmul_t_into(wv, &mut dx, par);
                        deltas.push((*x, dx));
                    }
                    if need(*w) {
                        let dw = sum_blocks_last_first(*blocks, |k| {
                            let block = k * rows..(k + 1) * rows;
                            let (xb, gb) = (xv.row_range(block.clone()), grad.row_range(block));
                            t_matmul_slices(xb, xv.cols(), gb, grad.cols(), par)
                        });
                        deltas.push((*w, dw));
                    }
                    spare.put(grad);
                }
                Op::PairLinear(parts, e, w, b) => {
                    let (em, wm) = (&self.nodes[*e].value, &self.nodes[*w].value);
                    let blocks = em.rows();
                    let n = grad.rows() / blocks;
                    let e_at = wm.rows() - em.cols();
                    let block = |k: usize| grad.row_range(k * n..(k + 1) * n);
                    if need(*b) {
                        let db =
                            sum_blocks_last_first(blocks, |k| grad.col_sums_of(k * n..(k + 1) * n));
                        deltas.push((*b, db));
                    }
                    if need(*w) {
                        // Block k's left operand is `[parts | e_k]`: the
                        // parts are copied once, the e columns per block.
                        let mut cat = spare.zeros(n, wm.rows());
                        for &(p, at) in parts {
                            let pm = &self.nodes[p].value;
                            for r in 0..n {
                                cat.row_mut(r)[at..at + pm.cols()].copy_from_slice(pm.row(r));
                            }
                        }
                        let dw = sum_blocks_last_first(blocks, |k| {
                            for r in 0..n {
                                cat.row_mut(r)[e_at..].copy_from_slice(em.row(k));
                            }
                            t_matmul_slices(cat.as_slice(), cat.cols(), block(k), grad.cols(), par)
                        });
                        spare.put(cat);
                        deltas.push((*w, dw));
                    }
                    // `g · wᵀ`, over w's rows from the first input that
                    // needs a delta on.
                    let first = parts
                        .iter()
                        .find(|&&(p, _)| need(p))
                        .map(|&(_, at)| at)
                        .or(need(*e).then_some(e_at));
                    if let Some(first) = first {
                        let w_tail = wm.row_range(first..wm.rows()).to_vec();
                        let w_tail = Matrix::from_vec(wm.rows() - first, wm.cols(), w_tail);
                        let mut gx = spare.zeros(grad.rows(), w_tail.rows());
                        grad.matmul_t_into(&w_tail, &mut gx, par);
                        for &(p, at) in parts.iter().filter(|&&(p, _)| need(p)) {
                            let (c0, cols) = (at - first, self.nodes[p].value.cols());
                            let dp = sum_blocks_last_first(blocks, |k| {
                                Matrix::from_fn(n, cols, |r, c| gx.get(k * n + r, c0 + c))
                            });
                            deltas.push((p, dp));
                        }
                        if need(*e) {
                            let mut de = Matrix::zeros(blocks, em.cols());
                            for k in 0..blocks {
                                let sums = gx.col_sums_of(k * n..(k + 1) * n);
                                de.row_mut(k).copy_from_slice(&sums.row(0)[e_at - first..]);
                            }
                            deltas.push((*e, de));
                        }
                        spare.put(gx);
                    }
                    spare.put(grad);
                }
                Op::BlockDot(z, w, b) => {
                    let (zm, wm) = (&self.nodes[*z].value, &self.nodes[*w].value);
                    let n = grad.rows();
                    if need(*z) {
                        let mut dz = spare.zeros(zm.rows(), zm.cols());
                        for row in 0..zm.rows() {
                            let (k, g) = (row / n, grad.get(row % n, row / n));
                            for (d, &wv) in dz.row_mut(row).iter_mut().zip(wm.row(k)) {
                                *d = g * wv;
                            }
                        }
                        deltas.push((*z, dz));
                    }
                    if need(*w) {
                        let mut dw = Matrix::zeros(wm.rows(), wm.cols());
                        for k in 0..wm.rows() {
                            let dw_k = dw.row_mut(k);
                            for r in 0..n {
                                let g = grad.get(r, k);
                                for (o, &zv) in dw_k.iter_mut().zip(zm.row(k * n + r)) {
                                    *o += g * zv;
                                }
                            }
                        }
                        deltas.push((*w, dw));
                    }
                    if need(*b) {
                        deltas.push((*b, grad.col_sums()));
                    }
                    spare.put(grad);
                }
                Op::StackColBlocks(a, width) => {
                    let src = &self.nodes[*a].value;
                    let n = src.rows();
                    let mut da = spare.zeros(n, src.cols());
                    for row in 0..grad.rows() {
                        let at = (row / n) * width;
                        da.row_mut(row % n)[at..at + width].copy_from_slice(grad.row(row));
                    }
                    deltas.push((*a, da));
                    spare.put(grad);
                }
                Op::Add(a, b) => {
                    if need(*a) {
                        deltas.push((*a, spare.map(&grad, |g| g)));
                    }
                    if need(*b) {
                        deltas.push((*b, grad));
                    } else {
                        spare.put(grad);
                    }
                }
                Op::Sub(a, b) => {
                    let db = need(*b).then(|| spare.map(&grad, |g| -g));
                    if need(*a) {
                        deltas.push((*a, grad));
                    } else {
                        spare.put(grad);
                    }
                    deltas.extend(db.map(|d| (*b, d)));
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    let db = need(*b).then(|| spare.zip(&grad, av, |g, x| g * x));
                    if need(*a) {
                        deltas.push((*a, zip_into(grad, bv, |g, y| g * y)));
                    } else {
                        spare.put(grad);
                    }
                    deltas.extend(db.map(|d| (*b, d)));
                }
                Op::MulRow(a, r) => {
                    let (av, rv) = (&self.nodes[*a].value, &self.nodes[*r].value);
                    // Σ_rows g ⊙ a, each column summed from +0.0 in row order.
                    let dr = need(*r).then(|| {
                        let mut dr = Matrix::zeros(1, grad.cols());
                        for row in 0..grad.rows() {
                            let (g, x) = (grad.row(row), av.row(row));
                            for ((o, &g), &x) in dr.row_mut(0).iter_mut().zip(g).zip(x) {
                                *o += g * x;
                            }
                        }
                        dr
                    });
                    if need(*a) {
                        let mut da = grad;
                        for i in 0..da.rows() {
                            for (v, &w) in da.row_mut(i).iter_mut().zip(rv.row(0)) {
                                *v *= w;
                            }
                        }
                        deltas.push((*a, da));
                    } else {
                        spare.put(grad);
                    }
                    deltas.extend(dr.map(|d| (*r, d)));
                }
                Op::MulCol(a, c) => {
                    let (av, cv) = (&self.nodes[*a].value, &self.nodes[*c].value);
                    let dc = need(*c).then(|| {
                        Matrix::from_fn(cv.rows(), 1, |i, _| {
                            let mut acc = 0.0;
                            for (&g, &x) in grad.row(i).iter().zip(av.row(i)) {
                                acc += g * x;
                            }
                            acc
                        })
                    });
                    if need(*a) {
                        let mut da = grad;
                        for i in 0..da.rows() {
                            let w = cv.get(i, 0);
                            da.row_mut(i).iter_mut().for_each(|v| *v *= w);
                        }
                        deltas.push((*a, da));
                    } else {
                        spare.put(grad);
                    }
                    deltas.extend(dc.map(|d| (*c, d)));
                }
                Op::Scale(a, k) => {
                    let k = *k;
                    deltas.push((*a, map_into(grad, |g| g * k)));
                }
                Op::AddScalar(a) => deltas.push((*a, grad)),
                Op::Relu(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((
                        *a,
                        zip_into(grad, out, |g, y| if y > 0.0 { g } else { 0.0 }),
                    ));
                }
                Op::Elu(a, alpha) => {
                    let out = &self.nodes[i].value;
                    let al = *alpha;
                    deltas.push((
                        *a,
                        zip_into(
                            grad,
                            out,
                            move |g, y| if y > 0.0 { g } else { g * (y + al) },
                        ),
                    ));
                }
                Op::Sigmoid(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, zip_into(grad, out, |g, y| g * y * (1.0 - y))));
                }
                Op::Tanh(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, zip_into(grad, out, |g, y| g * (1.0 - y * y))));
                }
                Op::Softplus(a) => {
                    let inp = &self.nodes[*a].value;
                    deltas.push((*a, zip_into(grad, inp, |g, x| g * stable_sigmoid(x))));
                }
                Op::Exp(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, zip_into(grad, out, |g, y| g * y)));
                }
                Op::Ln1p(a) => {
                    let inp = &self.nodes[*a].value;
                    deltas.push((
                        *a,
                        zip_into(grad, inp, |g, x| g / (1.0 + x.max(-0.999_999))),
                    ));
                }
                Op::LnEps(a, eps) => {
                    let inp = &self.nodes[*a].value;
                    let e = *eps;
                    deltas.push((*a, zip_into(grad, inp, move |g, x| g / (x + e))));
                }
                Op::Square(a) => {
                    let inp = &self.nodes[*a].value;
                    deltas.push((*a, zip_into(grad, inp, |g, x| 2.0 * g * x)));
                }
                Op::Recip(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, zip_into(grad, out, |g, y| -g * y * y)));
                }
                Op::RowSums(a) => {
                    let src = &self.nodes[*a].value;
                    let mut da = spare.zeros(src.rows(), src.cols());
                    for r in 0..src.rows() {
                        let g = grad.get(r, 0);
                        da.row_mut(r).iter_mut().for_each(|v| *v = g);
                    }
                    deltas.push((*a, da));
                    spare.put(grad);
                }
                Op::SumAll(a) => {
                    let src = &self.nodes[*a].value;
                    let g = grad.get(0, 0);
                    deltas.push((*a, spare.map(src, |_| g)));
                }
                Op::MeanAll(a) => {
                    let src = &self.nodes[*a].value;
                    let g = grad.get(0, 0) / src.len().max(1) as f32;
                    deltas.push((*a, spare.map(src, |_| g)));
                }
                Op::HConcat(parents) => {
                    for &(p, off) in parents.iter().filter(|&&(p, _)| need(p)) {
                        let w = self.nodes[p].value.cols();
                        let mut dp = spare.zeros(grad.rows(), w);
                        for r in 0..grad.rows() {
                            dp.row_mut(r).copy_from_slice(&grad.row(r)[off..off + w]);
                        }
                        deltas.push((p, dp));
                    }
                    spare.put(grad);
                }
                Op::SliceCols(a, start, end) => {
                    let src = &self.nodes[*a].value;
                    let mut da = spare.zeros(src.rows(), src.cols());
                    for r in 0..grad.rows() {
                        da.row_mut(r)[*start..*end].copy_from_slice(grad.row(r));
                    }
                    deltas.push((*a, da));
                    spare.put(grad);
                }
                Op::SliceRows(a, start, end) => {
                    let src = &self.nodes[*a].value;
                    let mut da = spare.zeros(src.rows(), src.cols());
                    for r in *start..*end {
                        da.row_mut(r).copy_from_slice(grad.row(r - start));
                    }
                    deltas.push((*a, da));
                    spare.put(grad);
                }
                Op::BroadcastRow(a) => {
                    deltas.push((*a, grad.col_sums()));
                    spare.put(grad);
                }
            }
            for (p, d) in deltas {
                self.accumulate(p, d);
            }
        }
    }
}

/// Adds the `1 x m` row `bias` to every row of `m`.
fn add_bias(m: &mut Matrix, bias: &Matrix) {
    assert_eq!(
        bias.shape(),
        (1, m.cols()),
        "bias must be a 1 x {} row",
        m.cols()
    );
    for r in 0..m.rows() {
        for (v, &b) in m.row_mut(r).iter_mut().zip(bias.row(0)) {
            *v += b;
        }
    }
}

/// Asserts that `m`'s rows split into `blocks` equal blocks.
fn assert_row_blocks(m: &Matrix, blocks: usize) {
    assert!(
        blocks > 0 && m.rows().is_multiple_of(blocks),
        "{} rows do not split into {blocks} equal blocks",
        m.rows()
    );
}

/// `f(blocks − 1) + … + f(0)`, added in that order, last block first.
fn sum_blocks_last_first(blocks: usize, mut f: impl FnMut(usize) -> Matrix) -> Matrix {
    let mut acc = f(blocks - 1);
    for k in (0..blocks - 1).rev() {
        acc.axpy(1.0, &f(k));
    }
    acc
}

#[inline]
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[inline]
fn stable_softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    /// Central finite-difference gradient of `f` w.r.t. the single parameter.
    fn numeric_grad(store: &mut ParamStore, id: ParamId, f: &dyn Fn(&ParamStore) -> f32) -> Matrix {
        let eps = 1e-3;
        let shape = store.value(id).shape();
        let mut out = Matrix::zeros(shape.0, shape.1);
        for r in 0..shape.0 {
            for c in 0..shape.1 {
                let orig = store.value(id).get(r, c);
                store.value_mut(id).set(r, c, orig + eps);
                let hi = f(store);
                store.value_mut(id).set(r, c, orig - eps);
                let lo = f(store);
                store.value_mut(id).set(r, c, orig);
                out.set(r, c, (hi - lo) / (2.0 * eps));
            }
        }
        out
    }

    fn check_unary(name: &str, apply: impl Fn(&mut Tape, Var) -> Var) {
        let mut rng = rng::seeded(11);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(2, 3, |_, _| rng.gen_range(0.05..0.9)));

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let p = t.param(store, w);
            let y = apply(&mut t, p);
            let l = t.mean_all(y);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let p = t.param(&store, w);
        let y = apply(&mut t, p);
        let l = t.mean_all(y);
        t.backward(l, &mut store);
        let analytic = store.grad(w).clone();
        let numeric = numeric_grad(&mut store, w, &run);
        let diff = analytic.max_abs_diff(&numeric);
        assert!(
            diff < 2e-2,
            "{name}: analytic vs numeric gradient diff {diff}"
        );
    }

    #[test]
    fn unary_op_gradients_match_finite_differences() {
        check_unary("relu", |t, v| t.relu(v));
        check_unary("elu", |t, v| t.elu(v, 1.0));
        check_unary("sigmoid", |t, v| t.sigmoid(v));
        check_unary("tanh", |t, v| t.tanh(v));
        check_unary("softplus", |t, v| t.softplus(v));
        check_unary("exp", |t, v| t.exp(v));
        check_unary("ln1p", |t, v| t.ln1p(v));
        check_unary("ln_eps", |t, v| t.ln_eps(v, 1e-3));
        check_unary("square", |t, v| t.square(v));
        check_unary("recip", |t, v| t.recip(v));
        check_unary("row_sums", |t, v| t.row_sums(v));
        check_unary("scale", |t, v| t.scale(v, -2.5));
        check_unary("add_scalar", |t, v| t.add_scalar(v, 0.7));
        check_unary("slice", |t, v| t.slice_cols(v, 1, 3));
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let mut rng = rng::seeded(5);
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::from_fn(2, 3, |_, _| rng.gen_range(-1.0..1.0)));
        let b = store.register("b", Matrix::from_fn(3, 4, |_, _| rng.gen_range(-1.0..1.0)));

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let av = t.param(store, a);
            let bv = t.param(store, b);
            let y = t.matmul(av, bv);
            let sq = t.square(y);
            let l = t.mean_all(sq);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let y = t.matmul(av, bv);
        let sq = t.square(y);
        let l = t.mean_all(sq);
        t.backward(l, &mut store);
        let ga = store.grad(a).clone();
        let gb = store.grad(b).clone();

        store.zero_grads();
        let na = numeric_grad(&mut store, a, &run);
        let nb = numeric_grad(&mut store, b, &run);
        assert!(ga.max_abs_diff(&na) < 2e-2);
        assert!(gb.max_abs_diff(&nb) < 2e-2);
    }

    #[test]
    fn composite_graph_gradients_match() {
        // A realistic mini-model: hconcat, broadcast, add_row, relu, mul_row.
        let mut rng = rng::seeded(9);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(5, 2, |_, _| rng.gen_range(-0.5..0.5)));
        let bias = store.register("b", Matrix::from_fn(1, 2, |_, _| rng.gen_range(-0.5..0.5)));
        let e = store.register("e", Matrix::from_fn(1, 2, |_, _| rng.gen_range(-0.5..0.5)));
        let x = Matrix::from_fn(4, 3, |_, _| rng.gen_range(0.0..1.0));
        let weights = Matrix::row_vector(vec![0.25, 0.75]);

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let ev = t.param(store, e);
            let eb = t.broadcast_row(ev, 4);
            let cat = t.hconcat(&[xv, eb]);
            let wv = t.param(store, w);
            let bv = t.param(store, bias);
            let h = t.matmul(cat, wv);
            let h = t.add_row(h, bv);
            let h = t.relu(h);
            let wts = t.input(weights.clone());
            let h = t.mul_row(h, wts);
            let l = t.sum_all(h);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let xv = t.input(x.clone());
        let ev = t.param(&store, e);
        let eb = t.broadcast_row(ev, 4);
        let cat = t.hconcat(&[xv, eb]);
        let wv = t.param(&store, w);
        let bv = t.param(&store, bias);
        let h = t.matmul(cat, wv);
        let h = t.add_row(h, bv);
        let h = t.relu(h);
        let wts = t.input(weights.clone());
        let h = t.mul_row(h, wts);
        let l = t.sum_all(h);
        t.backward(l, &mut store);

        for id in [w, bias, e] {
            let analytic = store.grad(id).clone();
            let numeric = numeric_grad(&mut store, id, &run);
            let diff = analytic.max_abs_diff(&numeric);
            assert!(diff < 3e-2, "param {}: diff {diff}", store.name(id));
        }
    }

    #[test]
    fn grad_accumulates_when_param_used_twice() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 2.0));
        let mut t = Tape::new();
        let a = t.param(&store, w);
        let b = t.param(&store, w);
        let y = t.mul(a, b); // y = w^2, dy/dw = 2w = 4
        let l = t.sum_all(y);
        t.backward(l, &mut store);
        assert!((store.grad(w).get(0, 0) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn mul_col_gradient_matches() {
        let mut rng = rng::seeded(3);
        let mut store = ParamStore::new();
        let c = store.register("c", Matrix::from_fn(3, 1, |_, _| rng.gen_range(0.1..1.0)));
        let x = Matrix::from_fn(3, 2, |_, _| rng.gen_range(-1.0..1.0));

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let cv = t.param(store, c);
            let y = t.mul_col(xv, cv);
            let sq = t.square(y);
            let l = t.sum_all(sq);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let xv = t.input(x.clone());
        let cv = t.param(&store, c);
        let y = t.mul_col(xv, cv);
        let sq = t.square(y);
        let l = t.sum_all(sq);
        t.backward(l, &mut store);
        let analytic = store.grad(c).clone();
        let numeric = numeric_grad(&mut store, c, &run);
        assert!(analytic.max_abs_diff(&numeric) < 2e-2);
    }

    #[test]
    fn slice_rows_and_vstack_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32));
        let mut t = Tape::new();
        let p = t.param(&store, w);
        let top = t.slice_rows(p, 0, 1);
        let l = t.sum_all(top);
        t.backward(l, &mut store);
        // Only the first row receives gradient.
        assert_eq!(store.grad(w).row(0), &[1.0, 1.0]);
        assert_eq!(store.grad(w).row(1), &[0.0, 0.0]);
    }

    /// Checks the analytic gradient of every listed parameter of `build`'s
    /// scalar loss against central finite differences.
    fn check_params(
        name: &str,
        store: &mut ParamStore,
        ids: &[ParamId],
        build: impl Fn(&mut Tape, &ParamStore) -> Var,
    ) {
        let run = |s: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let l = build(&mut t, s);
            t.value(l).get(0, 0)
        };
        store.zero_grads();
        let mut t = Tape::new();
        let l = build(&mut t, store);
        t.backward(l, store);
        for &id in ids {
            let analytic = store.grad(id).clone();
            let numeric = numeric_grad(store, id, &run);
            let diff = analytic.max_abs_diff(&numeric);
            assert!(diff < 3e-2, "{name}: param {}: diff {diff}", store.name(id));
        }
    }

    fn uniform(store: &mut ParamStore, name: &str, rows: usize, cols: usize, seed: u64) -> ParamId {
        let mut rng = rng::seeded(seed);
        store.register(
            name,
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0)),
        )
    }

    #[test]
    fn linear_gradients_match_with_and_without_blocks() {
        let mut store = ParamStore::new();
        let a = uniform(&mut store, "a", 6, 3, 21);
        let w = uniform(&mut store, "w", 3, 2, 22);
        let b = uniform(&mut store, "b", 1, 2, 23);
        for blocks in [1, 3] {
            check_params("linear", &mut store, &[a, w, b], |t, s| {
                let (av, wv, bv) = (t.param(s, a), t.param(s, w), t.param(s, b));
                let h = t.linear_blocks(av, wv, bv, blocks);
                let sq = t.square(h);
                t.mean_all(sq)
            });
        }
    }

    #[test]
    fn linear_is_matmul_then_add_row_bit_for_bit() {
        let mut store = ParamStore::new();
        let a = uniform(&mut store, "a", 6, 5, 24);
        let w = uniform(&mut store, "w", 5, 4, 25);
        let b = uniform(&mut store, "b", 1, 4, 26);
        let run = |store: &mut ParamStore, fused: bool| {
            store.zero_grads();
            let mut t = Tape::new();
            let (av, wv, bv) = (t.param(store, a), t.param(store, w), t.param(store, b));
            let h = if fused {
                t.linear(av, wv, bv)
            } else {
                let m = t.matmul(av, wv);
                t.add_row(m, bv)
            };
            let h = t.elu(h, 1.0);
            let value = t.value(h).clone();
            let sq = t.square(h);
            let l = t.mean_all(sq);
            t.backward(l, store);
            let grads: Vec<Matrix> = [a, w, b].iter().map(|&id| store.grad(id).clone()).collect();
            (value, grads)
        };
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (v0, g0) = run(&mut store, false);
        let (v1, g1) = run(&mut store, true);
        assert_eq!(bits(&v0), bits(&v1));
        for (x, y) in g0.iter().zip(&g1) {
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn pair_linear_gradients_match_and_forward_is_the_concatenated_product() {
        let mut rng = rng::seeded(31);
        let x = Matrix::from_fn(3, 2, |_, _| f32::from(u8::from(rng.gen_bool(0.5))));
        let mut store = ParamStore::new();
        let lat = uniform(&mut store, "lat", 3, 2, 32);
        let e = uniform(&mut store, "e", 4, 2, 33);
        let w = uniform(&mut store, "w", 6, 3, 34);
        let b = uniform(&mut store, "b", 1, 3, 35);
        let build = |t: &mut Tape, s: &ParamStore| {
            let xv = t.input(x.clone());
            let (lv, ev, wv, bv) = (t.param(s, lat), t.param(s, e), t.param(s, w), t.param(s, b));
            t.pair_linear(&[xv, lv], ev, wv, bv)
        };
        check_params("pair_linear", &mut store, &[lat, e, w, b], |t, s| {
            let y = build(t, s);
            let sq = t.square(y);
            t.mean_all(sq)
        });
        // Row i·n + r is [x_r | lat_r | e_i] · w + b, to the bit.
        let mut t = Tape::new();
        let y = build(&mut t, &store);
        let (lm, em) = (store.value(lat), store.value(e));
        let cat = Matrix::from_fn(12, 6, |row, c| {
            let (i, r) = (row / 3, row % 3);
            match c {
                0..=1 => x.get(r, c),
                2..=3 => lm.get(r, c - 2),
                _ => em.get(i, c - 4),
            }
        });
        let mut want = cat.matmul(store.value(w));
        add_bias(&mut want, store.value(b));
        let got = t.value(y);
        assert!(want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn block_dot_gradients_match() {
        let mut store = ParamStore::new();
        let z = uniform(&mut store, "z", 12, 3, 41);
        let w = uniform(&mut store, "w", 4, 3, 42);
        let b = uniform(&mut store, "b", 1, 4, 43);
        check_params("block_dot", &mut store, &[z, w, b], |t, s| {
            let (zv, wv, bv) = (t.param(s, z), t.param(s, w), t.param(s, b));
            let y = t.block_dot(zv, wv, bv);
            let sq = t.square(y);
            t.mean_all(sq)
        });
    }

    #[test]
    fn stack_col_blocks_gradient_matches() {
        let mut store = ParamStore::new();
        let a = uniform(&mut store, "a", 3, 6, 51);
        let wts = Matrix::row_vector(vec![0.5, -2.0]);
        check_params("stack_col_blocks", &mut store, &[a], |t, s| {
            let av = t.param(s, a);
            let y = t.stack_col_blocks(av, 2);
            let y = t.square(y);
            let wv = t.input(wts.clone());
            let y = t.mul_row(y, wv);
            let y = t.row_sums(y);
            let y = t.square(y);
            t.sum_all(y)
        });
    }

    #[test]
    fn only_nodes_that_reach_a_param_need_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(2, 2, 0.5));
        let mut t = Tape::new();
        let x = t.input(Matrix::full(3, 2, 1.0));
        let tri = t.input(Matrix::full(2, 2, 1.0));
        let consts = t.matmul(x, tri);
        let wv = t.param(&store, w);
        let h = t.matmul(x, wv);
        let y = t.add(h, consts);
        let l = t.sum_all(y);
        let need = |v: Var| t.nodes[v.0].needs_grad;
        assert!(!need(x) && !need(tri) && !need(consts));
        assert!(need(wv) && need(h) && need(y) && need(l));
        t.backward(l, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[3.0; 4]);
        // A loss no parameter reaches back-propagates nothing.
        let c = t.sum_all(consts);
        t.backward(c, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[3.0; 4]);
    }

    #[test]
    fn reset_reuses_buffers_and_drops_unused_ones() {
        let mut store = ParamStore::new();
        let w = uniform(&mut store, "w", 8, 6, 61);
        let b = uniform(&mut store, "b", 1, 6, 62);
        let pass = |t: &mut Tape, store: &mut ParamStore| {
            let x = t.input(Matrix::full(40, 8, 0.5));
            let (wv, bv) = (t.param(store, w), t.param(store, b));
            let h = t.linear(x, wv, bv);
            let h = t.relu(h);
            let l = t.mean_all(h);
            t.backward(l, store);
            t.value(l).get(0, 0)
        };
        let held = |t: &Tape| t.spare.idle.len() + t.spare.ready.len();
        let mut t = Tape::new();
        let first = pass(&mut t, &mut store);
        t.reset(Parallelism::serial());
        let after_one = held(&t);
        assert!(after_one > 0);
        // The same pass again computes the same value from reused buffers,
        // and leaves no more behind.
        assert_eq!(pass(&mut t, &mut store).to_bits(), first.to_bits());
        t.reset(Parallelism::serial());
        assert!(held(&t) <= after_one);
        // A pass that uses none of them drops them all.
        t.reset(Parallelism::serial());
        assert_eq!(held(&t), 0);
    }
}
