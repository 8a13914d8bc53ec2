//! Cache-blocked and explicit-SIMD compute kernels, **bit-identical** to
//! the reference loops in [`crate::matrix`] by construction.
//!
//! Every model in this workspace funnels through three matrix products:
//! `matmul` (forward layers), `t_matmul` (weight gradients), and `matmul_t`
//! (input gradients). The scalar reference kernels accumulate each output
//! element as a running `f32` sum over the inner dimension in ascending
//! order, skipping `a == 0.0` terms only when the right-hand operand is
//! entirely finite (see [`crate::matrix::Matrix::matmul`]). The variants here
//! keep **exactly that per-element operation sequence**:
//!
//! * the *blocked* kernels tile the output into register accumulators
//!   (`MR × NR` micro-tiles for `matmul`, 4-wide dot products for
//!   `matmul_t`), which changes memory traffic but not the order in which any
//!   single output element receives its contributions; a sparse left operand
//!   (binary features, post-ReLU activations) and `t_matmul` take the
//!   reference's own saxpy order instead, whose zero skip drops whole rows
//!   of work;
//! * the *SIMD* kernels ([`KernelBackend::Simd`]) are one register tile
//!   per ISA, explicit `core::arch` AVX2 / AVX-512F intrinsics behind
//!   runtime feature detection, which all three products call. Vector
//!   **lanes are output columns**, never partial sums of one element: each
//!   lane accumulates its own output element with one `mul` + one `add` per
//!   ascending-`k` step, so no horizontal reduction exists to reorder — the
//!   per-element operation sequence is the scalar one, instruction for
//!   instruction (and the intrinsics never use FMA, whose single rounding
//!   would change bits). The tile reads a *strided* left operand (element
//!   `(i, t)` at `a[i·row_step + t·t_step]`), so it computes `A·B` and
//!   `t_matmul`'s `Aᵀ·B` without packing; `matmul_t`, whose scalar form is
//!   a dot product along `k`, packs `bᵀ` first so it too vectorizes across
//!   output columns. A few output rows × up to 96 columns (AVX-512) stay in
//!   registers across every term. The zero skip is a per-`(row, t)` lane
//!   mask rather than a branch: a skipped term's product is computed but
//!   its sum is not written back (AVX2 adds `-0.0` in its place), which is
//!   exact whatever `out` holds — adding the product itself would turn a
//!   `-0.0` in `out` into `+0.0`.
//!
//! Floating-point addition is deterministic for a fixed operand order, so
//! "same per-element order" ⇒ "same bits" — for finite values, signed zeros,
//! and NaN/∞ alike. The property tests in `tests/kernel_identity.rs` pin this
//! across backends (including non-finite inputs and the model's own shapes),
//! and `cardest-core`'s trainer tests pin the weights that training steps on
//! each backend produce.
//!
//! Every product runs on the calling thread. [`Parallelism`] is the config
//! the rest of the system plumbs through (trainer minibatches, CardNet batch
//! estimation, the serve worker pool): an optional pinned [`KernelBackend`].
//! Unpinned configs resolve the backend once per process: the
//! `CARDEST_KERNEL_BACKEND` env var (`blocked` | `simd` | `auto`) if set,
//! else the best the CPU supports.

use crate::matrix::{scan_finite, Matrix, Weights};
use std::sync::OnceLock;

/// Which compute-kernel implementation tier to run.
///
/// Both produce **bit-identical** outputs for every input — the choice is
/// purely a throughput decision, which is what makes it safe to resolve
/// from an env var or CPU detection at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Cache-blocked register micro-tiles relying on LLVM auto-vectorization:
    /// what a CPU without AVX2 runs.
    Blocked,
    /// Explicit AVX2 / AVX-512F tiles via `core::arch`, chosen by runtime
    /// feature detection. Falls back to [`KernelBackend::Blocked`] code on
    /// CPUs (or architectures) without AVX2 — selecting `Simd` is always
    /// safe.
    Simd,
}

/// The instruction-set tier the SIMD backend resolved to on this CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimdLevel {
    None,
    Avx2,
    Avx512,
}

fn simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f") {
                SimdLevel::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::None
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::None
}

impl KernelBackend {
    /// Whether this CPU has an explicit-SIMD path (AVX2 or better).
    pub fn simd_available() -> bool {
        simd_level() != SimdLevel::None
    }

    /// The best backend this CPU supports: [`KernelBackend::Simd`] when AVX2
    /// (or better) is detected, else [`KernelBackend::Blocked`].
    pub fn detect() -> KernelBackend {
        if KernelBackend::simd_available() {
            KernelBackend::Simd
        } else {
            KernelBackend::Blocked
        }
    }

    /// Parses a backend name: `blocked` | `simd` | `auto`
    /// (case-insensitive; `auto` resolves through [`KernelBackend::detect`]).
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "blocked" => Some(KernelBackend::Blocked),
            "simd" => Some(KernelBackend::Simd),
            "auto" => Some(KernelBackend::detect()),
            _ => None,
        }
    }

    /// The process-wide default for [`Parallelism`] configs that do not pin
    /// a backend: the `CARDEST_KERNEL_BACKEND` env var if set and valid
    /// (this is how CI forces the blocked tier a CPU without AVX2 runs,
    /// without touching any call site), else [`KernelBackend::detect`].
    /// Resolved once and cached.
    pub fn default_backend() -> KernelBackend {
        static DEFAULT: OnceLock<KernelBackend> = OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("CARDEST_KERNEL_BACKEND") {
            Ok(v) if !v.trim().is_empty() => KernelBackend::parse(&v).unwrap_or_else(|| {
                eprintln!(
                    "CARDEST_KERNEL_BACKEND=`{v}` not recognized \
                     (want blocked|simd|auto); using auto-detection"
                );
                KernelBackend::detect()
            }),
            _ => KernelBackend::detect(),
        })
    }

    /// Short stable name (CLI/bench/JSON vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Blocked => "blocked",
            KernelBackend::Simd => "simd",
        }
    }
}

/// Rows per register micro-tile in the blocked `matmul` and in the AVX-512
/// tile.
const MR: usize = 4;
/// Columns per register micro-tile in the blocked `matmul` (two 8-lane f32
/// vectors — fixed width so the inner loops vectorize).
const NR: usize = 16;

/// Which [`KernelBackend`] the compute kernels run: an optional pin.
///
/// The backend is `None` by default, meaning "resolve
/// [`KernelBackend::default_backend`] at dispatch" — pin one with
/// [`Parallelism::with_backend`]. Every backend is bit-identical, so the
/// pin is a throughput choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parallelism {
    /// Pinned kernel tier; `None` defers to the process-wide default.
    backend: Option<KernelBackend>,
}

impl Parallelism {
    /// No pinned backend (the default everywhere).
    pub const fn serial() -> Parallelism {
        Parallelism { backend: None }
    }

    /// Pins the kernel backend (builder form).
    pub const fn with_backend(mut self, backend: KernelBackend) -> Parallelism {
        self.backend = Some(backend);
        self
    }

    /// [`Parallelism::with_backend`] over an optional pin — the shape every
    /// config struct stores (`None` = resolve the process default).
    pub const fn with_backend_opt(mut self, backend: Option<KernelBackend>) -> Parallelism {
        if backend.is_some() {
            self.backend = backend;
        }
        self
    }

    /// The backend kernels will dispatch to: the pinned one, else the
    /// process-wide [`KernelBackend::default_backend`].
    pub fn backend(&self) -> KernelBackend {
        match self.backend {
            Some(b) => b,
            None => KernelBackend::default_backend(),
        }
    }

    /// The explicitly pinned backend, if any (config merging / display).
    pub fn pinned_backend(&self) -> Option<KernelBackend> {
        self.backend
    }

    /// Config merging (a per-call override vs. an estimator's own setting):
    /// a backend pinned on `self` wins over one pinned on `other`; either
    /// wins over "resolve the default".
    pub fn max(self, other: Parallelism) -> Parallelism {
        Parallelism {
            backend: self.backend.or(other.backend),
        }
    }
}

impl Matrix {
    /// `self @ other` through the kernel backend `par` selects.
    /// Bit-identical to [`Matrix::matmul`] for every input.
    ///
    /// `other` is a [`Weights`]: a `&Matrix` converts through
    /// [`Weights::scan`], so it is scanned for finiteness on every call,
    /// while [`crate::ParamStore::weights`] reuses the flag it scanned once
    /// for the parameter's current value.
    pub fn matmul_with<'b>(&self, other: impl Into<Weights<'b>>, par: Parallelism) -> Matrix {
        let other = other.into();
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_acc_with(other, &mut out, par);
        out
    }

    /// `acc += self @ b`, where `b` is `self.cols() × acc.cols()`: each
    /// output element continues from its current value in `acc` through
    /// ascending `k`, one `mul` and one `add` per term.
    ///
    /// A term `a · w` with `a == 0.0` is skipped when `b` is finite, the same
    /// rule as [`Matrix::matmul`]. The flag travels with `b`: decided once
    /// per parameter value when `b` comes from [`crate::ParamStore::weights`]
    /// (and dropped on every mutable access), by a scan when it comes from
    /// [`Weights::scan`]. Skipping is exact: a finite `w` makes the term
    /// `±0.0`, and adding `±0.0` leaves any accumulator that is not `-0.0`
    /// unchanged. An accumulator that starts at `+0.0` never becomes `-0.0`
    /// under `mul` + `add`. Only `0·NaN` and `0·∞` change a sum, and those
    /// come from this call's own `b`.
    ///
    /// So splitting the inner dimension into consecutive calls, `A₁ @ B₁`
    /// into a zeroed `acc` and then `A₂ @ B₂` into the same `acc` (the halves
    /// of [`Weights::split_rows`]), gives the bits of [`Matrix::matmul`] on
    /// `[A₁ | A₂] @ [B₁ ; B₂]`, whichever half holds a non-finite value.
    /// Bit-identical for any `par`.
    pub fn matmul_acc_with(&self, b: Weights<'_>, acc: &mut Matrix, par: Parallelism) {
        assert_eq!(
            (self.cols(), acc.rows(), acc.cols()),
            (b.rows(), self.rows(), b.cols()),
            "matmul_acc shape mismatch: {}x{} @ {}x{} into {}x{}",
            self.rows(),
            self.cols(),
            b.rows(),
            b.cols(),
            acc.rows(),
            acc.cols()
        );
        let skip_zeros = b.is_finite();
        let b = b.as_slice();
        let n = acc.cols();
        let k = self.cols();
        let (ad, out) = (self.as_slice(), acc.as_mut_slice());
        if par.backend() == KernelBackend::Simd
            && tile_simd(Strided::rows(ad, k), b, n, out, skip_zeros)
        {
            return;
        }
        // The blocked tier picks an order per call — both are
        // bit-identical, so this is purely a throughput decision: a sparse
        // left operand (binary features, post-ReLU activations) takes the
        // saxpy order, whose zero skip drops whole rows of work; a dense one
        // takes register tiles. The SIMD tile applies the skip as a lane
        // mask inside one order, so it never counts.
        let sparse_left = skip_zeros && {
            let nonzero = ad.iter().filter(|&&v| v != 0.0).count();
            4 * nonzero < 3 * ad.len().max(1)
        };
        if sparse_left {
            matmul_rows_saxpy(ad, k, b, n, out);
        } else {
            matmul_rows(ad, k, b, n, out, skip_zeros);
        }
    }

    /// `selfᵀ @ other` through the kernel backend `par` selects.
    /// Bit-identical to [`Matrix::t_matmul`] for every input.
    pub fn t_matmul_with(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(self.rows(), other.rows(), "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols(), other.cols());
        let (ad, k, bd, n) = (self.as_slice(), self.cols(), other.as_slice(), other.cols());
        t_matmul_slices(ad, k, bd, n, out.as_mut_slice(), par);
        out
    }

    /// `self @ otherᵀ` through the kernel backend `par` selects.
    /// Bit-identical to [`Matrix::matmul_t`] for every input.
    pub fn matmul_t_with(&self, other: &Matrix, par: Parallelism) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_t_into(other, &mut out, par);
        out
    }

    /// [`Matrix::matmul_t_with`] written into `out`, which must be
    /// `self.rows() × other.rows()` and hold zeros.
    pub(crate) fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix, par: Parallelism) {
        assert_eq!(self.cols(), other.cols(), "matmul_t shape mismatch");
        assert_eq!(
            out.shape(),
            (self.rows(), other.rows()),
            "matmul_t output shape"
        );
        let (ad, k, bd, n) = (self.as_slice(), self.cols(), other.as_slice(), other.rows());
        matmul_t_slices(ad, k, bd, n, out.as_mut_slice(), par);
    }
}

/// `a @ bᵀ` for row-major `a` (`rows × k`) and `b` (`n × k`) given as
/// slices, so a row range of a taller matrix needs no copy, written into
/// `out` (`rows × n`, holding zeros): the bits of [`Matrix::matmul_t_with`]
/// on them as matrices.
pub(crate) fn matmul_t_slices(
    ad: &[f32],
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    par: Parallelism,
) {
    let rows = out
        .len()
        .checked_div(n)
        .or(ad.len().checked_div(k))
        .unwrap_or(0);
    assert!(
        ad.len() == rows * k && out.len() == rows * n && bd.len() == n * k,
        "matmul_t shape mismatch"
    );
    // The scalar matmul_t is a dot product along `k` — vectorizing *that*
    // would need a horizontal reduction, which reorders the additions.
    // The SIMD path instead packs `bᵀ` once and runs the column-vectorized
    // tile over it: each lane owns one output element, accumulated in
    // ascending `k` exactly like the scalar dot product. The packing cost
    // is O(n·k) against an O(rows·n·k) product — and only worth paying when
    // a SIMD tile actually exists on this CPU; otherwise the Simd pin falls
    // straight through to the direct blocked t-kernel.
    if par.backend() == KernelBackend::Simd && KernelBackend::simd_available() && n > 0 && k > 0 {
        let mut bt = vec![0.0; k * n];
        for (t, bt_row) in bt.chunks_exact_mut(n).enumerate() {
            for (o, b_row) in bt_row.iter_mut().zip(bd.chunks_exact(k)) {
                *o = b_row[t];
            }
        }
        // Dense (no zero skip): the reference matmul_t never skips.
        if tile_simd(Strided::rows(ad, k), &bt, n, out, false) {
            return;
        }
    }
    matmul_t_rows(ad, k, bd, n, out);
}

/// `aᵀ @ b` for row-major `a` (`samples × k`) and `b` (`samples × n`) given
/// as slices, so one row block of two taller matrices needs no copy,
/// written into `out` (`k × n`, holding zeros; it may be a row range of a
/// taller matrix). The zero skip
/// follows [`Matrix::t_matmul`]'s rule over these rows of `b` alone: the bits
/// of [`Matrix::t_matmul_with`] on the blocks as matrices.
pub(crate) fn t_matmul_slices(
    ad: &[f32],
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    par: Parallelism,
) {
    let samples = ad
        .len()
        .checked_div(k)
        .or(bd.len().checked_div(n))
        .unwrap_or(0);
    assert!(
        ad.len() == samples * k && bd.len() == samples * n && out.len() == k * n,
        "t_matmul shape mismatch"
    );
    let skip_zeros = scan_finite(bd);
    // The blocked t_matmul is the reference loop; Simd reads `a` transposed
    // in place and keeps each output tile in registers across all samples.
    let simd = par.backend() == KernelBackend::Simd
        && tile_simd(Strided::cols(ad, k, samples), bd, n, out, skip_zeros);
    if !simd {
        t_matmul_rows(ad, k, bd, n, samples, out, skip_zeros);
    }
}

/// Blocked `matmul` of `a @ b`, accumulating into `out` (`rows × n`).
///
/// Register micro-tiles of `MR × NR` accumulators, loaded from `out`; the
/// inner dimension `k` runs ascending over the *full* range for each tile,
/// and the zero skip is decided per `(row, k)` exactly like the scalar
/// kernel — so each output element sees the identical sequence of `f32`
/// additions. Every row kernel here adds onto `out` the same way, so a
/// zeroed `out` gives the plain product.
///
/// All three row kernels take raw slices + dimensions rather than `&Matrix`
/// deliberately: slice parameters carry `noalias` guarantees at the function
/// boundary, while a heap buffer loaded through a struct reference does not,
/// and without them LLVM may keep `out` and the operands in memory instead
/// of vectorizing the inner tile loops.
fn matmul_rows(ad: &[f32], kk: usize, bd: &[f32], n: usize, out: &mut [f32], skip_zeros: bool) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    let a_row = |r: usize| -> &[f32] { &ad[r * kk..(r + 1) * kk] };
    let mut r = 0;
    while r + MR <= rows {
        let a_rows: [&[f32]; MR] = std::array::from_fn(|i| a_row(r + i));
        matmul_row_block::<MR>(a_rows, bd, kk, n, &mut out[r * n..(r + MR) * n], skip_zeros);
        r += MR;
    }
    while r < rows {
        let out = &mut out[r * n..(r + 1) * n];
        matmul_row_block::<1>([a_row(r)], bd, kk, n, out, skip_zeros);
        r += 1;
    }
}

/// The reference kernel's sparse i-k-j saxpy order, zero terms skipped: the
/// sparse-left dispatch of [`Matrix::matmul_with`], whose caller has checked
/// that `bd` is finite, so per-element accumulation matches
/// [`Matrix::matmul`] exactly.
fn matmul_rows_saxpy(ad: &[f32], kk: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let a_row = &ad[r * kk..(r + 1) * kk];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &bd[k * n..k * n + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `M` rows of `a @ b` added into `out` (`M * n` floats): fixed-width
/// `M × NR` register tiles over full column tiles, a dynamic-width tail for
/// the last partial tile. Per output element the accumulation is ascending
/// `k` with the scalar kernel's zero-skip decision — identical op sequence,
/// identical bits.
// lint: hot-path
#[inline]
fn matmul_row_block<const M: usize>(
    a_rows: [&[f32]; M],
    bd: &[f32],
    kk: usize,
    n: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        let mut acc: [[f32; NR]; M] = std::array::from_fn(|i| {
            out[i * n + j0..i * n + j0 + NR]
                .try_into()
                .expect("NR-wide tile")
        });
        for k in 0..kk {
            let bt: &[f32; NR] = bd[k * n + j0..k * n + j0 + NR]
                .try_into()
                .expect("NR-wide tile");
            for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[k];
                if skip_zeros && av == 0.0 {
                    continue;
                }
                for (o, &bv) in acc_row.iter_mut().zip(bt) {
                    *o += av * bv;
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            out[i * n + j0..i * n + j0 + NR].copy_from_slice(acc_row);
        }
        j0 += NR;
    }
    if j0 < n {
        matmul_row_tail(a_rows, bd, kk, n, j0, out, skip_zeros);
    }
}

/// The dynamic-width last column tile of a row block (columns `j0..n`,
/// `n - j0 < NR`) — register accumulators, ascending `k`, the scalar
/// zero-skip decision per `(row, k)`.
// lint: hot-path
fn matmul_row_tail<const M: usize>(
    a_rows: [&[f32]; M],
    bd: &[f32],
    kk: usize,
    n: usize,
    j0: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    let jw = n - j0;
    debug_assert!(jw < NR);
    let mut acc = [[0.0f32; NR]; M];
    for (i, acc_row) in acc.iter_mut().enumerate() {
        acc_row[..jw].copy_from_slice(&out[i * n + j0..i * n + j0 + jw]);
    }
    for k in 0..kk {
        let bt = &bd[k * n + j0..k * n + j0 + jw];
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let av = a_row[k];
            if skip_zeros && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc_row[..jw].iter_mut().zip(bt) {
                *o += av * bv;
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        out[i * n + j0..i * n + j0 + jw].copy_from_slice(&acc_row[..jw]);
    }
}

/// `aᵀ @ b` into `out` (`kk × n`). `ad` is `samples × kk`, `bd` is
/// `samples × n`.
///
/// The scalar kernel's loop: output row `k` accumulates its contributions
/// in ascending sample order `r`.
// lint: hot-path
fn t_matmul_rows(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    samples: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    if n == 0 {
        return;
    }
    for r in 0..samples {
        let a_row = &ad[r * kk..(r + 1) * kk];
        let b_row = &bd[r * n..r * n + n];
        for (k, &av) in a_row.iter().enumerate() {
            if skip_zeros && av == 0.0 {
                continue;
            }
            let out_row = &mut out[k * n..k * n + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `a @ bᵀ`: independent register-accumulated dot products, four output
/// columns at a time so each `a` row load is reused. Ascending-`k`
/// accumulation per element, like the scalar kernel. `ad` is `rows × kk`,
/// `bd` is `n × kk`.
fn matmul_t_rows(ad: &[f32], kk: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let a_row = &ad[r * kk..(r + 1) * kk];
        let out_row = &mut out[r * n..(r + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &bd[j * kk..(j + 1) * kk];
            let b1 = &bd[(j + 1) * kk..(j + 2) * kk];
            let b2 = &bd[(j + 2) * kk..(j + 3) * kk];
            let b3 = &bd[(j + 3) * kk..(j + 4) * kk];
            let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (k, &av) in a_row.iter().enumerate() {
                acc0 += av * b0[k];
                acc1 += av * b1[k];
                acc2 += av * b2[k];
                acc3 += av * b3[k];
            }
            out_row[j] = acc0;
            out_row[j + 1] = acc1;
            out_row[j + 2] = acc2;
            out_row[j + 3] = acc3;
            j += 4;
        }
        while j < n {
            let b_row = &bd[j * kk..(j + 1) * kk];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out_row[j] = acc;
            j += 1;
        }
    }
}

/// A left operand read in place: element `(i, t)` (output row `i`, inner
/// term `t`) lives at `data[i·row_step + t·t_step]`, so one tile kernel
/// computes `A·B` ([`Strided::rows`]) and `Aᵀ·B` ([`Strided::cols`])
/// without packing either.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    row_step: usize,
    t_step: usize,
    terms: usize,
}

impl<'a> Strided<'a> {
    /// Row-major `A` with `k` columns, read as itself.
    fn rows(data: &'a [f32], k: usize) -> Strided<'a> {
        Strided {
            data,
            row_step: k,
            t_step: 1,
            terms: k,
        }
    }

    /// Row-major `A` (`samples × k`) read as `Aᵀ`.
    fn cols(data: &'a [f32], k: usize, samples: usize) -> Strided<'a> {
        Strided {
            data,
            row_step: 1,
            t_step: k,
            terms: samples,
        }
    }

    /// Panics unless rows `0 .. rows` lie in `data` over every term: the
    /// bound the SIMD kernels' raw reads rely on.
    fn check(&self, rows: usize) {
        if rows > 0 && self.terms > 0 {
            let last = (rows - 1) * self.row_step + (self.terms - 1) * self.t_step;
            assert!(last < self.data.len(), "strided operand out of bounds");
        }
    }
}

/// `out += lhs · bd` over the rows of `out` through this CPU's register
/// tile, returning `false` without touching `out` when it has none, so the
/// caller runs its blocked twin. Each element continues from its value in
/// `out` through ascending `t`, one `mul` and one `add` per term; with
/// `skip_zeros`, which callers set only when `bd` is finite, a term whose
/// `a` is `±0.0` is not added.
#[allow(unsafe_code)]
fn tile_simd(lhs: Strided<'_>, bd: &[f32], n: usize, out: &mut [f32], skip_zeros: bool) -> bool {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        SimdLevel::Avx512 => {
            // SAFETY: simd_level() observed AVX-512F via runtime detection,
            // the kernel's only unchecked precondition; it asserts bounds.
            unsafe { x86::tile_avx512(lhs, bd, n, out, skip_zeros) };
            return true;
        }
        SimdLevel::Avx2 => {
            // SAFETY: simd_level() observed AVX2 via runtime detection;
            // bounds are asserted by the kernel.
            unsafe { x86::tile_avx2(lhs, bd, n, out, skip_zeros) };
            return true;
        }
        SimdLevel::None => {}
    }
    false
}

/// Explicit `core::arch::x86_64` register tiles (AVX2 and AVX-512F).
///
/// Each ISA has one kernel: a few output rows × up to `V` vectors of
/// columns, held in registers across every term of the left operand,
/// which it reads through [`Strided`] (`A` itself for `matmul`, `Aᵀ` in
/// place for `t_matmul`). The bit-identity recipe:
///
/// * **lanes are output columns** — lane `l` of an accumulator vector owns
///   output element `j0 + l` and nothing else, so there is no horizontal
///   reduction anywhere and no operand reassociation to worry about;
/// * per ascending-`t` step each lane performs exactly `mul` then `add`
///   (`_mm512_mul_ps` + `_mm512_mask_add_ps`, never an FMA, whose single
///   rounding would differ from the scalar two-rounding sequence);
/// * packed x86 `mulps`/`addps` follow the same IEEE-754 and NaN
///   propagation rules as their scalar `mulss`/`addss` forms, so non-finite
///   inputs produce the same bits lane-wise;
/// * **the zero skip is a lane mask**, decided per `(row, t)` on the scalar
///   `a` exactly like the reference kernel, and a skipped term leaves its
///   accumulators' bits alone: AVX-512 does not write its sum back
///   (`_mm512_mask_add_ps`), and AVX2, which has no masked add, adds
///   `-0.0` in its place, the one addend that changes no value. Adding the
///   skipped term's own product would not be exact: that product is
///   `±0.0`, `out` may hold `-0.0` (a `matmul_acc` partial), and
///   `-0.0 + +0.0` is `+0.0`. The skipped product is still computed; at
///   the activations' ~50% density that costs less than listing the kept
///   terms first, and the loop stays branch-free;
/// * `n` runs in chunks of up to `V` vectors, the last vector of each
///   chunk masked on load and store, so masked-off lanes are neither read
///   nor written; the rows past the last full tile run one at a time.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{Strided, MR};
    use core::arch::x86_64::*;

    /// Lanes per `__m512`.
    const W512: usize = 16;
    /// Lanes per `__m256`.
    const W256: usize = 8;
    /// Vectors per AVX-512 tile row: `MR` × 6 accumulators take 24 of the
    /// 32 registers, and a 96-column layer runs as one chunk.
    const V512: usize = 6;
    /// Rows and vectors per AVX2 tile: 2 × 4 accumulators leave room in
    /// the 16 registers for `b`, the broadcast and the masks. (4 × 2 ran
    /// slower.)
    const M256: usize = 2;
    const V256: usize = 4;

    /// One column chunk of `out += lhs · b`: `b` and `out` point at its
    /// first column, rows `n` floats apart, and `tail` selects the lanes of
    /// its last vector.
    #[derive(Clone, Copy)]
    struct Chunk<'a, K> {
        lhs: Strided<'a>,
        b: *const f32,
        n: usize,
        out: *mut f32,
        tail: K,
        skip_zeros: bool,
    }

    /// AVX-512F `out[i, ..] += Σ_t lhs(i, t) · b[t, ..]` for the
    /// `out.len() / n` rows of `out`, terms in ascending `t`, `a == 0.0`
    /// terms masked off when `skip_zeros`.
    ///
    /// # Safety
    /// AVX-512F must be available (callers dispatch on runtime detection).
    /// Bounds are asserted here: `lhs` must cover every row of `out` over
    /// all its terms, and `bd` must hold `lhs.terms × n`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512(
        lhs: Strided<'_>,
        bd: &[f32],
        n: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        lhs.check(rows);
        assert!(bd.len() >= lhs.terms * n, "tile: b holds too few rows");
        let mut j0 = 0;
        while j0 < n {
            let width = (n - j0).min(V512 * W512);
            let tail_lanes = width - (width - 1) / W512 * W512;
            let c = Chunk {
                lhs,
                b: bd.as_ptr().add(j0),
                n,
                out: out.as_mut_ptr().add(j0),
                tail: ((1u32 << tail_lanes) - 1) as __mmask16,
                skip_zeros,
            };
            match width.div_ceil(W512) {
                1 => rows512::<1>(c, rows),
                2 => rows512::<2>(c, rows),
                3 => rows512::<3>(c, rows),
                4 => rows512::<4>(c, rows),
                5 => rows512::<5>(c, rows),
                _ => rows512::<V512>(c, rows),
            }
            j0 += width;
        }
    }

    /// Every row of one chunk: `MR`-row tiles, then one row at a time.
    ///
    /// # Safety
    /// As [`tile512`], for rows `0 .. rows`.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows512<const V: usize>(c: Chunk<'_, __mmask16>, rows: usize) {
        let mut row = 0;
        while row + MR <= rows {
            tile512::<MR, V>(c, row);
            row += MR;
        }
        for row in row..rows {
            tile512::<1, V>(c, row);
        }
    }

    /// Rows `row .. row + M` of one chunk: `M × V` accumulators loaded
    /// from `out`, every term added under its keep mask, stored once.
    ///
    /// # Safety
    /// AVX-512F must be available; `c.lhs.check` covered the rows;
    /// `c.b` points at `c.lhs.terms` rows and `c.out` at the rows, each
    /// with `(V - 1) · 16` lanes plus those of `c.tail` in bounds.
    // lint: hot-path
    #[target_feature(enable = "avx512f")]
    unsafe fn tile512<const M: usize, const V: usize>(c: Chunk<'_, __mmask16>, row: usize) {
        let mask = |v: usize| if v + 1 == V { c.tail } else { !0 };
        // The lanes a term reaches whatever its `a`: all without the skip.
        let always: __mmask16 = if c.skip_zeros { 0 } else { !0 };
        let zero = _mm512_setzero_ps();
        let out = c.out.add(row * c.n);
        let mut acc = [[zero; V]; M];
        for (i, acc) in acc.iter_mut().enumerate() {
            for (v, x) in acc.iter_mut().enumerate() {
                *x = _mm512_maskz_loadu_ps(mask(v), out.add(i * c.n + v * W512));
            }
        }
        let a = c.lhs.data.as_ptr().add(row * c.lhs.row_step);
        for t in 0..c.lhs.terms {
            let bt = c.b.add(t * c.n);
            let b: [__m512; V] =
                core::array::from_fn(|v| _mm512_maskz_loadu_ps(mask(v), bt.add(v * W512)));
            let at = a.add(t * c.lhs.t_step);
            for (i, acc) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_ps(*at.add(i * c.lhs.row_step));
                // `a != 0.0` in every lane; a NaN `a` is kept, as in the
                // reference.
                let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(va, zero) | always;
                for (x, &bv) in acc.iter_mut().zip(&b) {
                    *x = _mm512_mask_add_ps(*x, keep, *x, _mm512_mul_ps(va, bv));
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            for (v, &x) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(i * c.n + v * W512), mask(v), x);
            }
        }
    }

    /// The AVX2 form of [`tile_avx512`]: `M256`-row tiles over chunks of
    /// up to `V256` 256-bit vectors, the last through
    /// `maskload`/`maskstore`.
    ///
    /// # Safety
    /// AVX2 must be available (callers dispatch on runtime detection).
    /// Bounds are asserted as in [`tile_avx512`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_avx2(
        lhs: Strided<'_>,
        bd: &[f32],
        n: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        lhs.check(rows);
        assert!(bd.len() >= lhs.terms * n, "tile: b holds too few rows");
        let mut j0 = 0;
        while j0 < n {
            let width = (n - j0).min(V256 * W256);
            let tail_lanes = (width - (width - 1) / W256 * W256) as i32;
            let c = Chunk {
                lhs,
                b: bd.as_ptr().add(j0),
                n,
                out: out.as_mut_ptr().add(j0),
                tail: _mm256_cmpgt_epi32(
                    _mm256_set1_epi32(tail_lanes),
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                ),
                skip_zeros,
            };
            match width.div_ceil(W256) {
                1 => rows256::<1>(c, rows),
                2 => rows256::<2>(c, rows),
                3 => rows256::<3>(c, rows),
                _ => rows256::<V256>(c, rows),
            }
            j0 += width;
        }
    }

    /// Every row of one chunk: `M256`-row tiles, then one row at a time.
    ///
    /// # Safety
    /// As [`tile256`], for rows `0 .. rows`.
    #[target_feature(enable = "avx2")]
    unsafe fn rows256<const V: usize>(c: Chunk<'_, __m256i>, rows: usize) {
        let mut row = 0;
        while row + M256 <= rows {
            tile256::<M256, V>(c, row);
            row += M256;
        }
        for row in row..rows {
            tile256::<1, V>(c, row);
        }
    }

    /// The AVX2 form of [`tile512`], whose skipped terms add `-0.0`: AVX2
    /// has no masked add, and one `or` of the sign bit into the skipped
    /// product (`±0.0`, as `b` is finite under the skip) costs less than a
    /// `blendv` of the old and the new sum.
    ///
    /// # Safety
    /// AVX2 must be available; bounds as in [`tile512`], with 8-lane
    /// vectors and `c.tail` a `maskload` mask (sign bit set per kept lane).
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    unsafe fn tile256<const M: usize, const V: usize>(c: Chunk<'_, __m256i>, row: usize) {
        let load = |p: *const f32, v: usize| {
            if v + 1 == V {
                _mm256_maskload_ps(p, c.tail)
            } else {
                _mm256_loadu_ps(p)
            }
        };
        // The sign bit a skipped term's product gets: `-0.0` with the skip.
        let skip_sign = _mm256_set1_ps(if c.skip_zeros { -0.0 } else { 0.0 });
        let zero = _mm256_setzero_ps();
        let out = c.out.add(row * c.n);
        let mut acc = [[zero; V]; M];
        for (i, acc) in acc.iter_mut().enumerate() {
            for (v, x) in acc.iter_mut().enumerate() {
                *x = load(out.add(i * c.n + v * W256), v);
            }
        }
        let a = c.lhs.data.as_ptr().add(row * c.lhs.row_step);
        for t in 0..c.lhs.terms {
            let bt = c.b.add(t * c.n);
            let b: [__m256; V] = core::array::from_fn(|v| load(bt.add(v * W256), v));
            let at = a.add(t * c.lhs.t_step);
            for (i, acc) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*at.add(i * c.lhs.row_step));
                // `-0.0` in every lane when the skip drops this term, else
                // `+0.0`, which leaves a kept term's product as it is.
                let sign = _mm256_and_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(va, zero), skip_sign);
                for (x, &bv) in acc.iter_mut().zip(&b) {
                    *x = _mm256_add_ps(*x, _mm256_or_ps(_mm256_mul_ps(va, bv), sign));
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            for (v, &x) in acc.iter().enumerate() {
                let p = out.add(i * c.n + v * W256);
                if v + 1 == V {
                    _mm256_maskstore_ps(p, c.tail, x);
                } else {
                    _mm256_storeu_ps(p, x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f32) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    /// `a1 @ b[..k]` into a zeroed accumulator, then `a2 @ b[k..]` seeded
    /// with that partial product, the halves from [`Weights::split_rows`].
    fn split_k(a1: &Matrix, a2: &Matrix, b: Weights<'_>, par: Parallelism) -> Matrix {
        let (b1, b2) = b.split_rows(a1.cols());
        let mut acc = Matrix::zeros(a1.rows(), b.cols());
        a1.matmul_acc_with(b1, &mut acc, par);
        a2.matmul_acc_with(b2, &mut acc, par);
        acc
    }

    fn assert_bits_eq(want: &Matrix, got: &Matrix, what: &str) {
        assert_eq!(want.shape(), got.shape(), "{what}: shape");
        for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{what}: element {i} differs ({w} vs {g})"
            );
        }
    }

    /// Each ISA's tile called directly, whenever this CPU has it, against
    /// the blocked kernels bit for bit, with the skip on and off: reading
    /// `A` as itself against `matmul_rows` and transposed against
    /// `t_matmul_rows`, each onto a non-zero `out` holding `-0.0`s, over
    /// every remainder of either ISA's row tile and column chunks, with a
    /// finite right operand and one holding a NaN or ∞ row. Dispatch picks
    /// one ISA per CPU, so without this the AVX2 tile never runs on an
    /// AVX-512 host.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[allow(unsafe_code)]
    fn every_isa_kernel_matches_the_blocked_kernels() {
        // SAFETY: the tile behind the pointer needs its ISA; one is pushed
        // below only after runtime detection found it.
        type Tile = unsafe fn(Strided<'_>, &[f32], usize, &mut [f32], bool);
        let mut isas: Vec<(&str, Tile)> = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            isas.push(("avx2", x86::tile_avx2));
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            isas.push(("avx512", x86::tile_avx512));
        }
        let value = |i: usize| match i % 7 {
            0 | 3 => 0.0,
            5 => -0.0,
            _ => (i % 13) as f32 * 0.37 - 2.1,
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in 1..=9 {
            for n in (1..=20).chain([31, 32, 33, 63, 64, 65, 96, 129, 130]) {
                for kk in [1, 7, 64] {
                    let a: Vec<f32> = (0..rows * kk).map(|i| value(i * 3 + n)).collect();
                    let mut b: Vec<f32> = (0..kk * n).map(|i| value(i + 1) + 0.5).collect();
                    let out0: Vec<f32> = (0..rows * n).map(|i| value(i + 2)).collect();
                    // `A` transposed: `rows` samples into a `kk × n` output.
                    let t_out0: Vec<f32> = (0..kk * n).map(|i| value(i + 4)).collect();
                    let mut g: Vec<f32> = (0..rows * n).map(|i| value(i + 5) - 0.25).collect();
                    for finite in [true, false] {
                        if !finite {
                            b[(kk / 2) * n..(kk / 2 + 1) * n].fill(f32::NAN);
                            g[(rows / 2) * n..(rows / 2 + 1) * n].fill(f32::INFINITY);
                        }
                        // The skip applies only to a finite right operand.
                        let skips: &[bool] = if finite { &[true, false] } else { &[false] };
                        for &skip in skips {
                            let mut want = out0.clone();
                            matmul_rows(&a, kk, &b, n, &mut want, skip);
                            let mut want_t = t_out0.clone();
                            t_matmul_rows(&a, kk, &g, n, rows, &mut want_t, skip);
                            for &(isa, tile) in &isas {
                                let case = format!(
                                    "{isa} rows={rows} n={n} kk={kk} finite={finite} skip={skip}"
                                );
                                let mut got = out0.clone();
                                // SAFETY: the ISA was detected above; the
                                // tile asserts its bounds.
                                unsafe { tile(Strided::rows(&a, kk), &b, n, &mut got, skip) };
                                assert_eq!(bits(&want), bits(&got), "A·B {case}");
                                let mut got = t_out0.clone();
                                let lhs = Strided::cols(&a, kk, rows);
                                // SAFETY: as above.
                                unsafe { tile(lhs, &g, n, &mut got, skip) };
                                assert_eq!(bits(&want_t), bits(&got), "Aᵀ·B {case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn backend_parsing_and_labels_roundtrip() {
        for b in [KernelBackend::Blocked, KernelBackend::Simd] {
            assert_eq!(KernelBackend::parse(b.label()), Some(b));
        }
        assert_eq!(KernelBackend::parse(" SIMD "), Some(KernelBackend::Simd));
        assert_eq!(KernelBackend::parse("auto"), Some(KernelBackend::detect()));
        assert_eq!(KernelBackend::parse("mmx"), None);
        assert_eq!(KernelBackend::parse("scalar"), None);
        // detect() picks Simd exactly when the CPU has it.
        assert_eq!(
            KernelBackend::detect() == KernelBackend::Simd,
            KernelBackend::simd_available()
        );
    }

    #[test]
    fn backend_pinning_merges_and_survives_serial_worker() {
        let pinned = Parallelism::serial().with_backend(KernelBackend::Blocked);
        assert_eq!(pinned.backend(), KernelBackend::Blocked);
        assert_eq!(pinned.pinned_backend(), Some(KernelBackend::Blocked));
        assert_eq!(Parallelism::serial().pinned_backend(), None);
        // Unpinned resolves the process default.
        assert_eq!(
            Parallelism::serial().backend(),
            KernelBackend::default_backend()
        );
        // max(): self's pin wins, any pin beats none, and `None` keeps
        // the pin already there.
        let unpinned = Parallelism::serial();
        assert_eq!(pinned.max(unpinned), pinned);
        assert_eq!(unpinned.max(pinned), pinned);
        let other = Parallelism::serial().with_backend(KernelBackend::Simd);
        assert_eq!(
            pinned.max(other).pinned_backend(),
            Some(KernelBackend::Blocked)
        );
        assert_eq!(
            other.max(pinned).pinned_backend(),
            Some(KernelBackend::Simd)
        );
        assert_eq!(pinned.with_backend_opt(None), pinned);
        assert_eq!(Parallelism::default(), unpinned);
    }

    #[test]
    fn every_backend_matches_scalar_reference() {
        let a = filled(11, 19, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                (r as f32).mul_add(0.7, -(c as f32) * 0.2)
            }
        });
        let b = filled(19, 18, |r, c| (r as f32 - c as f32) * 0.05);
        let want_mm = a.matmul(&b);
        let bt = b.transpose();
        let want_mmt = a.matmul_t(&bt);
        let at = a.transpose();
        let want_tmm = at.t_matmul(&b);
        // Split K: 11 rows (a row tail under MR = 4) by 18 columns (a column
        // tail under NR = 16), B = [b ; b2] cut by `Weights::split_rows`. The
        // sparse `a` and a dense `a2` put the two seeded calls on opposite
        // sides of the sparse/dense dispatch. A NaN row of `b` under zeros of
        // `a` turns the first call's zero skip off while the second half,
        // rescanned, keeps it; a NaN row of `b2` under zeros of `a2_holed`
        // does the reverse. Each B is read both by a scan and through a
        // parameter store whose finiteness cache is already filled.
        let a2 = filled(11, 7, |r, c| (r as f32 + 1.0) * 0.3 - c as f32 * 0.11);
        let b2 = filled(7, 18, |r, c| (r as f32 * 0.4 - c as f32 * 0.07).sin());
        let mut b_nan = b.clone();
        b_nan.row_mut(3).fill(f32::NAN);
        let mut a2_holed = a2.clone();
        let mut b2_nan = b2.clone();
        for r in (0..a2.rows()).step_by(2) {
            a2_holed.set(r, 4, 0.0);
        }
        b2_nan.row_mut(4).fill(f32::NAN);
        let mut store = crate::ParamStore::new();
        let split_cases: Vec<_> = [
            ("split-K", &a2, Matrix::vconcat(&[&b, &b2])),
            ("split-K with NaN", &a2, Matrix::vconcat(&[&b_nan, &b2])),
            (
                "split-K with NaN in the second half",
                &a2_holed,
                Matrix::vconcat(&[&b, &b2_nan]),
            ),
        ]
        .into_iter()
        .map(|(what, a2, b)| {
            // The scalar oracle: one `[a | a2] @ [b ; b2]`.
            let want = Matrix::hconcat(&[&a, a2]).matmul(&b);
            let id = store.register(what, b);
            assert_eq!(store.weights(id).is_finite(), what == "split-K");
            (what, a2, id, want)
        })
        .collect();
        assert!(split_cases[1].3.as_slice().iter().any(|v| v.is_nan()));
        assert!(split_cases[2].3.as_slice().iter().all(|v| v.is_nan()));
        for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
            let par = Parallelism::serial().with_backend(backend);
            let what = backend.label();
            assert_bits_eq(&want_mm, &a.matmul_with(&b, par), &format!("matmul {what}"));
            assert_bits_eq(
                &want_mmt,
                &a.matmul_t_with(&bt, par),
                &format!("matmul_t {what}"),
            );
            assert_bits_eq(
                &want_tmm,
                &at.t_matmul_with(&b, par),
                &format!("t_matmul {what}"),
            );
            for (case, a2, id, want) in &split_cases {
                let scanned = Weights::scan(store.value(*id));
                for (b, how) in [(scanned, "scanned"), (store.weights(*id), "cached")] {
                    assert_bits_eq(
                        want,
                        &split_k(&a, a2, b, par),
                        &format!("{case} matmul_acc {how} {what}"),
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_matches_scalar_on_mixed_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (9, 13, 17), (4, 8, 8), (7, 3, 9)] {
            let a = filled(m, k, |r, c| {
                if (r + c) % 3 == 0 {
                    0.0
                } else {
                    (r as f32 - 0.5) * 0.3 + c as f32 * 0.1
                }
            });
            let b = filled(k, n, |r, c| (r * n + c) as f32 * 0.01 - 0.7);
            assert_bits_eq(
                &a.matmul(&b),
                &a.matmul_with(&b, Parallelism::serial()),
                "matmul",
            );
            let bt = b.transpose();
            assert_bits_eq(
                &a.matmul_t(&bt),
                &a.matmul_t_with(&bt, Parallelism::serial()),
                "matmul_t",
            );
            let at = a.transpose();
            assert_bits_eq(
                &at.t_matmul(&b),
                &at.t_matmul_with(&b, Parallelism::serial()),
                "t_matmul",
            );
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
            let par = Parallelism::serial().with_backend(backend);
            let (a, b) = (Matrix::zeros(0, 4), Matrix::zeros(4, 3));
            assert_eq!(a.matmul_with(&b, par).shape(), (0, 3));
            let (a, b) = (Matrix::zeros(3, 0), Matrix::zeros(0, 2));
            let c = a.matmul_with(&b, par);
            assert_eq!(c.shape(), (3, 2));
            assert!(c.as_slice().iter().all(|&v| v == 0.0));
            let (a, b) = (Matrix::zeros(2, 5), Matrix::zeros(5, 0));
            assert_eq!(a.matmul_with(&b, par).shape(), (2, 0));
        }
    }

    #[test]
    fn nonfinite_inputs_propagate_identically() {
        let a = filled(5, 6, |r, c| match (r + c) % 4 {
            0 => 0.0,
            1 => 1.5,
            _ => -0.25,
        });
        let mut b = filled(6, 5, |r, c| (r * 5 + c) as f32 * 0.1);
        b.set(2, 3, f32::NAN);
        b.set(4, 0, f32::INFINITY);
        let want = a.matmul(&b);
        assert!(want.as_slice().iter().any(|v| v.is_nan()));
        for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
            let par = Parallelism::serial().with_backend(backend);
            assert_bits_eq(&want, &a.matmul_with(&b, par), "nan matmul");
        }
    }
}
