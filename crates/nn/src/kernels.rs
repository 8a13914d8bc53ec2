//! Cache-blocked and multi-threaded compute kernels, **bit-identical** to the
//! reference loops in [`crate::matrix`] by construction.
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
//!   single output element receives its contributions;
//! * the *threaded* kernels partition **output rows** across
//!   `std::thread::scope` workers; every element is still computed by the
//!   same blocked code on one thread, so the result is independent of the
//!   worker count.
//!
//! * the *SIMD* kernels ([`KernelBackend::Simd`]) run the same tiles through
//!   explicit `core::arch` AVX2 / AVX-512F intrinsics behind runtime feature
//!   detection. Vector **lanes are output columns**, never partial sums of
//!   one element: each lane accumulates its own output element with one
//!   `mul` + one `add` per ascending-`k` step, so no horizontal reduction
//!   exists to reorder — the per-element operation sequence is the scalar
//!   one, instruction for instruction (and the intrinsics never use FMA,
//!   whose single rounding would change bits). `matmul_t`, whose scalar form
//!   is a dot product along `k`, is packed through a transpose first so its
//!   SIMD form also vectorizes across output columns instead of reducing
//!   across lanes.
//!
//! Floating-point addition is deterministic for a fixed operand order, so
//! "same per-element order" ⇒ "same bits" — for finite values, signed zeros,
//! and NaN/∞ alike. The property tests in `tests/kernel_identity.rs` pin this
//! across backends × thread counts (including non-finite inputs and the
//! model's own shapes), and `cardest-core`'s trainer tests pin the weights
//! that serial and threaded training steps produce.
//!
//! [`Parallelism`] is the knob the rest of the system plumbs through
//! (trainer minibatches, CardNet batch estimation, the serve worker pool,
//! `report::evaluate`): a worker-count hint that the kernels clamp by the
//! number of output rows and by a minimum useful work size, so callers can
//! pass one config everywhere without tiny products paying thread-spawn
//! overhead — plus an optional pinned [`KernelBackend`]. Unpinned configs
//! resolve the backend once per process: the `CARDEST_KERNEL_BACKEND` env
//! var (`blocked` | `simd` | `auto`) if set, else the best the CPU
//! supports.

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

/// Rows per register micro-tile in the blocked `matmul`.
const MR: usize = 4;
/// Columns per register micro-tile in the blocked `matmul` (two 8-lane f32
/// vectors — fixed width so the inner loops vectorize).
const NR: usize = 16;

/// Minimum multiply-adds a worker thread must have before the kernels spawn
/// it. The kernels run at tens of GFLOP/s, so 4M MACs ≈ 100–200 µs of work —
/// comfortably above a `thread::scope` spawn+join (~20 µs), which keeps
/// threading from ever losing to its own overhead on small products.
/// Callers that need fine-grained parallelism regardless (tests, coarse
/// per-row fan-outs that amortize one spawn over many kernel calls) use
/// [`Parallelism::exact_threads`] or partition above the kernel layer.
const MIN_WORK_PER_THREAD: usize = 4_000_000;

/// How many worker threads the compute kernels may use, and optionally
/// which [`KernelBackend`] they run.
///
/// A `Parallelism` is a *hint*: kernels clamp it by the number of output rows
/// (each row is computed entirely by one worker — that is what makes the
/// result bit-identical) and, unless constructed with
/// [`Parallelism::exact_threads`], by a minimum-work-per-thread threshold so
/// small products stay serial. The backend is `None` by default, meaning
/// "resolve [`KernelBackend::default_backend`] at dispatch" — pin one with
/// [`Parallelism::with_backend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    /// Skip the minimum-work clamp (tests and micro-benchmarks).
    force: bool,
    /// Pinned kernel tier; `None` defers to the process-wide default.
    backend: Option<KernelBackend>,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Single-threaded (the default everywhere).
    pub const fn serial() -> Parallelism {
        Parallelism {
            threads: 1,
            force: false,
            backend: None,
        }
    }

    /// At most `n` worker threads (`0` is treated as `1`).
    pub fn threads(n: usize) -> Parallelism {
        Parallelism {
            threads: n.max(1),
            force: false,
            backend: None,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Parallelism {
        Parallelism::threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Exactly `n` workers whenever the shape allows it, ignoring the
    /// minimum-work clamp. Meant for tests and benchmarks that must exercise
    /// the threaded path on small inputs; production callers want
    /// [`Parallelism::threads`].
    pub fn exact_threads(n: usize) -> Parallelism {
        Parallelism {
            threads: n.max(1),
            force: true,
            backend: None,
        }
    }

    /// Pins the kernel backend (builder form). Every backend is
    /// bit-identical, so this is a throughput knob like the thread count.
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

    /// A one-thread copy that keeps the pinned backend — what coarse row
    /// fan-outs hand to the kernels inside each worker.
    pub fn serial_worker(&self) -> Parallelism {
        Parallelism {
            threads: 1,
            force: false,
            backend: self.backend,
        }
    }

    /// The configured worker-count hint.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// The larger of two hints (config merging: an estimator's own setting
    /// vs. a per-call override). A backend pinned on `self` wins over one
    /// pinned on `other`; either wins over "resolve the default".
    pub fn max(self, other: Parallelism) -> Parallelism {
        Parallelism {
            threads: self.threads.max(other.threads),
            force: self.force || other.force,
            backend: self.backend.or(other.backend),
        }
    }

    /// Effective worker count for `tasks` independent tasks totalling `work`
    /// multiply-adds: the hint, clamped by the task count and (unless
    /// constructed with [`Parallelism::exact_threads`]) by the minimum
    /// useful work per thread.
    pub fn workers(&self, tasks: usize, work: usize) -> usize {
        let cap = if self.force {
            tasks
        } else {
            tasks.min((work / MIN_WORK_PER_THREAD).max(1))
        };
        self.threads.min(cap)
    }
}

/// Partitions a row-major buffer of `row_len`-wide rows into contiguous row
/// ranges and runs `task(first_row, row_chunk)` on each — on the calling
/// thread when `workers <= 1`, else across `std::thread::scope` workers (the
/// calling thread takes the first chunk instead of idling).
///
/// Each row is handed to exactly one worker running the serial code, which
/// is what keeps the threaded kernels bit-identical to their serial order.
fn partition_rows<F>(out: &mut [f32], row_len: usize, workers: usize, task: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if row_len == 0 || out.is_empty() {
        task(0, out);
        return;
    }
    let rows = out.len() / row_len;
    let workers = workers.clamp(1, rows.max(1));
    if workers <= 1 {
        task(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(workers);
    let mut chunks = out.chunks_mut(chunk_rows * row_len).enumerate();
    let first = chunks.next();
    std::thread::scope(|s| {
        for (t, chunk) in chunks {
            let task = &task;
            s.spawn(move || task(t * chunk_rows, chunk));
        }
        if let Some((t, chunk)) = first {
            task(t * chunk_rows, chunk);
        }
    });
}

impl Matrix {
    /// `self @ other` through the blocked (and, when `par` allows, threaded)
    /// kernel. Bit-identical to [`Matrix::matmul`] for every input.
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
        let backend = par.backend();
        // Per-call kernel choice — all orders are bit-identical, so this is
        // purely a throughput decision: a sparse left operand (binary
        // features, post-ReLU activations) favors the saxpy order whose zero
        // skip drops whole rows of work; a dense one favors register tiles.
        let sparse_left = skip_zeros && {
            let nonzero = self.as_slice().iter().filter(|&&v| v != 0.0).count();
            4 * nonzero < 3 * self.len().max(1)
        };
        let work = self.rows() * k * n;
        let workers = par.workers(self.rows(), work);
        partition_rows(acc.as_mut_slice(), n, workers, |first_row, chunk| {
            let ad = self.as_slice();
            match backend {
                _ if sparse_left => matmul_rows_saxpy(ad, k, b, n, first_row, chunk),
                KernelBackend::Blocked => matmul_rows(ad, k, b, n, first_row, chunk, skip_zeros),
                KernelBackend::Simd => matmul_rows_simd(ad, k, b, n, first_row, chunk, skip_zeros),
            }
        });
    }

    /// `selfᵀ @ other` through the row-partitioned kernel. Bit-identical to
    /// [`Matrix::t_matmul`] for every input.
    pub fn t_matmul_with(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(self.rows(), other.rows(), "t_matmul shape mismatch");
        t_matmul_slices(
            self.as_slice(),
            self.cols(),
            other.as_slice(),
            other.cols(),
            par,
        )
    }

    /// `self @ otherᵀ` through the blocked/threaded kernel. Bit-identical to
    /// [`Matrix::matmul_t`] for every input.
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
        let n = other.rows();
        let k = self.cols();
        let backend = par.backend();
        let work = self.rows() * k * n;
        let workers = par.workers(self.rows(), work);
        // The scalar matmul_t is a dot product along `k` — vectorizing *that*
        // would need a horizontal reduction, which reorders the additions.
        // The SIMD path instead packs `otherᵀ` once (shared, read-only across
        // workers) and runs the column-vectorized dense kernel over it: each
        // lane owns one output element, accumulated in ascending `k` exactly
        // like the scalar dot product. The packing cost is O(n·k) against an
        // O(m·n·k) product — and only worth paying when a SIMD tile kernel
        // actually exists on this CPU; otherwise the Simd pin falls straight
        // through to the direct blocked t-kernel.
        let packed = match backend {
            KernelBackend::Simd if n > 0 && k > 0 && KernelBackend::simd_available() => {
                Some(other.transpose())
            }
            _ => None,
        };
        partition_rows(out.as_mut_slice(), n, workers, |first_row, chunk| {
            match &packed {
                // Dense (no zero skip): the reference matmul_t never skips.
                Some(bt) => matmul_rows_simd(
                    self.as_slice(),
                    k,
                    bt.as_slice(),
                    n,
                    first_row,
                    chunk,
                    false,
                ),
                None => matmul_t_rows(self.as_slice(), k, other.as_slice(), n, first_row, chunk),
            }
        });
    }
}

/// `aᵀ @ b` for row-major `a` (`samples × k`) and `b` (`samples × n`) given
/// as slices, so one row block of two taller matrices needs no copy. The
/// zero skip follows [`Matrix::t_matmul`]'s rule over these rows of `b`
/// alone: the bits of [`Matrix::t_matmul_with`] on the blocks as matrices.
pub(crate) fn t_matmul_slices(
    ad: &[f32],
    k: usize,
    bd: &[f32],
    n: usize,
    par: Parallelism,
) -> Matrix {
    let samples = ad
        .len()
        .checked_div(k)
        .or(bd.len().checked_div(n))
        .unwrap_or(0);
    assert!(
        ad.len() == samples * k && bd.len() == samples * n,
        "t_matmul shape mismatch"
    );
    let skip_zeros = scan_finite(bd);
    let mut out = Matrix::zeros(k, n);
    let workers = par.workers(k, samples * k * n);
    let backend = par.backend();
    partition_rows(out.as_mut_slice(), n, workers, |first_row, chunk| {
        // The blocked t_matmul is the reference loop restricted to a row
        // range; Simd vectorizes its inner saxpy across output columns.
        match backend {
            KernelBackend::Simd => {
                t_matmul_rows_simd(ad, k, bd, n, samples, first_row, chunk, skip_zeros)
            }
            KernelBackend::Blocked => {
                t_matmul_rows(ad, k, bd, n, samples, first_row, chunk, skip_zeros)
            }
        }
    });
    out
}

/// Blocked `matmul` over output rows `first_row ..` of `a @ b`, accumulating
/// into `out` (a contiguous chunk of the output, `len = rows_here * n`).
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
/// boundary, while a heap buffer loaded through a struct reference does not
/// — and without that LLVM refuses to vectorize the inner tile loops once
/// the kernel is reachable from the threaded fan-out (measured ~4× slower).
fn matmul_rows(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    let a_row = |r: usize| -> &[f32] { &ad[r * kk..(r + 1) * kk] };
    let mut r = 0;
    while r + MR <= rows {
        let a_rows: [&[f32]; MR] = std::array::from_fn(|i| a_row(first_row + r + i));
        matmul_row_block::<MR>(a_rows, bd, kk, n, &mut out[r * n..(r + MR) * n], skip_zeros);
        r += MR;
    }
    while r < rows {
        matmul_row_block::<1>(
            [a_row(first_row + r)],
            bd,
            kk,
            n,
            &mut out[r * n..(r + 1) * n],
            skip_zeros,
        );
        r += 1;
    }
}

/// The reference kernel's sparse i-k-j saxpy order, zero terms skipped,
/// restricted to a row range: the sparse-left dispatch of
/// [`Matrix::matmul_with`], whose caller has checked that `bd` is finite, so
/// per-element accumulation matches [`Matrix::matmul`] exactly.
fn matmul_rows_saxpy(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    first_row: usize,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let a_row = &ad[(first_row + r) * kk..(first_row + r + 1) * kk];
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
/// `n - j0 < NR`), shared by the blocked and SIMD kernels — register
/// accumulators, ascending `k`, the scalar zero-skip decision per `(row, k)`.
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

/// `aᵀ @ b` restricted to output rows `first_row ..` (columns of `a`).
/// `ad` is `samples × kk`, `bd` is `samples × n`.
///
/// The scalar kernel accumulates output row `k` as contributions in
/// ascending sample order `r`; restricting `k` to this worker's range keeps
/// that per-element order untouched.
// lint: hot-path
#[allow(clippy::too_many_arguments)] // slice+dims boundary, see matmul_rows
fn t_matmul_rows(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    samples: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    if n == 0 {
        return;
    }
    let rows_here = out.len() / n;
    if rows_here == 0 {
        return;
    }
    for r in 0..samples {
        let a_seg = &ad[r * kk + first_row..r * kk + first_row + rows_here];
        let b_row = &bd[r * n..r * n + n];
        for (k_local, &av) in a_seg.iter().enumerate() {
            if skip_zeros && av == 0.0 {
                continue;
            }
            let out_row = &mut out[k_local * n..k_local * n + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `a @ bᵀ` over output rows `first_row ..`: independent register-accumulated
/// dot products, four output columns at a time so each `a` row load is
/// reused. Ascending-`k` accumulation per element, like the scalar kernel.
/// `ad` is `rows × kk`, `bd` is `n × kk`.
fn matmul_t_rows(ad: &[f32], kk: usize, bd: &[f32], n: usize, first_row: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let a_row = &ad[(first_row + r) * kk..(first_row + r + 1) * kk];
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

/// [`matmul_rows`] through the explicit-SIMD tile kernel when this CPU has
/// one, else the blocked kernel — bit-identical either way, so selecting
/// [`KernelBackend::Simd`] is always safe.
#[allow(clippy::too_many_arguments)] // slice+dims boundary, see matmul_rows
fn matmul_rows_simd(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        SimdLevel::Avx512 => {
            // SAFETY: simd_level() observed AVX-512F via runtime detection,
            // satisfying the target_feature precondition; the slice/dims
            // contract (`ad` holds rows of length `kk` from `first_row`,
            // `bd` is `kk x n` row-major, `out.len()` a multiple of `n`) is
            // the same one the scalar kernel is called under.
            return unsafe { x86::matmul_rows_avx512(ad, kk, bd, n, first_row, out, skip_zeros) };
        }
        SimdLevel::Avx2 => {
            // SAFETY: simd_level() observed AVX2 via runtime detection;
            // slice/dims contract as above.
            return unsafe { x86::matmul_rows_avx2(ad, kk, bd, n, first_row, out, skip_zeros) };
        }
        SimdLevel::None => {}
    }
    matmul_rows(ad, kk, bd, n, first_row, out, skip_zeros)
}

/// [`t_matmul_rows`] through the explicit-SIMD saxpy kernel when this CPU
/// has one, else the blocked kernel — bit-identical either way.
#[allow(clippy::too_many_arguments)] // slice+dims boundary, see matmul_rows
fn t_matmul_rows_simd(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    samples: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        SimdLevel::Avx512 => {
            // SAFETY: simd_level() observed AVX-512F via runtime detection,
            // satisfying the target_feature precondition; the slice/dims
            // contract (`ad` column-major `kk x samples` from `first_row`,
            // `bd` is `kk x n` row-major, `out.len()` a multiple of `n`) is
            // the same one the scalar kernel is called under.
            return unsafe {
                x86::t_matmul_rows_avx512(ad, kk, bd, n, samples, first_row, out, skip_zeros)
            };
        }
        SimdLevel::Avx2 => {
            // SAFETY: simd_level() observed AVX2 via runtime detection;
            // slice/dims contract as above.
            return unsafe {
                x86::t_matmul_rows_avx2(ad, kk, bd, n, samples, first_row, out, skip_zeros)
            };
        }
        SimdLevel::None => {}
    }
    t_matmul_rows(ad, kk, bd, n, samples, first_row, out, skip_zeros)
}

/// Explicit `core::arch::x86_64` kernels (AVX2 and AVX-512F).
///
/// The bit-identity recipe, shared by every function here:
///
/// * **lanes are output columns** — lane `l` of an accumulator vector owns
///   output element `j0 + l` and nothing else, so there is no horizontal
///   reduction anywhere and no operand reassociation to worry about;
/// * per ascending-`k` step each lane performs exactly `mul` then `add`
///   (`_mm256_mul_ps` + `_mm256_add_ps`, never an FMA, whose single
///   rounding would differ from the scalar two-rounding sequence);
/// * packed x86 `mulps`/`addps` follow the same IEEE-754 and NaN
///   propagation rules as their scalar `mulss`/`addss` forms, so non-finite
///   inputs produce the same bits lane-wise;
/// * the sparse zero-skip is decided per `(row, k)` on the scalar `a` value,
///   exactly like the reference kernel;
/// * column tails (`n % NR`) and row tails (`rows % MR`) fall back to the
///   shared scalar tail bodies, which keep the same per-element order.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{matmul_row_tail, MR, NR};
    use core::arch::x86_64::*;

    /// AVX2 `matmul` over a row chunk: `MR`-row blocks × `NR`-column tiles,
    /// two 256-bit accumulators per row.
    ///
    /// # Safety
    /// AVX2 must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_rows_avx2(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        let a_row = |r: usize| -> &[f32] { &ad[r * kk..(r + 1) * kk] };
        let mut r = 0;
        while r + MR <= rows {
            let a_rows: [&[f32]; MR] = std::array::from_fn(|i| a_row(first_row + r + i));
            row_block_avx2::<MR>(a_rows, bd, kk, n, &mut out[r * n..(r + MR) * n], skip_zeros);
            r += MR;
        }
        while r < rows {
            row_block_avx2::<1>(
                [a_row(first_row + r)],
                bd,
                kk,
                n,
                &mut out[r * n..(r + 1) * n],
                skip_zeros,
            );
            r += 1;
        }
    }

    /// `M` rows of `a @ b` added into `out`, with two `__m256` accumulators
    /// per row (one `NR = 16` column tile) loaded from `out`. Mirrors
    /// [`super::matmul_row_block`] op for op.
    ///
    /// # Safety
    /// AVX2 must be available (the public entry points dispatch on runtime
    /// detection). Bounds preconditions backing the `get_unchecked`/raw
    /// pointer reads: every `a_rows[i]` has length `kk`, `bd` has length
    /// `kk * n`, and `out` has length `M * n` — all established by the
    /// callers' row slicing.
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)] // lockstep over three register arrays
    unsafe fn row_block_avx2<const M: usize>(
        a_rows: [&[f32]; M],
        bd: &[f32],
        kk: usize,
        n: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        let bp = bd.as_ptr();
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc_lo = [_mm256_setzero_ps(); M];
            let mut acc_hi = [_mm256_setzero_ps(); M];
            for i in 0..M {
                let op = out.as_ptr().add(i * n + j0);
                acc_lo[i] = _mm256_loadu_ps(op);
                acc_hi[i] = _mm256_loadu_ps(op.add(8));
            }
            for k in 0..kk {
                let tile = bp.add(k * n + j0);
                let b_lo = _mm256_loadu_ps(tile);
                let b_hi = _mm256_loadu_ps(tile.add(8));
                for i in 0..M {
                    let av = *a_rows[i].get_unchecked(k);
                    if skip_zeros && av == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(av);
                    acc_lo[i] = _mm256_add_ps(acc_lo[i], _mm256_mul_ps(va, b_lo));
                    acc_hi[i] = _mm256_add_ps(acc_hi[i], _mm256_mul_ps(va, b_hi));
                }
            }
            for i in 0..M {
                let op = out.as_mut_ptr().add(i * n + j0);
                _mm256_storeu_ps(op, acc_lo[i]);
                _mm256_storeu_ps(op.add(8), acc_hi[i]);
            }
            j0 += NR;
        }
        if j0 < n {
            matmul_row_tail(a_rows, bd, kk, n, j0, out, skip_zeros);
        }
    }

    /// AVX-512F `matmul` over a row chunk: one 512-bit accumulator per row
    /// covers a full `NR = 16` column tile.
    ///
    /// # Safety
    /// AVX-512F must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_rows_avx512(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        let a_row = |r: usize| -> &[f32] { &ad[r * kk..(r + 1) * kk] };
        let mut r = 0;
        while r + MR <= rows {
            let a_rows: [&[f32]; MR] = std::array::from_fn(|i| a_row(first_row + r + i));
            row_block_avx512::<MR>(a_rows, bd, kk, n, &mut out[r * n..(r + MR) * n], skip_zeros);
            r += MR;
        }
        while r < rows {
            row_block_avx512::<1>(
                [a_row(first_row + r)],
                bd,
                kk,
                n,
                &mut out[r * n..(r + 1) * n],
                skip_zeros,
            );
            r += 1;
        }
    }

    /// # Safety
    /// AVX-512F must be available (the public entry points dispatch on
    /// runtime detection). Bounds preconditions backing the
    /// `get_unchecked`/raw pointer reads: every `a_rows[i]` has length
    /// `kk`, `bd` has length `kk * n`, and `out` has length `M * n` — all
    /// established by the callers' row slicing.
    // lint: hot-path
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::needless_range_loop)] // lockstep over two register arrays
    unsafe fn row_block_avx512<const M: usize>(
        a_rows: [&[f32]; M],
        bd: &[f32],
        kk: usize,
        n: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        let bp = bd.as_ptr();
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc = [_mm512_setzero_ps(); M];
            for i in 0..M {
                acc[i] = _mm512_loadu_ps(out.as_ptr().add(i * n + j0));
            }
            for k in 0..kk {
                let b = _mm512_loadu_ps(bp.add(k * n + j0));
                for i in 0..M {
                    let av = *a_rows[i].get_unchecked(k);
                    if skip_zeros && av == 0.0 {
                        continue;
                    }
                    acc[i] = _mm512_add_ps(acc[i], _mm512_mul_ps(_mm512_set1_ps(av), b));
                }
            }
            for i in 0..M {
                _mm512_storeu_ps(out.as_mut_ptr().add(i * n + j0), acc[i]);
            }
            j0 += NR;
        }
        if j0 < n {
            matmul_row_tail(a_rows, bd, kk, n, j0, out, skip_zeros);
        }
    }

    /// AVX2 `t_matmul` over a row chunk: the reference sample-major saxpy
    /// with its inner column loop vectorized (each lane owns one output
    /// column; accumulation per element stays ascending sample order `r`).
    ///
    /// # Safety
    /// AVX2 must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn t_matmul_rows_avx2(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        samples: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows_here = out.len() / n;
        if rows_here == 0 {
            return;
        }
        for r in 0..samples {
            let a_seg = &ad[r * kk + first_row..r * kk + first_row + rows_here];
            let b_row = bd.as_ptr().add(r * n);
            for (k_local, &av) in a_seg.iter().enumerate() {
                if skip_zeros && av == 0.0 {
                    continue;
                }
                let out_row = &mut out[k_local * n..k_local * n + n];
                let op = out_row.as_mut_ptr();
                let va = _mm256_set1_ps(av);
                let mut j = 0;
                while j + 8 <= n {
                    let o = _mm256_loadu_ps(op.add(j));
                    let b = _mm256_loadu_ps(b_row.add(j));
                    _mm256_storeu_ps(op.add(j), _mm256_add_ps(o, _mm256_mul_ps(va, b)));
                    j += 8;
                }
                while j < n {
                    *op.add(j) += av * *b_row.add(j);
                    j += 1;
                }
            }
        }
    }

    /// AVX-512F `t_matmul` over a row chunk (16-lane inner loop, then the
    /// scalar column tail).
    ///
    /// # Safety
    /// AVX-512F must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn t_matmul_rows_avx512(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        samples: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows_here = out.len() / n;
        if rows_here == 0 {
            return;
        }
        for r in 0..samples {
            let a_seg = &ad[r * kk + first_row..r * kk + first_row + rows_here];
            let b_row = bd.as_ptr().add(r * n);
            for (k_local, &av) in a_seg.iter().enumerate() {
                if skip_zeros && av == 0.0 {
                    continue;
                }
                let out_row = &mut out[k_local * n..k_local * n + n];
                let op = out_row.as_mut_ptr();
                let va = _mm512_set1_ps(av);
                let mut j = 0;
                while j + 16 <= n {
                    let o = _mm512_loadu_ps(op.add(j));
                    let b = _mm512_loadu_ps(b_row.add(j));
                    _mm512_storeu_ps(op.add(j), _mm512_add_ps(o, _mm512_mul_ps(va, b)));
                    j += 16;
                }
                while j < n {
                    *op.add(j) += av * *b_row.add(j);
                    j += 1;
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

    #[test]
    fn parallelism_clamps_and_merges() {
        assert_eq!(Parallelism::threads(0).thread_count(), 1);
        assert!(Parallelism::serial().is_serial());
        assert!(Parallelism::auto().thread_count() >= 1);
        let merged = Parallelism::threads(2).max(Parallelism::threads(5));
        assert_eq!(merged.thread_count(), 5);
        // Small work stays serial under a plain hint, threads under exact.
        assert_eq!(Parallelism::threads(8).workers(100, 1000), 1);
        assert_eq!(Parallelism::exact_threads(8).workers(100, 1000), 8);
        assert_eq!(Parallelism::exact_threads(8).workers(3, 1000), 3);
        assert_eq!(Parallelism::threads(8).workers(100, 64_000_000), 8);
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
        let pinned = Parallelism::threads(2).with_backend(KernelBackend::Blocked);
        assert_eq!(pinned.backend(), KernelBackend::Blocked);
        assert_eq!(pinned.pinned_backend(), Some(KernelBackend::Blocked));
        assert_eq!(Parallelism::serial().pinned_backend(), None);
        // Unpinned resolves the process default.
        assert_eq!(
            Parallelism::serial().backend(),
            KernelBackend::default_backend()
        );
        // max(): self's pin wins, any pin beats none; serial_worker keeps it.
        let merged = pinned.max(Parallelism::threads(8));
        assert_eq!(merged.thread_count(), 8);
        assert_eq!(merged.pinned_backend(), Some(KernelBackend::Blocked));
        let other = Parallelism::threads(8).with_backend(KernelBackend::Simd);
        assert_eq!(
            pinned.max(other).pinned_backend(),
            Some(KernelBackend::Blocked)
        );
        assert_eq!(
            Parallelism::threads(8).max(other).pinned_backend(),
            Some(KernelBackend::Simd)
        );
        let worker = merged.serial_worker();
        assert!(worker.is_serial());
        assert_eq!(worker.pinned_backend(), Some(KernelBackend::Blocked));
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
            for t in [1, 3] {
                let par = Parallelism::exact_threads(t).with_backend(backend);
                let what = format!("{}/t={t}", backend.label());
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
    fn threaded_matches_scalar_for_every_worker_count() {
        let a = filled(13, 21, |r, c| if c % 4 == 0 { 0.0 } else { (r + c) as f32 });
        let b = filled(21, 10, |r, c| (r as f32 - c as f32) * 0.25);
        let want = a.matmul(&b);
        // The inner dimension split 8 + 13: the second call continues from
        // the first call's output, row partitions and all.
        let (a1, a2) = (a.slice_cols(0, 8), a.slice_cols(8, 21));
        for t in [1, 2, 3, 4, 7, 16] {
            let par = Parallelism::exact_threads(t);
            assert_bits_eq(&want, &a.matmul_with(&b, par), "threads");
            assert_bits_eq(
                &want,
                &split_k(&a1, &a2, Weights::scan(&b), par),
                "split-K threads",
            );
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(
            a.matmul_with(&b, Parallelism::exact_threads(4)).shape(),
            (0, 3)
        );
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = a.matmul_with(&b, Parallelism::exact_threads(2));
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let a = Matrix::zeros(2, 5);
        let b = Matrix::zeros(5, 0);
        assert_eq!(
            a.matmul_with(&b, Parallelism::exact_threads(2)).shape(),
            (2, 0)
        );
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
        for t in [1, 2, 4] {
            assert_bits_eq(
                &want,
                &a.matmul_with(&b, Parallelism::exact_threads(t)),
                "nan matmul",
            );
        }
    }
}
