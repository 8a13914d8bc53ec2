//! Property tests pinning the kernel-layer contract: every backend tier
//! (blocked micro-tiles, explicit AVX2/AVX-512 SIMD) of `matmul` /
//! `t_matmul` / `matmul_t` produces outputs **bit-identical** to the
//! reference loops of `Matrix::matmul` / `t_matmul` / `matmul_t` — across
//! rectangular and degenerate shapes (0×n, 1×1, non-square), at CardNet's
//! own shapes, and with non-finite inputs (NaN, ±∞, ±0.0) in the mix. The
//! one deliberate relaxation: NaN outputs match as a *class* (any NaN
//! equals any NaN), because NaN sign/payload propagation is ISA-defined and
//! differs across hosts.
//!
//! Bitwise comparison (not approximate) is the point: the serving cache,
//! the snapshot system, and the trained-weight guarantee all rely on "the
//! backend changes wall clock, never bits". On CPUs without AVX2 the `simd`
//! variants exercise the runtime-dispatch fallback instead — selecting the
//! SIMD backend must be safe everywhere.

use cardest_nn::kernels::{KernelBackend, Parallelism};
use cardest_nn::{Matrix, Weights};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic matrix fill mixing the value classes that matter: exact
/// zeros (the sparse-skip path), negative zeros, ordinary finite values, and
/// — when `nonfinite` — NaN and ±∞.
fn matrix_from_seed(rows: usize, cols: usize, seed: u64, nonfinite: bool) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        let roll: f64 = rng.gen();
        if roll < 0.30 {
            0.0
        } else if roll < 0.36 {
            -0.0
        } else if nonfinite && roll < 0.40 {
            f32::NAN
        } else if nonfinite && roll < 0.44 {
            f32::INFINITY
        } else if nonfinite && roll < 0.48 {
            f32::NEG_INFINITY
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

fn assert_bits_eq(want: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape mismatch");
    for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        // NaNs compare as a class, not bit for bit: which NaN payload/sign an
        // FMA or x87-less fallback produces is ISA-defined, so demanding one
        // exact NaN bit pattern would tie the test to the host CPU. Every
        // non-NaN value (including ±0.0 and ±∞) must still match exactly.
        if w.is_nan() && g.is_nan() {
            continue;
        }
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{what}: element {i} differs: {w} vs {g}"
        );
    }
}

/// The configurations under test: the process-default backend, then every
/// pinned backend.
fn variants() -> Vec<(String, Parallelism)> {
    let mut v = vec![("default".to_string(), Parallelism::serial())];
    for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
        let par = Parallelism::serial().with_backend(backend);
        v.push((backend.label().to_string(), par));
    }
    v
}

fn check_all_kernels(m: usize, k: usize, n: usize, seed: u64, nonfinite: bool) {
    // matmul: (m×k) @ (k×n).
    let a = matrix_from_seed(m, k, seed, nonfinite);
    let b = matrix_from_seed(k, n, seed ^ 0x9E37_79B9, nonfinite);
    let want = a.matmul(&b);
    for (label, par) in variants() {
        assert_bits_eq(&want, &a.matmul_with(&b, par), &format!("matmul {label}"));
    }

    // t_matmul: (m×k)ᵀ @ (m×n) — shares the m-dimension.
    let a2 = matrix_from_seed(m, k, seed ^ 0xDEAD_BEEF, nonfinite);
    let b2 = matrix_from_seed(m, n, seed ^ 0xFACE_FEED, nonfinite);
    let want = a2.t_matmul(&b2);
    for (label, par) in variants() {
        assert_bits_eq(
            &want,
            &a2.t_matmul_with(&b2, par),
            &format!("t_matmul {label}"),
        );
    }

    // matmul_t: (m×k) @ (n×k)ᵀ — shares the k-dimension.
    let a3 = matrix_from_seed(m, k, seed ^ 0x0123_4567, nonfinite);
    let b3 = matrix_from_seed(n, k, seed ^ 0x89AB_CDEF, nonfinite);
    let want = a3.matmul_t(&b3);
    for (label, par) in variants() {
        assert_bits_eq(
            &want,
            &a3.matmul_t_with(&b3, par),
            &format!("matmul_t {label}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random rectangular shapes up to 21 per dimension (covers the 4×8
    /// micro-tile interior, every edge remainder, and single-row/column
    /// cases), finite values with many exact/negative zeros.
    #[test]
    fn kernels_bit_identical_on_finite_inputs(
        m in 0usize..22,
        k in 0usize..22,
        n in 0usize..22,
        seed in any::<u64>(),
    ) {
        check_all_kernels(m, k, n, seed, false);
    }

    /// Same property with NaN / ±∞ mixed in: the dense fallback (the
    /// sparse skip is disabled by the finiteness pre-check) must also be
    /// order-identical across variants — NaN where the reference has NaN
    /// (payload/sign free, see `assert_bits_eq`), exact bits elsewhere.
    #[test]
    fn kernels_bit_identical_on_nonfinite_inputs(
        m in 0usize..16,
        k in 0usize..16,
        n in 0usize..16,
        seed in any::<u64>(),
    ) {
        check_all_kernels(m, k, n, seed, true);
    }

    /// Degenerate shapes: at least one dimension pinned to zero, on every
    /// backend. (0×n) @ (n×m), (m×0) @ (0×n), and friends.
    #[test]
    fn kernels_handle_degenerate_shapes(
        m in 0usize..6,
        k in 0usize..6,
        n in 0usize..6,
        which in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (m, k, n) = match which {
            0 => (0, k, n),
            1 => (m, 0, n),
            _ => (m, k, 0),
        };
        check_all_kernels(m, k, n, seed, true);
    }
}

/// Larger-than-cache-tile shapes run many row blocks and column tiles;
/// deterministic heavyweight cases keep the proptest suite fast while still
/// covering the "real" regime. CardNet's own products — a training
/// minibatch and a batch estimate over binary-sparse features (64×176×96,
/// 256×176×96) and a dense 256×256×192 product — run under every variant.
/// `matmul` also runs split-K, the way the first Φ layer adds the distance
/// rows onto the feature product.
#[test]
fn kernels_bit_identical_at_model_scale() {
    check_all_kernels(64, 160, 96, 0xC0DE, false);
    let pars = variants();
    for (m, k, n, sparse) in [
        (64, 176, 96, true),
        (256, 176, 96, true),
        (256, 256, 192, false),
    ] {
        let a = if sparse {
            Matrix::from_fn(m, k, |r, c| f32::from(u8::from((r * 13 + c * 7) % 4 == 0)))
        } else {
            let mut rng = StdRng::seed_from_u64(11);
            Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f32..1.0))
        };
        let b = matrix_from_seed(k, n, 23, false);
        let (bt, at) = (b.transpose(), a.transpose());
        let (want_mm, want_mmt, want_tmm) = (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b));
        let (a1, a2) = (a.slice_cols(0, k / 2), a.slice_cols(k / 2, k));
        let (b1, b2) = Weights::scan(&b).split_rows(k / 2);
        for (label, par) in &pars {
            let par = *par;
            let mut split = Matrix::zeros(m, n);
            a1.matmul_acc_with(b1, &mut split, par);
            a2.matmul_acc_with(b2, &mut split, par);
            for (product, want, got) in [
                ("matmul", &want_mm, a.matmul_with(&b, par)),
                ("matmul_t", &want_mmt, a.matmul_t_with(&bt, par)),
                ("t_matmul", &want_tmm, at.t_matmul_with(&b, par)),
                ("split-K matmul", &want_mm, split),
            ] {
                assert_bits_eq(want, &got, &format!("{product} {m}x{k}x{n} {label}"));
            }
        }
    }
}

/// The scalar contract of `matmul_acc_with`: each element of `acc`
/// continues from its current value through ascending `t`, one `mul` and
/// one `add` per term, skipping `a == 0.0` terms when `b` is finite — the
/// loop of `Matrix::matmul`, started from `acc` instead of zeros.
fn matmul_acc_reference(a: &Matrix, b: &Matrix, acc: &mut Matrix) {
    let skip_zeros = b.all_finite();
    for i in 0..a.rows() {
        for (t, &av) in a.row(i).iter().enumerate() {
            if skip_zeros && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.row_mut(i).iter_mut().zip(b.row(t)) {
                *o += av * bv;
            }
        }
    }
}

/// Every remainder of the SIMD register tile: rows 1..=9 (up to two full
/// 4-row AVX-512 tiles or four 2-row AVX2 tiles, with every leftover row
/// count), every output width from one lane to past one 96-column AVX-512
/// chunk and four 32-column AVX2 chunks (so every chunk width and masked
/// tail runs), at inner dimensions 1, 7 and 64. Two products per shape,
/// each against the scalar reference on every backend:
///
/// * split-K `matmul_acc_with`, as `Tape::pair_linear` calls it, onto a
///   partial that already holds `-0.0`s: `A₁·B₁`, then `A₂·B₂` from where
///   it left off. A skipped zero term must leave a `-0.0` alone, where
///   adding its `+0.0` product would not;
/// * `t_matmul_with`, which reads its left operand transposed in place.
///
/// The operands mix exact and negative zeros into finite values; B is
/// finite, or carries a NaN or ∞ row that turns the zero skip off for its
/// product. The default variant is one of the two pinned backends, so it
/// is not run again here.
#[test]
fn tile_kernels_bit_identical_at_every_remainder() {
    let k1 = 3;
    let pars = &variants()[1..];
    for m in 1..=9usize {
        for n in 1..=130usize {
            for k in [1usize, 7, 64] {
                let seed = ((m * 1000 + n) * 100 + k) as u64;
                let a1 = matrix_from_seed(m, k1, seed, false);
                let a2 = matrix_from_seed(m, k, seed + 1, false);
                let at = matrix_from_seed(m, k, seed + 2, false);
                let b1 = matrix_from_seed(k1, n, seed + 3, false);
                let partial = matrix_from_seed(m, n, seed + 6, false);
                let fills = [None, Some(f32::NAN), Some(f32::INFINITY)];
                for fill in fills {
                    let mut b2 = matrix_from_seed(k, n, seed + 4, false);
                    let mut g = matrix_from_seed(m, n, seed + 5, false);
                    if let Some(v) = fill {
                        b2.row_mut(k / 2).fill(v);
                        g.row_mut(m / 2).fill(v);
                    }
                    if fill.is_none() {
                        // From zeros, the reference is `Matrix::matmul`.
                        let mut from_zero = Matrix::zeros(m, n);
                        matmul_acc_reference(&a2, &b2, &mut from_zero);
                        assert_bits_eq(&a2.matmul(&b2), &from_zero, "matmul_acc_reference");
                    }
                    let mut want = partial.clone();
                    matmul_acc_reference(&a1, &b1, &mut want);
                    matmul_acc_reference(&a2, &b2, &mut want);
                    let want_t = at.t_matmul(&g);
                    for (label, par) in pars {
                        let mut acc = partial.clone();
                        a1.matmul_acc_with(Weights::scan(&b1), &mut acc, *par);
                        a2.matmul_acc_with(Weights::scan(&b2), &mut acc, *par);
                        let case = format!("m={m} n={n} k={k} row fill {fill:?} {label}");
                        assert_bits_eq(&want, &acc, &format!("split-K matmul_acc {case}"));
                        let got = at.t_matmul_with(&g, *par);
                        assert_bits_eq(&want_t, &got, &format!("t_matmul {case}"));
                    }
                }
            }
        }
    }
}
