//! Property-based tests for the linear-algebra kernel.
//!
//! Strategy: generate well-conditioned random matrices (entries bounded, SPD
//! matrices built as `B Bᵀ + c·I`) and verify algebraic identities that must
//! hold for *any* input, not just the hand-picked cases in the unit tests.

use kalstream_linalg::{Matrix, Vector, DIM_CAP};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

const DIM_RANGE: std::ops::Range<usize> = 1..5;

/// Strategy: a vector with entries in [-10, 10].
fn vec_strategy(dim: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(-10.0..10.0f64, dim).prop_map(Vector::from_vec)
}

/// Strategy: an arbitrary matrix with entries in [-10, 10].
fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_row_major(rows, cols, data))
}

/// Strategy: an SPD matrix built as `B Bᵀ + I`, which is positive definite
/// for any `B`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    mat_strategy(n, n).prop_map(move |b| {
        let bbt = b.matmul(&b.transpose()).expect("square product");
        &bbt + &Matrix::identity(n)
    })
}

proptest! {
    #[test]
    fn dot_is_commutative(dim in DIM_RANGE, seed in 0u64..1000) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed; // dimension-driven; vectors drawn below
        let a = vec_strategy(dim).new_tree(&mut runner).unwrap().current();
        let b = vec_strategy(dim).new_tree(&mut runner).unwrap().current();
        prop_assert!((a.dot(&b).unwrap() - b.dot(&a).unwrap()).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(
        (rows, cols) in (DIM_RANGE, DIM_RANGE),
        data in prop::collection::vec(-10.0..10.0f64, 16),
    ) {
        let needed = rows * cols;
        prop_assume!(data.len() >= needed);
        let m = Matrix::from_row_major(rows, cols, data[..needed].to_vec());
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative(
        n in DIM_RANGE,
        data in prop::collection::vec(-3.0..3.0f64, 48),
    ) {
        let needed = n * n;
        prop_assume!(data.len() >= 3 * needed);
        let a = Matrix::from_row_major(n, n, data[..needed].to_vec());
        let b = Matrix::from_row_major(n, n, data[needed..2 * needed].to_vec());
        let c = Matrix::from_row_major(n, n, data[2 * needed..3 * needed].to_vec());
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-7);
    }

    #[test]
    fn matmul_distributes_over_add(
        n in DIM_RANGE,
        data in prop::collection::vec(-3.0..3.0f64, 48),
    ) {
        let needed = n * n;
        prop_assume!(data.len() >= 3 * needed);
        let a = Matrix::from_row_major(n, n, data[..needed].to_vec());
        let b = Matrix::from_row_major(n, n, data[needed..2 * needed].to_vec());
        let c = Matrix::from_row_major(n, n, data[2 * needed..3 * needed].to_vec());
        let left = a.matmul(&(&b + &c)).unwrap();
        let right = &a.matmul(&b).unwrap() + &a.matmul(&c).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-8);
    }

    #[test]
    fn transpose_of_product_reverses(
        n in DIM_RANGE,
        data in prop::collection::vec(-5.0..5.0f64, 32),
    ) {
        let needed = n * n;
        prop_assume!(data.len() >= 2 * needed);
        let a = Matrix::from_row_major(n, n, data[..needed].to_vec());
        let b = Matrix::from_row_major(n, n, data[needed..2 * needed].to_vec());
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn cholesky_solve_inverts(
        n in DIM_RANGE,
        data in prop::collection::vec(-2.0..2.0f64, 20),
    ) {
        let needed = n * n + n;
        prop_assume!(data.len() >= needed);
        let b_mat = Matrix::from_row_major(n, n, data[..n * n].to_vec());
        let spd = &b_mat.matmul(&b_mat.transpose()).unwrap() + &Matrix::identity(n);
        let rhs = Vector::from_slice(&data[n * n..n * n + n]);
        let x = spd.cholesky().unwrap().solve_vec(&rhs).unwrap();
        let back = spd.mul_vec(&x).unwrap();
        prop_assert!(back.max_abs_diff(&rhs) < 1e-8);
    }

    #[test]
    fn cholesky_quadratic_form_nonnegative(
        n in DIM_RANGE,
        data in prop::collection::vec(-2.0..2.0f64, 20),
    ) {
        let needed = n * n + n;
        prop_assume!(data.len() >= needed);
        let b_mat = Matrix::from_row_major(n, n, data[..n * n].to_vec());
        let spd = &b_mat.matmul(&b_mat.transpose()).unwrap() + &Matrix::identity(n);
        let x = Vector::from_slice(&data[n * n..n * n + n]);
        // SPD ⇒ xᵀAx ≥ ‖x‖² (since A ⪰ I here).
        let q = spd.quadratic_form(&x).unwrap();
        prop_assert!(q + 1e-9 >= x.norm() * x.norm());
    }

    #[test]
    fn lu_solve_inverts(
        n in DIM_RANGE,
        data in prop::collection::vec(-2.0..2.0f64, 20),
    ) {
        let needed = n * n + n;
        prop_assume!(data.len() >= needed);
        // Diagonally-dominant matrices are never singular.
        let mut a = Matrix::from_row_major(n, n, data[..n * n].to_vec());
        for i in 0..n {
            let v = a.get(i, i);
            a.set(i, i, v + 10.0 * (n as f64));
        }
        let rhs = Vector::from_slice(&data[n * n..n * n + n]);
        let x = a.lu().unwrap().solve_vec(&rhs).unwrap();
        let back = a.mul_vec(&x).unwrap();
        prop_assert!(back.max_abs_diff(&rhs) < 1e-8);
    }

    #[test]
    fn det_of_product_is_product_of_dets(
        n in DIM_RANGE,
        data in prop::collection::vec(-2.0..2.0f64, 32),
    ) {
        let needed = n * n;
        prop_assume!(data.len() >= 2 * needed);
        let a = Matrix::from_row_major(n, n, data[..needed].to_vec());
        let b = Matrix::from_row_major(n, n, data[needed..2 * needed].to_vec());
        let dab = a.matmul(&b).unwrap().det().unwrap();
        let da = a.det().unwrap();
        let db = b.det().unwrap();
        prop_assert!((dab - da * db).abs() < 1e-6 * (1.0 + dab.abs()));
    }

    #[test]
    fn spd_inverse_is_spd(
        n in DIM_RANGE,
        data in prop::collection::vec(-2.0..2.0f64, 16),
    ) {
        prop_assume!(data.len() >= n * n);
        let b_mat = Matrix::from_row_major(n, n, data[..n * n].to_vec());
        let spd = &b_mat.matmul(&b_mat.transpose()).unwrap() + &Matrix::identity(n);
        let mut inv = spd.cholesky().unwrap().inverse().unwrap();
        inv.symmetrize_mut();
        prop_assert!(inv.cholesky().is_ok());
    }

    #[test]
    fn vector_triangle_inequality(
        dim in DIM_RANGE,
        data in prop::collection::vec(-10.0..10.0f64, 10),
    ) {
        prop_assume!(data.len() >= 2 * dim);
        let a = Vector::from_slice(&data[..dim]);
        let b = Vector::from_slice(&data[dim..2 * dim]);
        prop_assert!((&a + &b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn scaling_scales_norm(
        dim in DIM_RANGE,
        s in -5.0..5.0f64,
        data in prop::collection::vec(-10.0..10.0f64, 5),
    ) {
        prop_assume!(data.len() >= dim);
        let v = Vector::from_slice(&data[..dim]);
        prop_assert!((v.scaled(s).norm() - s.abs() * v.norm()).abs() < 1e-8);
    }
}

/// Strategy-free check that SPD generation used above is in fact accepted by
/// Cholesky for a spread of dimensions.
#[test]
fn spd_strategy_is_spd() {
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    for n in 1..5 {
        for _ in 0..8 {
            let m = spd_strategy(n).new_tree(&mut runner).unwrap().current();
            assert!(m.cholesky().is_ok(), "generated matrix not SPD at n={n}");
        }
    }
}

/// Dirty scratch: a deliberately mis-shaped, garbage-filled buffer that
/// `matmul_transpose_into` must fully overwrite (and reshape).
fn dirty_mat() -> Matrix {
    Matrix::from_row_major(2, 3, vec![9.75; 6])
}

// The products the static kernel replicates must agree with their textbook
// spelling *bit for bit* (`==` on f64, not an epsilon), on every shape a
// `Matrix` can take — hence dimensions up to `DIM_CAP`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_transpose_into_bit_identical(
        (r, k, c) in (1..=DIM_CAP, 1..=DIM_CAP, 1..=DIM_CAP),
        data in prop::collection::vec(-10.0..10.0f64, 200),
    ) {
        prop_assume!(data.len() >= r * k + c * k);
        let a = Matrix::from_row_major(r, k, data[..r * k].to_vec());
        let b = Matrix::from_row_major(c, k, data[r * k..r * k + c * k].to_vec());
        let mut out = dirty_mat();
        a.matmul_transpose_into(&b, &mut out).unwrap();
        prop_assert_eq!(out, a.matmul(&b.transpose()).unwrap());
    }

    #[test]
    fn assign_ops_bit_identical(
        (r, c) in (1..=DIM_CAP, 1..=DIM_CAP),
        s in -5.0..5.0f64,
        data in prop::collection::vec(-10.0..10.0f64, 200),
    ) {
        prop_assume!(data.len() >= 2 * r * c);
        let a = Matrix::from_row_major(r, c, data[..r * c].to_vec());
        let b = Matrix::from_row_major(r, c, data[r * c..2 * r * c].to_vec());
        let mut add = a.clone();
        add += &b;
        prop_assert_eq!(add, &a + &b);
        let mut sub = a.clone();
        sub -= &b;
        prop_assert_eq!(sub, &a - &b);
        let mut scaled = a.clone();
        scaled.scale_mut(s);
        prop_assert_eq!(scaled, a.scaled(s));
    }
}
