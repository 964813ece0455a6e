//! Regression tests: every structural-invariant dimension, corrupted on
//! purpose, must produce a *descriptive* error — not a panic, not a wrong
//! answer deep inside the numeric phase.
//!
//! The validators in `opera_sparse::invariants` are always compiled, so the
//! slice-level cases below run in every configuration. The constructor-level
//! cases (feature-gated at the bottom) additionally prove that the checked
//! constructors invoke the validators when `strict-invariants` is enabled.

use opera_sparse::invariants::{
    validate_csc_slices, validate_postorder, validate_supernode_containment,
};
use opera_sparse::{CscMatrix, SparseError};

fn reason_of(err: SparseError) -> String {
    match err {
        SparseError::InvalidStructure { reason } => reason,
        other => panic!("expected InvalidStructure, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Dimension 1: CSC storage.
// ---------------------------------------------------------------------------

#[test]
fn unsorted_row_indices_are_named() {
    // Column 0 lists row 1 before row 0.
    let err = validate_csc_slices(2, 2, &[0, 2, 3], &[1, 0, 1], &[1.0, 2.0, 3.0]);
    let reason = reason_of(err.unwrap_err());
    assert!(
        reason.contains("column 0") && reason.contains("ascending"),
        "unhelpful reason: {reason}"
    );
}

#[test]
fn duplicate_row_indices_are_rejected() {
    // "Strictly ascending" also bans duplicates within a column.
    let err = validate_csc_slices(3, 1, &[0, 2], &[1, 1], &[1.0, 2.0]);
    assert!(reason_of(err.unwrap_err()).contains("ascending"));
}

#[test]
fn out_of_bounds_row_index_is_named() {
    let err = validate_csc_slices(2, 2, &[0, 1, 2], &[0, 5], &[1.0, 2.0]);
    let reason = reason_of(err.unwrap_err());
    assert!(
        reason.contains("row index 5") && reason.contains("nrows = 2"),
        "unhelpful reason: {reason}"
    );
}

#[test]
fn non_monotone_indptr_is_named() {
    let err = validate_csc_slices(3, 3, &[0, 2, 1, 3], &[0, 1, 2], &[1.0; 3]);
    let reason = reason_of(err.unwrap_err());
    assert!(reason.contains("monotone"), "unhelpful reason: {reason}");
}

#[test]
fn wrong_indptr_length_is_named() {
    let err = validate_csc_slices(2, 3, &[0, 1], &[0], &[1.0]);
    assert!(reason_of(err.unwrap_err()).contains("expected ncols + 1"));
}

#[test]
fn value_index_length_mismatch_is_named() {
    let err = validate_csc_slices(2, 1, &[0, 2], &[0, 1], &[1.0]);
    assert!(reason_of(err.unwrap_err()).contains("1 values for 2 stored indices"));
}

#[test]
fn non_finite_value_is_named() {
    let err = validate_csc_slices(2, 1, &[0, 2], &[0, 1], &[1.0, f64::NAN]);
    let reason = reason_of(err.unwrap_err());
    assert!(
        reason.contains("non-finite") && reason.contains("position 1"),
        "unhelpful reason: {reason}"
    );
}

#[test]
fn validate_method_accepts_real_matrices() {
    let a = CscMatrix::identity(4);
    a.validate().expect("identity is structurally valid");
}

// ---------------------------------------------------------------------------
// Dimension 2: elimination-tree postorder.
// ---------------------------------------------------------------------------

#[test]
fn postorder_visiting_parent_first_is_named() {
    // Chain 0 -> 1 -> 2; visiting 2 (the root) first breaks child-before-
    // parent ordering for both of its descendants.
    let parent = [Some(1), Some(2), None];
    let err = validate_postorder(&[2, 1, 0], &parent);
    let reason = reason_of(err.unwrap_err());
    assert!(reason.contains("parent"), "unhelpful reason: {reason}");
}

#[test]
fn postorder_with_duplicate_vertex_is_named() {
    let parent = [None, None, None];
    let err = validate_postorder(&[0, 0, 2], &parent);
    assert!(reason_of(err.unwrap_err()).contains("twice"));
}

#[test]
fn postorder_with_wrong_length_is_named() {
    let parent = [None, None];
    let err = validate_postorder(&[0], &parent);
    assert!(reason_of(err.unwrap_err()).contains("visits 1 vertices"));
}

#[test]
fn postorder_with_out_of_bounds_vertex_is_named() {
    let parent = [None, None];
    let err = validate_postorder(&[0, 7], &parent);
    assert!(reason_of(err.unwrap_err()).contains("vertex 7"));
}

// ---------------------------------------------------------------------------
// Dimension 3: supernode containment.
// ---------------------------------------------------------------------------

#[test]
fn broken_suffix_pattern_is_named() {
    // Supernode {0,1} stores the list {0,1,2}, so column 1 reads the suffix
    // {1,2} and must hold two values. Its value range holds one instead.
    let (rowptr, rows) = ([0, 3, 4], [0, 1, 2, 2]);
    let l_indptr = [0, 3, 4, 5];
    let err = validate_supernode_containment(&[0, 2, 3], &rowptr, &rows, &l_indptr);
    let reason = reason_of(err.unwrap_err());
    assert!(
        reason.contains("supernode 0") && reason.contains("column 1"),
        "unhelpful reason: {reason}"
    );
}

#[test]
fn missing_panel_diagonal_is_named() {
    // The list of supernode {0,1} must start 0,1,...; start it at 0,2.
    let (rowptr, rows) = ([0, 2, 3], [0, 2, 2]);
    let l_indptr = [0, 2, 3, 4];
    let err = validate_supernode_containment(&[0, 2, 3], &rowptr, &rows, &l_indptr);
    assert!(reason_of(err.unwrap_err()).contains("diagonal"));
}

#[test]
fn invalid_boundary_range_is_named() {
    let (rowptr, rows) = ([0, 0, 2], [0, 1]);
    let l_indptr = [0, 1, 2];
    let err = validate_supernode_containment(&[0, 0, 2], &rowptr, &rows, &l_indptr);
    assert!(reason_of(err.unwrap_err()).contains("invalid column range"));
}

#[test]
fn narrow_leading_pattern_is_named() {
    // Supernode 2 columns wide whose row list has only 1 row.
    let (rowptr, rows) = ([0, 1], [0]);
    let l_indptr = [0, 1, 2];
    let err = validate_supernode_containment(&[0, 2], &rowptr, &rows, &l_indptr);
    assert!(reason_of(err.unwrap_err()).contains("2 columns wide"));
}

// ---------------------------------------------------------------------------
// Constructor wiring: with `strict-invariants`, the checked constructors
// invoke the validators automatically. `CsrMatrix::from_raw_parts` already
// rejects unsorted/out-of-bounds input unconditionally, so the cases below
// target invariants only the strict layer rechecks (e.g. finiteness).
// ---------------------------------------------------------------------------

#[cfg(feature = "strict-invariants")]
mod strict {
    use super::*;

    #[test]
    fn from_raw_parts_rejects_non_finite_values() {
        let err = CscMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]);
        assert!(reason_of(err.unwrap_err()).contains("non-finite"));
    }

    #[test]
    fn factorization_pipeline_still_passes_under_strict_checks() {
        // A healthy SPD system must sail through all the extra validation
        // (permute_symmetric, postorder, supernode containment) unchanged.
        use opera_sparse::{CholeskyFactor, CsrMatrix};
        let a = CsrMatrix::from_dense(
            3,
            3,
            &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0],
            0.0,
        );
        let chol = CholeskyFactor::factor(&a).expect("SPD factorization");
        let x = chol.solve(&[1.0, 2.0, 3.0]);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip([1.0, 2.0, 3.0]) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }
}
