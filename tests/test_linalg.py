import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grit.errors import DecompositionError, ShapeError, SingularMatrixError
from grit.linalg import (
    DAMPING_LADDER,
    damped_inverse,
    damped_solve,
    sym_eig,
    sym_eig_stack,
    symmetrize,
)


def finite_matrices(max_dim=16):
    return st.integers(1, max_dim).flatmap(
        lambda n: arrays(
            np.float64,
            (n, n),
            elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        )
    )


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.linalg.norm(dec.reconstruct() - np.eye(3)) < 1e-12

    def test_diagonal(self):
        dec = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        # axis vectors up to sign; the convention makes the first nonzero entry positive
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))
        assert dec.eigenvectors[0, 0] >= 0.0
        assert dec.eigenvectors[1, 1] >= 0.0

    def test_seeded_5x5_reconstruction(self):
        rng = np.random.default_rng(7)
        m = symmetrize(rng.normal(size=(5, 5)))
        dec = sym_eig(m)
        rel = np.linalg.norm(dec.reconstruct() - m) / np.linalg.norm(m)
        assert rel < 1e-8

    def test_matches_lapack(self):
        rng = np.random.default_rng(3)
        m = symmetrize(rng.normal(size=(8, 8)))
        dec = sym_eig(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(dec.eigenvalues - ref)) < 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        m = symmetrize(rng.normal(size=(6, 6)))
        dec = sym_eig(m)
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)

    def test_non_finite_rejected(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(DecompositionError, match="stats matrix"):
            sym_eig(m, name="stats matrix")

    def test_zero_matrix(self):
        dec = sym_eig(np.zeros((4, 4)))
        assert np.allclose(dec.eigenvalues, 0.0)
        assert np.allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(4))

    def test_tied_eigenvalues_keep_index_order(self):
        assert np.array_equal(sym_eig(np.eye(3)).eigenvectors, np.eye(3))

    def test_lapack_failure_names_matrix(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(DecompositionError, match="x"):
            sym_eig(np.eye(2), name="x")

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices())
    def test_reconstruction_property(self, m):
        sym = symmetrize(m)
        dec = sym_eig(sym)
        denom = max(np.linalg.norm(sym), 1e-12)
        assert np.linalg.norm(dec.reconstruct() - sym) / denom < 1e-8
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(sym.shape[0]))) < 1e-8


def fix_signs_by_column(vecs):
    # the column-by-column form of the sign convention, as the reference
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            vecs[:, j] = -col


def reference_eig(m):
    # each matrix on its own: eigh of the symmetrized matrix, a stable
    # descending sort and the column-by-column sign convention
    eigs, vecs = np.linalg.eigh(symmetrize(m))
    order = np.argsort(-eigs, kind="stable")
    eigs, vecs = eigs[order], vecs[:, order]
    fix_signs_by_column(vecs)
    return eigs, vecs


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


class TestFixSigns:
    @pytest.mark.parametrize(
        "vecs",
        [
            np.diag([-1.0, 1.0, -1.0]),
            # zero and sub-threshold leading entries, of either sign
            np.array([[0.0, -1e-13, 1e-13, 0.0], [-0.6, 0.8, -1e-14, 0.0],
                      [0.8, 0.6, 0.0, -0.0], [0.0, 0.0, -1.0, 1e-20]]),
            # no entry above 1e-12: left as it is
            np.array([[-1e-13, 0.0], [1e-14, -0.0], [-1e-15, 0.0]]),
            _orthogonal(np.random.default_rng(0), 6),
            np.vstack([np.zeros((2, 5)), _orthogonal(np.random.default_rng(1), 5)[:3]]),
        ],
        ids=["diagonal", "small_leading", "sub_threshold", "dense", "zero_rows"],
    )
    def test_matches_column_loop(self, vecs):
        # sym_eig signs the eigenvectors of each case's Gram matrix as the column loop does
        m = vecs @ vecs.T
        assert sym_eig(m).eigenvectors.tobytes() == reference_eig(m)[1].tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            np.eye(4),
            np.diag([2.0, 2.0, 1.0, 0.0]),
            np.kron(np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]])),
            np.zeros((3, 3)),
            np.ones((5, 5)),
        ],
        ids=["identity", "repeated", "block", "zero", "rank_one"],
    )
    def test_sym_eig_vectors_match_column_loop(self, m):
        assert sym_eig(m).eigenvectors.tobytes() == reference_eig(m)[1].tobytes()

    def test_empty(self):
        dec = sym_eig(np.zeros((0, 0)))
        assert dec.eigenvalues.shape == (0,)
        assert dec.eigenvectors.shape == (0, 0)


class TestDampedSolve:
    def test_identity_no_damping(self):
        b = np.array([[1.0], [2.0]])
        x, mult = damped_solve(np.eye(2), 0.0, b)
        assert mult == 1.0
        assert np.allclose(x, b)

    def test_zero_matrix_pure_damping(self):
        b = np.array([[1.0], [-1.0]])
        x, mult = damped_solve(np.zeros((2, 2)), 1.0, b)
        assert mult == 1.0
        assert np.allclose(x, b)

    def test_against_direct_inverse(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        x, mult = damped_solve(m, 0.1, np.eye(2))
        direct = np.linalg.inv(m + 0.1 * np.eye(2))
        assert mult == 1.0
        assert np.max(np.abs(x - direct)) < 1e-10

    def test_ladder_escalation(self):
        # indefinite matrix: -1 on the diagonal needs lambda' > 1 to turn definite
        m = np.diag([-1.0, 1.0])
        x, mult = damped_solve(m, 0.5, np.eye(2))
        assert mult == 3.0
        shifted = m + mult * 0.5 * np.eye(2)
        assert np.allclose(shifted @ x, np.eye(2))

    def test_ladder_exhaustion(self):
        m = np.diag([-1.0, 1.0])
        with pytest.raises(SingularMatrixError) as err:
            damped_solve(m, 0.0, np.eye(2))
        assert err.value.multiplier == 300.0

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ShapeError):
            damped_solve(np.eye(2), 0.0, np.ones((3, 1)))

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices(max_dim=8), st.floats(1e-6, 1.0))
    def test_residual_property(self, m, damping):
        sym = symmetrize(m)
        rhs = np.eye(sym.shape[0])
        try:
            x, mult = damped_solve(sym, damping, rhs)
        except SingularMatrixError as err:
            # legitimate for strongly indefinite inputs; the final rung is reported
            assert err.multiplier == 300.0
            return
        shifted = sym + mult * damping * np.eye(sym.shape[0])
        rel = np.linalg.norm(shifted @ x - rhs) / np.linalg.norm(rhs)
        assert rel < 1e-8


def _stack_cases():
    rng = np.random.default_rng(5)
    random = rng.normal(size=(6, 5, 5))
    psd = random @ random.transpose(0, 2, 1)
    return {
        "random": random,
        "psd": psd,
        "all_zero": np.zeros((4, 3, 3)),
        "repeated": np.stack([np.eye(4), np.diag([2.0, 2.0, 1.0, 0.0]), np.diag([1.0, 3.0, 3.0, 3.0])]),
        # eigenvectors whose leading entries vanish or are negative
        "sign_ambiguous": np.stack([
            np.kron(np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]])),
            np.ones((4, 4)),
            np.diag([-1.0, 1.0, -2.0, 2.0]),
            np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0],
                      [0.0, -1.0, 1.0, 0.0], [0.0, 0.0, 0.0, -3.0]]),
        ]),
        "mixed": np.stack([psd[0], np.zeros((5, 5)), random[1], np.eye(5), psd[0]]),
    }


class TestSymEigStack:
    @pytest.mark.parametrize("case", list(_stack_cases()))
    def test_bitwise_equal_to_sym_eig(self, case):
        mats = _stack_cases()[case]
        decomps = sym_eig_stack(mats, [f"m{i}" for i in range(len(mats))])
        assert len(decomps) == len(mats)
        for m, dec in zip(mats, decomps):
            eigs, vecs = reference_eig(m)
            assert dec.eigenvalues.tobytes() == eigs.tobytes()
            assert dec.eigenvectors.tobytes() == vecs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.integers(1, 8).flatmap(
                lambda r: arrays(
                    np.float64, (n, r, r),
                    elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                )
            )
        )
    )
    def test_bitwise_property(self, mats):
        decomps = sym_eig_stack(mats, [str(i) for i in range(len(mats))])
        for m, dec in zip(mats, decomps):
            eigs, vecs = reference_eig(m)
            assert dec.eigenvalues.tobytes() == eigs.tobytes()
            assert dec.eigenvectors.tobytes() == vecs.tobytes()

    def test_accepts_a_list_of_matrices(self):
        rng = np.random.default_rng(2)
        mats = [rng.normal(size=(3, 3)) for _ in range(3)]
        for m, dec in zip(mats, sym_eig_stack(mats, ["a", "b", "c"])):
            assert dec.eigenvectors.tobytes() == reference_eig(m)[1].tobytes()

    def test_non_finite_matrix_named(self):
        mats = np.stack([np.eye(3), np.eye(3), np.eye(3)])
        mats[1, 0, 2] = np.inf
        mats[2, 1, 1] = np.nan
        with pytest.raises(DecompositionError, match="non-finite entries in g_cov of layer 0"):
            sym_eig_stack(mats, ["a_cov of layer 0", "g_cov of layer 0", "a_cov of layer 1"])

    def test_lapack_failure_names_matrix(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(DecompositionError, match="first"):
            sym_eig_stack(np.stack([np.eye(2), np.eye(2)]), ["first", "second"])

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            sym_eig_stack(np.zeros((2, 3, 4)), ["a", "b"])
        with pytest.raises(ShapeError):
            sym_eig_stack(np.zeros((2, 3, 3)), ["a"])


# every ladder case of TestDampedSolve, with its matrix and damping
LADDER_CASES = {
    "identity_no_damping": (np.eye(2), 0.0),
    "zero_matrix_pure_damping": (np.zeros((2, 2)), 1.0),
    "direct_inverse": (np.array([[2.0, 1.0], [1.0, 2.0]]), 0.1),
    "escalation": (np.diag([-1.0, 1.0]), 0.5),
    "psd_8x8": (
        (lambda m: m @ m.T)(np.random.default_rng(4).normal(size=(8, 8))), 1e-3,
    ),
    "indefinite_5x5": (symmetrize(np.random.default_rng(6).normal(size=(5, 5))), 0.2),
}


class TestDampedInverse:
    @pytest.mark.parametrize("case", list(LADDER_CASES))
    def test_matches_damped_solve(self, case):
        m, damping = LADDER_CASES[case]
        inv, mult, cond = damped_inverse(sym_eig(m), damping)
        ref, ref_mult = damped_solve(m, damping, np.eye(m.shape[0]))
        assert mult == ref_mult
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
        shifted = symmetrize(m) + mult * damping * np.eye(m.shape[0])
        assert np.isclose(cond, np.linalg.cond(shifted), rtol=1e-10, atol=0.0)

    def test_climbs_above_the_first_rung(self):
        assert damped_inverse(sym_eig(LADDER_CASES["escalation"][0]), 0.5)[1] == 3.0
        m, damping = LADDER_CASES["indefinite_5x5"]
        assert damped_inverse(sym_eig(m), damping)[1] > 1.0

    def test_exhaustion(self):
        with pytest.raises(SingularMatrixError) as err:
            damped_inverse(sym_eig(np.diag([-1.0, 1.0])), 0.0)
        assert err.value.multiplier == DAMPING_LADDER[-1]
        with pytest.raises(SingularMatrixError):
            damped_inverse(sym_eig(np.diag([-1e3, 1.0])), 1.0)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            damped_inverse(sym_eig(np.eye(2)), -1.0)
