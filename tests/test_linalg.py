import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grit.errors import DecompositionError, ShapeError, SingularMatrixError
from grit.linalg import _fix_signs, damped_solve, sym_eig, symmetrize


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
        expected = vecs.copy()
        fix_signs_by_column(expected)
        got = vecs.copy()
        _fix_signs(got)
        assert got.tobytes() == expected.tobytes()

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
        eigs, vecs = np.linalg.eigh(symmetrize(m))
        vecs = vecs[:, np.argsort(-eigs, kind="stable")]
        fix_signs_by_column(vecs)
        assert sym_eig(m).eigenvectors.tobytes() == vecs.tobytes()

    def test_empty(self):
        vecs = np.zeros((0, 0))
        _fix_signs(vecs)
        assert vecs.shape == (0, 0)


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
