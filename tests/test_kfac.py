import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grit.errors import PreconditionUnavailableError, ShapeError
from grit.kfac import (
    RankSpaceStats,
    accumulate,
    precondition,
    refresh_inverses,
)
from grit.linalg import sym_eig
from grit.model import AdapterPair, LayerTape


def make_tape(x, dy):
    tape = LayerTape()
    tape.x = np.asarray(x, dtype=np.float64)
    tape.dy = np.asarray(dy, dtype=np.float64)
    return tape


def identity_adapter(d):
    return AdapterPair(a=np.eye(d), b=np.eye(d), rank=d, scaling=1.0)


class TestAccumulate:
    def test_first_single_sample(self):
        x = np.array([[1.0, 2.0, -1.0]])
        stats = RankSpaceStats(rank=3, damping=1e-3)
        accumulate(stats, make_tape(x, np.zeros((1, 3))), identity_adapter(3))
        assert stats.n_cov == 1
        assert np.allclose(stats.a_cov, x.T @ x)

    def test_running_mean_idempotent_on_equal_samples(self):
        x = np.array([[0.5, -1.5]])
        stats = RankSpaceStats(rank=2, damping=1e-3)
        adapter = identity_adapter(2)
        accumulate(stats, make_tape(x, np.zeros((1, 2))), adapter)
        first = stats.a_cov.copy()
        accumulate(stats, make_tape(x, np.zeros((1, 2))), adapter)
        assert stats.n_cov == 2
        assert np.allclose(stats.a_cov, first)

    def test_batch_weighting_matches_sample_stream(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(6, 2))
        adapter = identity_adapter(2)
        streamed = RankSpaceStats(rank=2, damping=1e-3)
        for row in xs:
            accumulate(streamed, make_tape(row[None, :], np.zeros((1, 2))), adapter)
        batched = RankSpaceStats(rank=2, damping=1e-3)
        accumulate(batched, make_tape(xs[:4], np.zeros((4, 2))), adapter)
        accumulate(batched, make_tape(xs[4:], np.zeros((2, 2))), adapter)
        assert streamed.n_cov == batched.n_cov == 6
        assert np.allclose(streamed.a_cov, batched.a_cov)

    def test_ema_recurrence(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(4, 2))
        x1 = rng.normal(size=(4, 2))
        adapter = identity_adapter(2)
        stats = RankSpaceStats(rank=2, damping=1e-3, ema_beta=0.9)
        accumulate(stats, make_tape(x0, np.zeros((4, 2))), adapter)
        c0 = stats.a_cov.copy()
        accumulate(stats, make_tape(x1, np.zeros((4, 2))), adapter)
        s1 = x1.T @ x1 / 4
        assert np.allclose(stats.a_cov, 0.9 * c0 + 0.1 * s1)

    def test_rank_mismatch(self):
        stats = RankSpaceStats(rank=3, damping=1e-3)
        with pytest.raises(ShapeError):
            accumulate(stats, make_tape(np.ones((1, 2)), np.ones((1, 2))), identity_adapter(2))

    @pytest.mark.parametrize("ema_beta", [None, 0.9], ids=["running_mean", "ema"])
    @pytest.mark.parametrize("seen", [0, 4], ids=["no_samples", "with_samples"])
    def test_empty_batch_rejected_before_the_statistics_change(self, ema_beta, seen):
        """Not NaN statistics nor a ZeroDivisionError from the running mean's weights."""
        adapter = identity_adapter(2)
        stats = RankSpaceStats(rank=2, damping=1e-3, ema_beta=ema_beta)
        if seen:
            accumulate(stats, make_tape(np.ones((seen, 2)), np.ones((seen, 2))), adapter)
        a_cov, g_cov = stats.a_cov.copy(), stats.g_cov.copy()
        with pytest.raises(ShapeError, match="empty batch"):
            accumulate(stats, make_tape(np.zeros((0, 2)), np.zeros((0, 2))), adapter)
        assert stats.n_cov == seen
        assert stats.a_cov.tobytes() == a_cov.tobytes() and stats.g_cov.tobytes() == g_cov.tobytes()

    def test_g_side_uses_dy_and_b(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        dy = rng.normal(size=(3, 5))
        adapter = AdapterPair(a=rng.normal(size=(2, 4)), b=rng.normal(size=(5, 2)), rank=2, scaling=1.0)
        stats = RankSpaceStats(rank=2, damping=1e-3)
        accumulate(stats, make_tape(x, dy), adapter)
        g_r = dy @ adapter.b
        assert np.allclose(stats.g_cov, g_r.T @ g_r / 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.booleans())
    def test_psd_preserved(self, seed, n_batches, use_ema):
        rng = np.random.default_rng(seed)
        stats = RankSpaceStats(rank=3, damping=1e-3, ema_beta=0.9 if use_ema else None)
        adapter = AdapterPair(
            a=rng.normal(size=(3, 5)), b=rng.normal(size=(5, 3)), rank=3, scaling=1.0
        )
        for _ in range(n_batches):
            batch = int(rng.integers(1, 5))
            accumulate(
                stats,
                make_tape(rng.normal(size=(batch, 5)), rng.normal(size=(batch, 5))),
                adapter,
            )
        for cov in (stats.a_cov, stats.g_cov):
            eigs = sym_eig(cov).eigenvalues
            assert eigs.min() >= -1e-9


class TestRefreshInverses:
    def test_identity_zero_damping(self):
        stats = RankSpaceStats(rank=2, damping=0.0)
        stats.a_cov = np.eye(2)
        stats.g_cov = np.eye(2)
        stats.n_cov = 100
        assert refresh_inverses(stats, min_samples=64)
        assert np.allclose(stats.inv_a, np.eye(2))
        assert stats.inv_ready

    def test_damped_diagonal(self):
        stats = RankSpaceStats(rank=2, damping=1.0)
        stats.a_cov = np.diag([3.0, 1.0])
        stats.g_cov = np.eye(2)
        stats.n_cov = 100
        refresh_inverses(stats, min_samples=1)
        assert np.allclose(stats.inv_a, np.diag([0.25, 0.5]))

    def test_gate_unmet_is_noop(self):
        stats = RankSpaceStats(rank=2, damping=1e-3)
        stats.n_cov = 10
        assert not refresh_inverses(stats, min_samples=64)
        assert not stats.inv_ready
        assert stats.inv_a is None

    def test_gate_monotone(self):
        rng = np.random.default_rng(3)
        stats = RankSpaceStats(rank=2, damping=1e-2)
        adapter = identity_adapter(2)
        accumulate(stats, make_tape(rng.normal(size=(80, 2)), rng.normal(size=(80, 2))), adapter)
        refresh_inverses(stats, min_samples=64)
        assert stats.inv_ready
        refresh_inverses(stats, min_samples=10**9)  # later gate misses must not clear readiness
        assert stats.inv_ready

    def test_given_decompositions_match_own(self):
        rng = np.random.default_rng(8)
        m1, m2 = rng.normal(size=(2, 4, 4))
        own = RankSpaceStats(rank=4, damping=1e-2)
        own.a_cov, own.g_cov, own.n_cov = m1 @ m1.T, m2 @ m2.T, 100
        given = RankSpaceStats(rank=4, damping=1e-2)
        given.a_cov, given.g_cov, given.n_cov = own.a_cov, own.g_cov, 100
        assert refresh_inverses(own, min_samples=1)
        assert refresh_inverses(given, 1, (sym_eig(own.a_cov), sym_eig(own.g_cov)))
        assert given.inv_a.tobytes() == own.inv_a.tobytes()
        assert given.inv_g.tobytes() == own.inv_g.tobytes()
        assert given.rung == own.rung == (1.0, 1.0)
        assert given.cond == own.cond

    def test_rung_and_condition_recorded(self):
        stats = RankSpaceStats(rank=2, damping=0.5)
        stats.a_cov = np.diag([-1.0, 1.0])  # needs the second rung
        stats.g_cov = np.diag([3.0, 1.0])
        stats.n_cov = 100
        refresh_inverses(stats, min_samples=1)
        assert stats.rung == (3.0, 1.0)
        # (lambda_max + m delta) / (lambda_min + m delta)
        assert np.allclose(stats.cond, (2.5 / 0.5, 3.5 / 1.5), rtol=1e-14, atol=0.0)


class TestPrecondition:
    def test_identity_preconditioner(self):
        stats = RankSpaceStats(rank=2, damping=0.0)
        stats.inv_a = np.eye(2)
        stats.inv_g = np.eye(2)
        stats.inv_ready = True
        ga = np.arange(6.0).reshape(2, 3)
        gb = np.arange(8.0).reshape(4, 2)
        na, nb = precondition(ga, gb, stats)
        assert np.array_equal(na, ga)
        assert np.array_equal(nb, gb)

    def test_diagonal_g_side(self):
        stats = RankSpaceStats(rank=2, damping=0.0)
        stats.g_cov = np.diag([2.0, 1.0])
        stats.a_cov = np.eye(2)
        stats.n_cov = 100
        refresh_inverses(stats, min_samples=1)
        _, nb = precondition(np.zeros((2, 2)), np.array([[2.0, 2.0]]), stats)
        assert np.allclose(nb, [[1.0, 2.0]])

    def test_not_ready_raises(self):
        stats = RankSpaceStats(rank=2, damping=1e-3)
        with pytest.raises(PreconditionUnavailableError):
            precondition(np.zeros((2, 2)), np.zeros((2, 2)), stats)

    def test_sanitizes_non_finite(self):
        stats = RankSpaceStats(rank=2, damping=0.0)
        stats.inv_a = np.eye(2)
        stats.inv_g = np.eye(2)
        stats.inv_ready = True
        ga = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            na, _ = precondition(ga, np.zeros((2, 2)), stats)
        assert np.all(np.isfinite(na))
        assert na[0, 0] == 0.0
        assert stats.sanitized_count >= 1

    def test_sanitizes_b_factor_when_a_is_finite(self):
        stats = RankSpaceStats(rank=2, damping=0.0)
        stats.inv_a = np.eye(2)
        stats.inv_g = np.eye(2)
        stats.inv_ready = True
        ga = np.arange(6.0).reshape(2, 3)
        gb = np.array([[np.inf, 0.0], [0.0, 1.0], [2.0, 3.0]])
        with pytest.warns(RuntimeWarning):
            na, nb = precondition(ga, gb, stats)
        assert np.array_equal(na, ga)
        # row 0 of gb @ I is (inf, inf * 0 = nan): both entries are zeroed
        assert np.array_equal(nb, [[0.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        assert stats.sanitized_count == 2

    def test_finite_outputs_whose_squares_overflow_are_kept(self):
        stats = RankSpaceStats(rank=2, damping=0.0)
        stats.inv_a = np.eye(2)
        stats.inv_g = np.eye(2)
        stats.inv_ready = True
        ga = np.array([[1e200, -1e200], [1.0, 2.0]])
        gb = np.array([[1e-300, 3.0]])
        na, nb = precondition(ga, gb, stats)
        assert na.tobytes() == ga.tobytes() and nb.tobytes() == gb.tobytes()
        assert stats.sanitized_count == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4))
    def test_kronecker_equivalence(self, seed, r):
        rng = np.random.default_rng(seed)
        stats = RankSpaceStats(rank=r, damping=float(rng.uniform(1e-4, 1e-1)))
        m1 = rng.normal(size=(r, r))
        m2 = rng.normal(size=(r, r))
        stats.a_cov = m1 @ m1.T
        stats.g_cov = m2 @ m2.T
        stats.n_cov = 10**6
        refresh_inverses(stats, min_samples=1)
        grad_a = rng.normal(size=(r, 3))
        grad_b = rng.normal(size=(5, r))
        nat_a, nat_b = precondition(grad_a, grad_b, stats)
        # column-major vec: vec(M G) = (I kron M) vec(G), vec(G M) = (M^T kron I) vec(G)
        explicit_a = np.kron(np.eye(3), stats.inv_a) @ grad_a.flatten(order="F")
        explicit_b = np.kron(stats.inv_g.T, np.eye(5)) @ grad_b.flatten(order="F")
        for fast, explicit in ((nat_a, explicit_a), (nat_b, explicit_b)):
            # near-singular covariances with tiny damping blow up the result scale,
            # so the agreement bound is relative to it
            scale = max(1.0, float(np.max(np.abs(explicit))))
            assert np.max(np.abs(fast.flatten(order="F") - explicit)) < 1e-10 * scale


class TestEmaVarianceReduction:
    def test_ema_reduces_streaming_variance(self):
        # i.i.d. minibatch covariance stream: EMA(0.98) must sit well below raw
        reduced = 0
        seeds = 20
        for seed in range(seeds):
            rng = np.random.default_rng(100 + seed)
            dim = 3
            chol = np.diag([1.5, 1.0, 0.5])
            raw_devs = []
            ema_devs = []
            ema = None
            raws = []
            emas = []
            for t in range(400):
                sample = rng.normal(size=(4, dim)) @ chol
                c_mb = sample.T @ sample / sample.shape[0]
                ema = c_mb if ema is None else 0.98 * ema + 0.02 * c_mb
                if t >= 200:
                    raws.append(c_mb)
                    emas.append(ema.copy())
            raw_mean = np.mean(raws, axis=0)
            ema_mean = np.mean(emas, axis=0)
            raw_var = np.mean([np.sum((c - raw_mean) ** 2) for c in raws])
            ema_var = np.mean([np.sum((c - ema_mean) ** 2) for c in emas])
            if ema_var < raw_var:
                reduced += 1
        assert reduced >= 18
