import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grit.config import GritConfig
from grit.errors import ValidationError
from grit.kfac import RankSpaceStats
from grit.linalg import sym_eig, symmetrize
from grit.model import AdapterPair
from grit import reprojection as reprojection_module
from grit.reprojection import (
    LayerGeometry,
    Projector,
    cumulative_energy,
    fixed_rank,
    make_projector,
    reproject,
    select_rank,
)


def random_psd(rng, dim):
    m = rng.normal(size=(dim, dim))
    return m @ m.T


class TestSelectRank:
    def test_single_mode(self):
        k, deg = select_rank(np.array([1.0, 0.0, 0.0, 0.0]), tau=0.9, min_rank=1)
        assert (k, deg) == (1, False)

    def test_floor_clamp(self):
        k, deg = select_rank(np.array([1.0, 0.0, 0.0, 0.0]), tau=0.5, min_rank=4)
        assert (k, deg) == (4, False)

    def test_cumulative_sum(self):
        k, _ = select_rank(np.array([4.0, 3.0, 2.0, 1.0]), tau=0.5, min_rank=1)
        assert k == 2

    def test_all_zero_degenerate(self):
        k, deg = select_rank(np.zeros(5), tau=0.9, min_rank=2)
        assert (k, deg) == (2, True)

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            select_rank(np.array([1.0, 2.0]), tau=0.9, min_rank=1)

    def test_prefix_within_ulps_of_tau_reaches_it(self):
        # the first two eigenvalues hold 0.7 of the energy up to a few ulps
        eigs = np.array([4.0, 3.0 - 4e-15, 2.0, 1.0])
        assert select_rank(eigs, 0.7, 1)[0] == 2

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 16))
    def test_brute_force_prefix_scan(self, seed, r):
        rng = np.random.default_rng(seed)
        eigs = np.sort(rng.uniform(0.0, 1.0, size=r))[::-1]
        total = float(np.sum(eigs))
        for tau in (0.5, 0.9, 0.95, 0.99):
            prefix = 0.0
            brute = r
            for j in range(r):
                prefix += eigs[j]
                if prefix >= tau * total:
                    brute = j + 1
                    break
            k, _ = select_rank(eigs, tau, min_rank=1)
            assert k == brute

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_tau(self, seed):
        rng = np.random.default_rng(seed)
        eigs = np.sort(rng.uniform(0.0, 1.0, size=8))[::-1]
        ks = [select_rank(eigs, tau, min_rank=1)[0] for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


class TestMakeProjector:
    def test_full_rank_is_identity(self):
        rng = np.random.default_rng(0)
        dec = sym_eig(random_psd(rng, 4))
        proj = make_projector(dec, 4)
        assert np.linalg.norm(proj.matrix() - np.eye(4)) < 1e-9

    def test_axis_projector(self):
        dec = sym_eig(np.diag([3.0, 1.0]))
        proj = make_projector(dec, 1)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.allclose(proj.matrix(), expected)

    def test_idempotent_and_trace(self):
        rng = np.random.default_rng(1)
        dec = sym_eig(random_psd(rng, 4))
        proj = make_projector(dec, 2)
        p = proj.matrix()
        assert np.linalg.norm(p @ p - p) < 1e-9
        assert abs(np.trace(p) - 2.0) < 1e-9

    def test_bounds(self):
        dec = sym_eig(np.eye(3))
        with pytest.raises(ValidationError):
            make_projector(dec, 0)
        with pytest.raises(ValidationError):
            make_projector(dec, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_non_expansive(self, seed, dim):
        rng = np.random.default_rng(seed)
        dec = sym_eig(random_psd(rng, dim))
        k = int(rng.integers(1, dim + 1))
        p = make_projector(dec, k).matrix()
        v = rng.normal(size=dim)
        assert np.linalg.norm(p @ v) <= np.linalg.norm(v) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_spectral_trace_inequality_topk(self, seed, dim):
        # the inequality holds when P is the top-k eigenprojector of sigma itself
        rng = np.random.default_rng(seed)
        sigma = random_psd(rng, dim)
        h = random_psd(rng, dim)
        k = int(rng.integers(1, dim + 1))
        p = make_projector(sym_eig(sigma), k).matrix()
        before = np.trace(h @ sigma)
        after = np.trace(h @ p @ sigma @ p)
        assert after <= before + 1e-10 * max(1.0, abs(before))


def stats_with_spectrum(eigenvalues, rng):
    r = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(r, r)))
    stats = RankSpaceStats(rank=r, damping=1e-3)
    stats.a_cov = q @ np.diag(eigenvalues) @ q.T
    stats.g_cov = np.eye(r)
    stats.n_cov = 1000
    return stats


def config(**kw):
    defaults = dict(task="t()", rank_adaptation_threshold=0.7, min_lora_rank=1)
    defaults.update(kw)
    return GritConfig(**defaults)


def seeded_adapter(rng, r=4, d_in=6, d_out=5):
    return AdapterPair(
        a=rng.normal(size=(r, d_in)), b=rng.normal(size=(d_out, r)), rank=r, scaling=1.0
    )


def reproject_on(adapter, stats, cfg, step, prev_k=None):
    """reproject with the geometry an accumulation of stats makes under cfg."""
    return reproject(adapter, LayerGeometry.of_each([stats], cfg)[0], cfg, step=step, prev_k=prev_k)


class TestReproject:
    def test_zero_blend_is_noop(self):
        rng = np.random.default_rng(2)
        adapter = seeded_adapter(rng)
        a0, b0 = adapter.a.copy(), adapter.b.copy()
        event = reproject_on(adapter, stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng), config(blend_gamma=0.0), step=0)
        assert event.applied
        assert np.array_equal(adapter.a, a0)
        assert np.array_equal(adapter.b, b0)

    def test_full_rank_projection_is_identity(self):
        rng = np.random.default_rng(3)
        adapter = seeded_adapter(rng)
        a0, b0 = adapter.a.copy(), adapter.b.copy()
        event = reproject_on(adapter, stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng), config(rank_adaptation_threshold=1.0), step=0)
        assert event.k == 4
        assert np.max(np.abs(adapter.a - a0)) < 1e-9
        assert np.max(np.abs(adapter.b - b0)) < 1e-9

    def test_independent_projector_product_oracle(self):
        rng = np.random.default_rng(4)
        adapter = seeded_adapter(rng)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        a0 = adapter.a.copy()
        event = reproject_on(adapter, stats, config(rank_adaptation_threshold=0.7), step=0)
        assert event.k == 2  # cumulative energy 0.4, 0.7
        # independent projector from LAPACK eigenvectors
        w, v = np.linalg.eigh(stats.a_cov)
        top = v[:, ::-1][:, :2]
        expected = top @ top.T @ a0
        assert np.max(np.abs(adapter.a - expected)) < 1e-9

    def test_warmup_gate(self):
        rng = np.random.default_rng(5)
        adapter = seeded_adapter(rng)
        event = reproject_on(adapter, stats_with_spectrum([1.0] * 4, rng), config(reprojection_warmup_steps=10), step=5)
        assert not event.applied
        assert event.gate == "warmup"

    def test_no_samples_gate(self):
        rng = np.random.default_rng(7)
        adapter = seeded_adapter(rng)
        # before the first accumulation there is no geometry
        event = reproject(adapter, None, config(), step=0)
        assert not event.applied
        assert event.gate == "no-samples"

    def test_g_side_gate_and_fallback(self):
        rng = np.random.default_rng(8)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        stats.n_cov = 10
        adapter = seeded_adapter(rng)
        event = reproject_on(adapter, stats, config(use_two_sided=True, g_gate_min_samples=64), step=0)
        assert event.side_used == "a"
        stats.n_cov = 64
        event = reproject_on(adapter, stats, config(use_two_sided=True, g_gate_min_samples=64), step=0)
        assert event.side_used == "g"

    def test_two_sided_k_comes_from_a_side_spectrum(self):
        # the g-side spectrum would pick a different k; the a-side rule wins
        # and the same k truncates the g basis
        rng = np.random.default_rng(20)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)  # a-side: k=2 at tau=0.7
        stats.g_cov = np.diag([100.0, 1e-6, 1e-6, 1e-6])  # g-side alone would give k=1
        adapter = seeded_adapter(rng)
        b0 = adapter.b.copy()
        cfg = config(rank_adaptation_threshold=0.7, use_two_sided=True, g_gate_min_samples=1)
        event = reproject_on(adapter, stats, cfg, step=0)
        assert event.k == 2
        assert event.side_used == "g"
        top2 = np.eye(4)[:, :2]  # g_cov is diagonal, so its top-2 basis is axis-aligned
        expected_b = b0 @ (top2 @ top2.T)
        assert np.max(np.abs(adapter.b - expected_b)) < 1e-9

    def test_fixed_k_override(self):
        rng = np.random.default_rng(9)
        adapter = seeded_adapter(rng)
        cfg = config(enable_rank_adaptation=False, reprojection_k=3)
        event = reproject_on(adapter, stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng), cfg, step=0)
        assert event.k == 3

    def test_retained_mass_in_unit_interval(self):
        rng = np.random.default_rng(10)
        adapter = seeded_adapter(rng)
        event = reproject_on(adapter, stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng), config(rank_adaptation_threshold=0.5), step=0)
        assert 0.0 <= event.retained_mass <= 1.0 + 1e-12

    def test_suppressed_direction_can_reenter(self):
        # projection zeroes a direction; later gradient mass restores it
        rng = np.random.default_rng(11)
        adapter = seeded_adapter(rng, r=3, d_in=4, d_out=4)
        stats = stats_with_spectrum([5.0, 1.0, 0.01], rng)
        reproject_on(adapter, stats, config(rank_adaptation_threshold=0.9, min_lora_rank=1), step=0)
        dec = sym_eig(stats.a_cov)
        dropped = dec.eigenvectors[:, -1]
        assert abs(dropped @ adapter.a @ adapter.a.T @ dropped) < 1e-18
        assert adapter.a.shape == (3, 4)  # no resizing
        adapter.a += np.outer(dropped, np.ones(4)) * 0.3  # later updates add mass back
        assert dropped @ adapter.a @ adapter.a.T @ dropped > 1e-3

    def test_hysteresis_band_keeps_previous_k(self):
        rng = np.random.default_rng(12)
        adapter = seeded_adapter(rng)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        # fresh selection at tau=0.72 gives k=3, but E(prev_k=2)=0.7 sits inside
        # the band [0.67, 0.77], so the previous rank is kept
        cfg = config(rank_adaptation_threshold=0.72, hysteresis_eps=0.05)
        event = reproject_on(adapter, stats, cfg, step=0, prev_k=2)
        assert event.k == 2
        fresh = reproject_on(seeded_adapter(rng), stats, config(rank_adaptation_threshold=0.72), step=0)
        assert fresh.k == 3

    def test_cumulative_energy_ends_at_one(self):
        e = cumulative_energy(np.array([4.0, 3.0, 2.0, 1.0]))
        assert np.isclose(e[-1], 1.0)
        assert np.all(np.diff(e) >= 0.0)


class TestLayerGeometry:
    def test_side_decided_when_made(self):
        rng = np.random.default_rng(14)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        cfg = config(use_two_sided=True, g_gate_min_samples=64)
        stats.n_cov = 63
        below = LayerGeometry.of_each([stats], cfg)[0]
        stats.n_cov = 64
        at = LayerGeometry.of_each([stats], cfg)[0]
        one_sided = LayerGeometry.of_each([stats], config(use_two_sided=False))[0]
        assert not below.g_side and below.side_decomp is below.decomp_a
        assert at.g_side and at.side_decomp is at.decomp_g
        assert not one_sided.g_side and one_sided.side_decomp is one_sided.decomp_a

    def test_spectral_k_and_operators_built_once(self, monkeypatch):
        calls = []
        original = reprojection_module.select_rank

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(reprojection_module, "select_rank", counting)
        rng = np.random.default_rng(15)
        cfg = config(use_two_sided=True, g_gate_min_samples=1)
        geometry = LayerGeometry.of_each([stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)], cfg)[0]
        assert [geometry.rank(step) for step in range(3)] == [2, 2, 2]  # energy 0.4, 0.7
        assert len(calls) == 1
        proj_a, proj_side = geometry.projectors(2)
        q_a, q_side = geometry.complements(2)
        again = geometry.projectors(2) + geometry.complements(2)
        assert all(new is old for new, old in zip(again, (proj_a, proj_side, q_a, q_side)))
        assert proj_side.basis.tobytes() == make_projector(geometry.decomp_g, 2).basis.tobytes()


class TestFixedRank:
    def test_fixed_before_start_step_and_adaptive_from_it(self):
        cfg = config(reprojection_k=3, rank_adaptation_start_step=10)
        assert fixed_rank(cfg, 4, 9) == 3
        assert fixed_rank(cfg, 4, 10) is None
        rng = np.random.default_rng(13)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        assert reproject_on(seeded_adapter(rng), stats, cfg, step=9).k == 3
        assert reproject_on(seeded_adapter(rng), stats, cfg, step=10).k == 2  # energy 0.4, 0.7

    def test_clamped_to_adapter_rank(self):
        assert fixed_rank(config(enable_rank_adaptation=False, reprojection_k=9), 4, 0) == 4
        assert fixed_rank(config(enable_rank_adaptation=False, reprojection_k=0), 4, 0) == 1
