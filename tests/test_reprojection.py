import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grit.cli import main
from grit.config import GritConfig
from grit.errors import ValidationError
from grit.kfac import RankSpaceStats
from grit.linalg import sym_eig, symmetrize
from grit.model import AdapterPair
from grit import reprojection as reprojection_module
from grit.reprojection import (
    LayerGeometry,
    Projector,
    effective_rank,
    effective_ranks,
    make_projector,
    prefix_energies,
    reproject,
    select_rank,
)
from grit.runio import EVENTS_NAME, RECORD_NAME, TELEMETRY_NAME, UPDATES_NAME, RunManifest, write_manifest
from grit.telemetry import GeometryRecord, TelemetryWriter


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

    # a non-finite eigenvalue is rejected, not read as an all-zero spectrum
    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            select_rank(np.array([np.nan, 1.0, 0.5]), tau=0.9, min_rank=1)

    def test_nan_rejected_by_effective_rank(self):
        with pytest.raises(ValidationError, match="finite"):
            effective_rank(np.array([1.0, np.nan, 0.5]), 0.9)

    def test_inf_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            select_rank(np.array([np.inf, 1.0, 0.5]), tau=0.9, min_rank=2)

    # a NaN threshold compares with no energy, so neither rule may return a rank for it
    def test_nan_threshold_rejected(self):
        eigs = np.array([4.0, 2.0, 1.0, 0.5])
        with pytest.raises(ValidationError, match="NaN"):
            effective_rank(eigs, np.nan)
        with pytest.raises(ValidationError, match="NaN"):
            select_rank(eigs, np.nan, 2)

    @pytest.mark.parametrize("min_rank", [2.5, 2.0, True, "2", None])
    def test_non_integer_floor_rejected(self, min_rank):
        with pytest.raises(ValidationError, match="integer"):
            select_rank(np.array([4.0, 2.0, 1.0, 0.5]), 0.5, min_rank)

    @pytest.mark.parametrize("min_rank", [2, np.int64(2), np.int32(3)])
    def test_rank_is_a_plain_int(self, min_rank):
        k, degenerate = select_rank(np.array([4.0, 2.0, 1.0, 0.5]), 0.5, min_rank)
        assert type(k) is int and k == int(min_rank)
        assert json.dumps([k, degenerate]) == f"[{k}, false]"

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 16), st.integers(1, 40))
    def test_of_each_spectral_k_is_select_rank_of_each_row(self, seed, r, n):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n):
            kind = rng.integers(5)
            if kind == 0:
                eigs = np.zeros(r)  # degenerate
            elif kind == 1:  # two tied blocks
                eigs = np.repeat(np.sort(rng.uniform(0.1, 1.0, size=2))[::-1], [r - r // 2, r // 2])
            elif kind == 2:  # a tiny negative tail
                eigs = np.sort(rng.uniform(0.0, 1.0, size=r))[::-1]
                eigs[r // 2:] = -np.sort(np.abs(rng.normal(size=r - r // 2))) * 1e-17
            elif kind == 3:  # a first prefix within 16 ulps of tau = 0.7, from either side
                eigs = np.full(r, 0.3 / max(r - 1, 1))
                eigs[0] = 0.7 * (1.0 + int(rng.integers(-16, 17)) * np.finfo(np.float64).eps)
            else:
                eigs = np.sort(rng.exponential(size=r))[::-1]
            rows.append(eigs)
        for tau in (0.5, 0.7, 0.9, 1.0):
            for floor in (1, max(1, r - 1), r, r + 3):
                geometries = geometries_of(rows, config(rank_adaptation_threshold=tau, min_lora_rank=floor))
                assert [g.decomp_a.eigenvalues.tolist() for g in geometries] == [row.tolist() for row in rows]
                for row, g in zip(rows, geometries):
                    k, degenerate = select_rank(row, tau, floor)
                    assert g.spectral_k == k
                    assert degenerate == (not (row > 0.0).any())  # no positive eigenvalue
                    if degenerate:
                        assert k == min(floor, r)


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
        cfg = config(rank_adaptation_start_step=10**9, reprojection_k=3)
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

    @pytest.mark.parametrize("tau, eps", [(0.75, 0.05), (0.8, 0.1)])
    def test_hysteresis_band_edge_holds_under_ulp_noise(self, tau, eps):
        # E(2) = 0.7 lies exactly on the band edge |E - tau| = eps; in float
        # the rotations put E(2) a few ulps either side of it, and the hold
        # must not depend on which
        cfg = config(rank_adaptation_threshold=tau, hysteresis_eps=eps)
        ks = set()
        for seed in range(200):
            stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], np.random.default_rng(seed))
            ks.add(LayerGeometry.of_each([stats], cfg)[0].rank(0, prev_k=2))
        assert ks == {2}



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
        rank_calls, selects = [], []
        energies = reprojection_module.prefix_energies
        select = reprojection_module.select_rank

        def counting_energies(spectra):
            rank_calls.append(np.shape(spectra))
            return energies(spectra)

        def counting_select(*args):
            selects.append(args)
            return select(*args)

        monkeypatch.setattr(reprojection_module, "prefix_energies", counting_energies)
        monkeypatch.setattr(reprojection_module, "select_rank", counting_select)
        rng = np.random.default_rng(15)
        cfg = config(use_two_sided=True, g_gate_min_samples=1)
        spectra = ([4.0, 3.0, 2.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
        geometries = LayerGeometry.of_each([stats_with_spectrum(e, rng) for e in spectra], cfg)
        # one stacked energy call on the three a-side spectra, and no one-spectrum call
        assert rank_calls == [(3, 4)] and selects == []
        assert [g.spectral_k for g in geometries] == [2, 1, 3]
        assert all(type(g.spectral_k) is int for g in geometries)
        geometry = geometries[0]
        assert [geometry.rank(step) for step in range(3)] == [2, 2, 2]  # energy 0.4, 0.7
        assert rank_calls == [(3, 4)] and selects == []
        proj_a, proj_side = geometry.projectors(2)
        q_a, q_side = geometry.complements(2)
        again = geometry.projectors(2) + geometry.complements(2)
        assert all(new is old for new, old in zip(again, (proj_a, proj_side, q_a, q_side)))
        assert proj_side.basis.tobytes() == make_projector(geometry.decomp_g, 2).basis.tobytes()

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_one_energy_pass_feeds_k_and_band(self, monkeypatch, eps):
        calls = []
        energies = reprojection_module.prefix_energies

        def counting(spectra):
            calls.append(spectra.copy())
            return energies(spectra)

        monkeypatch.setattr(reprojection_module, "prefix_energies", counting)
        spectra = np.array([[4.0, 3.0, 2.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1e-3, 0.0, -1e-17]])
        cfg = config(hysteresis_eps=eps, rank_adaptation_threshold=0.7)
        for _ in range(3):
            geometries = geometries_of(spectra, cfg)
        assert len(calls) == 3  # one per accumulation, hysteresis or not
        # the clipped a-side spectra
        assert all((c >= 0.0).all() and c.shape == (3, 4) for c in calls)
        assert [g.spectral_k for g in geometries] == [2, 1, 1]
        assert geometries[0].band == [False, eps > 0.0, eps >= 0.2, False]
        assert geometries[1].band == [False] * 4

    def test_spectral_k_stored_while_k_is_fixed(self):
        # a start step past any run's steps keeps reprojection_k, and the geometry still holds its spectral k
        rng = np.random.default_rng(16)
        cfg = config(rank_adaptation_start_step=10**9, reprojection_k=3)
        geometries = LayerGeometry.of_each([stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)] * 2, cfg)
        assert [(g.spectral_k, g.rank(0)) for g in geometries] == [(2, 3)] * 2
        assert all(type(g.spectral_k) is int for g in geometries)

    @pytest.mark.parametrize("seed", range(6))
    def test_stored_k_is_select_rank_of_each_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 9))
        stats = []
        for kind in ("random", "zero", "ties", "rank-one", "random"):
            st = RankSpaceStats(rank=r, damping=1e-3)
            if kind == "random":
                st.a_cov = random_psd(rng, r) * 10.0 ** rng.uniform(-6, 2)
            elif kind == "ties":
                q, _ = np.linalg.qr(rng.normal(size=(r, r)))
                st.a_cov = q @ np.diag(np.repeat([2.0, 1.0], [r // 2, r - r // 2])) @ q.T
            elif kind == "rank-one":  # its zero eigenvalues come back as ulp-level noise of either sign
                v = rng.normal(size=r)
                st.a_cov = np.outer(v, v)
            st.g_cov, st.n_cov = np.eye(r), 100
            stats.append(st)
        for tau in (0.5, 0.85, 0.99, 1.0):
            for floor in range(1, r + 3):
                cfg = config(rank_adaptation_threshold=tau, min_lora_rank=floor)
                for g in LayerGeometry.of_each(stats, cfg):
                    assert g.spectral_k == select_rank(g.spectrum, tau, floor)[0]
                    assert type(g.spectral_k) is int

class TestRankRule:
    def test_fixed_before_start_step_and_spectral_from_it(self):
        cfg = config(
            reprojection_k=4, rank_adaptation_start_step=10, rank_adaptation_threshold=0.72, hysteresis_eps=0.05
        )
        rng = np.random.default_rng(13)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        geometry = LayerGeometry.of_each([stats], cfg)[0]
        assert geometry.spectral_k == 3  # energy 0.4, 0.7, 0.9
        # E(2) = 0.7 lies in the band [0.67, 0.77], which holds a previous k of 2 only from the start step on
        assert [geometry.rank(9), geometry.rank(9, prev_k=2)] == [4, 4]
        assert [geometry.rank(10), geometry.rank(10, prev_k=2), geometry.rank(10**6)] == [3, 2, 3]
        assert reproject_on(seeded_adapter(rng), stats, cfg, step=9).k == 4
        assert reproject_on(seeded_adapter(rng), stats, cfg, step=10).k == 3

    @pytest.mark.parametrize("eps", [0.0, 1.0], ids=["no_band", "band_everywhere"])
    @pytest.mark.parametrize("prev_k", [0, -1])
    def test_previous_k_below_one_is_rejected(self, eps, prev_k):
        # with eps = 1 every energy lies in the band, which was indexed at prev_k - 1 and wrapped
        rng = np.random.default_rng(19)
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], rng)
        cfg = config(rank_adaptation_threshold=0.9, hysteresis_eps=eps)
        geometry = LayerGeometry.of_each([stats], cfg)[0]
        with pytest.raises(ValidationError, match=f"prev_k must be at least 1, got {prev_k}"):
            geometry.rank(10, prev_k=prev_k)
        with pytest.raises(ValidationError, match="prev_k must be at least 1"):
            reproject_on(seeded_adapter(rng), stats, cfg, step=10**6, prev_k=prev_k)

    @pytest.mark.parametrize("reprojection_k, k", [(9, 4), (0, 1)])
    def test_fixed_k_clamped_to_adapter_rank(self, reprojection_k, k):
        stats = stats_with_spectrum([4.0, 3.0, 2.0, 1.0], np.random.default_rng(17))
        cfg = config(rank_adaptation_start_step=1, reprojection_k=reprojection_k)
        assert LayerGeometry.of_each([stats], cfg)[0].rank(0) == k


# The energy curve, the threshold and the hold by a plain Python prefix scan,
# against which the package's one prefix_energies and its three readers are checked.
ULP_SLACK = 16 * np.finfo(np.float64).eps


def scan_energies(eigs):
    """E(j), each prefix sum over the last one, summed one value at a time; None unless that total is positive."""
    prefix, sums = 0.0, []
    for lam in eigs:
        prefix += float(lam)
        sums.append(prefix)
    return [p / prefix for p in sums] if prefix > 0.0 else None


def scan_rank(eigs, eta):
    """(rank, degenerate): the first j whose energy, negative values read as zero, reaches eta less 16 ulps."""
    energies = scan_energies([max(float(lam), 0.0) for lam in eigs])
    if energies is None:
        return 1, True
    for j, energy in enumerate(energies, start=1):
        if energy >= eta * (1.0 - ULP_SLACK):
            return j, False
    return len(eigs), False


def scan_band(eigs, cfg):
    """Whether each E(j) of the clipped spectrum lies within hysteresis_eps (plus 16 ulps) of tau; all False at eps = 0."""
    energies = scan_energies([max(float(lam), 0.0) for lam in eigs])
    tau, eps = cfg.rank_adaptation_threshold, cfg.hysteresis_eps
    if eps == 0.0 or energies is None:
        return [False] * len(eigs)
    return [abs(energy - tau) <= eps + ULP_SLACK for energy in energies]


def scan_hold(eigs, cfg, prev_k, spectral_k):
    """The rank rule from the start step on: prev_k (clamped to r) while its energy lies in the band."""
    held = min(prev_k, len(eigs))
    return held if scan_band(eigs, cfg)[held - 1] else spectral_k


def random_spectra(rng, r, n):
    """n non-increasing spectra of length r over 16 decades: plain, with a negative tail, all zero, all negative, tied."""
    rows = []
    for _ in range(n):
        kind = rng.integers(5)
        eigs = rng.exponential(size=r) * 10.0 ** rng.uniform(-8, 8)
        if kind == 1:  # the smallest values negative, some of them large enough to matter
            tail = int(rng.integers(1, r + 1))
            eigs[:tail] = -eigs[:tail] * 10.0 ** rng.uniform(-16, 0)
        elif kind == 2:
            eigs[:] = 0.0
        elif kind == 3:
            eigs = -eigs
        elif kind == 4:
            eigs[:] = eigs[0]
        rows.append(np.sort(eigs)[::-1])
    return np.array(rows)


SCALED = [np.array([4.0, 3.0, 2.0, 1.0]) * s for s in np.geomspace(1e-8, 1e8, 33)]


def geometries_of(spectra, cfg):
    """LayerGeometry.of_each on statistics whose a_cov is each spectrum's diagonal matrix."""
    stats = [RankSpaceStats(rank=len(eigs), damping=1e-3) for eigs in spectra]
    for layer, eigs in zip(stats, spectra):
        layer.a_cov, layer.g_cov, layer.n_cov = np.diag(eigs), np.eye(len(eigs)), 1000
    return LayerGeometry.of_each(stats, cfg)


def audit_energy_rows(run_dir, spectra):
    """grit audit's cumulative_energy.csv rows for a hand-made complete run whose telemetry holds spectra."""
    run_dir.mkdir()
    manifest = RunManifest.create(run_id=run_dir.name, config_hash="0" * 64, seed=0, task="t()")
    manifest.status = "complete"
    write_manifest(manifest, run_dir)
    writer = TelemetryWriter(run_dir / TELEMETRY_NAME)
    writer.append(*(
        GeometryRecord(step=step, layer=0, k_selected=1, r_eff=1, rho_align=0.0, pi_proj=1.0, tail_mass=0,
                       curvature_exposure=0.0, eig_cv=0.0, spectrum=[float(lam) for lam in eigs])
        for step, eigs in enumerate(spectra)
    ))
    writer.close()
    for name in (UPDATES_NAME, EVENTS_NAME, RECORD_NAME):
        (run_dir / name).write_text("")
    assert main(["--quiet", "audit", str(run_dir)]) == 0
    with open(run_dir / "audit" / "cumulative_energy.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["step", "layer", "index", "energy"]
    return [(int(step), int(layer), int(index), float(energy)) for step, layer, index, energy in rows]


def scanned_audit_rows(spectra):
    """The rows a Python prefix scan gives: one per entry of each spectrum with a positive total."""
    return [
        (step, 0, j, energy)
        for step, eigs in enumerate(spectra)
        for j, energy in enumerate(scan_energies(eigs) or [], start=1)
    ]


class TestPrefixEnergies:
    def test_non_degenerate_rows_end_at_one_and_the_rest_are_nan(self):
        rng = np.random.default_rng(31)
        for r in range(1, 17):
            spectra = random_spectra(rng, r, 40)
            energies = prefix_energies(spectra)
            assert energies.shape == spectra.shape
            for eigs, row in zip(spectra, energies):
                if np.cumsum(eigs)[-1] > 0.0:
                    assert row[-1] == 1.0
                    assert row.tolist() == scan_energies(eigs)
                else:
                    assert np.isnan(row).all()
        assert np.isnan(prefix_energies(np.array([[0.0, 0.0], [1.0, -2.0], [-1.0, 0.0]]))).all()
        energies = prefix_energies(np.array([[4.0, 3.0, 2.0, 1.0]]))
        assert energies.tolist() == [[0.4, 0.7, 0.9, 1.0]]

    def test_clipped_rows_never_decrease(self):
        rng = np.random.default_rng(32)
        for r in range(1, 17):
            energies = prefix_energies(np.maximum(random_spectra(rng, r, 40), 0.0))
            curves = energies[~np.isnan(energies[:, -1])]
            assert (np.diff(curves, axis=1) >= 0.0).all() and (curves[:, -1] == 1.0).all()


class TestEnergyReadersAgainstAPrefixScan:
    @pytest.mark.parametrize("r", range(1, 17))
    def test_effective_ranks(self, r):
        rng = np.random.default_rng(100 + r)
        spectra = random_spectra(rng, r, 60)
        for eta in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
            scanned = [scan_rank(eigs, eta) for eigs in spectra]
            assert effective_ranks(spectra, eta).tolist() == [rank for rank, _ in scanned]
            assert [effective_rank(eigs, eta) for eigs in spectra] == scanned

    @pytest.mark.parametrize("r", range(1, 17))
    def test_rank_for_every_previous_k(self, r):
        rng = np.random.default_rng(200 + r)
        spectra = random_spectra(rng, r, 20)
        for tau in (0.5, 0.7, 0.9, 1.0):
            for eps in (0.0, 0.05, 0.2):
                cfg = config(rank_adaptation_threshold=tau, hysteresis_eps=eps, min_lora_rank=min(2, r))
                for g in geometries_of(spectra, cfg):
                    eigs = g.spectrum
                    assert g.spectral_k == select_rank(eigs, tau, min(2, r))[0]
                    assert g.band == scan_band(eigs, cfg)
                    assert g.rank(0) == g.spectral_k
                    for prev_k in range(1, r + 1):
                        assert g.rank(0, prev_k) == scan_hold(eigs, cfg, prev_k, g.spectral_k)

    def test_audit_energy_rows(self, tmp_path):
        rng = np.random.default_rng(33)
        for r in range(1, 17):
            spectra = random_spectra(rng, r, 12)
            assert audit_energy_rows(tmp_path / f"r{r}", spectra) == scanned_audit_rows(spectra)

    @pytest.mark.parametrize("tau, k", [(0.7, 2), (0.9, 3)])
    def test_scaled_spectrum_ranks(self, tau, k):
        assert effective_ranks(np.array(SCALED), tau).tolist() == [k] * len(SCALED)
        assert [effective_rank(eigs, tau) for eigs in SCALED] == [(k, False)] * len(SCALED)
        assert [scan_rank(eigs, tau) for eigs in SCALED] == [(k, False)] * len(SCALED)

    # E = 0.4, 0.7, 0.9, 1.0, so eps = 0.2 puts an energy on a band edge at either tau
    @pytest.mark.parametrize(
        "tau, eps, held",
        [(0.7, 0.0, [2, 2, 2, 2]), (0.7, 0.05, [2, 2, 2, 2]), (0.7, 0.2, [2, 2, 3, 2]),
         (0.9, 0.0, [3, 3, 3, 3]), (0.9, 0.05, [3, 3, 3, 3]), (0.9, 0.2, [3, 2, 3, 4])],
    )
    def test_scaled_spectrum_holds(self, tau, eps, held):
        cfg = config(rank_adaptation_threshold=tau, hysteresis_eps=eps)
        for g in geometries_of(SCALED, cfg):
            assert g.spectral_k == select_rank(g.spectrum, tau, 1)[0] == (2 if tau == 0.7 else 3)
            assert g.band == scan_band(g.spectrum, cfg)
            got = [g.rank(0, prev_k) for prev_k in range(1, 5)]
            assert got == held
            assert got == [scan_hold(g.spectrum, cfg, prev_k, g.spectral_k) for prev_k in range(1, 5)]

    def test_scaled_spectrum_audit_rows(self, tmp_path):
        rows = audit_energy_rows(tmp_path / "run", SCALED)
        assert rows == scanned_audit_rows(SCALED)
        assert [energy for _, _, index, energy in rows if index == 4] == [1.0] * len(SCALED)
