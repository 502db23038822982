import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grit import telemetry as telemetry_module
from grit.cli import main
from grit.config import GritConfig
from grit.errors import ShapeError, ValidationError
from grit.linalg import sym_eig, symmetrize
from grit.model import AdapterPair, LayerCurvature
from grit.oracles import (
    dense_curvature,
    dense_exposure,
    hessian_fd,
    per_sample_curvature,
    span_tangent_basis,
)
from grit.reprojection import effective_ranks, make_projector
from grit.runio import AUDIT_CSVS, decode_array, read_jsonl
from grit.telemetry import (
    GeometryRecord,
    TelemetryWriter,
    adapter_subspace_basis,
    adapter_subspace_bases,
    alignment_overlap,
    covariance_variance,
    effective_rank,
    eig_cvs,
    exposure_from_basis,
    pca_export,
    read_telemetry,
    stability_stats,
    tail_mass,
    xi_multiplier,
)
from grit.trainer import run_experiment


class TestEffectiveRank:
    def test_rank_one(self):
        assert effective_rank(np.array([1.0, 0.0, 0.0]), 0.99) == (1, False)

    def test_uniform(self):
        assert effective_rank(np.array([1.0, 1.0, 1.0, 1.0]), 0.5) == (2, False)

    def test_cumulative(self):
        assert effective_rank(np.array([4.0, 3.0, 2.0, 1.0]), 0.9) == (3, False)

    def test_degenerate(self):
        assert effective_rank(np.zeros(3), 0.9) == (1, True)

    def test_no_clamp_below_policy_floor(self):
        # distinct from rank selection: no min-rank clamp is applied
        assert effective_rank(np.array([1.0, 0.0, 0.0, 0.0]), 0.5) == (1, False)

    def test_full_energy_stays_within_spectrum(self):
        # np.sum can exceed the last cumsum entry by an ulp
        assert effective_rank(np.full(8, 0.1), 1.0) == (8, False)

    def test_full_energy_never_exceeds_length_on_random_spectra(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            r = int(rng.integers(1, 17))
            eigs = np.sort(rng.uniform(0.0, 1.0, size=r))[::-1]
            assert effective_rank(eigs, 1.0)[0] <= r

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_eta(self, seed):
        rng = np.random.default_rng(seed)
        eigs = np.sort(rng.uniform(0.0, 1.0, size=8))[::-1]
        ranks = [effective_rank(eigs, eta)[0] for eta in (0.1, 0.5, 0.9, 0.99)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


class TestTailMass:
    def test_zero_vector(self):
        assert tail_mass(np.zeros(5), 0.1) == 0

    def test_vacuous_threshold(self):
        assert tail_mass(np.array([0.5, -0.5]), 1.0) == 0

    def test_direct_count(self):
        assert tail_mass(np.array([0.1, 2.0, -3.0]), 1.0) == 2

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError):
            tail_mass(np.ones(3), 0.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValidationError, match="threshold"):
            tail_mass(np.ones(3), np.nan)


class TestAlignmentOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        assert np.isclose(alignment_overlap(q, q), 1.0)

    def test_disjoint(self):
        u = np.eye(4)[:, :2]
        v = np.eye(4)[:, 2:]
        assert alignment_overlap(u, v) == 0.0

    def test_half_overlap(self):
        u = np.array([[1.0], [0.0]])
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert np.isclose(alignment_overlap(u, v), 0.5)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValidationError):
            alignment_overlap(np.ones((3, 2)), np.eye(3)[:, :2])

    def test_zero_column_bases_rejected(self):
        with pytest.raises(ValidationError, match="no columns"):
            alignment_overlap(np.zeros((3, 0)), np.zeros((3, 0)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        q2, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        rho = alignment_overlap(q1, q2)
        assert -1e-9 <= rho <= 1.0 + 1e-9


class TestCurvatureExposure:
    def test_empty_subspace(self):
        assert dense_exposure(np.eye(3), np.zeros((3, 0))) == 0.0

    def test_full_exposure(self):
        h = np.diag([1.0, 2.0, 3.0])
        assert np.isclose(dense_exposure(h, np.eye(3)), 6.0)

    def test_axis_projector(self):
        h = np.diag([5.0, 1.0])
        q = np.eye(2)[:, 1:]
        assert np.isclose(dense_exposure(h, q), 1.0)

    def test_basis_form_matches_projector_form(self):
        rng = np.random.default_rng(2)
        h = symmetrize(rng.normal(size=(6, 6)))
        q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        p = q @ q.T
        assert np.isclose(dense_exposure(h, q), np.trace(p @ h @ p))

    def test_topk_projector_never_exceeds_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.normal(size=(5, 5))
            sigma = m @ m.T
            m2 = rng.normal(size=(5, 5))
            h = m2 @ m2.T
            k = int(rng.integers(1, 6))
            q = make_projector(sym_eig(sigma), k).basis
            assert dense_exposure(h, q) <= np.trace(h) + 1e-10


def spectra_of(seq):
    return [sym_eig(c).eigenvalues for c in seq]


class TestStabilityStats:
    def test_constant_sequence(self):
        seq = [np.eye(2)] * 4
        cov_var, eig_cv = stability_stats(seq, k=2, spectra=spectra_of(seq))
        assert cov_var == 0.0
        assert eig_cv == 0.0

    def test_alternating_diagonal(self):
        seq = [np.diag([1.0]), np.diag([3.0]), np.diag([1.0]), np.diag([3.0])]
        cov_var, eig_cv = stability_stats(seq, k=1, spectra=spectra_of(seq))
        assert np.isclose(cov_var, 1.0)
        assert np.isclose(eig_cv, 0.5)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 3))
        base = base @ base.T
        seq = [base.copy(), base.copy(), base + 0.1 * np.eye(3)]
        cov_var, _ = stability_stats(seq, k=2, spectra=spectra_of(seq))
        mats = np.stack([0.5 * (m + m.T) for m in seq])
        mean = mats.mean(axis=0)
        expected = np.mean([np.sum((m - mean) ** 2) for m in mats])
        assert np.isclose(cov_var, expected)

    def test_needs_two_snapshots(self):
        with pytest.raises(ValidationError):
            stability_stats([np.eye(2)], k=1, spectra=spectra_of([np.eye(2)]))
        with pytest.raises(ValidationError):
            covariance_variance([np.eye(2)])

    def test_covariance_variance_is_stability_cov_var_bitwise(self):
        rng = np.random.default_rng(17)
        for dim, length in ((3, 200), (8, 24), (1, 2)):
            seq = [rng.normal(size=(dim, dim)) for _ in range(length)]  # not symmetric
            cov_var, _ = stability_stats(seq, k=1, spectra=spectra_of(seq))
            assert np.float64(covariance_variance(seq)).tobytes() == np.float64(cov_var).tobytes()

    def test_k_above_dim(self):
        with pytest.raises(ValidationError):
            stability_stats([np.eye(2)] * 3, k=3, spectra=spectra_of([np.eye(2)] * 3))

    def test_k_zero(self):
        with pytest.raises(ValidationError):
            stability_stats([np.eye(2), 2.0 * np.eye(2)], k=0, spectra=[np.ones(2), 2.0 * np.ones(2)])

    def test_snapshots_of_different_shapes(self):
        with pytest.raises(ShapeError):
            stability_stats([np.eye(2), np.eye(3)], k=1, spectra=[np.ones(2), np.ones(3)])

    def test_non_square_snapshots(self):
        with pytest.raises(ShapeError):
            stability_stats([np.ones((2, 3))] * 2, k=1, spectra=[np.ones(2)] * 2)

    def test_given_spectra_are_not_recomputed(self, monkeypatch):
        rng = np.random.default_rng(12)
        seq = [m @ m.T for m in rng.normal(size=(4, 3, 3))]
        seq[2] = seq[2] + np.triu(np.ones((3, 3)), 1)  # not symmetric
        spectra = [sym_eig(cov).eigenvalues for cov in seq]
        top = np.stack([eigenvalues[:2] for eigenvalues in spectra])
        expected = (covariance_variance(seq), float(np.mean(top.std(axis=0) / top.mean(axis=0))))
        calls = []

        def recording(m, name="matrix"):
            calls.append(m)
            return sym_eig(m, name=name)

        monkeypatch.setattr(telemetry_module, "sym_eig", recording)
        assert stability_stats(seq, 2, spectra) == expected
        assert len(calls) == 0

    def test_spectra_count_must_match(self):
        with pytest.raises(ValidationError):
            stability_stats([np.eye(2)] * 3, k=1, spectra=[None, None])


class TestXiMultiplier:
    def test_geometry_off_limit(self):
        assert xi_multiplier(5.0, 0.7, 0.9, (0.0, 0.0, 0.0)) == 1.0

    def test_single_factor(self):
        assert np.isclose(xi_multiplier(2.0, 0.0, 0.0, (0.5, 0.0, 0.0)), 2.0)

    def test_three_factor_product(self):
        assert np.isclose(xi_multiplier(4.0, 0.5, 1.0, (0.25, 1.0, 1.0)), 6.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            xi_multiplier(1.0, 1.0, 1.0, (-0.1, 0.0, 0.0))

    @pytest.mark.parametrize("gammas", [(np.nan, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.nan)])
    def test_nan_gamma_rejected(self, gammas):
        with pytest.raises(ValidationError, match="gamma"):
            xi_multiplier(1.0, 1.0, 1.0, gammas)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 16.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
    )
    def test_at_least_one(self, r, rho, pi, g1, g2, g3):
        assert xi_multiplier(r, rho, pi, (g1, g2, g3)) >= 1.0


class TestPca:
    def test_identical_points_at_origin(self):
        coords = pca_export([np.ones(4)] * 5)
        assert np.max(np.abs(coords)) < 1e-12

    def test_collinear_second_coordinate_zero(self):
        line = [t * np.array([1.0, 2.0, -1.0]) for t in (0.0, 1.0, 2.0, 3.5)]
        coords = pca_export(line)
        assert np.max(np.abs(coords[:, 1])) < 1e-9

    def test_matches_direct_covariance_eig(self):
        rng = np.random.default_rng(5)
        cloud = [rng.normal(size=6) * np.array([3.0, 2.0, 1.0, 0.5, 0.1, 0.05]) for _ in range(40)]
        coords = pca_export(cloud)
        x = np.stack(cloud)
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / (len(cloud) - 1)
        ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
        # score variances are the top two covariance eigenvalues
        assert np.allclose(coords.var(axis=0, ddof=1), ref[:2], atol=1e-9)

    def test_too_few_vectors(self):
        with pytest.raises(ValidationError):
            pca_export([np.ones(3), np.ones(3)])

    def test_vectors_of_different_lengths(self):
        with pytest.raises(ShapeError, match="differ in length"):
            pca_export([np.ones(3), np.ones(3), np.ones(4)])

    def test_csv_export(self, tmp_path):
        # the audit writes pca_export's coordinates, each float as its repr;
        # below three update vectors (telemetry every 10 of 20 steps) it writes the header only
        for telemetry_every, n_vectors in ((5, 4), (10, 2)):
            run = tmp_path / f"run{telemetry_every}"
            cfg = GritConfig(task="synthetic_lowrank(d=6)", steps=20, seed=6, lora_rank=2,
                             min_lora_rank=1, telemetry_every=telemetry_every, eval_size=16)
            run_experiment(cfg, out_dir=run)
            assert main(["--quiet", "audit", str(run)]) == 0
            vectors = [decode_array(u["delta_w"]) for u in read_jsonl(run / "updates.jsonl")]
            assert len(vectors) == n_vectors
            rows = (run / "audit" / "pca_updates.csv").read_text().splitlines()
            assert rows[0] == "pc1,pc2"
            coords = pca_export(vectors).tolist() if n_vectors >= 3 else []
            assert [[float(v) for v in row.split(",")] for row in rows[1:]] == coords


class TestHessianFd:
    def test_quadratic_exact(self):
        h_true = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 0.7]])

        def grad(w):
            return h_true @ w

        h = hessian_fd(grad, np.zeros(3), step=1e-4)
        assert np.max(np.abs(h - h_true)) < 1e-9


class TestAdapterSubspaceBasis:
    def test_dimension_and_orthonormality(self):
        rng = np.random.default_rng(7)
        adapter = AdapterPair(a=rng.normal(size=(2, 4)), b=rng.normal(size=(3, 2)), rank=2, scaling=1.0)
        q = span_tangent_basis(adapter)
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-10
        # tangent dimension r*(d_in + d_out) - r^2 for full-rank factors
        assert q.shape == (12, 2 * (4 + 3) - 4)

    def test_contains_update_directions(self):
        rng = np.random.default_rng(8)
        adapter = AdapterPair(a=rng.normal(size=(2, 4)), b=rng.normal(size=(3, 2)), rank=2, scaling=1.0)
        q = span_tangent_basis(adapter)
        direction = (rng.normal(size=(3, 2)) @ adapter.a).ravel()  # x a form
        residual = direction - q @ (q.T @ direction)
        assert np.linalg.norm(residual) < 1e-9

    @staticmethod
    def factored_projector(basis):
        p_in = basis.q_in @ basis.q_in.T
        p_out = basis.q_out @ basis.q_out.T
        eye_in, eye_out = np.eye(p_in.shape[0]), np.eye(p_out.shape[0])
        return np.kron(eye_out, p_in) + np.kron(p_out, eye_in) - np.kron(p_out, p_in)

    @pytest.mark.parametrize(
        "d_out, d_in, r, b_zero, a_deficient",
        [(3, 4, 2, False, False), (5, 3, 3, True, False), (4, 6, 3, False, True), (2, 2, 2, True, True)],
    )
    def test_factored_projector_matches_span(self, d_out, d_in, r, b_zero, a_deficient):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(r, d_in))
        b = np.zeros((d_out, r)) if b_zero else rng.normal(size=(d_out, r))
        if a_deficient:
            a[-1] = 2.0 * a[0]
        adapter = AdapterPair(a=a, b=b, rank=r, scaling=1.0)
        basis = adapter_subspace_basis(adapter)
        q = span_tangent_basis(adapter)
        r_a, r_b = basis.q_in.shape[1], basis.q_out.shape[1]
        assert d_out * r_a + r_b * (d_in - r_a) == q.shape[1]  # the tangent dimension
        assert basis.q_in.shape == (d_in, r - 1 if a_deficient else r)
        assert basis.q_out.shape == (d_out, 0 if b_zero else r)
        for factor in (basis.q_in, basis.q_out):
            assert np.max(np.abs(factor.T @ factor - np.eye(factor.shape[1])), initial=0.0) < 1e-12
        assert np.max(np.abs(self.factored_projector(basis) - q @ q.T)) < 1e-10

    def test_zero_adapter_has_empty_tangent_space(self):
        adapter = AdapterPair(a=np.zeros((2, 3)), b=np.zeros((4, 2)), rank=2, scaling=1.0)
        basis = adapter_subspace_basis(adapter)
        d_in, r_a = basis.q_in.shape
        d_out, r_b = basis.q_out.shape
        assert d_out * r_a + r_b * (d_in - r_a) == 0
        assert exposure_from_basis(random_curvature(np.random.default_rng(0), 4, 3), basis) == 0.0


def random_curvature(rng, d_out, d_in, samples=5):
    """Factors of a Hessian block: inputs and symmetric, indefinite per-sample C_s."""
    c = rng.normal(size=(samples, d_out, d_out))
    return per_sample_curvature(x=rng.normal(size=(samples, d_in)), c=c + np.swapaxes(c, 1, 2))


def random_shared_curvature(rng, d_out, d_in, samples=5):
    """Factors with one shared symmetric H, random d and e of both signs."""
    g = rng.normal(size=(d_out, d_out))
    return LayerCurvature(
        x=rng.normal(size=(samples, d_in)),
        d=rng.normal(size=(samples, d_out)),
        h=g + g.T,
        e=rng.normal(size=(samples, d_out)),
    )


class TestFactoredExposure:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        for d_out, d_in, r in ((3, 5, 2), (6, 4, 3), (4, 4, 4)):
            adapter = AdapterPair(
                a=rng.normal(size=(r, d_in)), b=rng.normal(size=(d_out, r)), rank=r, scaling=1.0
            )
            curvature = random_curvature(rng, d_out, d_in)
            fast = exposure_from_basis(curvature, adapter_subspace_basis(adapter))
            reference = dense_exposure(dense_curvature(curvature), span_tangent_basis(adapter))
            assert abs(fast - reference) <= 1e-10 * max(1.0, abs(reference))

    SHAPES = ((3, 5, 2), (6, 4, 3), (4, 4, 4), (1, 3, 1), (5, 2, 1))

    def test_shared_h_matches_its_per_sample_blocks(self):
        rng = np.random.default_rng(13)
        for d_out, d_in, r in self.SHAPES:
            for b_zero in (False, True):
                adapter = AdapterPair(
                    a=rng.normal(size=(r, d_in)),
                    b=np.zeros((d_out, r)) if b_zero else rng.normal(size=(d_out, r)),
                    rank=r, scaling=1.0,
                )
                shared = random_shared_curvature(rng, d_out, d_in, samples=7)
                assert shared.h.ndim == 2
                blocks = per_sample_curvature(shared.x, shared.c)
                basis = adapter_subspace_basis(adapter)
                fast, reference = exposure_from_basis(shared, basis), exposure_from_basis(blocks, basis)
                assert abs(fast - reference) <= 1e-12 * abs(reference)

    def test_shared_h_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        for d_out, d_in, r in self.SHAPES:
            adapter = AdapterPair(
                a=rng.normal(size=(r, d_in)), b=rng.normal(size=(d_out, r)), rank=r, scaling=1.0
            )
            curvature = random_shared_curvature(rng, d_out, d_in)
            fast = exposure_from_basis(curvature, adapter_subspace_basis(adapter))
            reference = dense_exposure(dense_curvature(curvature), span_tangent_basis(adapter))
            assert abs(fast - reference) <= 1e-10 * abs(reference)

    def test_blocks_are_the_factored_form(self):
        rng = np.random.default_rng(15)
        curvature = random_shared_curvature(rng, 3, 2)
        for s, block in enumerate(curvature.c):
            expected = np.diag(curvature.d[s]) @ curvature.h @ np.diag(curvature.d[s]) + np.diag(curvature.e[s])
            assert np.allclose(block, expected, rtol=1e-14, atol=1e-14)
        assert np.allclose(curvature.c_trace, np.trace(curvature.c, axis1=1, axis2=2), rtol=1e-14, atol=1e-14)

    def test_b_zero_is_row_space_exposure(self):
        # with b = 0 the tangent space is {x a}: tr(H (I kron P_in))
        rng = np.random.default_rng(11)
        adapter = AdapterPair(a=rng.normal(size=(2, 4)), b=np.zeros((3, 2)), rank=2, scaling=1.0)
        curvature = random_curvature(rng, 3, 4)
        h = dense_curvature(curvature)
        basis = adapter_subspace_basis(adapter)
        p_in = basis.q_in @ basis.q_in.T
        expected = np.sum(h * np.kron(np.eye(3), p_in))
        assert np.isclose(exposure_from_basis(curvature, basis), expected, rtol=1e-12, atol=1e-12)

    def test_block_shape_mismatch(self):
        rng = np.random.default_rng(12)
        adapter = AdapterPair(a=rng.normal(size=(2, 4)), b=rng.normal(size=(3, 2)), rank=2, scaling=1.0)
        with pytest.raises(ShapeError):
            exposure_from_basis(random_curvature(rng, 3, 5), adapter_subspace_basis(adapter))
        with pytest.raises(ShapeError):
            exposure_from_basis(random_curvature(rng, 2, 4), adapter_subspace_basis(adapter))


class TestTelemetryStream:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        writer = TelemetryWriter(path)
        rec = GeometryRecord(
            step=3, layer=0, k_selected=2, r_eff=1, rho_align=0.5, pi_proj=0.9,
            tail_mass=4, curvature_exposure=1.5, eig_cv=0.2, spectrum=[1.0, 0.5],
        )
        writer.append(rec)
        writer.close()
        out, spectra = read_telemetry(path)
        assert out == [rec]
        assert spectra.tolist() == [[1.0, 0.5]]


# a version-1 stream's header and line, as version-1 writers wrote them, with the
# three stability fields that version 2 dropped
VERSION_1_HEADER = '{"schema": "geometry", "version": 1}'
VERSION_1_LINE = (
    '{"cov_var": 0.05, "curvature_exposure": 1.5, "eig_cv": 0.2, "jitter": 0.1, "k_selected": 2, '
    '"layer": 0, "pi_proj": 0.9, "r_eff": 1, "rho_align": 0.5, "spectrum": [1.0, 0.5], "step": 3, '
    '"subspace_drift": 0.3, "tail_mass": 4}'
)


class TestVersionOneStreams:
    def test_version_one_stream_reads_without_the_stability_fields(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(f"{VERSION_1_HEADER}\n{VERSION_1_LINE}\n")
        assert read_telemetry(path)[0] == [GeometryRecord(
            step=3, layer=0, k_selected=2, r_eff=1, rho_align=0.5, pi_proj=0.9,
            tail_mass=4, curvature_exposure=1.5, eig_cv=0.2, spectrum=[1.0, 0.5],
        )]

    @pytest.mark.parametrize("key", ["jitter", "subspace_drift", "cov_var"])
    def test_version_two_line_with_a_stability_field_is_rejected(self, tmp_path, key):
        path = tmp_path / "telemetry.jsonl"
        line = json.loads(VERSION_1_LINE)
        for dropped in {"jitter", "subspace_drift", "cov_var"} - {key}:
            del line[dropped]
        path.write_text(f'{{"schema": "geometry", "version": 2}}\n{json.dumps(line, sort_keys=True)}\n')
        with pytest.raises(ValidationError, match=f"line 2: not a geometry record .*'{key}'"):
            read_telemetry(path)

    @pytest.mark.parametrize("version", [0, 3, None, "1", True, 2.0])  # True == 1 and 2.0 == 2, but neither is an int
    def test_other_versions_are_rejected(self, tmp_path, version):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(f'{json.dumps({"schema": "geometry", "version": version})}\n{VERSION_1_LINE}\n')
        with pytest.raises(ValidationError, match=f"unsupported telemetry version {version!r}"):
            read_telemetry(path)

    @pytest.mark.parametrize("header", [{"version": 2}, {"schema": "not-geometry", "version": 2}], ids=["none", "other"])
    def test_other_schemas_are_rejected(self, tmp_path, header):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(f"{json.dumps(header)}\n{VERSION_1_LINE}\n")
        with pytest.raises(ValidationError) as read:
            read_telemetry(path)
        assert str(read.value) == f"{path}: schema is {header.get('schema')!r}, not 'geometry'"

    def test_audit_of_a_version_one_run_writes_the_same_csvs(self, tmp_path):
        """A run's stream rewritten as version 1, the stability fields added, audits to the same bytes."""
        cfg = GritConfig(task="two_task_forgetting(d=8, hidden=8, pretrain_steps=0)", steps=60, seed=1, lora_rank=4,
                         kfac_update_freq=5, kfac_min_samples=16, reprojection_freq=20,
                         reprojection_warmup_steps=20, telemetry_every=10, eval_size=64)
        run_experiment(cfg, out_dir=tmp_path / "v2")
        shutil.copytree(tmp_path / "v2", tmp_path / "v1")
        stream = tmp_path / "v1" / "telemetry.jsonl"
        lines = stream.read_text().splitlines()
        old = [{**json.loads(line), "jitter": 0.25, "subspace_drift": 0.5, "cov_var": 0.75} for line in lines[1:]]
        stream.write_text(VERSION_1_HEADER + "\n" + "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in old))
        for run in ("v1", "v2"):
            assert main(["--quiet", "audit", str(tmp_path / run)]) == 0
        for name in AUDIT_CSVS:
            assert (tmp_path / "v1" / "audit" / name).read_bytes() == (tmp_path / "v2" / "audit" / name).read_bytes()


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestStackedForms:
    """The telemetry step's stacked forms give each layer what its one-layer form gives, bit for bit."""

    @staticmethod
    def per_matrix_basis(m):
        """One SVD per factor, as the tangent basis was taken before it was stacked."""
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return u[:, :0]
        return u[:, s > 1e-10 * s[0]]

    def test_stacked_bases_equal_the_per_adapter_ones(self, monkeypatch):
        rng = np.random.default_rng(23)
        adapters = []
        for d_out, d_in in ((6, 4), (6, 4), (3, 6), (6, 4)):
            adapters.append(AdapterPair(a=rng.normal(size=(3, d_in)), b=rng.normal(size=(d_out, 3)),
                                        rank=3, scaling=1.0))
        adapters[0].b = np.zeros((6, 3))  # b = 0, as at step 0
        adapters[1].a[2] = 2.0 * adapters[1].a[0]  # a rank-deficient a
        adapters[3].b[:, 1] = -adapters[3].b[:, 0]  # a rank-deficient b
        calls = []
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            calls.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        bases = adapter_subspace_bases(adapters)
        # one call per factor shape: a^T is 4x3 or 6x3, b is 6x3 or 3x3
        assert sorted(calls) == [(1, 3, 3), (1, 6, 3), (3, 4, 3), (3, 6, 3)]
        monkeypatch.setattr(np.linalg, "svd", svd)
        for adapter, basis in zip(adapters, bases):
            one = adapter_subspace_basis(adapter)
            for got, single, reference in (
                (basis.q_in, one.q_in, self.per_matrix_basis(adapter.a.T)),
                (basis.q_out, one.q_out, self.per_matrix_basis(adapter.b)),
            ):
                assert got.shape == single.shape == reference.shape
                assert bits(got) == bits(single) == bits(reference)
        assert [(b.q_in.shape[1], b.q_out.shape[1]) for b in bases] == [(3, 0), (2, 3), (3, 3), (3, 2)]

    @staticmethod
    def searchsorted_rank(eigs, eta):
        """effective_rank as one searchsorted per spectrum."""
        eigs = np.maximum(eigs, 0.0)
        total = float(np.sum(eigs))
        if total <= 0.0:
            return 1, True
        boundary = eta * total * (1.0 - 16 * np.finfo(np.float64).eps)
        k = int(np.searchsorted(np.cumsum(eigs), boundary, side="left")) + 1
        return min(k, eigs.size), False

    def test_stacked_effective_rank_at_the_threshold_edge(self):
        spectrum = np.array([4.0, 3.0, 2.0, 1.0])
        # the eta whose boundary is the third prefix, and its neighbours on both sides
        eta = 9.0 / (10.0 * (1.0 - 16 * np.finfo(np.float64).eps))
        etas = [eta]
        for direction in (np.inf, -np.inf):
            step = eta
            for _ in range(3):
                step = np.nextafter(step, direction)
                etas.append(step)
        ranks_seen = set()
        for eta in etas:
            spectra = np.array([spectrum, np.zeros(4), [4.0, 3.0, 2.0, -1e-18], np.full(4, 0.25)])
            got = [effective_rank(row, eta) for row in spectra]
            assert effective_ranks(spectra, eta).tolist() == [k for k, _ in got]
            assert got == [self.searchsorted_rank(row, eta) for row in spectra]
            assert got[1] == (1, True)  # the all-zero spectrum
            ranks_seen.add(got[0][0])
        assert ranks_seen == {3, 4}  # the neighbours fall on both sides of the edge

    def test_stacked_effective_rank_on_random_spectra(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            r = int(rng.integers(1, 13))
            spectra = -np.sort(-rng.normal(size=(3, r)) ** 2, axis=1)
            spectra[rng.random(3) < 0.3] = 0.0
            eta = float(rng.choice([0.5, 0.85, 0.99, 1.0]))
            expected = [self.searchsorted_rank(row, eta) for row in spectra]
            assert effective_ranks(spectra, eta).tolist() == [k for k, _ in expected]
            assert [effective_rank(row, eta) for row in spectra] == expected

    @staticmethod
    def per_window_eig_cv(spectra, k):
        """eig_cv of one window, as it was taken before the window stack."""
        top = np.stack([eigenvalues[:k] for eigenvalues in spectra])
        means, stds = top.mean(axis=0), top.std(axis=0)
        kept = [i for i in range(k) if means[i] != 0.0]
        return float(np.mean([stds[i] / means[i] for i in kept])) if kept else 0.0

    @pytest.mark.parametrize("r", [1, 2, 8, 11])
    def test_stacked_stability_equals_the_per_window_one(self, r):
        rng = np.random.default_rng(31 + r)
        for trial in range(80):
            layers, window = int(rng.integers(1, 4)), int(rng.integers(2, 25))
            windows = rng.normal(size=(layers, window, r, r)) * 10.0 ** rng.integers(-4, 4)
            spectra = -np.sort(-np.abs(rng.normal(size=(layers, window, r))), axis=2)
            if trial % 3 == 0:
                spectra[:, :, r // 2:] = 0.0  # zero-mean trajectories are skipped
            ks = [int(k) for k in rng.integers(1, r + 1, size=layers)]
            ks[0] = 1 if trial % 2 else ks[0]
            cvs = eig_cvs(spectra, ks)
            for layer, k in enumerate(ks):
                seq, spectrum = list(windows[layer]), list(spectra[layer])
                want = self.per_window_eig_cv(spectrum, k)
                assert bits(cvs[layer]) == bits(want)
                assert bits(stability_stats(seq, k, spectrum)[1]) == bits(want)
