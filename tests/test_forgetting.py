import json
import re

import numpy as np
import pytest

from grit.errors import ShapeError, UnderdeterminedFitError, UnidentifiableGammaError, ValidationError
from grit.forgetting import (
    ScalingFit,
    fit_baseline_law,
    fit_xi_coefficients,
    load_fit,
    predict,
    quadratic_forgetting,
    save_fit,
    trace_forgetting,
)
from grit.linalg import sym_eig, symmetrize
from grit.runio import GeometrySummary, RunRecord
from grit.telemetry import xi_multiplier


def law_records(c0, a_coef, alpha, beta, gammas=(0.0, 0.0, 0.0), noise=0.0, rng=None,
                d_grid=None, n_grid=(1e4, 1e5), mode="lora_control", geometry=None):
    d_grid = d_grid if d_grid is not None else np.geomspace(1e3, 1e5, 6)
    records = []
    for n in n_grid:
        for d in d_grid:
            d = int(d)
            if geometry is not None:
                geo = geometry(rng)
            else:
                geo = (0.0, 0.0, 0.0)
            xi = xi_multiplier(*geo, gammas)
            loss = c0 + a_coef * d**beta / (xi * n) ** alpha
            if noise > 0.0:
                loss += noise * rng.normal()
            records.append(
                RunRecord(
                    d_ft=int(d), n_params=int(n), final_task_loss=0.0,
                    pt_loss_before=c0, pt_loss_after=float(loss), mode=mode,
                    seed=0, task="synthetic",
                    geometry_summary=GeometrySummary(
                        r_eff=geo[0], rho_align=geo[1], pi_proj=geo[2], max_rank=8
                    ),
                )
            )
    return records


class TestQuadraticForgetting:
    def test_zero_update(self):
        dec = sym_eig(np.eye(3))
        assert quadratic_forgetting(dec, np.zeros(3)) == 0.0

    def test_isotropic(self):
        dec = sym_eig(np.eye(3))
        v = np.array([1.0, 2.0, 2.0])
        assert np.isclose(quadratic_forgetting(dec, v), 0.5 * 9.0)

    def test_direct_evaluation(self):
        dec = sym_eig(np.diag([2.0, 0.0]))
        assert np.isclose(quadratic_forgetting(dec, np.array([1.0, 3.0])), 1.0)

    def test_negative_eigenvalues_clipped(self):
        dec = sym_eig(np.diag([2.0, -5.0]))
        assert np.isclose(quadratic_forgetting(dec, np.array([1.0, 1.0])), 1.0)

    def test_dim_mismatch(self):
        dec = sym_eig(np.eye(2))
        with pytest.raises(ShapeError):
            quadratic_forgetting(dec, np.zeros(3))


class TestTraceForgetting:
    def test_zero_covariance(self):
        assert trace_forgetting(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_isotropic(self):
        sigma = np.diag([1.0, 3.0])
        assert np.isclose(trace_forgetting(np.eye(2), sigma), 2.0)

    def test_direct_trace(self):
        assert np.isclose(trace_forgetting(np.diag([1.0, 2.0]), np.diag([4.0, 1.0])), 3.0)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(0)
        dim = 6
        m = rng.normal(size=(dim, dim))
        h = m @ m.T / dim
        c = rng.normal(size=(dim, dim))
        sigma = c @ c.T / dim
        chol = np.linalg.cholesky(sigma)
        dec = sym_eig(h)
        n = 10_000
        draws = rng.normal(size=(n, dim)) @ chol.T
        samples = np.array([quadratic_forgetting(dec, row) for row in draws])
        expected = trace_forgetting(h, sigma)
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - expected) < 3.0 * se


class TestBaselineFit:
    def test_noiseless_recovery(self):
        records = law_records(2.0, 1.0, 0.3, 0.5)
        fit = fit_baseline_law(records)
        assert abs(fit.c0 - 2.0) / 2.0 < 1e-4
        assert abs(fit.a_coef - 1.0) < 1e-4
        assert abs(fit.alpha - 0.3) / 0.3 < 1e-4
        assert abs(fit.beta - 0.5) / 0.5 < 1e-4
        assert fit.residual_rms < 1e-6

    def test_underdetermined_single_point(self):
        records = law_records(2.0, 1.0, 0.3, 0.5, d_grid=[1e4] * 6, n_grid=(1e4,))
        with pytest.raises(UnderdeterminedFitError) as err:
            fit_baseline_law(records)
        assert err.value.axis in ("n_params", "d_ft")

    def test_too_few_records(self):
        records = law_records(2.0, 1.0, 0.3, 0.5)[:4]
        with pytest.raises(UnderdeterminedFitError) as err:
            fit_baseline_law(records)
        assert err.value.axis == "count"

    def test_noisy_recovery_within_5pct(self):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            records = law_records(2.0, 1.0, 0.3, 0.5, noise=1e-3, rng=rng)
            fit = fit_baseline_law(records)
            errs.append(
                max(
                    abs(fit.c0 - 2.0) / 2.0,
                    abs(fit.a_coef - 1.0),
                    abs(fit.alpha - 0.3) / 0.3,
                    abs(fit.beta - 0.5) / 0.5,
                )
            )
        assert np.median(errs) < 0.05

    def test_determinism(self):
        records = law_records(2.0, 1.0, 0.3, 0.5)
        f1 = fit_baseline_law(records)
        f2 = fit_baseline_law(records)
        assert f1 == f2


class TestXiFit:
    def geometry(self, rng):
        return (float(rng.integers(1, 9)), float(rng.uniform()), float(rng.uniform()))

    def test_zero_gamma_limit(self):
        rng = np.random.default_rng(1)
        base = law_records(2.0, 1.0, 0.3, 0.5)
        grit = law_records(2.0, 1.0, 0.3, 0.5, gammas=(0.0, 0.0, 0.0), rng=rng,
                           mode="grit", geometry=self.geometry)
        fit = fit_xi_coefficients(grit, fit_baseline_law(base))
        assert max(fit.gammas) < 1e-6
        assert np.isclose(xi_multiplier(3.0, 0.5, 0.5, fit.gammas), 1.0, atol=1e-5)

    def test_noiseless_gamma_recovery(self):
        rng = np.random.default_rng(2)
        base = law_records(2.0, 1.0, 0.3, 0.5)
        grit = law_records(2.0, 1.0, 0.3, 0.5, gammas=(0.1, 0.5, 0.3), rng=rng,
                           mode="grit", geometry=self.geometry)
        fit = fit_xi_coefficients(grit, fit_baseline_law(base))
        assert abs(fit.gamma_r - 0.1) / 0.1 < 1e-3
        assert abs(fit.gamma_a - 0.5) / 0.5 < 1e-3
        assert abs(fit.gamma_p - 0.3) / 0.3 < 1e-3

    def test_partial_identifiability(self):
        rng = np.random.default_rng(3)
        base = law_records(2.0, 1.0, 0.3, 0.5)

        def only_reff(r):
            return (float(r.integers(1, 9)), 0.0, 0.0)

        grit = law_records(2.0, 1.0, 0.3, 0.5, gammas=(0.2, 0.7, 0.4), rng=rng,
                           mode="grit", geometry=only_reff)
        fit = fit_xi_coefficients(grit, fit_baseline_law(base))
        assert set(fit.unidentifiable) == {"gamma_a", "gamma_p"}
        assert abs(fit.gamma_r - 0.2) / 0.2 < 1e-3
        assert fit.gamma_a == 0.0
        assert fit.gamma_p == 0.0

    def test_all_constant_raises(self):
        base = law_records(2.0, 1.0, 0.3, 0.5)
        grit = law_records(2.0, 1.0, 0.3, 0.5, mode="grit")
        with pytest.raises(UnidentifiableGammaError):
            fit_xi_coefficients(grit, fit_baseline_law(base))


class TestPredict:
    def test_reduces_to_baseline(self):
        fit = ScalingFit(c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5)
        baseline = 2.0 + 1.0 * 1e4**0.5 / 1e5**0.3
        assert np.isclose(predict(fit, 1e4, 1e5, (3.0, 0.5, 0.9)), baseline)

    def test_doubling_xi_halves_power_term(self):
        fit = ScalingFit(c0=0.0, a_coef=1.0, alpha=1.0, beta=0.0, gamma_r=1.0)
        # r_eff = 1 gives xi = 2; against xi = 1 the term halves
        with_geo = predict(fit, 1e3, 1e4, (1.0, 0.0, 0.0))
        without = predict(fit, 1e3, 1e4, (0.0, 0.0, 0.0))
        assert np.isclose(with_geo, without / 2.0)

    def test_monotone_in_each_statistic(self):
        fit = ScalingFit(c0=1.0, a_coef=2.0, alpha=0.4, beta=0.5,
                         gamma_r=0.2, gamma_a=0.6, gamma_p=0.3)
        base = predict(fit, 1e4, 1e5, (2.0, 0.5, 0.5))
        assert predict(fit, 1e4, 1e5, (3.0, 0.5, 0.5)) < base
        assert predict(fit, 1e4, 1e5, (2.0, 0.7, 0.5)) < base
        assert predict(fit, 1e4, 1e5, (2.0, 0.5, 0.7)) < base

    def test_round_trip_on_generating_grid(self):
        rng = np.random.default_rng(4)
        base = law_records(2.0, 1.0, 0.3, 0.5)
        grit = law_records(
            2.0, 1.0, 0.3, 0.5, gammas=(0.1, 0.5, 0.3), rng=rng, mode="grit",
            geometry=lambda r: (float(r.integers(1, 9)), float(r.uniform()), float(r.uniform())),
        )
        fit = fit_xi_coefficients(grit, fit_baseline_law(base))
        for rec in grit:
            g = rec.geometry_summary
            pred = predict(fit, rec.d_ft, rec.n_params, (g.r_eff, g.rho_align, g.pi_proj))
            assert abs(pred - rec.pt_loss_after) < max(1e-6, 10 * fit.residual_rms)

    def test_fit_document_round_trip(self, tmp_path):
        fit = ScalingFit(c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5, gamma_r=0.1,
                         residual_rms=1e-7, unidentifiable=["gamma_p"])
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        assert load_fit(path) == fit

    @pytest.mark.parametrize(
        "field, value, kind", [("c0", "abc", "a number"), ("unidentifiable", [1], "a list of strings")]
    )
    def test_fit_value_of_the_wrong_kind_is_a_validation_error_naming_it(self, tmp_path, field, value, kind):
        path = tmp_path / "fit.json"
        save_fit(ScalingFit(c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5), path)
        path.write_text(json.dumps(json.loads(path.read_text()) | {field: value}))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {field} is {value!r}, not {kind}")):
            load_fit(path)

    @pytest.mark.parametrize("text", ["{not json", "[2.0]", '{"c0": 2.0, "a_coef": 1.0, "alpha": 0.3}'])
    def test_damaged_fit_document_is_a_validation_error_naming_it(self, tmp_path, text):
        path = tmp_path / "fit.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="fit.json"):
            load_fit(path)
