"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (passed through to the terminal by the
tee-sys capture mode configured in pyproject.toml); the assertions carry the
same tolerances. Criteria with runtime budgets assert the elapsed wall-clock
too.
"""

import json
import time

import numpy as np

from grit.cli import main
from grit.config import GritConfig
from grit.forgetting import fit_baseline_law, fit_xi_coefficients, quadratic_forgetting, trace_forgetting
from grit.kfac import RankSpaceStats, refresh_inverses
from grit.linalg import sym_eig
from grit.model import trainable_count
from grit.oracles import _synthetic_law_records, delta_w_vector
from grit.reprojection import make_projector, select_rank
from grit.runio import read_record
from grit.telemetry import effective_rank, stability_stats, xi_multiplier
from grit.tasks import build_task
from grit.trainer import Trainer, run_experiment, seed_stream


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_kronecker_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        r = int(rng.integers(1, 5))
        stats = RankSpaceStats(rank=r, damping=float(rng.uniform(1e-4, 1e-2)))
        m1 = rng.normal(size=(r, r))
        m2 = rng.normal(size=(r, r))
        stats.a_cov = m1 @ m1.T / r
        stats.g_cov = m2 @ m2.T / r
        stats.n_cov = 10**6
        refresh_inverses(stats, min_samples=1)
        grad = rng.normal(size=(r, r))
        fast = stats.inv_g @ grad @ stats.inv_a
        explicit = np.kron(stats.inv_g, stats.inv_a) @ grad.ravel()
        worst = max(worst, float(np.max(np.abs(fast.ravel() - explicit))))
    elapsed = time.time() - start
    report(
        "criterion 1 (kronecker equivalence)",
        worst < 1e-10 and elapsed < 5.0,
        f"max elementwise error {worst:.2e} (tol 1e-10), {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_02_gradient_exactness():
    start = time.time()
    from grit.oracles import suite_gradcheck

    result = suite_gradcheck(models=100, seed=102)[0]
    elapsed = time.time() - start
    report(
        "criterion 2 (gradient exactness)",
        result.passed and elapsed < 30.0,
        f"max relative error {result.observed:.2e} (tol 1e-6), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_03_projector_suite():
    start = time.time()
    rng = np.random.default_rng(103)
    worst_idem = 0.0
    expansions = 0
    violations = 0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        m = rng.normal(size=(dim, dim))
        sigma = m @ m.T
        m2 = rng.normal(size=(dim, dim))
        h = m2 @ m2.T
        k = int(rng.integers(1, dim + 1))
        p = make_projector(sym_eig(sigma), k).matrix()
        worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p)))
        v = rng.normal(size=dim)
        if np.linalg.norm(p @ v) > np.linalg.norm(v) + 1e-12:
            expansions += 1
        if np.trace(h @ p @ sigma @ p) > np.trace(h @ sigma) + 1e-10 * abs(np.trace(h @ sigma)):
            violations += 1
    elapsed = time.time() - start
    report(
        "criterion 3 (projector suite)",
        worst_idem < 1e-9 and expansions == 0 and violations == 0 and elapsed < 5.0,
        f"idempotence {worst_idem:.2e} (tol 1e-9), {expansions} expansions, "
        f"{violations} trace violations over 200 pairs, {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_04_rank_rule_oracle():
    start = time.time()
    rng = np.random.default_rng(104)
    mismatches = 0
    for _ in range(1000):
        r = int(rng.integers(1, 17))
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
            if select_rank(eigs, tau, min_rank=1)[0] != brute:
                mismatches += 1
            if effective_rank(eigs, tau)[0] != brute:
                mismatches += 1
    elapsed = time.time() - start
    report(
        "criterion 4 (rank-rule oracle)",
        mismatches == 0 and elapsed < 2.0,
        f"{mismatches} mismatches over 1000 spectra x 4 thresholds, {elapsed:.1f}s (budget 2s)",
    )


def test_criterion_05_parameter_accounting():
    value = trainable_count(4096, 4096, 8)
    report(
        "criterion 5 (parameter accounting)",
        value == 65_536,
        f"trainable_count(4096, 4096, 8) = {value} (expected 65,536)",
    )


def test_criterion_06_scaling_law_round_trip():
    start = time.time()
    truth = dict(c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5)
    gammas = (0.1, 0.5, 0.3)

    rng = np.random.default_rng(106)
    base, grit = _synthetic_law_records(rng, gammas=gammas, **truth)
    fit = fit_baseline_law(base)
    base_err = max(
        abs(fit.c0 - truth["c0"]) / truth["c0"],
        abs(fit.a_coef - truth["a_coef"]) / truth["a_coef"],
        abs(fit.alpha - truth["alpha"]) / truth["alpha"],
        abs(fit.beta - truth["beta"]) / truth["beta"],
    )
    xi_fit = fit_xi_coefficients(grit, fit)
    gamma_err = max(
        abs(xi_fit.gamma_r - gammas[0]) / gammas[0],
        abs(xi_fit.gamma_a - gammas[1]) / gammas[1],
        abs(xi_fit.gamma_p - gammas[2]) / gammas[2],
    )

    noisy_errs = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        base_n, grit_n = _synthetic_law_records(rng, gammas=gammas, noise=1e-3, **truth)
        fit_n = fit_baseline_law(base_n)
        xi_n = fit_xi_coefficients(grit_n, fit_n)
        noisy_errs.append(
            max(
                abs(fit_n.c0 - truth["c0"]) / truth["c0"],
                abs(fit_n.a_coef - truth["a_coef"]) / truth["a_coef"],
                abs(fit_n.alpha - truth["alpha"]) / truth["alpha"],
                abs(fit_n.beta - truth["beta"]) / truth["beta"],
                abs(xi_n.gamma_r - gammas[0]) / gammas[0],
                abs(xi_n.gamma_a - gammas[1]) / gammas[1],
                abs(xi_n.gamma_p - gammas[2]) / gammas[2],
            )
        )
    noisy_median = float(np.median(noisy_errs))
    elapsed = time.time() - start
    report(
        "criterion 6 (scaling-law round trip)",
        base_err < 1e-4 and gamma_err < 1e-3 and noisy_median < 0.05 and elapsed < 30.0,
        f"noiseless base {base_err:.2e} (tol 1e-4), gamma {gamma_err:.2e} (tol 1e-3), "
        f"noisy median {noisy_median:.3f} (tol 0.05), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_07_dynamic_rank_concentration():
    concentrated = 0
    final_ks = []
    for seed in range(10):
        cfg = GritConfig(
            task="synthetic_lowrank(d=24, r_true=2, noise=0.02)",
            steps=400, seed=seed, mode="grit",
            reprojection_freq=50, reprojection_warmup_steps=50, ng_warmup_steps=0,
            kfac_update_freq=5, kfac_min_samples=32, min_lora_rank=2,
            rank_adaptation_threshold=0.99, lora_rank=8,
            learning_rate=0.05, telemetry_every=0,
        )
        task = build_task(
            cfg.task, rank=cfg.lora_rank, alpha=cfg.lora_alpha, eval_size=cfg.eval_size,
            model_rng=seed_stream(cfg.seed, "model"),
            data_rng=seed_stream(cfg.seed, "task-data"),
        )
        trainer = Trainer(cfg, task)
        for step in range(cfg.steps):
            trainer.train_step(task.sample_batch(trainer.data_rng, cfg.batch_size), step)
        events = [e for e in trainer.events if e["action"] == "reproject"]
        last_step = max(e["step"] for e in events)
        k = max(e["k"] for e in events if e["step"] == last_step)
        final_ks.append(k)
        if k <= 4:
            concentrated += 1
    report(
        "criterion 7 (dynamic-rank concentration)",
        concentrated >= 8,
        f"final k <= 4 in {concentrated}/10 seeds (need >= 8); ks = {final_ks}",
    )


FORGETTING_TASK = (
    "two_task_forgetting(d=12, hidden=12, pretrain_steps=100, ft_noise=0.25, delta_scale=0.2)"
)


def _forgetting_config(mode: str, seed: int) -> GritConfig:
    return GritConfig(
        task=FORGETTING_TASK, steps=500, seed=seed, mode=mode,
        reprojection_freq=40, reprojection_warmup_steps=80, ng_warmup_steps=0,
        kfac_update_freq=5, kfac_min_samples=64, g_gate_min_samples=64,
        min_lora_rank=2, rank_adaptation_threshold=0.85, lora_rank=8,
        use_two_sided=True, kfac_damping=0.1, lambda_r=0.02,
        learning_rate=0.02, telemetry_every=100,
    )


def test_criterion_08_forgetting_reduction():
    start = time.time()
    seeds = range(9)
    grit_drift, ctrl_drift = [], []
    grit_exposure, ctrl_exposure = [], []
    quad_ratios = []
    for seed in seeds:
        rec_g = run_experiment(_forgetting_config("grit", seed))
        rec_c = run_experiment(_forgetting_config("lora_control", seed))
        grit_drift.append(rec_g.delta_pt_loss)
        ctrl_drift.append(rec_c.delta_pt_loss)
        grit_exposure.append(rec_g.geometry_summary.curvature_exposure)
        ctrl_exposure.append(rec_c.geometry_summary.curvature_exposure)
        quad_ratios.append(rec_g.quadratic_forgetting_estimate / rec_g.delta_pt_loss)
    g_med, c_med = float(np.median(grit_drift)), float(np.median(ctrl_drift))
    ge_med, ce_med = float(np.median(grit_exposure)), float(np.median(ctrl_exposure))
    quad_ok = all(abs(r - 1.0) < 0.2 for r in quad_ratios)
    elapsed = time.time() - start
    report(
        "criterion 8 (forgetting reduction)",
        g_med < c_med and ge_med < ce_med and quad_ok and elapsed < 300.0,
        f"median drift {g_med:.4f} vs control {c_med:.4f}; median exposure "
        f"{ge_med:.1f} vs {ce_med:.1f}; quad/exact ratios within 20%: {quad_ok}; "
        f"{elapsed:.0f}s (budget 300s)",
    )


def test_criterion_08b_quadratic_estimator_route():
    # dual route for the drift estimate: spectral sum (the public estimator)
    # against the direct quadratic form stored in the run record
    cfg = _forgetting_config("grit", seed=0)
    task = build_task(
        FORGETTING_TASK, rank=cfg.lora_rank, alpha=cfg.lora_alpha, eval_size=cfg.eval_size,
        model_rng=seed_stream(0, "model"), data_rng=seed_stream(0, "task-data"),
    )
    trainer = Trainer(cfg, task)
    for step in range(cfg.steps):
        trainer.train_step(task.sample_batch(trainer.data_rng, cfg.batch_size), step)
    delta = delta_w_vector(task.model)
    hess = task.pt_hessian()
    direct = float(0.5 * delta @ (hess @ delta))
    spectral = quadratic_forgetting(sym_eig(hess), delta)
    exact = task.pt_loss(task.model)
    ok = abs(spectral - direct) < 1e-10 * max(1.0, abs(direct)) and abs(spectral - exact) / exact < 0.2
    report(
        "criterion 8b (quadratic estimator dual route)",
        ok,
        f"spectral {spectral:.5f} vs direct {direct:.5f} vs exact {exact:.5f}",
    )


def test_criterion_09_no_geometry_reduction():
    never = 10**9
    common = dict(
        task="synthetic_lowrank(d=10, r_true=2, noise=0.05)", steps=50, seed=4,
        lora_rank=4, min_lora_rank=2, batch_size=8, eval_size=64,
        lambda_k=0.0, lambda_r=0.0, telemetry_every=0, learning_rate=0.05,
    )

    def build(mode, **kw):
        cfg = GritConfig(mode=mode, **common, **kw)
        task = build_task(
            cfg.task, rank=cfg.lora_rank, alpha=cfg.lora_alpha, eval_size=cfg.eval_size,
            model_rng=seed_stream(cfg.seed, "model"), data_rng=seed_stream(cfg.seed, "task-data"),
        )
        return Trainer(cfg, task), task, cfg

    tr_g, task_g, cfg_g = build("grit", ng_warmup_steps=never, reprojection_warmup_steps=never)
    tr_c, task_c, cfg_c = build("lora_control")
    identical = True
    for step in range(cfg_g.steps):
        loss_g = tr_g.train_step(task_g.sample_batch(tr_g.data_rng, cfg_g.batch_size), step).loss
        loss_c = tr_c.train_step(task_c.sample_batch(tr_c.data_rng, cfg_c.batch_size), step).loss
        if loss_g != loss_c:  # bit-identical, asserted per step
            identical = False
            break
    params_equal = all(
        np.array_equal(ag.a, ac.a) and np.array_equal(ag.b, ac.b)
        for (_, ag), (_, ac) in zip(tr_g.model.layers, tr_c.model.layers)
    )
    xi = xi_multiplier(5.0, 0.8, 0.9, (0.0, 0.0, 0.0))
    report(
        "criterion 9 (no-geometry reduction)",
        identical and params_equal and xi == 1.0,
        f"trajectories bit-identical: {identical}; final params equal: {params_equal}; xi(gamma=0) = {xi}",
    )


def test_criterion_10_monte_carlo_trace_consistency():
    start = time.time()
    rng = np.random.default_rng(110)
    dim = 8
    m = rng.normal(size=(dim, dim))
    h = m @ m.T / dim
    c = rng.normal(size=(dim, dim))
    sigma = c @ c.T / dim
    dec = sym_eig(h)
    chol = np.linalg.cholesky(sigma)
    n = 10_000
    draws = rng.normal(size=(n, dim)) @ chol.T
    lam = np.maximum(dec.eigenvalues, 0.0)
    proj = draws @ dec.eigenvectors
    samples = 0.5 * np.sum(lam * proj * proj, axis=1)
    # spot check the vectorized sampling against the scalar estimator
    assert abs(samples[0] - quadratic_forgetting(dec, draws[0])) < 1e-12
    expected = trace_forgetting(h, sigma)
    se = float(samples.std(ddof=1) / np.sqrt(n))
    gap = abs(float(samples.mean()) - expected)
    elapsed = time.time() - start
    report(
        "criterion 10 (monte carlo trace consistency)",
        gap < 3.0 * se and elapsed < 10.0,
        f"|mean - trace| = {gap:.4f} vs 3 SE = {3 * se:.4f}, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_11_ema_stability_direction():
    start = time.time()
    dim = 3
    chol = np.diag([1.5, 1.0, 0.5])
    reduced = 0
    ema_vars = {1: [], 4: [], 16: []}
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        for b_eff in (1, 4, 16):
            raws, emas = [], []
            ema = None
            for t in range(400):
                sample = rng.normal(size=(b_eff, dim)) @ chol
                c_mb = sample.T @ sample / b_eff
                ema = c_mb if ema is None else 0.98 * ema + 0.02 * c_mb
                if t >= 200:
                    raws.append(c_mb)
                    emas.append(ema.copy())
            raw_var, _, _ = stability_stats(raws, k=1)
            ema_var, _, _ = stability_stats(emas, k=1)
            ema_vars[b_eff].append(ema_var)
            if b_eff == 4 and ema_var < raw_var:
                reduced += 1
    medians = {b: float(np.median(v)) for b, v in ema_vars.items()}
    monotone = medians[1] > medians[4] > medians[16]
    elapsed = time.time() - start
    report(
        "criterion 11 (ema stability direction)",
        reduced >= 18 and monotone and elapsed < 20.0,
        f"ema below raw in {reduced}/20 seeds (need >= 18); median var by batch "
        f"{medians[1]:.3f} > {medians[4]:.3f} > {medians[16]:.3f}: {monotone}; "
        f"{elapsed:.1f}s (budget 20s)",
    )


CLI_CONFIG = """
task = synthetic_lowrank(d=10, r_true=2, noise=0.05)
steps = 40
seed = 21
lora_rank = 4
min_lora_rank = 2
kfac_update_freq = 5
kfac_min_samples = 16
reprojection_freq = 10
reprojection_warmup_steps = 10
telemetry_every = 10
eval_size = 64
"""


def test_criterion_12_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CLI_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["--quiet", "train", str(cfg_path), "--out", str(out1)])
    rc2 = main(["--quiet", "train", str(cfg_path), "--out", str(out2)])
    byte_equal = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("record.json", "telemetry.jsonl", "events.jsonl",
                     "stats.jsonl", "updates.jsonl", "checkpoint.json")
    )
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("created_at"), m2.pop("created_at")
    m1.pop("run_id"), m2.pop("run_id")
    report(
        "criterion 12 (determinism)",
        rc1 == 0 and rc2 == 0 and byte_equal and m1 == m2,
        f"exit codes ({rc1}, {rc2}); record and streams byte-identical: {byte_equal}; "
        f"manifests equal up to timestamps: {m1 == m2}",
    )
