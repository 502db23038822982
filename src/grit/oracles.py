"""Brute-force oracle suites runnable from the command line, and the
reference helpers only they and the tests use.

Each suite compares a fast-path implementation against an independent
reference (materialized Kronecker products, LAPACK eigensolves, explicit
prefix scans, finite differences, self-generated law data, the SVD of the
materialized tangent span, the finite-difference pretraining Hessian) and
reports the worst observed error against the suite tolerance.

Flat weight vectors concatenate every layer's d_out x d_in matrix, flattened
row-major, in layer order: base_weight_vector for the base weights,
delta_w_vector for the scaled adapter updates, with layer_slices giving
each layer's block. The finite-difference pretraining Hessian fd_pt_hessian
is indexed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .forgetting import fit_baseline_law, fit_xi_coefficients, predict
from .kfac import RankSpaceStats, refresh_inverses
from .linalg import SpectralDecomp, damped_inverse, damped_solve, sym_eig, sym_eig_stack, symmetrize
from .model import AdapterPair, BaseLayer, Model, build_model
from .reprojection import effective_rank, make_projector, select_rank
from .runio import GeometrySummary, RunRecord
from .tasks import TaskInstance, build_task
from .telemetry import LayerCurvature, adapter_subspace_basis, exposure_from_basis, xi_multiplier


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float


def layer_slices(model: Model) -> list[slice]:
    """Each layer's block of a flat weight vector."""
    slices = []
    offset = 0
    for base, _ in model.layers:
        size = base.d_out * base.d_in
        slices.append(slice(offset, offset + size))
        offset += size
    return slices


def base_weight_vector(model: Model) -> np.ndarray:
    """Every layer's base weight as one flat weight vector."""
    return np.concatenate([base.w0.ravel() for base, _ in model.layers])


def delta_w_vector(model: Model) -> np.ndarray:
    """Every layer's scaled adapter update as one flat weight vector."""
    return np.concatenate(
        [adapter.scaling * adapter.delta_w().ravel() for _, adapter in model.layers]
    )


def zero_adapter_model(model: Model, weights: list[np.ndarray]) -> Model:
    """The model's architecture with the given base weights, one per layer, and zero adapters."""
    return Model(layers=[
        (
            BaseLayer(w0=w0, bias=base.bias, activation=base.activation),
            AdapterPair(a=np.zeros_like(adapter.a), b=np.zeros_like(adapter.b),
                        rank=adapter.rank, scaling=adapter.scaling),
        )
        for (base, adapter), w0 in zip(model.layers, weights)
    ])


def fold_adapters(model: Model) -> Model:
    """Reference model with each delta folded into the base weight (adapters zeroed)."""
    return zero_adapter_model(
        model, [adapter.effective_weight(base.w0) for base, adapter in model.layers]
    )


def pt_grad_at(task: TaskInstance, w_vec: np.ndarray) -> np.ndarray:
    """Exact gradient of the task's pt loss in the flat base weights, at w_vec."""
    shapes = [base.w0.shape for base, _ in task.model.layers]
    weights = [w_vec[sl].reshape(shape) for sl, shape in zip(layer_slices(task.model), shapes)]
    probe = zero_adapter_model(task.model, weights)
    pred = probe.forward(task.pt_inputs)
    probe.backward((pred - task.pt_targets) / task.pt_inputs.shape[0])
    return np.concatenate([(tape.dy.T @ tape.x).ravel() for tape in probe.tapes])


def hessian_fd(grad_fn, w: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Dense Hessian by central finite differences of an exact gradient, symmetrized."""
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    h = np.zeros((n, n))
    for i in range(n):
        wp = w.copy()
        wp[i] += step
        wm = w.copy()
        wm[i] -= step
        h[:, i] = (grad_fn(wp) - grad_fn(wm)) / (2.0 * step)
    return symmetrize(h)


def fd_pt_hessian(task: TaskInstance) -> np.ndarray:
    """Dense pretraining Hessian at the base point, by central differences (step 1e-4) of pt_grad_at."""
    return hessian_fd(lambda w: pt_grad_at(task, w), base_weight_vector(task.model), step=1e-4)


def reconstruct(decomp: SpectralDecomp) -> np.ndarray:
    """U diag(lambda) U^T from a decomposition."""
    u = decomp.eigenvectors
    return (u * decomp.eigenvalues) @ u.T


def _random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim))
    return m @ m.T / dim


def suite_kron(cases: int = 500, seed: int = 20240) -> list[CheckResult]:
    """Two-sided factor application vs the materialized Kronecker inverse."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        r = int(rng.integers(1, 5))
        stats = RankSpaceStats(rank=r, damping=float(rng.uniform(1e-4, 1e-2)))
        stats.a_cov = _random_psd(rng, r)
        stats.g_cov = _random_psd(rng, r)
        stats.n_cov = 10**6
        refresh_inverses(stats, min_samples=1)
        grad = rng.normal(size=(r, r))
        fast = stats.inv_g @ grad @ stats.inv_a
        explicit = np.kron(stats.inv_g, stats.inv_a) @ grad.ravel()
        worst = max(worst, float(np.max(np.abs(fast.ravel() - explicit))))
    return [CheckResult("factor-wise vs materialized kronecker inverse", worst < 1e-10, worst, 1e-10)]


def reference_eig(m: np.ndarray) -> SpectralDecomp:
    """One matrix's decomposition in sym_eig_stack's convention, computed on its own.

    LAPACK's eigh of the symmetrized matrix, a stable descending sort, and
    each eigenvector's first entry above 1e-12 in magnitude made
    non-negative, column by column.
    """
    eigs, vecs = np.linalg.eigh(symmetrize(m))
    order = np.argsort(-eigs, kind="stable")
    eigs, vecs = eigs[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        above = np.nonzero(np.abs(vecs[:, j]) > 1e-12)[0]
        if above.size and vecs[above[0], j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return SpectralDecomp(eigs, vecs)


def suite_eig(cases: int = 200, seed: int = 20241) -> list[CheckResult]:
    """sym_eig vs reconstruction and a LAPACK cross-check.

    The same matrices, grouped by size, also check sym_eig_stack against
    reference_eig bit for bit, and damped_inverse (at damping 1, so indefinite
    matrices climb the ladder) against damped_solve's Cholesky-probed rung
    and the residual of the inverse it gives.
    """
    rng = np.random.default_rng(seed)
    worst_recon = 0.0
    worst_orth = 0.0
    worst_lapack = 0.0
    by_dim: dict[int, list] = {}
    for _ in range(cases):
        dim = int(rng.integers(1, 17))
        m = symmetrize(rng.normal(size=(dim, dim)))
        dec = sym_eig(m)
        by_dim.setdefault(dim, []).append((m, dec))
        denom = max(np.linalg.norm(m), 1e-30)
        worst_recon = max(worst_recon, float(np.linalg.norm(reconstruct(dec) - m) / denom))
        gram = dec.eigenvectors.T @ dec.eigenvectors
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(dim)))))
        reference = np.sort(np.linalg.eigvalsh(m))[::-1]
        worst_lapack = max(worst_lapack, float(np.max(np.abs(dec.eigenvalues - reference))))
    stack_mismatches = 0
    worst_inverse = 0.0
    damping = 1.0
    for dim, pairs in by_dim.items():
        stacked = sym_eig_stack([m for m, _ in pairs], [f"case {i}" for i in range(len(pairs))])
        for (m, dec), got in zip(pairs, stacked):
            ref = reference_eig(m)
            stack_mismatches += (
                got.eigenvalues.tobytes() != ref.eigenvalues.tobytes()
                or got.eigenvectors.tobytes() != ref.eigenvectors.tobytes()
            )
            eye = np.eye(dim)
            try:
                _, mult = damped_solve(m, damping, eye)
            except SingularMatrixError:
                mult = None
            try:
                inv, spectral_mult, _ = damped_inverse(dec, damping)
            except SingularMatrixError:
                inv, spectral_mult = None, None
            if spectral_mult != mult:
                worst_inverse = float("inf")
            elif inv is not None:
                residual = (m + mult * damping * eye) @ inv - eye
                worst_inverse = max(worst_inverse, float(np.linalg.norm(residual)))
    return [
        CheckResult("reconstruction error (relative frobenius)", worst_recon < 1e-8, worst_recon, 1e-8),
        CheckResult("eigenvector orthonormality", worst_orth < 1e-8, worst_orth, 1e-8),
        CheckResult("eigenvalues vs lapack", worst_lapack < 1e-8, worst_lapack, 1e-8),
        CheckResult(
            "stacked vs per-matrix reference (bitwise mismatches)",
            stack_mismatches == 0, float(stack_mismatches), 0.0,
        ),
        CheckResult(
            "spectral damped inverse residual at the lapack solve's rung",
            worst_inverse < 1e-8, worst_inverse, 1e-8,
        ),
    ]


def suite_projector(pairs: int = 200, seed: int = 20242) -> list[CheckResult]:
    """Idempotence, non-expansiveness, and the top-k spectral trace inequality."""
    rng = np.random.default_rng(seed)
    worst_idem = 0.0
    worst_expand = 0.0
    violations = 0
    for _ in range(pairs):
        dim = int(rng.integers(2, 9))
        sigma = _random_psd(rng, dim)
        h = _random_psd(rng, dim)
        k = int(rng.integers(1, dim + 1))
        proj = make_projector(sym_eig(sigma), k)
        p = proj.matrix()
        worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p)))
        v = rng.normal(size=dim)
        worst_expand = max(
            worst_expand, float(np.linalg.norm(p @ v) - np.linalg.norm(v))
        )
        before = float(np.trace(h @ sigma))
        after = float(np.trace(h @ p @ sigma @ p))
        if after > before + 1e-10 * max(1.0, abs(before)):
            violations += 1
    return [
        CheckResult("idempotence ||P^2 - P||_F", worst_idem < 1e-9, worst_idem, 1e-9),
        CheckResult("non-expansiveness ||Pv|| - ||v||", worst_expand <= 1e-12, worst_expand, 1e-12),
        CheckResult("trace inequality violations", violations == 0, float(violations), 0.0),
    ]


def suite_gradcheck(models: int = 100, seed: int = 20243) -> list[CheckResult]:
    """Analytic adapter gradients vs central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(models):
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 17)) for _ in range(n_layers + 1)]
        rank = int(rng.integers(1, min(dims) + 1))
        acts = [str(rng.choice(["tanh", "identity"])) for _ in range(n_layers)]
        model = build_model(dims, rank=rank, scaling=1.0, rng=rng, activations=acts)
        for _, adapter in model.layers:
            adapter.b = rng.normal(0.0, 0.3, size=adapter.b.shape)
        x = rng.normal(size=(4, dims[0]))
        target = rng.normal(size=(4, dims[-1]))

        def loss_of_model() -> float:
            pred = model.forward(x)
            return float(0.5 * np.sum((pred - target) ** 2))

        pred = model.forward(x)
        model.backward(pred - target)
        analytic = [
            (tape.grad_a.copy(), tape.grad_b.copy()) for tape in model.tapes
        ]
        gmax = max(
            max(np.max(np.abs(ga)), np.max(np.abs(gb))) for ga, gb in analytic
        )
        # balanced central-difference step; near-zero entries are compared with
        # a floor tied to the model's gradient scale
        step = 1e-5
        floor = 1e-3 * (1.0 + gmax)
        for layer_idx, (_, adapter) in enumerate(model.layers):
            grad_a, grad_b = analytic[layer_idx]
            for mat, grad in ((adapter.a, grad_a), (adapter.b, grad_b)):
                it = np.nditer(mat, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = mat[idx]
                    mat[idx] = orig + step
                    up = loss_of_model()
                    mat[idx] = orig - step
                    down = loss_of_model()
                    mat[idx] = orig
                    fd = (up - down) / (2.0 * step)
                    denom = max(abs(fd), abs(grad[idx]), floor)
                    worst = max(worst, abs(fd - grad[idx]) / denom)
                    it.iternext()
    return [CheckResult("max relative gradient error vs central differences", worst < 1e-6, worst, 1e-6)]


def suite_rankselect(spectra: int = 1000, seed: int = 20244) -> list[CheckResult]:
    """select_rank / effective_rank vs an explicit prefix scan."""
    rng = np.random.default_rng(seed)
    thresholds = (0.5, 0.9, 0.95, 0.99)
    mismatches = 0
    for _ in range(spectra):
        r = int(rng.integers(1, 17))
        eigs = np.sort(rng.uniform(0.0, 1.0, size=r))[::-1]
        total = float(np.sum(eigs))
        for tau in thresholds:
            prefix = 0.0
            brute = r
            for j in range(r):
                prefix += eigs[j]
                if prefix >= tau * total:
                    brute = j + 1
                    break
            k, _ = select_rank(eigs, tau, min_rank=1)
            if k != brute:
                mismatches += 1
            r_eff, _ = effective_rank(eigs, tau)
            if r_eff != brute:
                mismatches += 1
    return [CheckResult("prefix-scan agreement (exact)", mismatches == 0, float(mismatches), 0.0)]


def span_tangent_basis(adapter: AdapterPair) -> np.ndarray:
    """Dense orthonormal basis (row-major vec coordinates) of the update tangent space.

    The reachable directions at (a, b) are {x a + b y}; their vec span is the
    column space of [I kron a^T, b kron I]. Basis extracted by SVD with a
    relative singular-value cutoff.
    """
    d_out, r = adapter.b.shape
    _, d_in = adapter.a.shape
    span = np.hstack(
        [
            np.kron(np.eye(d_out), adapter.a.T),
            np.kron(adapter.b, np.eye(d_in)),
        ]
    )
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((d_out * d_in, 0))
    keep = s > 1e-10 * s[0]
    return u[:, keep]


def dense_exposure(h: np.ndarray, basis: np.ndarray) -> float:
    """tr(Q^T H Q) for a dense orthonormal basis Q."""
    h = symmetrize(h)
    return float(np.trace(basis.T @ h @ basis))


def dense_curvature(curvature: LayerCurvature) -> np.ndarray:
    """The materialized Hessian block sum_s C_s kron x_s x_s^T."""
    return sum(np.kron(c, np.outer(x, x)) for x, c in zip(curvature.x, curvature.c))


def suite_tangent(cases: int = 200, seed: int = 20246) -> list[CheckResult]:
    """Factored tangent basis and exposure vs the SVD of the materialized span
    and the materialized Hessian block of a random factor set."""
    rng = np.random.default_rng(seed)
    worst_exposure = 0.0
    dim_mismatches = 0
    worst_orth = 0.0
    for case in range(cases):
        d_in = int(rng.integers(1, 9))
        d_out = int(rng.integers(1, 9))
        r = int(rng.integers(1, min(d_in, d_out) + 1))
        a = rng.normal(size=(r, d_in))
        b = rng.normal(size=(d_out, r))
        if case % 4 == 1:
            b[:] = 0.0  # the adapter at initialization
        elif case % 4 == 2 and r > 1:
            a[-1] = rng.normal() * a[0]  # rank-deficient a
        adapter = AdapterPair(a=a, b=b, rank=r, scaling=1.0)
        samples = int(rng.integers(1, 6))
        g = rng.normal(size=(samples, d_out, d_out))
        curvature = LayerCurvature(
            x=rng.normal(size=(samples, d_in)), c=g @ np.swapaxes(g, 1, 2) / d_out
        )

        dense = span_tangent_basis(adapter)
        factored = adapter_subspace_basis(adapter)
        reference = dense_exposure(dense_curvature(curvature), dense)
        fast = exposure_from_basis(curvature, factored)
        worst_exposure = max(worst_exposure, abs(fast - reference) / max(abs(reference), 1e-300))
        r_a, r_b = factored.q_in.shape[1], factored.q_out.shape[1]
        if d_out * r_a + r_b * (d_in - r_a) != dense.shape[1]:  # the tangent dimension
            dim_mismatches += 1
        for q in (factored.q_in, factored.q_out):
            gram_err = np.abs(q.T @ q - np.eye(q.shape[1]))
            worst_orth = max(worst_orth, float(np.max(gram_err, initial=0.0)))
    return [
        CheckResult("factored vs span exposure (relative)", worst_exposure < 1e-10, worst_exposure, 1e-10),
        CheckResult("tangent dimension mismatches", dim_mismatches == 0, float(dim_mismatches), 0.0),
        CheckResult("factor orthonormality", worst_orth < 1e-12, worst_orth, 1e-12),
    ]


# Off the pretraining optimum (init_jitter > 0, no refinement) the
# activation's second-derivative terms are live; at the optimum they vanish.
CURVATURE_TASKS = (
    "synthetic_lowrank(d=5)",
    "two_task_forgetting(d=6, hidden=4, pretrain_steps=0, init_jitter=0.3)",
    "two_task_forgetting(d=8, hidden=8, pretrain_steps=20)",
)


def suite_curvature(adapters: int = 8, seed: int = 20247) -> list[CheckResult]:
    """Factored exposure and second-order-forward 1/2 delta^T H delta vs the
    finite-difference pretraining Hessian, for random adapters (every fourth
    with b = 0)."""
    rng = np.random.default_rng(seed)
    worst_exposure = 0.0
    worst_quad = 0.0
    for spec in CURVATURE_TASKS:
        task = build_task(spec, rank=2, alpha=1.5, eval_size=32, model_rng=rng, data_rng=rng)
        hess = fd_pt_hessian(task)
        curvature = task.pt_curvature()
        slices = layer_slices(task.model)
        for case in range(adapters):
            for _, adapter in task.model.layers:
                adapter.a = rng.normal(size=adapter.a.shape)
                adapter.b = rng.normal(size=adapter.b.shape)
                if case % 4 == 0:
                    adapter.b[:] = 0.0  # the adapter at initialization
            for idx, (_, adapter) in enumerate(task.model.layers):
                block = hess[slices[idx], slices[idx]]
                reference = dense_exposure(block, span_tangent_basis(adapter))
                fast = exposure_from_basis(curvature[idx], adapter_subspace_basis(adapter))
                worst_exposure = max(worst_exposure, abs(fast - reference) / abs(reference))
            if case % 4 != 0:  # b = 0 leaves delta = 0
                delta = delta_w_vector(task.model)
                reference = 0.5 * delta @ (hess @ delta)
                fast = task.pt_quadratic(task.model)
                worst_quad = max(worst_quad, abs(fast - reference) / abs(reference))
    return [
        CheckResult("factored vs finite-difference exposure (relative)", worst_exposure < 1e-6, worst_exposure, 1e-6),
        CheckResult("second-order forward vs finite-difference quadratic (relative)", worst_quad < 1e-6, worst_quad, 1e-6),
    ]


def _synthetic_law_records(
    rng: np.random.Generator,
    c0: float,
    a_coef: float,
    alpha: float,
    beta: float,
    gammas: tuple[float, float, float],
    noise: float = 0.0,
) -> tuple[list[RunRecord], list[RunRecord]]:
    """Baseline and geometry-varying record grids evaluated from the law itself."""
    d_grid = np.geomspace(1e3, 1e5, 6)
    n_grid = (1e4, 1e5)
    base_records = []
    grit_records = []
    for n in n_grid:
        for d in d_grid:
            d = int(d)
            loss = c0 + a_coef * d**beta / n**alpha
            if noise > 0.0:
                loss += noise * rng.normal()
            base_records.append(
                RunRecord(
                    d_ft=int(d), n_params=int(n), final_task_loss=0.0,
                    pt_loss_before=c0, pt_loss_after=float(loss),
                    mode="lora_control", seed=0, task="synthetic",
                )
            )
            r_eff = float(rng.integers(1, 9))
            rho = float(rng.uniform(0.0, 1.0))
            pi = float(rng.uniform(0.0, 1.0))
            xi = xi_multiplier(r_eff, rho, pi, gammas)
            loss_g = c0 + a_coef * d**beta / (xi * n) ** alpha
            if noise > 0.0:
                loss_g += noise * rng.normal()
            grit_records.append(
                RunRecord(
                    d_ft=int(d), n_params=int(n), final_task_loss=0.0,
                    pt_loss_before=c0, pt_loss_after=float(loss_g),
                    mode="grit", seed=0, task="synthetic",
                    geometry_summary=GeometrySummary(r_eff=r_eff, rho_align=rho, pi_proj=pi, max_rank=8),
                )
            )
    return base_records, grit_records


def suite_fitlaw(seed: int = 20245) -> list[CheckResult]:
    """Round trip: generate law data, refit, compare constants."""
    rng = np.random.default_rng(seed)
    truth = dict(c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5)
    gammas = (0.1, 0.5, 0.3)
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
    pred_err = 0.0
    for rec in grit:
        s = rec.geometry_summary
        pred = predict(xi_fit, rec.d_ft, rec.n_params, (s.r_eff, s.rho_align, s.pi_proj))
        pred_err = max(pred_err, abs(pred - rec.pt_loss_after))
    return [
        CheckResult("baseline constants relative error", base_err < 1e-4, base_err, 1e-4),
        CheckResult("gamma coefficients relative error", gamma_err < 1e-3, gamma_err, 1e-3),
        CheckResult("round-trip prediction error", pred_err < 1e-5, pred_err, 1e-5),
    ]


SUITES = {
    "kron": suite_kron,
    "eig": suite_eig,
    "projector": suite_projector,
    "gradcheck": suite_gradcheck,
    "rankselect": suite_rankselect,
    "fitlaw": suite_fitlaw,
    "tangent": suite_tangent,
    "curvature": suite_curvature,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
