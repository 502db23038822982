"""Built-in synthetic tasks with a planted structure and a retention probe.

Task specs are strings:

    synthetic_lowrank(d=24, r_true=2, noise=0.02, delta_scale=1.0)
        Single linear layer. Inputs live on an r_true-dimensional subspace
        plus isotropic noise of the given scale; targets come from the frozen
        base plus a dense planted delta (only its action on the input subspace
        matters, so the useful update is rank r_true). The retention probe is
        base-behavior preservation on isotropic inputs: pt loss is the mean
        squared deviation of the adapted map from the base map.

    two_task_forgetting(d=12, hidden=12, pretrain_steps=200, delta_scale=0.35,
                        ft_noise=0.1, init_jitter=0.0)
        Two-layer tanh network. The base starts at a teacher, perturbed by
        init_jitter, and is refined by full-batch gradient descent on
        noiseless teacher data. pretrain_steps is an upper bound: the loop
        stops at the first step whose gradient is exactly zero, since that
        step and every later one would leave the weights unchanged. With
        init_jitter = 0 the base is the teacher, an exact optimum of the
        pretraining objective, so the loop stops at its first step.
        Fine-tuning targets come from the teacher with a rank-2 perturbation
        per layer, plus observation noise of scale ft_noise; the noise is
        what makes geometry-agnostic updates wander in weakly constrained
        directions. pt loss is measured against the original teacher on a
        fixed held-out set.

Both tasks expose the pretraining curvature at the base point without forming
the dense Hessian H: per adapted layer, the layer inputs x_s and the
per-sample Hessians C_s of the pt loss in the layer's pre-activations, whose
sum_s C_s kron x_s x_s^T is the layer's exact block of H; and the quadratic
forgetting estimate 1/2 delta^T H delta from a second-order forward pass.
The dense H they are checked against, by central finite differences of the
exact gradient, is oracles.fd_pt_hessian.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import Model, _act, _act_deriv, _act_deriv2, build_model
from .telemetry import LayerCurvature


@dataclass
class TaskInstance:
    """A built task: model factory output, data stream, and retention probes."""

    name: str
    model: Model
    sample_batch: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    pt_inputs: np.ndarray
    pt_targets: np.ndarray
    n_params: int
    _curvature_cache: list[LayerCurvature] | None = field(default=None, repr=False)

    def pt_loss(self, model: Model) -> float:
        pred = model.predict(self.pt_inputs)  # read-only: leaves training tapes alone
        err = pred - self.pt_targets
        return float(0.5 * np.mean(np.sum(err * err, axis=1)))

    # Delegates to oracles, which imports this module. perfbench/spans.py
    # traces both by name, and acceptance criterion 8b calls pt_hessian.
    def _pt_grad_at(self, w_vec: np.ndarray) -> np.ndarray:
        from .oracles import pt_grad_at

        return pt_grad_at(self, w_vec)

    def pt_hessian(self) -> np.ndarray:
        """Dense pretraining Hessian at the base point: oracles.fd_pt_hessian."""
        from .oracles import fd_pt_hessian

        return fd_pt_hessian(self)

    def _base_point(self) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Layer inputs and pre-activations on the pt set at the base point, and the output residual."""
        h = self.pt_inputs
        inputs, pre = [], []
        for base, _ in self.model.layers:
            inputs.append(h)
            z = h @ base.w0.T
            if base.bias is not None:
                z = z + base.bias
            pre.append(z)
            h = _act(base.activation, z)
        return inputs, pre, h - self.pt_targets

    def pt_curvature(self) -> list[LayerCurvature]:
        """Exact factors of each adapted layer's pretraining Hessian block, cached.

        One backward pass carries the per-sample Hessian of the pt loss from
        the output to each layer's pre-activations (Botev et al. 2017, with
        the activation's second-derivative term kept):
        C_l = D_l W_{l+1}^T C_{l+1} W_{l+1} D_l + diag(act''(z_l) * dloss/dh_l).
        """
        if self._curvature_cache is None:
            inputs, pre, err = self._base_point()
            m, d_out = err.shape
            grad_h = err / m  # d loss / d h_l, per sample
            hess_h = np.broadcast_to(np.eye(d_out) / m, (m, d_out, d_out))
            layers = self.model.layers
            factors = [None] * len(layers)
            for idx in reversed(range(len(layers))):
                base, z = layers[idx][0], pre[idx]
                d1 = _act_deriv(base.activation, z)
                c = np.einsum("si,sij,sj->sij", d1, hess_h, d1)
                diag = np.arange(base.d_out)
                c[:, diag, diag] += _act_deriv2(base.activation, z) * grad_h
                factors[idx] = LayerCurvature(x=inputs[idx], c=c)
                if idx > 0:
                    grad_h = (d1 * grad_h) @ base.w0
                    hess_h = base.w0.T @ c @ base.w0
            self._curvature_cache = factors
        return self._curvature_cache

    def pt_quadratic(self, model: Model) -> float:
        """1/2 delta^T H delta for the adapters' update delta, without forming H.

        A second-order forward pass (Pearlmutter 1994) along V_l = scaling b a:
        Rz = V h + W Rh, R2z = 2 V Rh + W R2h, Rh = act' Rz,
        R2h = act'' Rz^2 + act' R2z; the estimate is
        (||Rh_L||^2 + err . R2h_L) / (2 m).
        """
        inputs, pre, err = self._base_point()
        r_h = np.zeros_like(self.pt_inputs)
        r2_h = np.zeros_like(self.pt_inputs)
        for (base, _), adapter, x, z in zip(self.model.layers, model.adapters(), inputs, pre):
            v = adapter.scaling * adapter.delta_w()
            r_z = x @ v.T + r_h @ base.w0.T
            r2_z = 2.0 * (r_h @ v.T) + r2_h @ base.w0.T
            d1 = _act_deriv(base.activation, z)
            r_h, r2_h = d1 * r_z, _act_deriv2(base.activation, z) * r_z * r_z + d1 * r2_z
        return float((np.sum(r_h * r_h) + np.sum(err * r2_h)) / (2.0 * err.shape[0]))


def _check_rank(rank: int, widths: list[int]) -> None:
    """Reject an adapter rank above the narrowest layer width before any work."""
    if rank > min(widths):
        raise ConfigError(
            f"lora_rank {rank} exceeds the narrowest layer width {min(widths)} of the task",
            key="lora_rank",
        )


def _orthonormal_columns(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, k)))
    return q


def build_synthetic_lowrank(
    params: dict,
    rank: int,
    alpha: float,
    eval_size: int,
    model_rng: np.random.Generator,
    data_rng: np.random.Generator,
) -> TaskInstance:
    d, r_true = params["d"], params["r_true"]
    noise, delta_scale = params["noise"], params["delta_scale"]
    _check_rank(rank, [d, d])
    if r_true < 1 or r_true > d:
        raise ConfigError("r_true must lie in [1, d]", key="task")

    w0 = model_rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    subspace = _orthonormal_columns(model_rng, d, r_true)
    delta = model_rng.normal(0.0, delta_scale / np.sqrt(d), size=(d, d))
    target_w = w0 + delta

    model = build_model(
        [d, d], rank=rank, scaling=alpha, rng=model_rng,
        activations=["identity"], base_weights=[w0],
    )

    def sample_batch(rng: np.random.Generator, batch: int):
        z = rng.normal(size=(batch, r_true))
        x = z @ subspace.T
        if noise > 0.0:
            x = x + noise * rng.normal(size=(batch, d))
        y = x @ target_w.T
        return x, y

    # Retention probe: keep the base map on isotropic inputs.
    pt_inputs = data_rng.normal(size=(eval_size, d))
    pt_targets = pt_inputs @ w0.T
    return TaskInstance(
        name="synthetic_lowrank",
        model=model,
        sample_batch=sample_batch,
        pt_inputs=pt_inputs,
        pt_targets=pt_targets,
        n_params=d * d,
    )


def build_two_task_forgetting(
    params: dict,
    rank: int,
    alpha: float,
    eval_size: int,
    model_rng: np.random.Generator,
    data_rng: np.random.Generator,
) -> TaskInstance:
    d, hidden, pretrain_steps = params["d"], params["hidden"], params["pretrain_steps"]
    delta_scale, ft_noise = params["delta_scale"], params["ft_noise"]
    init_jitter = params["init_jitter"]
    _check_rank(rank, [d, hidden, d])

    teacher_w1 = model_rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    teacher_w2 = model_rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(d, hidden))

    def teacher(x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ teacher_w1.T) @ teacher_w2.T

    # Pretraining: start at (or near) the teacher and refine with full-batch
    # gradient descent on noiseless teacher data. A step with exactly zero
    # gradients, and every step after it, would leave the weights unchanged,
    # so the loop stops there; with init_jitter = 0 that is the first step.
    w1 = teacher_w1 + init_jitter * model_rng.normal(size=teacher_w1.shape)
    w2 = teacher_w2 + init_jitter * model_rng.normal(size=teacher_w2.shape)
    x_tr = data_rng.normal(size=(max(eval_size, 128), d))
    y_tr = teacher(x_tr)
    lr = 0.5
    for _ in range(pretrain_steps):
        h_pre = x_tr @ w1.T
        h = np.tanh(h_pre)
        pred = h @ w2.T
        err = (pred - y_tr) / x_tr.shape[0]
        g2 = err.T @ h
        dh = (err @ w2) * (1.0 - h * h)
        g1 = dh.T @ x_tr
        if not (g1.any() or g2.any()):
            break
        w1 = w1 - lr * g1
        w2 = w2 - lr * g2

    model = build_model(
        [d, hidden, d], rank=rank, scaling=alpha, rng=model_rng,
        activations=["tanh", "identity"], base_weights=[w1, w2],
    )

    # Fine-tuning teacher: the pretraining teacher plus a rank-2 delta per layer.
    deltas = []
    for w in (teacher_w1, teacher_w2):
        u = _orthonormal_columns(model_rng, w.shape[0], 2)
        v = _orthonormal_columns(model_rng, w.shape[1], 2)
        deltas.append(delta_scale * (u @ v.T))
    ft_w1 = teacher_w1 + deltas[0]
    ft_w2 = teacher_w2 + deltas[1]

    def sample_batch(rng: np.random.Generator, batch: int):
        x = rng.normal(size=(batch, d))
        y = np.tanh(x @ ft_w1.T) @ ft_w2.T
        if ft_noise > 0.0:
            y = y + ft_noise * rng.normal(size=y.shape)
        return x, y

    pt_inputs = data_rng.normal(size=(eval_size, d))
    pt_targets = teacher(pt_inputs)
    return TaskInstance(
        name="two_task_forgetting",
        model=model,
        sample_batch=sample_batch,
        pt_inputs=pt_inputs,
        pt_targets=pt_targets,
        n_params=hidden * d + d * hidden,
    )


_BUILDERS = {
    "synthetic_lowrank": build_synthetic_lowrank,
    "two_task_forgetting": build_two_task_forgetting,
}

# Declared arguments of each task with their defaults; a default's type
# (int or float) is the argument's type.
TASK_ARGS = {
    "synthetic_lowrank": {"d": 24, "r_true": 2, "noise": 0.02, "delta_scale": 1.0},
    "two_task_forgetting": {
        "d": 12, "hidden": 12, "pretrain_steps": 200,
        "delta_scale": 0.35, "ft_noise": 0.1, "init_jitter": 0.0,
    },
}

_AT_LEAST_ONE = ("d", "hidden", "r_true")  # every other task argument is at least 0

_SPEC_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_task_spec(spec: str) -> tuple[str, dict]:
    """Parse 'name(k1=v1, k2=v2)' into (name, the given arguments).

    Each argument must be declared for the task in TASK_ARGS and lie in its
    range; an integer argument takes an integral value. Anything else raises
    ConfigError.
    """
    match = _SPEC_RE.match(spec.strip().lower())
    if not match:
        raise ConfigError(f"malformed task spec {spec!r}", key="task")
    name, arg_text = match.group(1), match.group(2)
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown task {name!r}; available: {sorted(_BUILDERS)}", key="task"
        )
    declared = TASK_ARGS[name]
    params: dict = {}
    if arg_text and arg_text.strip():
        for piece in arg_text.split(","):
            if "=" not in piece:
                raise ConfigError(f"task argument {piece.strip()!r} must be key=value", key="task")
            key, value = (part.strip() for part in piece.split("=", 1))
            if key not in declared:
                raise ConfigError(
                    f"unknown argument {key!r} for task {name!r}; declared: {sorted(declared)}",
                    key="task",
                )
            if key in params:
                raise ConfigError(f"duplicate task argument {key!r}", key="task")
            try:
                number = float(value)
            except ValueError:
                number = float("nan")
            if not np.isfinite(number):
                raise ConfigError(
                    f"task argument {key!r} must be a finite number, got {value!r}", key="task"
                )
            if isinstance(declared[key], int):
                if not number.is_integer():
                    raise ConfigError(
                        f"task argument {key!r} must be an integer, got {value!r}", key="task"
                    )
                number = int(number)
            least = 1 if key in _AT_LEAST_ONE else 0
            if number < least:
                raise ConfigError(
                    f"task argument {key!r} must be at least {least}, got {value!r}", key="task"
                )
            params[key] = number
    return name, params


def build_task(
    spec: str,
    rank: int,
    alpha: float,
    eval_size: int,
    model_rng: np.random.Generator,
    data_rng: np.random.Generator,
) -> TaskInstance:
    name, params = parse_task_spec(spec)
    params = {**TASK_ARGS[name], **params}
    return _BUILDERS[name](params, rank, alpha, eval_size, model_rng, data_rng)
