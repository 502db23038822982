"""Built-in synthetic tasks with a planted structure and a retention probe.

Task specs are strings, each naming a task dataclass below and its arguments:

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
        init_jitter, and is refined by pretrain_steps steps of full-batch
        gradient descent on noiseless teacher data, each one Model forward
        and backward of the squared error. With init_jitter = 0 the base is
        the teacher, where the gradient is exactly zero, so no step runs.
        Fine-tuning targets come from the teacher with a rank-2 perturbation
        per layer, plus observation noise of scale ft_noise; the noise is
        what makes geometry-agnostic updates wander in weakly constrained
        directions. pt loss is measured against the original teacher on a
        fixed held-out set.

Each task's sample_batch(rng, batch) draws one fine-tune batch, (batch x d)
inputs and targets; sample_batch(rng, batch, steps) draws that many batches
at once, as (steps x batch x d) arrays, bitwise the one-batch draws made in
turn. One batch is the block of one: there is one code path. A block takes
all its normals in one rng.normal call, in the one-batch stream order
(a batch's inputs, then its noise), and maps them with Model.predict over
(steps, batch, d), whose stacked matmuls round as one batch's 2-D matmul
does; a (steps * batch) x d product need not (it moves the last bit at d = 48).

Both tasks expose the pretraining curvature at the base point without forming
the dense Hessian H: per adapted layer, the layer inputs x_s and the factors
of the per-sample Hessians C_s of the pt loss in the layer's pre-activations
(model.LayerCurvature, from model.curvature_backward), whose sum_s C_s kron
x_s x_s^T is the layer's exact block of H; and the quadratic forgetting
estimate 1/2 delta^T H delta from a second-order forward pass. Both start
from one forward of the base network, a model.zero_adapter_model
(_base_point); every teacher, target map and probe map is one too, applied
by its predict. The dense H they are checked against, by central finite
differences of the exact gradient, is oracles.fd_pt_hessian.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import declarations, parse_settings, setting
from .errors import ConfigError
from .model import ACTIVATIONS, LayerCurvature, Model, build_model, curvature_backward, squared_error, zero_adapter_model


@dataclass
class TaskInstance:
    """A built task: model factory output, data stream, and retention probes."""

    name: str
    model: Model
    # (rng, batch) -> one batch; (rng, batch, steps) -> a block of batches (module docstring)
    sample_batch: Callable[..., tuple[np.ndarray, np.ndarray]]
    pt_inputs: np.ndarray
    pt_targets: np.ndarray
    _curvature_cache: list[LayerCurvature] | None = field(default=None, repr=False)

    @property
    def n_params(self) -> int:
        """The entry count of the model's base weights."""
        return sum(base.w0.size for base, _ in self.model.layers)

    def pt_loss(self, model: Model) -> float:
        # predict is read-only: it leaves the training tapes alone
        return squared_error(model.predict(self.pt_inputs), self.pt_targets)[0]

    # Delegates to oracles, which imports this module. perfbench/spans.py
    # traces both by name, and acceptance criterion 8b calls pt_hessian.
    def _pt_grad_at(self, w_vec: np.ndarray) -> np.ndarray:
        from .oracles import pt_grad_at

        return pt_grad_at(self, w_vec)

    def pt_hessian(self) -> np.ndarray:
        """Dense pretraining Hessian at the base point: oracles.fd_pt_hessian."""
        from .oracles import fd_pt_hessian

        return fd_pt_hessian(self)

    def _base_point(self) -> tuple[Model, np.ndarray]:
        """The base network after one forward of the pt set (tapes: layer inputs x, pre-activations z), and its output."""
        bases = [base for base, _ in self.model.layers]
        net = zero_adapter_model([b.w0 for b in bases], [b.activation for b in bases], [b.bias for b in bases])
        return net, net.forward(self.pt_inputs)

    def pt_curvature(self) -> list[LayerCurvature]:
        """Exact factors of each adapted layer's pretraining Hessian block, cached.

        model.curvature_backward on the base network, from H_L = I/m in the
        outputs and the squared error's per-sample gradient.
        """
        if self._curvature_cache is None:
            net, out = self._base_point()
            m, d_out = out.shape
            grad_h = squared_error(out, self.pt_targets)[1]  # d loss / d h_l, per sample
            self._curvature_cache = curvature_backward(net, np.eye(d_out) / m, grad_h)
        return self._curvature_cache

    def pt_quadratic(self, model: Model) -> float:
        """1/2 delta^T H delta for the adapters' update delta, without forming H.

        A second-order forward pass (Pearlmutter 1994) along V_l = scaling b a:
        Rz = V h + W Rh, R2z = 2 V Rh + W R2h, Rh = act' Rz,
        R2h = act'' Rz^2 + act' R2z; the estimate is
        (||Rh_L||^2 + err . R2h_L) / (2 m).
        """
        net, out = self._base_point()
        err = out - self.pt_targets
        r_h = np.zeros_like(self.pt_inputs)
        r2_h = np.zeros_like(self.pt_inputs)
        for (base, _), adapter, tape in zip(self.model.layers, model.adapters(), net.tapes):
            v = adapter.scaling * adapter.delta_w()
            r_z = tape.x @ v.T + r_h @ base.w0.T
            r2_z = 2.0 * (r_h @ v.T) + r2_h @ base.w0.T
            act = ACTIVATIONS[base.activation]
            d1 = act.deriv(tape.z)
            r_h, r2_h = d1 * r_z, act.deriv2(tape.z) * r_z * r_z + d1 * r2_z
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


def _normal_block(rng: np.random.Generator, steps: int, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Standard normals for steps successive draws of one array per shape: (steps, *shape) each.

    One rng.normal call takes them in the stream order of drawing each shape
    in turn, step after step.
    """
    sizes = [math.prod(shape) for shape in shapes]
    draws = rng.normal(size=(steps, sum(sizes)))
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(draws[:, start : start + size].reshape(steps, *shape))
        start += size
    return arrays


@dataclass(frozen=True)
class SyntheticLowrank:
    d: int = setting(24, ge=1)
    r_true: int = setting(2, ge=1)  # at most d (build)
    noise: float = setting(0.02, ge=0)
    delta_scale: float = setting(1.0, ge=0)

    def build(
        self,
        rank: int,
        alpha: float,
        eval_size: int,
        model_rng: np.random.Generator,
        data_rng: np.random.Generator,
    ) -> TaskInstance:
        d, r_true, noise = self.d, self.r_true, self.noise
        _check_rank(rank, [d, d])
        if r_true > d:
            raise ConfigError(f"task argument 'r_true' must be at most d = {d}, got {r_true}", key="task")

        w0 = model_rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
        subspace = _orthonormal_columns(model_rng, d, r_true)
        delta = model_rng.normal(0.0, self.delta_scale / np.sqrt(d), size=(d, d))
        target = zero_adapter_model([w0 + delta], ["identity"]).predict

        model = build_model(
            [d, d], rank=rank, scaling=alpha, rng=model_rng,
            activations=["identity"], base_weights=[w0],
        )

        def sample_batch(rng: np.random.Generator, batch: int, steps: int | None = None):
            shapes = [(batch, r_true)] + ([(batch, d)] if noise > 0.0 else [])
            z, *noises = _normal_block(rng, 1 if steps is None else steps, shapes)
            x = z @ subspace.T
            if noise > 0.0:
                x = x + noise * noises[0]
            y = target(x)
            return (x[0], y[0]) if steps is None else (x, y)

        # Retention probe: keep the base map on isotropic inputs.
        pt_inputs = data_rng.normal(size=(eval_size, d))
        pt_targets = zero_adapter_model([w0], ["identity"]).predict(pt_inputs)
        return TaskInstance(
            name="synthetic_lowrank",
            model=model,
            sample_batch=sample_batch,
            pt_inputs=pt_inputs,
            pt_targets=pt_targets,
        )


@dataclass(frozen=True)
class TwoTaskForgetting:
    d: int = setting(12, ge=2)  # the fine-tune teacher's rank-2 delta needs two columns
    hidden: int = setting(12, ge=2)
    pretrain_steps: int = setting(200, ge=0)
    delta_scale: float = setting(0.35, ge=0)
    ft_noise: float = setting(0.1, ge=0)
    init_jitter: float = setting(0.0, ge=0)

    def build(
        self,
        rank: int,
        alpha: float,
        eval_size: int,
        model_rng: np.random.Generator,
        data_rng: np.random.Generator,
    ) -> TaskInstance:
        d, hidden, ft_noise = self.d, self.hidden, self.ft_noise
        _check_rank(rank, [d, hidden, d])

        teacher_w1 = model_rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
        teacher_w2 = model_rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(d, hidden))
        activations = ["tanh", "identity"]
        teacher = zero_adapter_model([teacher_w1, teacher_w2], activations).predict

        # Pretraining: start at (or near) the teacher and refine with full-batch
        # gradient descent on noiseless teacher data. With init_jitter = 0 the
        # base is the teacher, whose gradient is exactly zero, so no step runs.
        weights = [w + self.init_jitter * model_rng.normal(size=w.shape) for w in (teacher_w1, teacher_w2)]
        x_tr = data_rng.normal(size=(max(eval_size, 128), d))
        y_tr = teacher(x_tr)
        for _ in range(self.pretrain_steps if self.init_jitter > 0.0 else 0):
            net = zero_adapter_model(weights, activations)
            net.backward(squared_error(net.forward(x_tr), y_tr)[1])
            weights = [w - 0.5 * tape.grad_w for w, tape in zip(weights, net.tapes)]

        model = build_model(
            [d, hidden, d], rank=rank, scaling=alpha, rng=model_rng,
            activations=activations, base_weights=weights,
        )

        # Fine-tuning teacher: the pretraining teacher plus a rank-2 delta per layer.
        ft_weights = []
        for w in (teacher_w1, teacher_w2):
            u = _orthonormal_columns(model_rng, w.shape[0], 2)
            v = _orthonormal_columns(model_rng, w.shape[1], 2)
            ft_weights.append(w + self.delta_scale * (u @ v.T))
        ft_teacher = zero_adapter_model(ft_weights, activations).predict

        def sample_batch(rng: np.random.Generator, batch: int, steps: int | None = None):
            shapes = [(batch, d)] + ([(batch, d)] if ft_noise > 0.0 else [])
            x, *noises = _normal_block(rng, 1 if steps is None else steps, shapes)
            y = ft_teacher(x)
            if ft_noise > 0.0:
                y = y + ft_noise * noises[0]
            return (x[0], y[0]) if steps is None else (x, y)

        pt_inputs = data_rng.normal(size=(eval_size, d))
        pt_targets = teacher(pt_inputs)
        return TaskInstance(
            name="two_task_forgetting",
            model=model,
            sample_batch=sample_batch,
            pt_inputs=pt_inputs,
            pt_targets=pt_targets,
        )


_TASKS = {"synthetic_lowrank": SyntheticLowrank, "two_task_forgetting": TwoTaskForgetting}
_ARGUMENTS = {name: declarations(task) for name, task in _TASKS.items()}

_SPEC_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_task_spec(spec: str) -> tuple[str, dict]:
    """Parse 'name(k1=v1, k2=v2)' into (name, the given arguments).

    Each argument is parsed onto the task's dataclass by
    config.parse_settings; a ConfigError has key "task".
    """
    match = _SPEC_RE.match(spec.strip().lower())
    if not match:
        raise ConfigError(f"malformed task spec {spec!r}", key="task")
    name, arg_text = match.group(1), match.group(2)
    if name not in _TASKS:
        raise ConfigError(f"unknown task {name!r}; available: {sorted(_TASKS)}", key="task")
    pieces = [(spec, piece) for piece in arg_text.split(",")] if arg_text and arg_text.strip() else []
    return name, parse_settings(pieces, _ARGUMENTS[name], "task argument", key="task")


def build_task(
    spec: str,
    rank: int,
    alpha: float,
    eval_size: int,
    model_rng: np.random.Generator,
    data_rng: np.random.Generator,
) -> TaskInstance:
    name, given = parse_task_spec(spec)
    return _TASKS[name](**given).build(rank, alpha, eval_size, model_rng, data_rng)
