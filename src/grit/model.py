"""Minimal differentiable model: stacked linear layers with frozen base weights
and trainable low-rank adapter pairs.

Each adapted layer computes act(x @ (w0 + scaling * b @ a)^T + bias). Reverse
mode is hand-derived for this fixed architecture; per-layer inputs and output
gradients are captured on a tape because the curvature statistics need them
verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError, TapeError, ValidationError
from .runio import write_atomic

ACTIVATIONS = ("identity", "tanh")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    raise ValidationError(f"unknown activation {name!r}")


def _act_deriv(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return np.ones_like(z)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ValidationError(f"unknown activation {name!r}")


def _act_deriv2(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return np.zeros_like(z)
    if name == "tanh":
        t = np.tanh(z)
        return -2.0 * t * (1.0 - t * t)
    raise ValidationError(f"unknown activation {name!r}")


@dataclass
class BaseLayer:
    """Frozen dense layer: weight w0 (d_out x d_in), optional bias, activation name."""

    w0: np.ndarray
    bias: np.ndarray | None = None
    activation: str = "identity"

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=np.float64)
        self.w0.setflags(write=False)  # base weights are never modified
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            self.bias.setflags(write=False)
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")

    @property
    def d_out(self) -> int:
        return self.w0.shape[0]

    @property
    def d_in(self) -> int:
        return self.w0.shape[1]


@dataclass
class AdapterPair:
    """Low-rank factors of the trainable update: delta_w = b @ a, applied as w0 + scaling * b @ a."""

    a: np.ndarray
    b: np.ndarray
    rank: int
    scaling: float = 1.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        d_out, r_b = self.b.shape
        r_a, d_in = self.a.shape
        if r_a != self.rank or r_b != self.rank:
            raise ShapeError(
                f"adapter rank {self.rank} inconsistent with factor shapes {self.a.shape}, {self.b.shape}"
            )
        if self.rank > min(d_in, d_out):
            raise ValidationError(
                f"rank {self.rank} exceeds min(d_in, d_out) = {min(d_in, d_out)}"
            )
        if self.scaling <= 0.0:
            raise ValidationError("scaling must be positive")

    def delta_w(self) -> np.ndarray:
        return self.b @ self.a

    def effective_weight(self, w0: np.ndarray) -> np.ndarray:
        return w0 + self.scaling * (self.b @ self.a)


@dataclass
class LayerTape:
    """Per-layer capture of a forward/backward pair.

    x: inputs to the layer (batch x d_in); dy: gradients of the loss with
    respect to the pre-activation outputs (batch x d_out); grad_a/grad_b: exact
    adapter gradients, both from the effective-weight gradient dy^T x,
    which backward does not keep. w_eff: the effective weight
    w0 + scaling * b @ a (d_out x d_in) that forward applied, which backward
    reuses to carry the gradient to the layer below.
    """

    x: np.ndarray | None = None
    z: np.ndarray | None = None
    w_eff: np.ndarray | None = None
    dy: np.ndarray | None = None
    grad_a: np.ndarray | None = None
    grad_b: np.ndarray | None = None

    def clear(self):
        self.x = None
        self.z = None
        self.w_eff = None
        self.dy = None
        self.grad_a = None
        self.grad_b = None


@dataclass
class Model:
    """A stack of (BaseLayer, AdapterPair) with tapes for curvature capture."""

    layers: list[tuple[BaseLayer, AdapterPair]]
    tapes: list[LayerTape] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("model needs at least one layer")
        for base, adapter in self.layers:
            if adapter.a.shape[1] != base.d_in or adapter.b.shape[0] != base.d_out:
                raise ShapeError("adapter factors do not match layer dims")
        if not self.tapes:
            self.tapes = [LayerTape() for _ in self.layers]

    @property
    def d_in(self) -> int:
        return self.layers[0][0].d_in

    def adapters(self) -> list[AdapterPair]:
        return [adapter for _, adapter in self.layers]

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Run the stack, capturing per-layer inputs, effective weights and pre-activations."""
        h = np.asarray(batch, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.d_in:
            raise ShapeError(
                f"batch shape {h.shape} does not match input dimension {self.d_in}"
            )
        for (base, adapter), tape in zip(self.layers, self.tapes):
            tape.clear()
            tape.x = h
            tape.w_eff = w_eff = adapter.effective_weight(base.w0)
            z = h @ w_eff.T
            if base.bias is not None:
                z = z + base.bias
            tape.z = z
            h = _act(base.activation, z)
        return h

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Read-only forward: no tape writes, safe for concurrent evaluation."""
        h = np.asarray(batch, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.d_in:
            raise ShapeError(
                f"batch shape {h.shape} does not match input dimension {self.d_in}"
            )
        for base, adapter in self.layers:
            z = h @ adapter.effective_weight(base.w0).T
            if base.bias is not None:
                z = z + base.bias
            h = _act(base.activation, z)
        return h

    def backward(self, loss_grad: np.ndarray) -> list[LayerTape]:
        """Backpropagate d(loss)/d(output); fills dy, grad_a, grad_b per layer."""
        if self.tapes[-1].z is None:
            raise TapeError("backward called before forward")
        dh = np.asarray(loss_grad, dtype=np.float64)
        if dh.shape != self.tapes[-1].z.shape:
            raise ShapeError(
                f"loss_grad shape {dh.shape} does not match output shape {self.tapes[-1].z.shape}"
            )
        for (base, adapter), tape in zip(reversed(self.layers), reversed(self.tapes)):
            if tape.dy is not None:
                raise TapeError("tape already populated; run forward again before backward")
            dz = dh * _act_deriv(base.activation, tape.z)
            tape.dy = dz
            grad_w_eff = dz.T @ tape.x
            tape.grad_a = adapter.scaling * (adapter.b.T @ grad_w_eff)
            tape.grad_b = adapter.scaling * (grad_w_eff @ adapter.a.T)
            dh = dz @ tape.w_eff
        return self.tapes


def trainable_count(d_in: int, d_out: int, r: int) -> int:
    """Adapter parameters for one matrix: r * (d_in + d_out)."""
    if d_in <= 0 or d_out <= 0:
        raise ValidationError("dimensions must be positive")
    if r < 0:
        raise ValidationError("rank must be non-negative")
    return r * (d_in + d_out)


def init_adapter(d_in: int, d_out: int, rank: int, scaling: float, rng: np.random.Generator) -> AdapterPair:
    """Standard init: a ~ N(0, 1/d_in), b = 0, so the update starts at zero."""
    a = rng.normal(0.0, np.sqrt(1.0 / d_in), size=(rank, d_in))
    b = np.zeros((d_out, rank))
    return AdapterPair(a=a, b=b, rank=rank, scaling=scaling)


def build_model(
    dims: list[int],
    rank: int,
    scaling: float,
    rng: np.random.Generator,
    activations: list[str] | None = None,
    base_weights: list[np.ndarray] | None = None,
) -> Model:
    """Assemble a model from layer widths; hidden layers default to tanh, last to identity."""
    n_layers = len(dims) - 1
    if activations is None:
        activations = ["tanh"] * (n_layers - 1) + ["identity"]
    layers = []
    for i in range(n_layers):
        d_in, d_out = dims[i], dims[i + 1]
        if base_weights is not None:
            w0 = np.array(base_weights[i], dtype=np.float64)
        else:
            w0 = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
        base = BaseLayer(w0=w0, activation=activations[i])
        adapter = init_adapter(d_in, d_out, rank, scaling, rng)
        layers.append((base, adapter))
    return Model(layers=layers)


CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, path: str | Path, seed: int) -> None:
    """Write the model to a versioned JSON container (see README for the schema)."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "seed": seed,
        "layers": [
            {
                "d_in": base.d_in,
                "d_out": base.d_out,
                "activation": base.activation,
                "w0": base.w0.tolist(),
                "bias": None if base.bias is None else base.bias.tolist(),
                "a": adapter.a.tolist(),
                "b": adapter.b.tolist(),
                "rank": adapter.rank,
                "scaling": adapter.scaling,
            }
            for base, adapter in model.layers
        ],
    }
    write_atomic(path, json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[Model, int]:
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {doc.get('format_version')!r}"
        )
    layers = []
    for spec in doc["layers"]:
        base = BaseLayer(
            w0=np.array(spec["w0"], dtype=np.float64),
            bias=None if spec["bias"] is None else np.array(spec["bias"], dtype=np.float64),
            activation=spec["activation"],
        )
        adapter = AdapterPair(
            a=np.array(spec["a"], dtype=np.float64),
            b=np.array(spec["b"], dtype=np.float64),
            rank=spec["rank"],
            scaling=spec["scaling"],
        )
        layers.append((base, adapter))
    return Model(layers=layers), doc["seed"]
