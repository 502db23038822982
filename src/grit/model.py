"""Minimal differentiable model: stacked linear layers with frozen base weights
and trainable low-rank adapter pairs.

Each adapted layer computes act(x @ (w0 + scaling * b @ a)^T + bias). Model
runs every network forward (one layer loop) and backward; a network of base
weights alone, such as a task's teacher, target map or probe, is a
zero_adapter_model. forward takes one 2-D batch, as backward needs; predict
also takes a stack of them (a task's block of batches). squared_error is the
one loss. Reverse mode is hand-derived for this fixed architecture;
per-layer inputs and output gradients are captured on a tape because the
curvature statistics need them verbatim. curvature_backward carries a loss
Hessian down the same tapes as each layer's LayerCurvature. save_checkpoint
writes a model's arrays through runio's exact array codec (checkpoint
format version 2); load_checkpoint reads that and version 1's nested lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import GritError, ShapeError, TapeError, ValidationError
from .runio import check_value_types, decode_array, encode_array, json_object, write_atomic


class Activation(NamedTuple):
    """An activation f with its derivatives f' and f'' in the pre-activation z.

    backward(dh, h) is dh * f'(z) read from the output h = f(z): for tanh,
    1 - h*h is the 1 - tanh(z)^2 of f' without a second tanh; for identity
    the derivative is 1, so dh comes back as is.
    """

    f: Callable
    deriv: Callable
    deriv2: Callable
    backward: Callable


def _tanh_deriv(z: np.ndarray) -> np.ndarray:
    t = np.tanh(z)
    return 1.0 - t * t


def _tanh_deriv2(z: np.ndarray) -> np.ndarray:
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


ACTIVATIONS = {
    "identity": Activation(lambda z: z, np.ones_like, np.zeros_like, lambda dh, h: dh),
    "tanh": Activation(np.tanh, _tanh_deriv, _tanh_deriv2, lambda dh, h: dh * (1.0 - h * h)),
}


@dataclass
class BaseLayer:
    """Frozen dense layer: weight w0 (d_out x d_in), optional bias, activation name."""

    w0: np.ndarray
    bias: np.ndarray | None = None
    activation: str = "identity"

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=np.float64)
        self.w0.setflags(write=False)  # base weights are never modified
        if self.w0.ndim != 2:
            raise ShapeError(f"w0 must be 2-d, got shape {self.w0.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            self.bias.setflags(write=False)
            # a bias of another length would broadcast (length 1) or fail only at forward
            if self.bias.shape != (self.d_out,):
                raise ShapeError(f"bias of shape {self.bias.shape} for a layer of {self.d_out} outputs")
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
        # x * 1.0 has the bits of x for every double, so the default scaling skips the multiply
        if self.scaling == 1.0:
            return w0 + self.b @ self.a
        return w0 + self.scaling * (self.b @ self.a)


@dataclass
class LayerTape:
    """Per-layer capture of a forward/backward pair.

    x: inputs to the layer (batch x d_in); z: its pre-activation outputs and
    h = act(z) its outputs (batch x d_out; the same array as z for an
    identity layer), from which backward takes the activation's derivative;
    dy: gradients of the loss with respect to the pre-activation outputs
    (batch x d_out); grad_w: the effective-weight gradient dy^T x (d_out x
    d_in), the base weight's gradient in a zero_adapter_model; grad_a/grad_b:
    exact adapter gradients, both from grad_w. w_eff:
    the effective weight w0 + scaling * b @ a (d_out x d_in) that forward
    applied, which backward reuses to carry the gradient to the layer below.
    """

    x: np.ndarray | None = None
    z: np.ndarray | None = None
    h: np.ndarray | None = None
    w_eff: np.ndarray | None = None
    dy: np.ndarray | None = None
    grad_w: np.ndarray | None = None
    grad_a: np.ndarray | None = None
    grad_b: np.ndarray | None = None

    def clear(self):
        self.x = None
        self.z = None
        self.h = None
        self.w_eff = None
        self.dy = None
        self.grad_w = None
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
        """Run the stack, capturing per-layer inputs, effective weights, pre-activations and outputs."""
        return self._run(batch, self.tapes)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Read-only forward, safe for concurrent evaluation; a (..., batch, d_in) stack predicts each batch bitwise."""
        return self._run(batch, [LayerTape() for _ in self.layers])

    def _run(self, batch: np.ndarray, tapes: list[LayerTape]) -> np.ndarray:
        """The one layer loop: forward on the model's tapes (one 2-D batch, as backward needs), predict on throwaway ones."""
        h = np.asarray(batch, dtype=np.float64)
        if h.ndim < 2 or h.shape[-1] != self.d_in or (h.ndim > 2 and tapes is self.tapes):
            raise ShapeError(
                f"batch shape {h.shape} does not match input dimension {self.d_in}"
            )
        for (base, adapter), tape in zip(self.layers, tapes):
            tape.clear()
            tape.x = h
            tape.w_eff = w_eff = adapter.effective_weight(base.w0)
            z = h @ w_eff.T
            if base.bias is not None:
                z = z + base.bias
            tape.z = z
            tape.h = h = ACTIVATIONS[base.activation].f(z)
        return h

    def backward(self, loss_grad: np.ndarray) -> list[LayerTape]:
        """Backpropagate d(loss)/d(output); fills dy, grad_w, grad_a, grad_b per layer.

        The gradient with respect to the first layer's input is not formed:
        nothing reads it. An identity layer's dy is the gradient that reached
        its output, and for the last layer that is loss_grad itself when it
        is already a float64 array.
        """
        if self.tapes[-1].z is None:
            raise TapeError("backward called before forward")
        dh = np.asarray(loss_grad, dtype=np.float64)
        if dh.shape != self.tapes[-1].z.shape:
            raise ShapeError(
                f"loss_grad shape {dh.shape} does not match output shape {self.tapes[-1].z.shape}"
            )
        first = self.tapes[0]
        for (base, adapter), tape in zip(reversed(self.layers), reversed(self.tapes)):
            if tape.dy is not None:
                raise TapeError("tape already populated; run forward again before backward")
            tape.dy = dz = ACTIVATIONS[base.activation].backward(dh, tape.h)
            tape.grad_w = grad_w = dz.T @ tape.x
            tape.grad_a = adapter.b.T @ grad_w
            tape.grad_b = grad_w @ adapter.a.T
            if adapter.scaling != 1.0:
                tape.grad_a = adapter.scaling * tape.grad_a
                tape.grad_b = adapter.scaling * tape.grad_b
            if tape is not first:
                dh = dz @ tape.w_eff
        return self.tapes


@dataclass
class LayerCurvature:
    """Exact factors of one layer's block of a loss Hessian, from curvature_backward.

    On row-major vec coordinates of the layer weight the block is
    sum_s C_s kron x_s x_s^T, with x the layer inputs (m x d_in) and C_s the
    Hessian of the loss in sample s's pre-activations,
    C_s = diag(d_s) H diag(d_s) + diag(e_s). Here d = act'(z) and
    e = act''(z) * dloss/dh are m x d_out, and h is H, the Hessian in the
    layer's outputs. H is one d_out x d_out matrix, shared by every sample,
    when every layer above is an identity layer, as in every layer of the
    built-in tasks; the factors then take O(m (d_in + d_out)) memory besides
    H. Below a tanh layer H differs per sample, and h is m x d_out x d_out.
    """

    x: np.ndarray
    d: np.ndarray
    h: np.ndarray
    e: np.ndarray
    # per sample ||x_s||^2 and tr(C_s), read by every exposure_from_basis call
    x_sq: np.ndarray = field(init=False, repr=False)
    c_trace: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_sq = np.sum(self.x * self.x, axis=1)
        h_diag = np.diagonal(self.h, axis1=-2, axis2=-1)
        self.c_trace = np.sum(self.d * self.d * h_diag, axis=1) + np.sum(self.e, axis=1)

    @property
    def c(self) -> np.ndarray:
        """The per-sample blocks C_s (m x d_out x d_out), materialized on each call.

        For the oracles, the tests and a per-sample H; no run of the built-in
        tasks calls it.
        """
        c = self.d[:, :, None] * self.h * self.d[:, None, :]
        diag = np.arange(c.shape[1])
        c[:, diag, diag] += self.e
        return c


def curvature_backward(model: Model, out_hess: np.ndarray, out_grad: np.ndarray) -> list[LayerCurvature]:
    """Each layer's LayerCurvature, carried down the tapes of the model's last forward.

    One backward pass carries the loss Hessian from the outputs to each
    layer's pre-activations (Botev et al. 2017, with the activation's
    second-derivative term kept): H_L = out_hess (d_L x d_L) and the
    per-sample output gradient out_grad (m x d_L), then
    H_{l-1} = W_l^T C_l W_l with C_l = diag(d_l) H_l diag(d_l) + diag(e_l) and
    W_l the tape's effective weight. Through an identity layer C_l = H_l, so
    a shared H stays one d x d matrix; below a tanh layer H is per sample
    (m x d x d). With out_hess = I and out_grad = 0, e = 0 and each layer's
    mean C_l is its Gauss-Newton output factor.
    """
    grad_h, hess_h = out_grad, out_hess
    factors = [None] * len(model.layers)
    for idx in reversed(range(len(model.layers))):
        base, tape = model.layers[idx][0], model.tapes[idx]
        act = ACTIVATIONS[base.activation]
        d1 = act.deriv(tape.z)
        e = act.deriv2(tape.z) * grad_h
        factors[idx] = LayerCurvature(x=tape.x, d=d1, h=hess_h, e=e)
        if idx > 0:
            grad_h = (d1 * grad_h) @ tape.w_eff
            c = hess_h if base.activation == "identity" else factors[idx].c
            hess_h = tape.w_eff.T @ c @ tape.w_eff
    return factors


def squared_error(pred: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """The loss 1/2 mean_i ||pred_i - targets_i||^2, as the sum and count that
    np.mean(np.sum(err * err, axis=1)) divides, and its gradient err / n in pred."""
    err = pred - targets
    return float(0.5 * ((err * err).sum(axis=1).sum() / len(err))), err / len(err)


def zero_adapter_model(weights: list[np.ndarray], activations: list[str], biases: list | None = None) -> Model:
    """The network of these base weights with empty (rank-0) adapters, which leave w0 itself.

    Its backward leaves each layer's weight gradient in tape.grad_w. Nothing is drawn from an RNG.
    """
    return Model(layers=[
        (
            BaseLayer(w0=w0, bias=bias, activation=activation),
            AdapterPair(a=np.zeros((0, w0.shape[1])), b=np.zeros((w0.shape[0], 0)), rank=0),
        )
        for w0, activation, bias in zip(weights, activations, biases or [None] * len(weights))
    ])


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


CHECKPOINT_VERSION = 2
# version 1 held each array as nested JSON lists; decode_array reads both
READABLE_CHECKPOINT_VERSIONS = (1, CHECKPOINT_VERSION)


def save_checkpoint(model: Model, path: str | Path, seed: int) -> None:
    """Write the model to a versioned JSON container (see README for the schema).

    Each array (w0, bias unless null, a, b) is written by runio.encode_array,
    so it loads back bit for bit.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "seed": seed,
        "layers": [
            {
                "d_in": base.d_in,
                "d_out": base.d_out,
                "activation": base.activation,
                "w0": encode_array(base.w0),
                "bias": None if base.bias is None else encode_array(base.bias),
                "a": encode_array(adapter.a),
                "b": encode_array(adapter.b),
                "rank": adapter.rank,
                "scaling": adapter.scaling,
            }
            for base, adapter in model.layers
        ],
    }
    write_atomic(path, json.dumps(doc, sort_keys=True))


def _checkpoint_layer(spec: dict, index: int) -> tuple[BaseLayer, AdapterPair]:
    """One layer of a checkpoint: its value kinds checked, its arrays decoded, its w0 checked against its dims.

    The adapter factors are copied out of decode_array's read-only views, so
    a loaded model trains as a built one does.
    """
    kinds = {"d_in": "int", "d_out": "int", "rank": "int", "scaling": "float", "activation": "str"}
    check_value_types(spec, f"layer {index}", kinds)
    bias = spec["bias"]
    base = BaseLayer(
        w0=decode_array(spec["w0"]),
        bias=None if bias is None else decode_array(bias),
        activation=spec["activation"],
    )
    if base.w0.shape != (spec["d_out"], spec["d_in"]):
        raise ValidationError(
            f"layer {index} has d_out = {spec['d_out']!r}, d_in = {spec['d_in']!r}"
            f" but a w0 of shape {base.w0.shape}"
        )
    adapter = AdapterPair(
        a=np.array(decode_array(spec["a"])),
        b=np.array(decode_array(spec["b"])),
        rank=spec["rank"],
        scaling=spec["scaling"],
    )
    return base, adapter


def load_checkpoint(path: str | Path) -> tuple[Model, int]:
    """The model and seed in a checkpoint file of either version; ValidationError naming the file for a damaged one."""
    doc = json_object(Path(path).read_text(), path)
    version = doc.get("format_version")
    if type(version) is not int or version not in READABLE_CHECKPOINT_VERSIONS:
        raise ValidationError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        check_value_types(doc, "top level", {"seed": "int"})
        layers = [_checkpoint_layer(spec, i) for i, spec in enumerate(doc["layers"])]
        return Model(layers=layers), doc["seed"]
    except (KeyError, TypeError, ValueError, GritError) as exc:
        raise ValidationError(f"{path}: not a checkpoint ({exc!r})") from exc
