"""The geometry-aware training loop and its plain low-rank control mode.

Per step, in order: forward and loss (model.squared_error); backward; on
the accumulation cadence, the batch folded into every layer's statistics
and their damped inverses refreshed; one pass over the adapted layers;
global-norm gradient clipping; an adaptive-moment step without weight
decay on the adapter factors only, one pass over all of them as one flat
vector; and finally gated reprojection. The pass over the layers adds
each layer's ramped lambda_k and lambda_r penalty gradients to its tape
gradient and preconditions the gradient once inverses are ready. In
lora_control mode every geometry-specific stage is skipped, which makes
the loop a plain low-rank adaptation trainer with the identical optimizer
arithmetic.

Each accumulation gives every layer one reprojection.LayerGeometry, and no
other code makes one: all layers' covariances are eigendecomposed in one
stacked call, all their spectral ks taken in another, and the geometries
are the layers' current ones until the next accumulation (none before the
first). The damped inverses come from those spectra. The lambda_r penalty
reads complements(rank(step, last_k)) of the geometry of the statistics the
step started with, so it takes the k that reprojection takes, held at the
layer's last k inside the hysteresis band. The geometry builds those
operators Q = I - P once per k, so a step's penalty is one matmul per
factor; the penalty gradient is scaled and the tape gradient added to it in
place, bitwise ga + ramp * lambda_r * rga. Each accumulation's stats.jsonl
lines are formatted by runio.stats_line. Reprojection reads the projectors,
the telemetry the decompositions, the geometry's side and its spectrum (the
rank's input). The stability window is the trainer's own: the a_cov
eigenvalues of every layer at each of the last COV_WINDOW accumulations, so
no geometry outlives its accumulation and no later write into the
statistics reaches the window. _accumulate makes the step's events:
"accumulate"; "invert" (every layer's damping ladder rungs and condition
numbers) when every layer refreshed; and "precondition" when some layer was
not ready before. A layer preconditions once its inverses are ready and
never stops; one whose preconditioned gradient had non-finite entries, which
precondition zeroes, gets a "sanitize" event. The preconditioner is the
step's calls of accumulate, refresh_inverses and precondition, looked up in
this module per call: a harness substitutes them here (an identity or
exact-Fisher arm), and perfbench's spans and criterion 1 pin the names.

The Trainer keeps every adapter factor in one flat float64 vector, the
optimizer's parameters, and binds each adapter's a and b to a view of it
when it is built. A step writes the new parameters into that vector and the
update into the next row of a block of UPDATE_BLOCK rows, so nothing is
concatenated, sliced or bound per step. A factor that reprojection or a
caller replaced with a new array is copied into the vector and its view
bound again by the next step, or by a telemetry step that snapshots it first.

The update covariance, each layer's sum of da da^T + db^T db over the steps
since its last reset, reads the block only when it is folded: when it fills
and before a reprojection resets a layer's sum (update_covariances). A fold
takes each layer's products of all pending steps in one stacked matmul per
factor and adds them in step order, so each sum rounds as it did added one
step at a time.

A telemetry step computes no record, it only copies: what later steps write
in place (the flat parameters, the folded update covariances, the pending
updates), with references to the rest (geometries, window) and each layer's
last k and retained mass. The records of up to TELEMETRY_BLOCK snapshots are
computed in one pass: in the step that fills the block, when records is read
(as run_experiment's geometry summary does) and on every exit from the
Trainer. The pass folds each snapshot's pending
updates onto its covariances as a fold does (one stacked matmul per factor
for the whole block), eigendecomposes them all in one stacked call, applies
the r_eff rule (at R_EFF_ENERGY) to one stack and takes one SVD call per
tangent factor shape, reading factors as views of each parameter copy; each
snapshot's eig_cv is one eigenvalue-dispersion call over its window, and the
rest goes per snapshot in step order. A layer's tail-mass cutoff is 3x the
median |delta W| of the first telemetry step where that median is not zero.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import GritConfig, config_hash, config_to_text, validate_config
from .errors import ConfigError, GritError, ShapeError, ValidationError
from .kfac import RankSpaceStats, accumulate, precondition, refresh_inverses
from .linalg import sym_eig_stack
from .linalg import sym_eig  # noqa: F401  (perfbench/spans.py traces it by this name)
from .model import AdapterPair, save_checkpoint, squared_error
from .reprojection import LayerGeometry, effective_ranks, reproject
from .reprojection import select_rank  # noqa: F401  (perfbench/spans.py traces it by this name)
from .runio import (
    AUDIT_CSVS,
    AUDIT_DIR,
    CONFIG_NAME,
    CHECKPOINT_NAME,
    EVENTS_NAME,
    RECORD_NAME,
    STATS_NAME,
    TELEMETRY_NAME,
    UPDATES_NAME,
    GeometrySummary,
    JsonlWriter,
    RunManifest,
    RunRecord,
    stats_line,
    update_line,
    write_manifest,
    write_record,
)
from .tasks import TaskInstance, build_task
from .telemetry import (
    GeometryRecord,
    TelemetryWriter,
    adapter_subspace_bases,
    alignment_overlap,
    eig_cvs,
    exposure_from_basis,
    tail_mass,
)
from .telemetry import adapter_subspace_basis, stability_stats  # noqa: F401  (perfbench/spans.py traces them)

COV_WINDOW = 24  # accumulations kept for the eig_cv diagnostic
R_EFF_ENERGY = 0.9  # energy fraction the telemetry r_eff keeps
UPDATE_BLOCK = 8  # parameter updates held before the update covariance folds them in
DATA_BLOCK = 16  # fine-tune steps whose batches run_experiment draws in one call
TELEMETRY_BLOCK = 16  # telemetry snapshots held before their records are computed in one pass


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Named RNG sub-stream derived from the single run seed."""
    digest = hashlib.sha256(name.encode()).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


class AdamW:
    """Adaptive moments, without weight decay, on one flat parameter vector.

    m and v are flat float64 vectors of the parameter vector's size, updated
    in place. Elementwise arithmetic makes one pass over the concatenated
    factors bitwise equal to one pass per factor.
    """

    def __init__(self, size: int, lr: float, betas=(0.9, 0.95), eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """The new flat parameters; params and grads are left untouched.

        The operations are those of m = beta1 m + (1 - beta1) g,
        v = beta2 v + (1 - beta2) g g and params - lr m_hat / (sqrt(v_hat) + eps),
        in that order, so every result rounds as it does written that way.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        g2 = (1.0 - self.beta2) * grads
        g2 *= grads
        v *= self.beta2
        v += g2
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = m / bc1
        update *= self.lr
        update /= denom
        return params - update


def clipped_flat(grads: list[np.ndarray], max_norm: float) -> np.ndarray:
    """The gradients concatenated flat, scaled down to global norm max_norm when above it.

    The squared norm adds one sum per factor in list order, so it rounds as
    it did when each factor was clipped on its own: each sum reduces that
    factor's run of the squared concatenation, the elements and order that
    (g * g).sum() reduces for a C-contiguous g. Only when finite entries
    overflow the squared norm is the norm taken again, from the vector
    divided by its largest magnitude.
    """
    flat = np.concatenate([g.ravel() for g in grads])
    squares = flat * flat
    squared_norm, start = 0.0, 0
    for g in grads:
        squared_norm += np.add.reduce(squares[start : start + g.size])
        start += g.size
    global_norm = math.sqrt(squared_norm)
    if math.isinf(squared_norm):
        peak = float(np.max(np.abs(flat)))
        if math.isfinite(peak):  # no entry is infinite, but squares overflowed
            scaled = flat / peak
            global_norm = peak * math.sqrt(scaled @ scaled)
    if global_norm > max_norm and global_norm > 0.0:
        flat *= max_norm / global_norm
    return flat


def median(values: np.ndarray) -> float:
    """The median of a non-empty vector without NaNs, bitwise np.median's, from a sort.

    np.median imports numpy.ma on its first call, which no other code on
    the run and audit paths needs.
    """
    s = np.sort(values)
    n = s.size
    return float(s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2]))


def regularizer_ramp(step: int, warmup_steps: int) -> float:
    """Linear ramp of the penalty weights over the reprojection warmup window."""
    if warmup_steps <= 0:
        return 1.0
    return min(1.0, step / warmup_steps)


def curvature_penalty(tape, adapter) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch mean of (g_r . a_r)^2 for one adapted layer, with its gradients.

    Per sample this equals the curvature-weighted quadratic form of the
    adapter update under the rank-space Kronecker factorization; the tests
    check it against a materialized Kronecker product. Returns
    (value, d value / d a, d value / d b).
    """
    if tape.x is None or tape.dy is None:
        raise ValidationError("tape must be populated")
    a_r = tape.x @ adapter.a.T
    g_r = tape.dy @ adapter.b
    inner = np.sum(a_r * g_r, axis=1) * adapter.scaling
    batch = a_r.shape[0]
    coeff = 2.0 * adapter.scaling * inner / batch
    grad_a = (coeff[:, None] * g_r).T @ tape.x
    grad_b = tape.dy.T @ (coeff[:, None] * a_r)
    return float(np.mean(inner * inner)), grad_a, grad_b


def reprojection_penalty(
    adapter, q_a: np.ndarray, q_side: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """||Q_a a||_F^2 + ||b Q_side||_F^2 in rank space, with its gradients.

    q_a = I - P_a and q_side = I - P_side are the r x r complements of the
    top-k projectors (LayerGeometry.complements), so the value is
    ||a - P_a a||^2 + ||b - b P_side||^2. Returns
    (value, d value / d a, d value / d b).
    """
    res_a = q_a @ adapter.a
    res_b = adapter.b @ q_side
    value = float(np.vdot(res_a, res_a) + np.vdot(res_b, res_b))
    # d/da ||Q a||^2 = 2 Q a since Q is an orthogonal projector
    return value, 2.0 * res_a, 2.0 * res_b


@dataclass
class LayerMonitor:
    """Per-layer state backing the telemetry stream."""

    last_k: int  # the adapter rank until a reprojection sets it, so always in [1, rank]
    last_pi: float = 1.0
    # 3x the median |delta W| of the first telemetry step where that median is not zero
    tail_threshold: float = 0.0


@dataclass
class TelemetrySnapshot:
    """What one telemetry step's records read: copies of what later steps write, references to the rest."""

    step: int
    params: np.ndarray  # a copy of the flat parameters, each factor a column range
    update_cov: np.ndarray  # a copy of the folded update covariances, before the pending updates
    pending: np.ndarray  # a copy of the pending flat updates, oldest first
    geometries: list[LayerGeometry] | None
    window: tuple[np.ndarray, ...]
    monitors: list[tuple[int, float]]  # each layer's (last_k, last_pi)


@dataclass
class StepResult:
    loss: float
    task_loss: float


class Trainer:
    """Owns one model, its per-layer statistics, and the run streams."""

    def __init__(self, config: GritConfig, task: TaskInstance, run_dir: str | Path | None = None):
        validate_config(config)
        for idx, (_, adapter) in enumerate(task.model.layers):
            if adapter.rank != config.lora_rank:
                raise ConfigError(
                    f"layer {idx} has an adapter of rank {adapter.rank}, but lora_rank is {config.lora_rank}",
                    key="lora_rank",
                )
        self.config = config
        self.task = task
        self.model = task.model
        self.is_grit = config.mode == "grit"
        self.data_rng = seed_stream(config.seed, "data")
        n_layers = len(self.model.layers)
        self.stats = [
            RankSpaceStats(rank=config.lora_rank, damping=config.kfac_damping, ema_beta=config.ema_beta)
            for _ in range(n_layers)
        ]
        # every factor as a view of one flat parameter vector
        self._params = np.empty(sum(a.a.size + a.b.size for a in self.model.adapters()))
        self._factors: list[tuple[np.ndarray, np.ndarray]] = []
        # each layer's a and b as column ranges of the flat vector
        self._layer_columns: list[tuple[slice, slice]] = []
        offset = 0
        for adapter in self.model.adapters():
            mid = offset + adapter.a.size
            end = mid + adapter.b.size
            a = self._params[offset:mid].reshape(adapter.a.shape)
            b = self._params[mid:end].reshape(adapter.b.shape)
            a[...] = adapter.a
            b[...] = adapter.b
            adapter.a, adapter.b = a, b
            self._factors.append((a, b))
            self._layer_columns.append((slice(offset, mid), slice(mid, end)))
            offset = end
        self.optimizer = AdamW(offset, lr=config.learning_rate)
        r = config.lora_rank
        # the flat updates of the steps not yet in the update covariance, oldest first
        self._updates = np.empty((UPDATE_BLOCK, offset))
        self._pending = 0
        self._update_cov = np.zeros((n_layers, r, r))
        self.monitors = [LayerMonitor(last_k=r) for _ in range(n_layers)]
        # each layer's geometry from the latest accumulation; None before the first
        self._geometries: list[LayerGeometry] | None = None
        # per accumulation, newest last: every layer's a_cov eigenvalues (layers x r), for eig_cv
        self._window: deque[np.ndarray] = deque(maxlen=COV_WINDOW)
        self.events: list[dict] = []
        self._records: list[GeometryRecord] = []
        # the telemetry steps whose records are not computed yet, oldest first
        self._snapshots: list[TelemetrySnapshot] = []
        self._frozen_hash = self.frozen_weight_hash()

        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.telemetry_writer = None
        self.event_writer = None
        self.stats_writer = None
        self.update_writer = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            try:
                self.telemetry_writer = TelemetryWriter(self.run_dir / TELEMETRY_NAME)
                self.event_writer = JsonlWriter(self.run_dir / EVENTS_NAME)
                self.stats_writer = JsonlWriter(self.run_dir / STATS_NAME)
                self.update_writer = JsonlWriter(self.run_dir / UPDATES_NAME)
            except BaseException:
                self.close()  # the streams opened before the one that failed
                raise

    # -- bookkeeping -------------------------------------------------------

    def frozen_weight_hash(self) -> str:
        h = hashlib.sha256()
        for base, _ in self.model.layers:
            h.update(base.w0.tobytes())
            if base.bias is not None:
                h.update(base.bias.tobytes())
        return h.hexdigest()

    def close(self) -> None:
        """Close the run streams; every appended line is already on disk."""
        for writer in (self.telemetry_writer, self.event_writer, self.stats_writer, self.update_writer):
            if writer is not None:
                writer.close()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Compute the pending telemetry, then close the streams, on every exit path.

        A telemetry failure while an exception leaves the block is noted on
        that exception and never replaces it.
        """
        try:
            self._flush_telemetry()
        except Exception as error:
            if exc is None:
                raise
            exc.add_note(f"the pending telemetry failed as well: {error!r}")
        finally:
            self.close()

    def _log_events(self, *objs: dict) -> None:
        """Record the events in order and write them to events.jsonl in one append."""
        self.events.extend(objs)
        if self.event_writer is not None:
            self.event_writer.append(*objs)

    def _layer_decomps(self, idx: int) -> LayerGeometry | None:
        """Layer idx's geometry from the latest accumulation; None before the first accumulation."""
        return self._geometries[idx] if self._geometries is not None else None

    def _accumulate(self, step: int) -> list[dict]:
        """Fold this step's batch into every layer's statistics and refresh their inverses; the step's events.

        The new covariances go to stats.jsonl in one append and are
        eigendecomposed in one stacked call; each layer's geometry is built
        from its two decompositions and gives the damped inverses their
        spectra, and the a_cov eigenvalues join the stability window. Every
        layer refreshes, even after one whose sample gate is unmet; readiness
        is read over all layers.
        """
        for idx, stats in enumerate(self.stats):
            accumulate(stats, self.model.tapes[idx], self.model.layers[idx][1])
        if self.stats_writer is not None:
            self.stats_writer.append(
                *(
                    stats_line(step, idx, stats.n_cov, stats.a_cov, stats.g_cov)
                    for idx, stats in enumerate(self.stats)
                )
            )
        geometries = self._geometries = LayerGeometry.of_each(self.stats, self.config)
        self._window.append(np.array([geometry.decomp_a.eigenvalues for geometry in geometries]))
        was_ready = all(stats.inv_ready for stats in self.stats)
        refreshed = [
            refresh_inverses(stats, self.config.kfac_min_samples, (geometry.decomp_a, geometry.decomp_g))
            for stats, geometry in zip(self.stats, geometries)
        ]
        events = [{"step": step, "action": "accumulate", "n_cov": self.stats[0].n_cov}]
        if all(refreshed):
            events.append(
                {"step": step, "action": "invert", "rung": [list(stats.rung) for stats in self.stats],
                 "cond_a": [stats.cond[0] for stats in self.stats], "cond_g": [stats.cond[1] for stats in self.stats]}
            )
            if not was_ready:
                events.append({"step": step, "action": "precondition"})
        return events

    def _bind_factors(self, adapters) -> None:
        """Copy each factor replaced since the last step into the flat vector and bind its view again."""
        for idx, (adapter, views) in enumerate(zip(adapters, self._factors)):
            if adapter.a is views[0] and adapter.b is views[1]:
                continue
            for name, view in zip(("a", "b"), views):
                factor = getattr(adapter, name)
                if np.shape(factor) != view.shape:
                    raise ShapeError(
                        f"layer {idx} factor {name} was replaced by shape {np.shape(factor)}, not {view.shape}"
                    )
                view[...] = factor
                setattr(adapter, name, view)

    def _update_products(self, updates: np.ndarray) -> np.ndarray:
        """Each flat update's da da^T + db^T db per layer (updates x layers x r x r), one stacked matmul per factor."""
        n = len(updates)
        products = np.empty((n, *self._update_cov.shape))
        for idx, ((a_cols, b_cols), (a, b)) in enumerate(zip(self._layer_columns, self._factors)):
            delta_a = updates[:, a_cols].reshape(n, *a.shape)
            delta_b = updates[:, b_cols].reshape(n, *b.shape)
            np.add(
                delta_a @ delta_a.transpose(0, 2, 1),
                delta_b.transpose(0, 2, 1) @ delta_b,
                out=products[:, idx],
            )
        return products

    def _fold_updates(self) -> None:
        """Add the pending updates' products to each layer's update covariance, in step order."""
        if self._pending:
            for step_products in self._update_products(self._updates[: self._pending]):
                self._update_cov += step_products
            self._pending = 0

    def update_covariances(self) -> np.ndarray:
        """Every layer's update covariance (layers x r x r), the pending updates folded in first (not by telemetry)."""
        self._fold_updates()
        return self._update_cov

    # -- main loop ---------------------------------------------------------

    def train_step(self, batch: tuple[np.ndarray, np.ndarray], step: int) -> StepResult:
        config = self.config
        x, y = batch
        if x.shape[0] == 0:
            raise ValidationError("empty batch")
        adapters = self.model.adapters()
        self._bind_factors(adapters)
        task_loss, loss_grad = squared_error(self.model.forward(x), y)
        # checked before the statistics take this batch; the penalties join the check below
        if not math.isfinite(task_loss):
            raise GritError(f"non-finite loss at step {step}")
        loss = task_loss
        self.model.backward(loss_grad)

        ramp = regularizer_ramp(step, config.reprojection_warmup_steps)
        accumulating = self.is_grit and step >= config.ng_warmup_steps and step % config.kfac_update_freq == 0
        # the lambda_r penalty reads the geometries of the statistics the step started with (none in lora_control)
        geometries = self._geometries if config.lambda_r > 0.0 else None
        events = self._accumulate(step) if accumulating else []
        grads = []
        for idx, (tape, adapter) in enumerate(zip(self.model.tapes, adapters)):
            stats = self.stats[idx]
            ga, gb = tape.grad_a, tape.grad_b
            if self.is_grit and config.lambda_k > 0.0:
                pen, pga, pgb = curvature_penalty(tape, adapter)
                loss += ramp * config.lambda_k * pen
                ga = ga + ramp * config.lambda_k * pga
                gb = gb + ramp * config.lambda_k * pgb
            if geometries is not None:
                geometry = geometries[idx]
                k = geometry.rank(step, self.monitors[idx].last_k)
                val, rga, rgb = reprojection_penalty(adapter, *geometry.complements(k))
                weight = ramp * config.lambda_r
                loss += weight * val
                # ga + weight * rga, summed into the penalty's own arrays
                rga *= weight
                rga += ga
                rgb *= weight
                rgb += gb
                ga, gb = rga, rgb
            if stats.inv_ready:
                zeroed = stats.sanitized_count
                ga, gb = precondition(ga, gb, stats)
                if stats.sanitized_count > zeroed:
                    self._log_events(
                        {"step": step, "action": "sanitize", "layer": idx,
                         "count": stats.sanitized_count - zeroed}
                    )
            grads += (ga, gb)

        if not math.isfinite(loss):
            raise GritError(f"non-finite loss at step {step}")
        if events:
            self._log_events(*events)

        flat_grad = clipped_flat(grads, config.grad_clip)
        params = self._params
        new_params = self.optimizer.step(params, flat_grad)
        # parameters whose squares overflow make every loss, norm and mass
        # after them non-finite; stop before reprojection or telemetry logs one
        if not math.isfinite(new_params @ new_params):
            raise GritError(f"non-finite parameters at step {step}")
        np.subtract(new_params, params, out=self._updates[self._pending])
        np.copyto(params, new_params)
        self._pending += 1
        if self._pending == UPDATE_BLOCK:
            self._fold_updates()

        if self.is_grit and step % config.reprojection_freq == 0:
            events = []
            for idx, adapter in enumerate(self.model.adapters()):
                event = reproject(
                    adapter, self._layer_decomps(idx), config, step, prev_k=self.monitors[idx].last_k
                )
                if event.applied:
                    self.monitors[idx].last_k = event.k
                    self.monitors[idx].last_pi = event.retained_mass
                    self.update_covariances()[idx] = 0.0
                    outcome = {key: value for key, value in vars(event).items() if key not in ("applied", "gate")}
                    events.append({**outcome, "action": "reproject", "layer": idx})
                else:
                    events.append(
                        {"step": step, "action": "reproject_gated", "layer": idx, "gate": event.gate}
                    )
            self._log_events(*events)

        if config.telemetry_every > 0 and step % config.telemetry_every == 0:
            self._emit_telemetry(step)
            if len(self._snapshots) == TELEMETRY_BLOCK:
                self._flush_telemetry()
        return StepResult(loss=loss, task_loss=task_loss)

    # -- telemetry ---------------------------------------------------------

    def _emit_telemetry(self, step: int) -> None:
        """Snapshot what this step's records read (see _flush_telemetry), factors reprojected in it bound first."""
        self._bind_factors(self.model.adapters())
        self._snapshots.append(
            TelemetrySnapshot(
                step=step,
                params=self._params.copy(),
                update_cov=self._update_cov.copy(),
                pending=self._updates[: self._pending].copy(),
                geometries=self._geometries,
                window=tuple(self._window),
                monitors=[(monitor.last_k, monitor.last_pi) for monitor in self.monitors],
            )
        )

    def _flush_telemetry(self) -> None:
        """Compute the pending snapshots' records in one pass and append them, one append per stream.

        The pending list is taken first, so a failure leaves nothing to fail
        again. Snapshots go in step order: the tail cutoff carries from one
        telemetry step to the next.
        """
        snapshots, self._snapshots = self._snapshots, []
        if not snapshots:
            return
        curvature = self.task.pt_curvature()
        n_layers = len(self.monitors)
        update_covs = np.array([snap.update_cov for snap in snapshots])  # snapshots x layers x r x r
        products = iter(self._update_products(np.concatenate([snap.pending for snap in snapshots])))
        for cov, snap in zip(update_covs, snapshots):  # each snapshot's pending updates, added as a fold adds them
            for _ in snap.pending:
                cov += next(products)
        update_decomps = sym_eig_stack(
            update_covs.reshape(-1, *update_covs.shape[2:]),
            [f"update covariance of layer {idx} at step {snap.step}" for snap in snapshots for idx in range(n_layers)],
        )
        r_effs = effective_ranks(np.array([decomp.eigenvalues for decomp in update_decomps]), R_EFF_ENERGY)
        layout = list(zip(self.model.adapters(), self._layer_columns, self._factors))
        adapters = [  # each snapshot's adapters, with views of its parameter copy
            AdapterPair(snap.params[ac].reshape(a.shape), snap.params[bc].reshape(b.shape), ad.rank, ad.scaling)
            for snap in snapshots for ad, (ac, bc), (a, b) in layout
        ]
        bases = adapter_subspace_bases(adapters)
        records, lines = [], []
        for s, snap in enumerate(snapshots):
            row = s * n_layers  # the snapshot's first layer in the stacked results
            cvs = np.zeros(n_layers)
            if len(snap.window) >= 2:
                cvs = eig_cvs(np.stack(snap.window, axis=1), [k for k, _ in snap.monitors])
            layers = zip(adapters[row : row + n_layers], self.monitors, snap.monitors)
            for idx, (adapter, monitor, (last_k, last_pi)) in enumerate(layers):
                r_eff = int(r_effs[row + idx])
                update_decomp = update_decomps[row + idx]
                geometry = snap.geometries[idx] if snap.geometries is not None else None
                side_decomp = geometry.side_decomp if geometry is not None else None
                spectrum = geometry.spectrum if geometry is not None else np.zeros(adapter.rank)

                rho = 0.0
                if side_decomp is not None and np.any(update_decomp.eigenvalues > 0.0):
                    k = min(last_k, r_eff)
                    rho = alignment_overlap(side_decomp.eigenvectors[:, :k], update_decomp.eigenvectors[:, :k])

                delta_vec = adapter.scaling * adapter.delta_w().ravel()
                if monitor.tail_threshold == 0.0:
                    monitor.tail_threshold = 3.0 * median(np.abs(delta_vec))
                tail = tail_mass(delta_vec, monitor.tail_threshold) if monitor.tail_threshold > 0.0 else 0

                records.append(
                    GeometryRecord(
                        step=snap.step,
                        layer=idx,
                        k_selected=last_k,
                        r_eff=r_eff,
                        rho_align=float(rho),
                        pi_proj=float(last_pi),
                        tail_mass=int(tail),
                        curvature_exposure=float(exposure_from_basis(curvature[idx], bases[row + idx])),
                        eig_cv=float(cvs[idx]),
                        spectrum=[float(v) for v in spectrum],
                    )
                )
                lines.append(update_line(snap.step, idx, delta_vec))
        self._records.extend(records)
        if self.telemetry_writer is not None:
            self.telemetry_writer.append(*records)
        if self.update_writer is not None:
            self.update_writer.append(*lines)

    @property
    def records(self) -> list[GeometryRecord]:
        """Every telemetry step's records so far, in step order; the pending snapshots are computed first."""
        self._flush_telemetry()
        return self._records

    def geometry_summary(self) -> GeometrySummary:
        """The run-level mean of each telemetry field GeometrySummary declares, besides max_rank."""
        if not self.records:
            return GeometrySummary(max_rank=self.config.lora_rank)
        means = {
            f.name: float(np.mean([getattr(record, f.name) for record in self.records]))
            for f in fields(GeometrySummary)
            if f.name != "max_rank"
        }
        return GeometrySummary(**means, max_rank=self.config.lora_rank)


def run_experiment(config: GritConfig, out_dir: str | Path | None = None) -> RunRecord:
    """Train to the configured step budget and summarize retention drift.

    Builds the config's synthetic task, measures the pretraining-proxy loss
    on the held-out set before and after adaptation, writes the run
    artifacts (when out_dir is given; config.cfg is config_to_text(config)),
    and returns the RunRecord. The fine-tune batches are drawn DATA_BLOCK
    steps at a time (the last block holds what is left), each block in one
    call of the task's sample_batch, bitwise the batches drawn one step at a
    time. An earlier run's record.json, checkpoint.json and default `grit
    audit` CSVs (nothing else in audit/) are deleted, and the running
    manifest written, before any run stream is opened, so a run that fails,
    even while opening its streams, leaves none of them beside its failed
    manifest. Any exception after the manifest is written marks it failed
    (interrupted for Ctrl-C) before propagating. The run streams are closed
    on every exit path.
    """
    validate_config(config)
    if not config.task:
        raise ValidationError("no task specified")
    model_rng = seed_stream(config.seed, "model")
    task_rng = seed_stream(config.seed, "task-data")
    task = build_task(
        config.task,
        rank=config.lora_rank,
        alpha=config.lora_alpha,
        eval_size=config.eval_size,
        model_rng=model_rng,
        data_rng=task_rng,
    )
    manifest = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # an earlier run's results must not outlive this run's manifest
        stale = [out / RECORD_NAME, out / CHECKPOINT_NAME]
        if (out / AUDIT_DIR).is_dir():
            stale += [out / AUDIT_DIR / name for name in AUDIT_CSVS]
        for path in stale:
            path.unlink(missing_ok=True)
        (out / CONFIG_NAME).write_text(config_to_text(config))
        manifest = RunManifest.create(
            run_id=out.name,
            config_hash=config_hash(config),
            seed=config.seed,
            task=config.task,
        )
        write_manifest(manifest, out)

    try:
        with Trainer(config, task, run_dir=out_dir) as trainer:
            pt_before = task.pt_loss(task.model)
            final_task_loss = None
            for start in range(0, config.steps, DATA_BLOCK):
                block = min(DATA_BLOCK, config.steps - start)
                xs, ys = task.sample_batch(trainer.data_rng, config.batch_size, block)
                for step, batch in enumerate(zip(xs, ys), start):
                    final_task_loss = trainer.train_step(batch, step).task_loss
            if trainer.frozen_weight_hash() != trainer._frozen_hash:
                raise GritError("frozen base weights changed during training")
            pt_after = task.pt_loss(task.model)

            record = RunRecord(
                d_ft=config.steps * config.batch_size,
                n_params=task.n_params,
                final_task_loss=final_task_loss,
                pt_loss_before=pt_before,
                pt_loss_after=pt_after,
                mode=config.mode,
                seed=config.seed,
                task=config.task,
                geometry_summary=trainer.geometry_summary(),
                quadratic_forgetting_estimate=task.pt_quadratic(task.model),
            )
            if manifest is not None:
                save_checkpoint(task.model, out / CHECKPOINT_NAME, seed=config.seed)
                write_record(record, out)
                manifest.status = "complete"
                write_manifest(manifest, out)
    except (Exception, KeyboardInterrupt) as exc:
        if manifest is not None:
            manifest.status = "interrupted" if isinstance(exc, KeyboardInterrupt) else "failed"
            write_manifest(manifest, out)
        raise
    return record
