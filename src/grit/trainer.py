"""The geometry-aware training loop and its plain low-rank control mode.

Per step, in order: forward and loss; backward; on the accumulation
cadence, the batch folded into every layer's statistics and their damped
inverses refreshed; one pass over the adapted layers; global-norm gradient
clipping; an adaptive-moment step without weight decay on the adapter
factors only, one pass over all of them as one flat vector; and finally
gated reprojection. The pass over the layers adds each layer's ramped
lambda_k and lambda_r penalty gradients to its tape gradient and
preconditions the gradient once inverses are ready. In lora_control mode
every geometry-specific stage is skipped, which makes the loop a plain
low-rank adaptation trainer with the identical optimizer arithmetic.

Each accumulation gives every layer one reprojection.LayerGeometry, and no
other code makes one: all layers' covariances are eigendecomposed in one
stacked call, and the geometry joins the layer's stability window, whose
newest entry is the layer's current geometry (none before the first
accumulation). The damped inverses come from those spectra. The lambda_r
penalty reads the complement operators Q = I - P, built once per
accumulation and k, so a step's penalty is one matmul per factor; it reads
the geometry of the statistics the step started with. Reprojection reads
the projectors, the telemetry the decompositions and the geometry's side,
and the stability window keeps the last COV_WINDOW geometries. Each invert
event carries every layer's damping ladder rungs and condition numbers.
Preconditioning, once started, never stops, so a "precondition" event marks
its first step. A layer whose preconditioned gradient had non-finite
entries, which precondition zeroes, gets a "sanitize" event.

The Trainer keeps every adapter factor in one flat float64 vector, the
optimizer's parameters, and binds each adapter's a and b to a view of it
when it is built. A step writes the new parameters into that vector and the
update into the next row of a block of UPDATE_BLOCK rows, so nothing is
concatenated, sliced or bound per step. A factor that reprojection or a
caller replaced with a new array is copied into the vector and its view
bound again at the start of the next step, so that step trains from the
replacing values.

The update covariance, each layer's sum of da da^T + db^T db over the steps
since its last reset, reads the block only when it is folded: when it fills,
before a reprojection resets a layer's sum, and before the telemetry reads
the sums (update_covariances). A fold takes each layer's products of all
pending steps in one stacked matmul per factor and adds them in step order,
so each sum rounds as it did added one step at a time. The jitter reads the
last two clipped flat gradients, sliced per layer when a telemetry step
reads them. A telemetry step reads all layers at once: one stacked
eigendecomposition of the update covariances, one SVD call per tangent
factor shape, and the r_eff rule and the stability statistics on stacks.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import GritConfig, config_hash, config_to_text, validate_config
from .errors import ConfigError, GritError, ShapeError, ValidationError
from .kfac import RankSpaceStats, accumulate, precondition, refresh_inverses
from .linalg import sym_eig_stack
from .linalg import sym_eig  # noqa: F401  (perfbench/spans.py traces it by this name)
from .model import save_checkpoint
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
    encode_array,
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
    exposure_from_basis,
    stability_stats_stack,
    subspace_drift,
    tail_mass,
    update_jitter,
)
from .telemetry import adapter_subspace_basis, stability_stats  # noqa: F401  (perfbench/spans.py traces them)

COV_WINDOW = 24  # accumulations kept for the stability diagnostics
UPDATE_BLOCK = 8  # parameter updates held before the update covariance folds them in


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
    (g * g).sum() reduces for a C-contiguous g.
    """
    flat = np.concatenate([g.ravel() for g in grads])
    squares = flat * flat
    squared_norm, start = 0.0, 0
    for g in grads:
        squared_norm += np.add.reduce(squares[start : start + g.size])
        start += g.size
    global_norm = math.sqrt(squared_norm)
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

    prev_basis: np.ndarray | None = None
    # the LayerGeometry of each accumulation, newest last
    cov_snapshots: deque = field(default_factory=lambda: deque(maxlen=COV_WINDOW))
    last_k: int = 0
    last_pi: float = 1.0
    tail_threshold: float = 0.0


@dataclass
class StepResult:
    step: int
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
        self._params = np.empty(sum(a.a.size + a.b.size for _, a in self.model.layers))
        self._factors: list[tuple[np.ndarray, np.ndarray]] = []
        # each layer's a and b as column ranges of the flat vector
        self._layer_columns: list[tuple[slice, slice]] = []
        offset = 0
        for _, adapter in self.model.layers:
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
        # the clipped flat gradients of the last two steps, newest first, for the jitter
        self._grads: tuple[np.ndarray | None, np.ndarray | None] = (None, None)
        self.monitors = [LayerMonitor(last_k=r) for _ in range(n_layers)]
        self.events: list[dict] = []
        # whether a step has preconditioned; events log the first one
        self._preconditioned = False
        self.records: list[GeometryRecord] = []
        self._frozen_hash = self.frozen_weight_hash()

        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.telemetry_writer = None
        self.event_writer = None
        self.stats_writer = None
        self.update_writer = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self.telemetry_writer = TelemetryWriter(self.run_dir / TELEMETRY_NAME)
            self.event_writer = JsonlWriter(self.run_dir / EVENTS_NAME)
            self.stats_writer = JsonlWriter(self.run_dir / STATS_NAME)
            self.update_writer = JsonlWriter(self.run_dir / UPDATES_NAME)

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

    def __exit__(self, *exc) -> None:
        self.close()

    def _log_events(self, *objs: dict) -> None:
        """Record the events in order and write them to events.jsonl in one append."""
        self.events.extend(objs)
        if self.event_writer is not None:
            self.event_writer.append(*objs)

    def _layer_decomps(self, idx: int) -> LayerGeometry | None:
        """Layer idx's current geometry, the newest in its window; None before the first accumulation."""
        snapshots = self.monitors[idx].cov_snapshots
        return snapshots[-1] if snapshots else None

    def _accumulate(self, step: int) -> list[bool]:
        """Fold this step's batch into every layer's statistics and refresh their inverses.

        The new covariances go to stats.jsonl in one append and are
        eigendecomposed in one stacked call; each layer's geometry is built from its two
        decompositions, joins the stability window and gives the damped
        inverses their spectra. Returns, per layer, whether the inverses
        were refreshed (false while the sample gate is unmet); every layer
        refreshes, even after one that is not ready yet.
        """
        for idx, stats in enumerate(self.stats):
            accumulate(stats, self.model.tapes[idx], self.model.layers[idx][1])
        if self.stats_writer is not None:
            self.stats_writer.append(
                *(
                    {
                        "step": step,
                        "layer": idx,
                        "n_cov": stats.n_cov,
                        "a_cov": encode_array(stats.a_cov),
                        "g_cov": encode_array(stats.g_cov),
                    }
                    for idx, stats in enumerate(self.stats)
                )
            )
        geometries = LayerGeometry.of_each(self.stats, self.config)
        refreshed = []
        for stats, geometry, monitor in zip(self.stats, geometries, self.monitors):
            monitor.cov_snapshots.append(geometry)
            refreshed.append(
                refresh_inverses(
                    stats, self.config.kfac_min_samples, (geometry.decomp_a, geometry.decomp_g)
                )
            )
        return refreshed

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

    def _fold_updates(self) -> None:
        """Add the pending updates' da da^T + db^T db to each layer's update covariance, in step order."""
        n = self._pending
        if n == 0:
            return
        block = self._updates[:n]
        products = np.empty((n, *self._update_cov.shape))
        for idx, ((a_cols, b_cols), (a, b)) in enumerate(zip(self._layer_columns, self._factors)):
            delta_a = block[:, a_cols].reshape(n, *a.shape)
            delta_b = block[:, b_cols].reshape(n, *b.shape)
            np.add(
                delta_a @ delta_a.transpose(0, 2, 1),
                delta_b.transpose(0, 2, 1) @ delta_b,
                out=products[:, idx],
            )
        for step_products in products:
            self._update_cov += step_products
        self._pending = 0

    def update_covariances(self) -> np.ndarray:
        """Every layer's update covariance (layers x r x r), the pending updates folded in first."""
        self._fold_updates()
        return self._update_cov

    # -- main loop ---------------------------------------------------------

    def train_step(self, batch: tuple[np.ndarray, np.ndarray], step: int) -> StepResult:
        config = self.config
        x, y = batch
        if x.shape[0] == 0:
            raise ValidationError("empty batch")
        adapters = [adapter for _, adapter in self.model.layers]
        self._bind_factors(adapters)
        pred = self.model.forward(x)
        err = pred - y
        # the sum and count np.mean(np.sum(err * err, axis=1)) divides
        task_loss = float(0.5 * ((err * err).sum(axis=1).sum() / err.shape[0]))
        # checked before the statistics take this batch; the penalties join the check below
        if not math.isfinite(task_loss):
            raise GritError(f"non-finite loss at step {step}")
        loss = task_loss
        self.model.backward(err / x.shape[0])

        ramp = regularizer_ramp(step, config.reprojection_warmup_steps)
        geometry_on = self.is_grit and step >= config.ng_warmup_steps
        accumulating = geometry_on and step % config.kfac_update_freq == 0
        # the lambda_r penalty reads the geometry of the statistics the step started with
        penalty_geometry = [None] * len(adapters)
        if self.is_grit and config.lambda_r > 0.0:
            penalty_geometry = [self._layer_decomps(idx) for idx in range(len(adapters))]
        if accumulating:
            refreshed = self._accumulate(step)
        preconditioned = False
        grads = []
        for idx, (tape, adapter) in enumerate(zip(self.model.tapes, adapters)):
            stats = self.stats[idx]
            ga, gb = tape.grad_a, tape.grad_b
            if self.is_grit and config.lambda_k > 0.0:
                pen, pga, pgb = curvature_penalty(tape, adapter)
                loss += ramp * config.lambda_k * pen
                ga = ga + ramp * config.lambda_k * pga
                gb = gb + ramp * config.lambda_k * pgb
            geometry = penalty_geometry[idx]
            if geometry is not None:
                q_a, q_side = geometry.complements(geometry.rank(step))
                val, rga, rgb = reprojection_penalty(adapter, q_a, q_side)
                loss += ramp * config.lambda_r * val
                ga = ga + ramp * config.lambda_r * rga
                gb = gb + ramp * config.lambda_r * rgb
            if geometry_on and stats.inv_ready:
                zeroed = stats.sanitized_count
                ga, gb = precondition(ga, gb, stats)
                preconditioned = True
                if stats.sanitized_count > zeroed:
                    self._log_events(
                        {"step": step, "action": "sanitize", "layer": idx,
                         "count": stats.sanitized_count - zeroed}
                    )
            grads += (ga, gb)

        if not math.isfinite(loss):
            raise GritError(f"non-finite loss at step {step}")
        if accumulating:
            events = [{"step": step, "action": "accumulate", "n_cov": self.stats[0].n_cov}]
            if all(refreshed):
                events.append(
                    {
                        "step": step,
                        "action": "invert",
                        "rung": [list(st.rung) for st in self.stats],
                        "cond_a": [st.cond[0] for st in self.stats],
                        "cond_g": [st.cond[1] for st in self.stats],
                    }
                )
            self._log_events(*events)
        if preconditioned and not self._preconditioned:
            self._preconditioned = True
            self._log_events({"step": step, "action": "precondition"})

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
        self._grads = (flat_grad, self._grads[0])

        if self.is_grit and step % config.reprojection_freq == 0:
            events = []
            for idx, (_, adapter) in enumerate(self.model.layers):
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
        return StepResult(step=step, loss=loss, task_loss=task_loss)

    # -- telemetry ---------------------------------------------------------

    def _emit_telemetry(self, step: int) -> None:
        curvature = self.task.pt_curvature()
        adapters = [adapter for _, adapter in self.model.layers]
        update_decomps = sym_eig_stack(
            self.update_covariances(), [f"update covariance of layer {idx}" for idx in range(len(adapters))]
        )
        r_effs, _ = effective_ranks(
            np.array([decomp.eigenvalues for decomp in update_decomps]), self.config.telemetry_eta
        )
        bases = adapter_subspace_bases(adapters)
        # every layer's window holds the same accumulations
        windows = [monitor.cov_snapshots for monitor in self.monitors]
        cov_vars = eig_cvs = np.zeros(len(adapters))
        if len(windows[0]) >= 2:
            cov_vars, eig_cvs = stability_stats_stack(
                np.array([[snap.a_cov for snap in window] for window in windows]),
                [max(1, monitor.last_k) for monitor in self.monitors],
                np.array([[snap.decomp_a.eigenvalues for snap in window] for window in windows]),
            )
        grad, prev_grad = self._grads
        records, deltas = [], []  # one line per layer, one append per stream
        for idx, (adapter, monitor) in enumerate(zip(adapters, self.monitors)):
            r = adapter.rank
            r_eff = int(r_effs[idx])
            update_decomp = update_decomps[idx]

            geometry = self._layer_decomps(idx)
            side_decomp = geometry.side_decomp if geometry is not None else None
            spectrum = geometry.decomp_a.eigenvalues if geometry is not None else np.zeros(r)

            rho = 0.0
            if side_decomp is not None and np.any(update_decomp.eigenvalues > 0.0):
                k_common = max(1, min(monitor.last_k, r_eff))
                rho = alignment_overlap(
                    side_decomp.eigenvectors[:, :k_common],
                    update_decomp.eigenvectors[:, :k_common],
                )

            delta_vec = adapter.scaling * adapter.delta_w().ravel()
            if monitor.tail_threshold == 0.0:
                med = median(np.abs(delta_vec))
                if self.config.tail_threshold > 0.0:
                    monitor.tail_threshold = self.config.tail_threshold
                elif med > 0.0:
                    monitor.tail_threshold = 3.0 * med
            tail = (
                tail_mass(delta_vec, monitor.tail_threshold)
                if monitor.tail_threshold > 0.0
                else 0
            )

            exposure = exposure_from_basis(curvature[idx], bases[idx])

            jitter = 0.0
            if prev_grad is not None:
                a_cols, b_cols = self._layer_columns[idx]
                layer = slice(a_cols.start, b_cols.stop)
                jitter = update_jitter(grad[layer], prev_grad[layer])

            drift = 0.0
            if side_decomp is not None:
                k_now = max(1, min(monitor.last_k, r))
                basis_now = side_decomp.eigenvectors[:, :k_now]
                if monitor.prev_basis is not None:
                    k_common = min(monitor.prev_basis.shape[1], basis_now.shape[1])
                    drift = subspace_drift(
                        monitor.prev_basis[:, :k_common], basis_now[:, :k_common]
                    )
                monitor.prev_basis = basis_now.copy()

            record = GeometryRecord(
                step=step,
                layer=idx,
                k_selected=monitor.last_k,
                r_eff=r_eff,
                rho_align=float(rho),
                pi_proj=float(monitor.last_pi),
                tail_mass=int(tail),
                curvature_exposure=float(exposure),
                jitter=float(jitter),
                subspace_drift=float(drift),
                eig_cv=float(eig_cvs[idx]),
                cov_var=float(cov_vars[idx]),
                spectrum=[float(v) for v in spectrum],
            )
            records.append(record)
            deltas.append(delta_vec)
        self.records.extend(records)
        if self.telemetry_writer is not None:
            self.telemetry_writer.append(*records)
        if self.update_writer is not None:
            self.update_writer.append(*(update_line(step, idx, delta) for idx, delta in enumerate(deltas)))

    def geometry_summary(self) -> GeometrySummary:
        if not self.records:
            return GeometrySummary(max_rank=self.config.lora_rank)
        return GeometrySummary(
            r_eff=float(np.mean([r.r_eff for r in self.records])),
            rho_align=float(np.mean([r.rho_align for r in self.records])),
            pi_proj=float(np.mean([r.pi_proj for r in self.records])),
            k_selected=float(np.mean([r.k_selected for r in self.records])),
            curvature_exposure=float(np.mean([r.curvature_exposure for r in self.records])),
            tail_mass=float(np.mean([r.tail_mass for r in self.records])),
            max_rank=self.config.lora_rank,
        )


def run_experiment(config: GritConfig, out_dir: str | Path | None = None) -> RunRecord:
    """Train to the configured step budget and summarize retention drift.

    Builds the config's synthetic task, measures the pretraining-proxy loss
    on the held-out set before and after adaptation, writes the run
    artifacts (when out_dir is given; config.cfg is config_to_text(config)),
    and returns the RunRecord. An earlier run's record.json,
    checkpoint.json and default `grit audit` CSVs (nothing else in audit/)
    are deleted before the manifest is written, so a run that fails leaves
    none of them beside its failed manifest. Any
    exception after the manifest is written marks it failed (interrupted for
    Ctrl-C) before propagating. The run streams are closed on every exit
    path.
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
    with Trainer(config, task, run_dir=out_dir) as trainer:
        manifest = None
        if out_dir is not None:
            out = Path(out_dir)
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
            pt_before = task.pt_loss(task.model)
            final_task_loss = None
            for step in range(config.steps):
                batch = task.sample_batch(trainer.data_rng, config.batch_size)
                result = trainer.train_step(batch, step)
                final_task_loss = result.task_loss
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
