"""The geometry-aware training loop and its plain low-rank control mode.

Per step, in order: forward; loss (plus ramped regularizers when enabled);
backward; statistics accumulation and damped inversion on their cadence and
gates; natural-gradient preconditioning once inverses are ready; global-norm
gradient clipping; a decoupled-weight-decay adaptive-moment step on the
adapter factors only; and finally gated reprojection. In lora_control mode
every geometry-specific stage is skipped, which makes the loop a plain
low-rank adaptation trainer with the identical optimizer arithmetic.

Each accumulation gives every layer one reprojection.LayerGeometry. The
lambda_r penalty, reprojection and the telemetry read its decompositions,
rank and projectors, and the stability window keeps the last COV_WINDOW of
them.
"""

from __future__ import annotations

import hashlib
import shutil
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import GritConfig, config_hash, config_to_text, validate_config
from .errors import GritError, ValidationError
from .kfac import RankSpaceStats, accumulate, precondition, refresh_inverses
from .linalg import sym_eig
from .model import save_checkpoint
from .reprojection import LayerGeometry, Projector, effective_rank, reproject, uses_g_side
from .reprojection import select_rank  # noqa: F401  (perfbench/spans.py traces it by this name)
from .runio import (
    CONFIG_NAME,
    CHECKPOINT_NAME,
    EVENTS_NAME,
    STATS_NAME,
    TELEMETRY_NAME,
    UPDATES_NAME,
    GeometrySummary,
    JsonlWriter,
    RunManifest,
    RunRecord,
    write_manifest,
    write_record,
)
from .tasks import TaskInstance, build_task
from .telemetry import (
    GeometryRecord,
    TelemetryWriter,
    adapter_subspace_basis,
    alignment_overlap,
    exposure_from_basis,
    stability_stats,
    subspace_drift,
    tail_mass,
    update_jitter,
)

COV_WINDOW = 24  # accumulations kept for the stability diagnostics


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Named RNG sub-stream derived from the single run seed."""
    digest = hashlib.sha256(name.encode()).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


class AdamW:
    """Decoupled-weight-decay adaptive moments on a fixed list of arrays."""

    def __init__(self, shapes, lr: float, betas=(0.9, 0.95), eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay > 0.0:
                p = p - self.lr * self.weight_decay * p
            out.append(p)
        return out


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
    adapter, proj_a: Projector, proj_side: Projector
) -> tuple[float, np.ndarray, np.ndarray]:
    """||a - P_a a||_F^2 + ||b - b P_side||_F^2 in rank space, with its gradients.

    Returns (value, d value / d a, d value / d b).
    """
    res_a = adapter.a - proj_a.apply_left(adapter.a)
    res_b = adapter.b - proj_side.apply_right(adapter.b)
    value = float(np.sum(res_a * res_a) + np.sum(res_b * res_b))
    # d/da ||(I-P) a||^2 = 2 (I-P) a since P is an orthogonal projector
    return value, 2.0 * res_a, 2.0 * res_b


@dataclass
class LayerMonitor:
    """Per-layer accumulators backing the telemetry stream."""

    update_cov: np.ndarray
    # the clipped (grad_a, grad_b) of the last two steps, for the jitter
    prev_grads: tuple[np.ndarray, np.ndarray] | None = None
    grads: tuple[np.ndarray, np.ndarray] | None = None
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
    preconditioned: bool
    reprojected: bool


class Trainer:
    """Owns one model, its per-layer statistics, and the run streams."""

    def __init__(self, config: GritConfig, task: TaskInstance, run_dir: str | Path | None = None):
        validate_config(config)
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
        shapes = []
        for _, adapter in self.model.layers:
            shapes.append(adapter.a.shape)
            shapes.append(adapter.b.shape)
        self.optimizer = AdamW(shapes, lr=config.learning_rate)
        r = config.lora_rank
        self.monitors = [
            LayerMonitor(update_cov=np.zeros((r, r)), last_k=r) for _ in range(n_layers)
        ]
        self.events: list[dict] = []
        self.records: list[GeometryRecord] = []
        # per layer: the geometry of its current statistics, once asked for
        self._geometry: list[LayerGeometry | None] = [None] * n_layers
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

    def _log_event(self, obj: dict) -> None:
        self.events.append(obj)
        if self.event_writer is not None:
            self.event_writer.append(obj)

    def _layer_decomps(self, idx: int) -> LayerGeometry:
        """Layer idx's geometry for its current statistics.

        Made anew when the statistics no longer hold the geometry's
        covariance arrays: after an accumulation, or a reset or accumulation
        outside train_step, which take no window entry.
        """
        geometry = self._geometry[idx]
        if geometry is None or not geometry.holds(self.stats[idx]):
            geometry = self._geometry[idx] = LayerGeometry.of(self.stats[idx])
        return geometry

    # -- main loop ---------------------------------------------------------

    def train_step(self, batch: tuple[np.ndarray, np.ndarray], step: int) -> StepResult:
        config = self.config
        x, y = batch
        if x.shape[0] == 0:
            raise ValidationError("empty batch")
        pred = self.model.forward(x)
        err = pred - y
        task_loss = float(0.5 * np.mean(np.sum(err * err, axis=1)))
        loss = task_loss
        self.model.backward(err / x.shape[0])
        tapes = self.model.tapes
        adapters = [adapter for _, adapter in self.model.layers]

        ramp = regularizer_ramp(step, config.reprojection_warmup_steps)
        penalty_grads = [None] * len(adapters)
        if self.is_grit and (config.lambda_k > 0.0 or config.lambda_r > 0.0):
            for idx, (tape, adapter) in enumerate(zip(tapes, adapters)):
                ga = np.zeros_like(adapter.a)
                gb = np.zeros_like(adapter.b)
                if config.lambda_k > 0.0:
                    pen, pga, pgb = curvature_penalty(tape, adapter)
                    loss += ramp * config.lambda_k * pen
                    ga += ramp * config.lambda_k * pga
                    gb += ramp * config.lambda_k * pgb
                if config.lambda_r > 0.0 and self.stats[idx].n_cov > 0:
                    geometry = self._layer_decomps(idx)
                    k = geometry.rank(config, adapter.rank, step)
                    proj_a, proj_side = geometry.projectors(k, uses_g_side(config, geometry.n_cov))
                    val, rga, rgb = reprojection_penalty(adapter, proj_a, proj_side)
                    loss += ramp * config.lambda_r * val
                    ga += ramp * config.lambda_r * rga
                    gb += ramp * config.lambda_r * rgb
                penalty_grads[idx] = (ga, gb)

        if not np.isfinite(loss):
            raise GritError(f"non-finite loss at step {step}")

        grads = []
        preconditioned = False
        geometry_on = self.is_grit and step >= config.ng_warmup_steps
        if geometry_on and step % config.kfac_update_freq == 0:
            for idx, (tape, adapter) in enumerate(zip(tapes, adapters)):
                accumulate(self.stats[idx], tape, adapter)
                self.monitors[idx].cov_snapshots.append(self._layer_decomps(idx))
                if self.stats_writer is not None:
                    self.stats_writer.append(
                        {
                            "step": step,
                            "layer": idx,
                            "n_cov": self.stats[idx].n_cov,
                            "a_cov": self.stats[idx].a_cov.tolist(),
                            "g_cov": self.stats[idx].g_cov.tolist(),
                        }
                    )
            self._log_event({"step": step, "action": "accumulate", "n_cov": self.stats[0].n_cov})
            # every layer refreshes, even after one that is not ready yet
            refreshed = [
                refresh_inverses(self.stats[idx], config.kfac_min_samples)
                for idx in range(len(adapters))
            ]
            if all(refreshed):
                self._log_event({"step": step, "action": "invert"})

        for idx, (tape, adapter) in enumerate(zip(tapes, adapters)):
            ga = tape.grad_a.copy()
            gb = tape.grad_b.copy()
            if penalty_grads[idx] is not None:
                ga += penalty_grads[idx][0]
                gb += penalty_grads[idx][1]
            if geometry_on and self.stats[idx].inv_ready:
                ga, gb = precondition(ga, gb, self.stats[idx])
                preconditioned = True
            grads.append((ga, gb))
        if preconditioned:
            self._log_event({"step": step, "action": "precondition"})

        flat = [g for pair in grads for g in pair]
        global_norm = float(np.sqrt(sum(np.sum(g * g) for g in flat)))
        if global_norm > config.grad_clip and global_norm > 0.0:
            scale = config.grad_clip / global_norm
            flat = [g * scale for g in flat]

        for idx, monitor in enumerate(self.monitors):
            monitor.prev_grads = monitor.grads
            monitor.grads = (flat[2 * idx], flat[2 * idx + 1])

        params = []
        for _, adapter in self.model.layers:
            params.append(adapter.a)
            params.append(adapter.b)
        new_params = self.optimizer.step(params, flat)
        for idx, (_, adapter) in enumerate(self.model.layers):
            delta_a = new_params[2 * idx] - adapter.a
            delta_b = new_params[2 * idx + 1] - adapter.b
            self.monitors[idx].update_cov += delta_a @ delta_a.T + delta_b.T @ delta_b
            adapter.a = new_params[2 * idx]
            adapter.b = new_params[2 * idx + 1]

        reprojected = False
        if self.is_grit and step % config.reprojection_freq == 0:
            for idx, (_, adapter) in enumerate(self.model.layers):
                event = reproject(
                    adapter, self._layer_decomps(idx), config, step, prev_k=self.monitors[idx].last_k
                )
                if event.applied:
                    reprojected = True
                    self.monitors[idx].last_k = event.k
                    self.monitors[idx].last_pi = event.retained_mass
                    self.monitors[idx].update_cov[:] = 0.0
                    self._log_event(
                        {
                            "step": step,
                            "action": "reproject",
                            "layer": idx,
                            "side_used": event.side_used,
                            "k": event.k,
                            "tau": event.tau,
                            "retained_mass": event.retained_mass,
                            "delta_w_norm_before": event.delta_w_norm_before,
                            "delta_w_norm_after": event.delta_w_norm_after,
                        }
                    )
                else:
                    self._log_event(
                        {"step": step, "action": "reproject_gated", "layer": idx, "gate": event.gate}
                    )

        if config.telemetry_every > 0 and step % config.telemetry_every == 0:
            self._emit_telemetry(step)
        return StepResult(
            step=step,
            loss=loss,
            task_loss=task_loss,
            preconditioned=preconditioned,
            reprojected=reprojected,
        )

    # -- telemetry ---------------------------------------------------------

    def _emit_telemetry(self, step: int) -> None:
        curvature = self.task.pt_curvature()
        for idx, (_, adapter) in enumerate(self.model.layers):
            monitor = self.monitors[idx]
            stats = self.stats[idx]
            r = adapter.rank

            if stats.n_cov > 0:
                geometry = self._layer_decomps(idx)
                spectrum = geometry.decomp_a.eigenvalues
                side_decomp = (
                    geometry.decomp_g if uses_g_side(self.config, geometry.n_cov) else geometry.decomp_a
                )
            else:
                side_decomp = None
                spectrum = np.zeros(r)

            update_decomp = sym_eig(monitor.update_cov, name="update covariance")
            r_eff, _ = effective_rank(update_decomp.eigenvalues, self.config.telemetry_eta)

            rho = 0.0
            if side_decomp is not None and np.any(update_decomp.eigenvalues > 0.0):
                k_common = max(1, min(monitor.last_k, r_eff))
                rho = alignment_overlap(
                    side_decomp.eigenvectors[:, :k_common],
                    update_decomp.eigenvectors[:, :k_common],
                )

            delta_vec = adapter.scaling * adapter.delta_w().ravel()
            if monitor.tail_threshold == 0.0:
                med = float(np.median(np.abs(delta_vec)))
                if self.config.tail_threshold > 0.0:
                    monitor.tail_threshold = self.config.tail_threshold
                elif med > 0.0:
                    monitor.tail_threshold = 3.0 * med
            tail = (
                tail_mass(delta_vec, monitor.tail_threshold)
                if monitor.tail_threshold > 0.0
                else 0
            )

            exposure = exposure_from_basis(curvature[idx], adapter_subspace_basis(adapter))

            jitter = 0.0
            if monitor.grads is not None and monitor.prev_grads is not None:
                jitter, _ = update_jitter(
                    np.concatenate([g.ravel() for g in monitor.grads]),
                    np.concatenate([g.ravel() for g in monitor.prev_grads]),
                )

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

            cov_var = 0.0
            eig_cv = 0.0
            snapshots = monitor.cov_snapshots
            if len(snapshots) >= 2:
                cov_var, eig_cv, _ = stability_stats(
                    [snap.a_cov for snap in snapshots],
                    max(1, monitor.last_k),
                    [snap.decomp_a.eigenvalues for snap in snapshots],
                )

            record = GeometryRecord(
                step=step,
                layer=idx,
                k_selected=monitor.last_k,
                r_eff=int(r_eff),
                rho_align=float(rho),
                pi_proj=float(monitor.last_pi),
                tail_mass=int(tail),
                curvature_exposure=float(exposure),
                jitter=float(jitter),
                subspace_drift=float(drift),
                eig_cv=float(eig_cv),
                cov_var=float(cov_var),
                spectrum=[float(v) for v in spectrum],
            )
            self.records.append(record)
            if self.telemetry_writer is not None:
                self.telemetry_writer.append(record)
            if self.update_writer is not None:
                self.update_writer.append(
                    {"step": step, "layer": idx, "delta_w": delta_vec.tolist()}
                )

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


def run_experiment(
    config: GritConfig,
    out_dir: str | Path | None = None,
    task_spec: str | None = None,
    config_path: str | Path | None = None,
) -> RunRecord:
    """Train to the configured step budget and summarize retention drift.

    Builds the named synthetic task, measures the pretraining-proxy loss on
    the held-out set before and after adaptation, writes the run artifacts
    (when out_dir is given), and returns the RunRecord. Any exception after
    the manifest is written marks it failed (interrupted for Ctrl-C) before
    propagating.
    """
    validate_config(config)
    spec = task_spec if task_spec is not None else config.task
    if not spec:
        raise ValidationError("no task specified")
    model_rng = seed_stream(config.seed, "model")
    task_rng = seed_stream(config.seed, "task-data")
    task = build_task(
        spec,
        rank=config.lora_rank,
        alpha=config.lora_alpha,
        eval_size=config.eval_size,
        model_rng=model_rng,
        data_rng=task_rng,
    )
    trainer = Trainer(config, task, run_dir=out_dir)

    manifest = None
    if out_dir is not None:
        out = Path(out_dir)
        if config_path is not None:
            shutil.copy(config_path, out / CONFIG_NAME)
        else:
            (out / CONFIG_NAME).write_text(config_to_text(config))
        manifest = RunManifest.create(
            run_id=out.name,
            config_hash=config_hash(config),
            seed=config.seed,
            task=spec,
        )
        write_manifest(manifest, out)

    try:
        pt_before = task.pt_loss(task.model)
        final_task_loss = float("nan")
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
            task=spec,
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
