import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grit.config import GritConfig
from grit.errors import ConfigError, DecompositionError, GritError, ShapeError, ValidationError
from grit import reprojection as reprojection_module
from grit import tasks as tasks_module
from grit import telemetry as telemetry_module
from grit import trainer as trainer_module
from grit.kfac import RankSpaceStats, precondition
from grit.linalg import damped_solve, sym_eig, sym_eig_stack, symmetrize
from grit.model import AdapterPair, LayerTape
from grit.reprojection import make_projector, select_rank, uses_g_side
from grit.runio import AUDIT_CSVS, JsonlWriter, decode_array, read_jsonl, read_record
from grit.telemetry import stability_stats
from grit.trainer import (
    AdamW,
    Trainer,
    clipped_flat,
    curvature_penalty,
    median,
    regularizer_ramp,
    reprojection_penalty,
    run_experiment,
    seed_stream,
)
from grit.tasks import build_task
from conftest import study


TASK = "synthetic_lowrank(d=10, r_true=2, noise=0.05)"


def make_config(**kw):
    defaults = dict(
        task=TASK, steps=60, seed=0, lora_rank=4, min_lora_rank=2,
        kfac_update_freq=5, kfac_min_samples=16, reprojection_freq=20,
        reprojection_warmup_steps=20, learning_rate=0.05, telemetry_every=20,
        batch_size=8, eval_size=64,
    )
    defaults.update(kw)
    return GritConfig(**defaults)


def make_trainer(run_dir=None, **kw):
    return trainer_for(make_config(**kw), run_dir)


def trainer_for(config, run_dir=None):
    """A Trainer on config's task, built as run_experiment builds it: (trainer, task, config)."""
    task = build_task(
        config.task, rank=config.lora_rank, alpha=config.lora_alpha,
        eval_size=config.eval_size,
        model_rng=seed_stream(config.seed, "model"),
        data_rng=seed_stream(config.seed, "task-data"),
    )
    return Trainer(config, task, run_dir), task, config


def reference_rank(cfg, a_cov, rank, step):
    """The reference k: reprojection_k clamped to [1, rank] before the start step, else a_cov's select_rank."""
    if step < cfg.rank_adaptation_start_step:
        return max(1, min(cfg.reprojection_k, rank))
    return select_rank(sym_eig(a_cov).eigenvalues, cfg.rank_adaptation_threshold, cfg.min_lora_rank)[0]


def run_loop(trainer, task, config):
    losses = []
    for step in range(config.steps):
        batch = task.sample_batch(trainer.data_rng, config.batch_size)
        losses.append(trainer.train_step(batch, step).loss)
    return losses


class PerArrayAdamW:
    """The optimizer as one pass per factor array: the reference for the flat one."""

    def __init__(self, shapes, lr, betas=(0.9, 0.95), eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


def per_array_clip(grads, max_norm):
    global_norm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
    if global_norm > max_norm and global_norm > 0.0:
        scale = max_norm / global_norm
        return [g * scale for g in grads]
    return grads


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatOptimizer:
    SHAPES = [(3, 7), (5, 3), (2, 11), (13, 2), (1, 1)]

    @pytest.mark.parametrize("max_norm", [1e-3, 1e6], ids=["clipped", "unclipped"])
    def test_flat_clip_and_step_match_per_array_bitwise(self, max_norm):
        rng = np.random.default_rng(31)
        params = [rng.normal(size=s) for s in self.SHAPES]
        reference = PerArrayAdamW(self.SHAPES, lr=0.02)
        optimizer = AdamW(sum(int(np.prod(s)) for s in self.SHAPES), lr=0.02)
        flat_params = flat(params)
        # about a third of these draws round differently if the norm is
        # summed in one pass over the concatenation
        for _ in range(40):
            grads = [rng.normal(scale=rng.uniform(0.1, 10.0), size=s) for s in self.SHAPES]
            clipped = per_array_clip(grads, max_norm)
            flat_grad = clipped_flat(grads, max_norm)
            assert (clipped is grads) == (max_norm == 1e6)
            assert flat_grad.tobytes() == flat(clipped).tobytes()
            params = reference.step(params, clipped)
            flat_params = optimizer.step(flat_params, flat_grad)
            assert flat_params.tobytes() == flat(params).tobytes()
            assert optimizer.m.tobytes() == flat(reference.m).tobytes()
            assert optimizer.v.tobytes() == flat(reference.v).tobytes()

    def test_clip_survives_an_overflowing_squared_norm(self):
        grads = [np.array([[1e200, 1.0]]), np.array([[2.0]])]
        with pytest.warns(RuntimeWarning, match="overflow"):
            clipped = clipped_flat(grads, 1.0)
        assert np.allclose(clipped, [1.0, 1e-200, 2e-200], rtol=1e-15, atol=0.0)

    def test_step_leaves_its_inputs_untouched(self):
        params = np.arange(4.0)
        grads = np.ones(4)
        AdamW(4, lr=0.1).step(params, grads)
        assert params.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert grads.tolist() == [1.0] * 4


class TestFlatParameters:
    @staticmethod
    def assert_bound(trainer):
        flat = trainer._params
        for _, adapter in trainer.model.layers:
            for factor in (adapter.a, adapter.b):
                assert factor.base is flat

    @pytest.mark.parametrize("mode", ["grit", "lora_control"])
    def test_factors_are_views_of_one_vector_at_every_step(self, mode):
        tr, task, cfg = make_trainer(mode=mode, steps=45)
        self.assert_bound(tr)
        for step in range(cfg.steps):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            if step % cfg.reprojection_freq != 0 or mode == "lora_control":
                self.assert_bound(tr)

    def test_binding_keeps_the_initial_values(self):
        tr, _, cfg = make_trainer()
        unbound = build_task(
            cfg.task, rank=cfg.lora_rank, alpha=cfg.lora_alpha, eval_size=cfg.eval_size,
            model_rng=seed_stream(cfg.seed, "model"), data_rng=seed_stream(cfg.seed, "task-data"),
        )
        for (_, bound), (_, fresh) in zip(tr.model.layers, unbound.model.layers):
            assert bound.a.tobytes() == fresh.a.tobytes()
            assert bound.b.tobytes() == fresh.b.tobytes()

    @pytest.mark.parametrize("telemetry_every", [0, 20])
    def test_reprojected_factors_are_bound_again_and_trained(self, telemetry_every):
        tr, task, cfg = make_trainer(mode="grit", steps=22, telemetry_every=telemetry_every)
        for step in range(21):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        assert any(e["action"] == "reproject" and e["step"] == 20 for e in tr.events)
        replaced = [f for _, adapter in tr.model.layers for f in (adapter.a, adapter.b)]
        if telemetry_every:  # the telemetry step binds them for its snapshot
            self.assert_bound(tr)
        else:  # the next step binds them
            assert not any(np.shares_memory(f, tr._params) for f in replaced)
        expected = np.concatenate([f.ravel() for f in replaced])
        seen = []
        optimizer_step = tr.optimizer.step

        def recording(params, grads):
            seen.append(params.copy())
            return optimizer_step(params, grads)

        tr.optimizer.step = recording
        tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), 21)
        assert seen[0].tobytes() == expected.tobytes()
        self.assert_bound(tr)

    def test_replaced_factor_is_the_one_the_next_step_trains_from(self):
        tr_ref, task_ref, cfg = make_trainer(mode="lora_control")
        tr, task, _ = make_trainer(mode="lora_control")
        for step in range(3):
            tr_ref.train_step(task_ref.sample_batch(tr_ref.data_rng, cfg.batch_size), step)
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        adapter_ref = tr_ref.model.layers[0][1]
        adapter = tr.model.layers[0][1]
        new_a = np.random.default_rng(5).normal(size=adapter.a.shape)
        adapter.a = new_a.copy()  # a new array, as reprojection binds
        adapter_ref.a[...] = new_a  # written in place: the vector sees it at once
        for step in range(3, 6):
            batch = task.sample_batch(tr.data_rng, cfg.batch_size)
            batch_ref = task_ref.sample_batch(tr_ref.data_rng, cfg.batch_size)
            assert tr.train_step(batch, step).loss == tr_ref.train_step(batch_ref, step).loss
        self.assert_bound(tr)
        assert tr._params.tobytes() == tr_ref._params.tobytes()
        assert tr.optimizer.m.tobytes() == tr_ref.optimizer.m.tobytes()

    def test_replaced_factor_of_another_shape_is_rejected(self):
        tr, task, cfg = make_trainer()
        adapter = tr.model.layers[0][1]
        adapter.b = np.zeros((adapter.b.shape[0], adapter.b.shape[1] + 1))
        with pytest.raises(ShapeError, match="layer 0 factor b"):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), 0)

    def test_pt_loss_reads_the_trained_values(self):
        tr, task, cfg = make_trainer(mode="lora_control", steps=10)
        before = task.pt_loss(task.model)
        run_loop(tr, task, cfg)
        after = task.pt_loss(task.model)
        assert after != before
        # the same model rebuilt from copies of the trained factors
        copies = [(a.a.copy(), a.b.copy()) for _, a in task.model.layers]
        for (_, adapter), (a, b) in zip(task.model.layers, copies):
            adapter.a, adapter.b = a, b
        assert task.pt_loss(task.model) == after


class TestControlEquivalence:
    def test_lora_control_matches_gated_off_grit_bitwise(self):
        never = 10**9
        tr_ctrl, task_c, cfg_c = make_trainer(mode="lora_control")
        tr_grit, task_g, cfg_g = make_trainer(
            mode="grit", ng_warmup_steps=never, reprojection_warmup_steps=never
        )
        losses_c = run_loop(tr_ctrl, task_c, cfg_c)
        losses_g = run_loop(tr_grit, task_g, cfg_g)
        assert losses_c == losses_g  # bit identical trajectories
        for (_, ac), (_, ag) in zip(tr_ctrl.model.layers, tr_grit.model.layers):
            assert np.array_equal(ac.a, ag.a)
            assert np.array_equal(ac.b, ag.b)

    def test_ng_warmup_leaves_stats_untouched(self):
        tr, task, cfg = make_trainer(mode="grit", ng_warmup_steps=30, steps=25)
        run_loop(tr, task, cfg)
        for stats in tr.stats:
            assert stats.n_cov == 0
            assert not stats.inv_ready

    def test_determinism_replay(self):
        tr1, task1, cfg1 = make_trainer(mode="grit", steps=60)
        tr2, task2, cfg2 = make_trainer(mode="grit", steps=60)
        assert run_loop(tr1, task1, cfg1) == run_loop(tr2, task2, cfg2)

    def test_loss_decreases_over_run(self):
        tr, task, cfg = make_trainer(mode="grit", steps=200, telemetry_every=0)
        losses = run_loop(tr, task, cfg)
        assert losses[-1] < losses[0]

    def test_two_layer_run_decreases_and_replays(self):
        two_layer = "two_task_forgetting(d=8, hidden=8, pretrain_steps=0, ft_noise=0)"
        tr1, task1, cfg1 = make_trainer(mode="grit", task=two_layer, steps=200, telemetry_every=0)
        losses1 = run_loop(tr1, task1, cfg1)
        tr2, task2, cfg2 = make_trainer(mode="grit", task=two_layer, steps=200, telemetry_every=0)
        assert losses1 == run_loop(tr2, task2, cfg2)
        assert losses1[-1] < losses1[0]


class TestGateOrdering:
    def test_event_log_respects_warmups(self):
        tr, task, cfg = make_trainer(
            mode="grit", steps=60, ng_warmup_steps=15, reprojection_warmup_steps=40
        )
        run_loop(tr, task, cfg)
        for event in tr.events:
            if event["action"] in ("accumulate", "invert", "precondition"):
                assert event["step"] >= 15
            if event["action"] == "reproject":
                assert event["step"] >= 40

    def test_frozen_weights_unchanged(self):
        tr, task, cfg = make_trainer(mode="grit", steps=40)
        before = tr.frozen_weight_hash()
        run_loop(tr, task, cfg)
        assert tr.frozen_weight_hash() == before

    def test_reprojection_fires_on_cadence(self):
        tr, task, cfg = make_trainer(mode="grit", steps=61)
        run_loop(tr, task, cfg)
        steps = [e["step"] for e in tr.events if e["action"] == "reproject"]
        assert steps
        assert all(s % cfg.reprojection_freq == 0 and s >= 20 for s in steps)

    def test_reprojection_events_fall_on_cadence(self):
        # 0, 7, 14 fall in the reprojection warmup, 21 before the first
        # accumulation at 25, and every later multiple of 7 reprojects
        tr, task, cfg = make_trainer(mode="grit", steps=61, reprojection_freq=7,
                                     ng_warmup_steps=25, reprojection_warmup_steps=15)
        run_loop(tr, task, cfg)
        events = [e for e in tr.events if e["action"] in ("reproject", "reproject_gated")]
        assert {e.get("gate") for e in events} == {"warmup", "no-samples", None}
        assert all(e["step"] % cfg.reprojection_freq == 0 for e in events)
        assert sorted({e["step"] for e in events}) == list(range(0, 61, 7))

    def test_python_built_config_is_validated(self):
        with pytest.raises(ConfigError, match="rank_adaptation_threshold"):
            make_trainer(rank_adaptation_threshold=1.5)

    @pytest.mark.parametrize("mode", ["grit", "lora_control"])
    def test_adapter_rank_other_than_lora_rank_is_rejected(self, mode):
        config = GritConfig(task=TASK, lora_rank=4, mode=mode, eval_size=64)
        task = build_task(
            TASK, rank=2, alpha=config.lora_alpha, eval_size=config.eval_size,
            model_rng=seed_stream(0, "model"), data_rng=seed_stream(0, "task-data"),
        )
        with pytest.raises(ConfigError, match="rank 2, but lora_rank is 4") as info:
            Trainer(config, task)
        assert info.value.key == "lora_rank"

    def test_reprojection_before_the_first_accumulation_decomposes_nothing(self, monkeypatch):
        # reprojection runs at 0, 10 and 20; the first accumulation is at 25
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        tr, task, cfg = make_trainer(
            task=TestOnePassStep.TWO_LAYER, steps=21, ng_warmup_steps=25, reprojection_freq=10,
            reprojection_warmup_steps=0, lambda_r=0.5, telemetry_every=0,
        )
        run_loop(tr, task, cfg)
        gated = [(e["step"], e["layer"], e["gate"]) for e in tr.events if e["action"] == "reproject_gated"]
        assert gated == [(step, layer, "no-samples") for step in (0, 10, 20) for layer in (0, 1)]
        assert [e["action"] for e in tr.events] == ["reproject_gated"] * 6
        assert calls == []

    def test_update_covariance_resets_at_reprojection(self):
        # the update-basis window restarts at each event (including step 0,
        # where the cadence gate is already satisfied)
        tr, task, cfg = make_trainer(mode="grit", steps=21, reprojection_freq=20,
                                     reprojection_warmup_steps=0, telemetry_every=0)
        def reprojected(step):
            return any(e["action"] == "reproject" and e["step"] == step for e in tr.events)

        for step in range(20):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            if reprojected(step):
                assert np.all(tr.update_covariances()[0] == 0.0)
            else:
                assert np.any(tr.update_covariances()[0] != 0.0)
        tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), 20)
        assert reprojected(20)
        assert np.all(tr.update_covariances()[0] == 0.0)

    @pytest.mark.parametrize("ready", [1, 0], ids=["later_layer_ready", "first_layer_ready"])
    def test_every_layer_refreshes_when_an_earlier_one_is_not_ready(self, ready):
        """Readiness is read over all layers: the step that makes the last layer's first inverses preconditions."""
        two_layer = "two_task_forgetting(d=8, hidden=8, pretrain_steps=0)"
        tr, task, cfg = make_trainer(
            mode="grit", task=two_layer, kfac_min_samples=16, batch_size=8, telemetry_every=0
        )
        # one layer has already seen kfac_min_samples samples, the other none
        tr.stats[ready].n_cov = cfg.kfac_min_samples
        tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), 0)
        other = tr.stats[1 - ready]
        assert other.n_cov < cfg.kfac_min_samples and not other.inv_ready
        assert tr.stats[ready].inv_ready
        assert "invert" not in [e["action"] for e in tr.events]
        # the other layer reaches the gate at the next accumulation, step 5
        for step in range(1, 6):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        actions = [(e["step"], e["action"]) for e in tr.events]
        assert actions[-3:] == [(5, "accumulate"), (5, "invert"), (5, "precondition")]
        assert [action for _, action in actions].count("precondition") == 1


def a_side_penalty(adapter, stats, k):
    q = make_projector(sym_eig(stats.a_cov), k).complement()
    return reprojection_penalty(adapter, q, q)[0]


def central_difference(fn, mat, h=1e-6):
    grad = np.zeros_like(mat)
    for idx in np.ndindex(mat.shape):
        orig = mat[idx]
        mat[idx] = orig + h
        up = fn()
        mat[idx] = orig - h
        down = fn()
        mat[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
    return grad


class TestPenalties:
    def test_curvature_penalty_kronecker_oracle(self):
        rng = np.random.default_rng(0)
        d_in, d_out, r = 4, 3, 2
        adapter = AdapterPair(
            a=rng.normal(size=(r, d_in)), b=rng.normal(size=(d_out, r)), rank=r, scaling=1.0
        )
        x = rng.normal(size=(1, d_in))
        g = rng.normal(size=(1, d_out))
        tape = LayerTape()
        tape.x = x
        tape.dy = g
        value, _, _ = curvature_penalty(tape, adapter)
        delta_w = adapter.delta_w()
        kron = np.kron(x.T @ x, g.T @ g)  # vec (column-major) quadratic form
        vec = delta_w.flatten(order="F")
        assert np.isclose(value, float(vec @ kron @ vec), atol=1e-12)

    def test_curvature_penalty_zero_adapter(self):
        rng = np.random.default_rng(1)
        adapter = AdapterPair(a=rng.normal(size=(2, 4)), b=np.zeros((3, 2)), rank=2, scaling=1.0)
        tape = LayerTape()
        tape.x = rng.normal(size=(5, 4))
        tape.dy = rng.normal(size=(5, 3))
        assert curvature_penalty(tape, adapter)[0] == 0.0

    def test_curvature_penalty_orthogonal_case(self):
        adapter = AdapterPair(a=np.eye(2), b=np.eye(2), rank=2, scaling=1.0)
        tape = LayerTape()
        tape.x = np.array([[1.0, 0.0]])
        tape.dy = np.array([[0.0, 1.0]])  # g orthogonal to delta_w x
        assert curvature_penalty(tape, adapter)[0] == 0.0

    def test_curvature_penalty_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        adapter = AdapterPair(a=rng.normal(size=(3, 5)), b=rng.normal(size=(4, 3)), rank=3, scaling=0.7)
        tape = LayerTape()
        tape.x = rng.normal(size=(6, 5))
        tape.dy = rng.normal(size=(6, 4))
        _, grad_a, grad_b = curvature_penalty(tape, adapter)
        value = lambda: curvature_penalty(tape, adapter)[0]  # noqa: E731
        for grad, mat in ((grad_a, adapter.a), (grad_b, adapter.b)):
            fd = central_difference(value, mat)
            assert np.max(np.abs(grad - fd)) < 1e-6 * max(1.0, float(np.max(np.abs(fd))))

    def test_reprojection_penalty_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        r = 4
        adapter = AdapterPair(a=rng.normal(size=(r, 6)), b=rng.normal(size=(5, r)), rank=r, scaling=1.0)
        m_a, m_g = rng.normal(size=(r, r)), rng.normal(size=(r, r))
        q_a = make_projector(sym_eig(m_a @ m_a.T), 2).complement()
        q_g = make_projector(sym_eig(m_g @ m_g.T), 3).complement()
        _, grad_a, grad_b = reprojection_penalty(adapter, q_a, q_g)
        value = lambda: reprojection_penalty(adapter, q_a, q_g)[0]  # noqa: E731
        for grad, mat in ((grad_a, adapter.a), (grad_b, adapter.b)):
            fd = central_difference(value, mat)
            assert np.max(np.abs(grad - fd)) < 1e-6 * max(1.0, float(np.max(np.abs(fd))))

    @pytest.mark.parametrize("k_a, k_g", [(1, 4), (2, 3), (4, 2)])
    def test_reprojection_penalty_matches_projector_form(self, k_a, k_g):
        rng = np.random.default_rng(13)
        r = 4
        adapter = AdapterPair(a=rng.normal(size=(r, 6)), b=rng.normal(size=(5, r)), rank=r, scaling=1.0)
        m_a, m_g = rng.normal(size=(r, r)), rng.normal(size=(r, r))
        proj_a = make_projector(sym_eig(m_a @ m_a.T), k_a)
        proj_g = make_projector(sym_eig(m_g @ m_g.T), k_g)
        value, grad_a, grad_b = reprojection_penalty(adapter, proj_a.complement(), proj_g.complement())
        res_a = adapter.a - proj_a.apply_left(adapter.a)
        res_b = adapter.b - proj_g.apply_right(adapter.b)
        assert abs(value - float(np.sum(res_a * res_a) + np.sum(res_b * res_b))) <= 1e-12
        assert np.max(np.abs(grad_a - 2.0 * res_a)) <= 1e-12
        assert np.max(np.abs(grad_b - 2.0 * res_b)) <= 1e-12

    def test_reprojection_penalty_full_rank_zero(self):
        rng = np.random.default_rng(2)
        adapter = AdapterPair(a=rng.normal(size=(3, 5)), b=rng.normal(size=(4, 3)), rank=3, scaling=1.0)
        stats = RankSpaceStats(rank=3, damping=1e-3)
        stats.a_cov = np.eye(3)
        stats.g_cov = np.eye(3)
        stats.n_cov = 100
        assert a_side_penalty(adapter, stats, k=3) < 1e-18

    def test_reprojection_penalty_contained_case(self):
        rng = np.random.default_rng(3)
        stats = RankSpaceStats(rank=3, damping=1e-3)
        stats.a_cov = np.diag([3.0, 2.0, 1.0])
        stats.g_cov = np.diag([3.0, 2.0, 1.0])
        stats.n_cov = 100
        a = np.zeros((3, 5))
        a[:2, :] = rng.normal(size=(2, 5))  # rows only in the top-2 span
        b = np.zeros((4, 3))
        b[:, :2] = rng.normal(size=(4, 2))
        adapter = AdapterPair(a=a, b=b, rank=3, scaling=1.0)
        assert a_side_penalty(adapter, stats, k=2) < 1e-18

    def test_reprojection_penalty_residual_oracle(self):
        rng = np.random.default_rng(4)
        r = 4
        q, _ = np.linalg.qr(rng.normal(size=(r, r)))
        spectrum = np.diag([4.0, 3.0, 2.0, 1.0])
        stats = RankSpaceStats(rank=r, damping=1e-3)
        stats.a_cov = q @ spectrum @ q.T
        stats.g_cov = np.eye(r)
        stats.n_cov = 100
        adapter = AdapterPair(a=rng.normal(size=(r, 6)), b=rng.normal(size=(5, r)), rank=r, scaling=1.0)
        value = a_side_penalty(adapter, stats, k=2)
        p = q[:, :2] @ q[:, :2].T
        expected = float(
            np.sum((adapter.a - p @ adapter.a) ** 2) + np.sum((adapter.b - adapter.b @ p) ** 2)
        )
        assert np.isclose(value, expected, atol=1e-10)

    def test_reprojection_penalty_pending_without_samples(self):
        # lambda_r applies no penalty while the statistics hold no samples
        tr, task, cfg = make_trainer(lambda_r=1.0, reprojection_warmup_steps=0)
        assert tr.stats[0].n_cov == 0
        result = tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), 0)
        assert result.loss == result.task_loss

    def test_curvature_penalty_enters_training_loss(self):
        lambda_k, warmup = 0.5, 4
        tr, task, cfg = make_trainer(lambda_k=lambda_k, reprojection_warmup_steps=warmup, steps=8)
        ref, ref_task, _ = make_trainer(reprojection_warmup_steps=warmup, steps=8)
        for step in range(cfg.steps):
            before = [
                AdapterPair(a=ad.a.copy(), b=ad.b.copy(), rank=ad.rank, scaling=ad.scaling)
                for _, ad in tr.model.layers
            ]
            result = tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            ref.train_step(ref_task.sample_batch(ref.data_rng, cfg.batch_size), step)
            penalty = sum(
                curvature_penalty(tape, ad)[0] for tape, ad in zip(tr.model.tapes, before)
            )
            expected = result.task_loss + regularizer_ramp(step, warmup) * lambda_k * penalty
            assert np.isfinite(result.loss)
            assert np.isclose(result.loss, expected, rtol=1e-12, atol=0.0)
        assert penalty > 0.0
        # the penalty gradients reach the update
        assert not np.array_equal(tr.model.layers[0][1].a, ref.model.layers[0][1].a)

    def test_ramp(self):
        assert regularizer_ramp(0, 0) == 1.0
        assert regularizer_ramp(5, 10) == 0.5
        assert regularizer_ramp(50, 10) == 1.0


class TestDecompositionCache:
    def test_no_covariance_decomposed_twice(self, monkeypatch):
        seen = []

        def recording(m, name="matrix"):
            seen.append(np.asarray(m, dtype=np.float64).tobytes())
            return sym_eig(m, name=name)

        def recording_stack(mats, names):
            seen.extend(np.asarray(m, dtype=np.float64).tobytes() for m in mats)
            return sym_eig_stack(mats, names)

        monkeypatch.setattr(trainer_module, "sym_eig", recording)
        monkeypatch.setattr(trainer_module, "sym_eig_stack", recording_stack)
        monkeypatch.setattr(reprojection_module, "sym_eig", recording)
        monkeypatch.setattr(reprojection_module, "sym_eig_stack", recording_stack)
        # telemetry steps never coincide with reprojection steps, so every
        # update covariance decomposed is non-zero and distinct
        tr, task, cfg = make_trainer(
            lambda_r=0.5, use_two_sided=True, g_gate_min_samples=16,
            reprojection_freq=10, reprojection_warmup_steps=10, telemetry_every=7,
        )
        for step in range(cfg.steps):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        assert any(e["action"] == "reproject" and e["side_used"] == "g" for e in tr.events)
        assert len(seen) > 0
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize(
        "overrides, window_only",
        [
            (dict(lambda_r=0.5, reprojection_freq=10, reprojection_warmup_steps=10), False),
            # snapshots between telemetry steps are read by no other consumer
            (dict(lambda_r=0.0, kfac_update_freq=1, reprojection_freq=10**9,
                  reprojection_warmup_steps=10**9), True),
        ],
        ids=["lambda_r", "telemetry_fill"],
    )
    def test_no_matrix_decomposed_twice_with_telemetry(self, monkeypatch, overrides, window_only):
        seen = []
        sites = []
        names = []

        def record(site, m, name):
            # sym_eig symmetrizes, so this is the matrix LAPACK receives
            seen.append(symmetrize(m).tobytes())
            sites.append(site)
            names.append(name)

        def recorder(site):
            def recording(m, name="matrix"):
                record(site, m, name)
                return sym_eig(m, name=name)

            return recording

        def stack_recorder(site):
            def recording_stack(mats, stack_names):
                for m, name in zip(mats, stack_names):
                    record(site, m, name)
                return sym_eig_stack(mats, stack_names)

            return recording_stack

        for module in (trainer_module, reprojection_module, telemetry_module):
            monkeypatch.setattr(module, "sym_eig", recorder(module.__name__))
        monkeypatch.setattr(reprojection_module, "sym_eig_stack", stack_recorder("stack"))
        # the telemetry's update covariances, decomposed in the trainer's own stacked call
        monkeypatch.setattr(trainer_module, "sym_eig_stack", stack_recorder("grit.trainer"))
        tr, task, cfg = make_trainer(telemetry_every=7, **overrides)
        run_loop(tr, task, cfg)
        assert any(r.eig_cv > 0.0 for r in tr.records)
        # the covariances are decomposed in the geometry's stacked call, never one by one
        covariances = [s for s, n in zip(sites, names) if n.startswith(("a_cov", "g_cov"))]
        assert covariances and set(covariances) == {"stack"}
        assert set(sites) == {"stack", "grit.trainer"}
        if window_only:
            # every accumulation is decomposed once, also those that only
            # the stability window reads
            accumulations = sum(e["action"] == "accumulate" for e in tr.events)
            assert sum(n.startswith("a_cov") for n in names) == accumulations > len(tr.records)
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("lambda_r", [0.0, 0.5])
    def test_one_stacked_eigh_per_accumulation(self, monkeypatch, lambda_r):
        calls = []
        current = {}
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append((current["step"], np.shape(a)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        tr, task, cfg = make_trainer(
            task=TestOnePassStep.TWO_LAYER, lambda_r=lambda_r, use_two_sided=True,
            g_gate_min_samples=16, telemetry_every=0,
        )
        n_layers, r = len(tr.model.layers), cfg.lora_rank
        for step in range(cfg.steps):
            current["step"] = step
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        accumulations = [e["step"] for e in tr.events if e["action"] == "accumulate"]
        assert n_layers == 2 and len(accumulations) == cfg.steps // cfg.kfac_update_freq
        # one (2L, r, r) stack per accumulation, and no other decomposition
        assert calls == [(step, (2 * n_layers, r, r)) for step in accumulations]


class TestPenaltyGeometry:
    """k and the lambda_r complement operators are built once per decomposition and k."""

    START = 33  # rank_adaptation_start_step, between accumulations

    def run_checked(self, monkeypatch, **overrides):
        built = []
        complement = reprojection_module.Projector.complement  # unpatched, for the references
        for owner, name in (
            (reprojection_module, "select_rank"),
            (reprojection_module, "make_projector"),
            (reprojection_module.Projector, "complement"),
        ):
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        tr, task, cfg = make_trainer(
            lambda_r=0.5, use_two_sided=True, g_gate_min_samples=24, reprojection_k=3,
            rank_adaptation_start_step=self.START, **overrides,
        )
        assert cfg.kfac_update_freq == 5
        current = {}
        last_state = {}
        build_steps = set()
        penalties = []

        def checked(adapter, q_a, q_side):
            step = current["step"]
            idx = next(i for i, (_, ad) in enumerate(tr.model.layers) if ad is adapter)
            # the statistics the step started with, before its accumulation
            a_cov, g_cov, n_cov = current["stats"][idx]
            spectral = step >= cfg.rank_adaptation_start_step
            k = reference_rank(cfg, a_cov, adapter.rank, step)
            # the complement operators of the k-projectors, bit for bit as built from scratch
            ref_a = make_projector(sym_eig(a_cov), k)
            ref_side = make_projector(sym_eig(g_cov), k) if uses_g_side(cfg, n_cov) else ref_a
            assert q_a.shape == q_side.shape == (adapter.rank, adapter.rank)
            assert q_a.tobytes() == complement(ref_a).tobytes()
            assert q_side.tobytes() == complement(ref_side).tobytes()
            # anything built since the previous penalty call was built for this layer
            prev = last_state.get(idx)
            changed = (
                prev is None
                or prev[0] is not a_cov
                or prev[1] is not g_cov
                or prev[2:] != (spectral, k)
            )
            if changed:
                assert built.count("select_rank") <= 1
                assert built.count("make_projector") <= 2 and built.count("complement") <= 2
            else:
                assert built == [], f"step {step}: rebuilt {built} for unchanged geometry"
            if built:
                build_steps.add(step)
            built.clear()
            last_state[idx] = (a_cov, g_cov, spectral, k)
            penalties.append(step)
            return reprojection_penalty(adapter, q_a, q_side)

        monkeypatch.setattr(trainer_module, "reprojection_penalty", checked)
        for step in range(cfg.steps):
            current["step"] = step
            current["stats"] = [(st.a_cov, st.g_cov, st.n_cov) for st in tr.stats]
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        return cfg, build_steps, penalties

    def test_built_only_when_statistics_or_k_change(self, monkeypatch):
        cfg, build_steps, penalties = self.run_checked(monkeypatch)
        assert len(penalties) > 3 * len(build_steps)
        # the penalty reads statistics one step after they are accumulated
        fresh = {s + 1 for s in range(cfg.steps) if s % cfg.kfac_update_freq == 0}
        assert build_steps <= fresh | {self.START}
        assert self.START in build_steps

    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(ema_beta=0.9), dict(lambda_k=0.5, rank_adaptation_threshold=0.5)],
        ids=["running_mean", "ema", "curvature_penalty"],
    )
    def test_projectors_match_from_scratch(self, monkeypatch, overrides):
        cfg, build_steps, penalties = self.run_checked(monkeypatch, **overrides)
        assert build_steps and penalties


def test_criterion8_grit_run_ranks_each_accumulation_in_one_call(monkeypatch):
    """The spectral k of every layer comes from one stacked energy call per accumulation."""
    calls, selects = [], []
    prefix_energies = reprojection_module.prefix_energies

    def counting(spectra):
        # the telemetry's r_eff reads energies too, through effective_ranks
        calls.append((sys._getframe(1).f_code.co_name, np.shape(spectra)))
        return prefix_energies(spectra)

    monkeypatch.setattr(reprojection_module, "prefix_energies", counting)
    for owner in (reprojection_module, trainer_module):
        monkeypatch.setattr(owner, "select_rank", lambda *args: selects.append(args))
    cfg = study.study_config("grit", 0)
    run_experiment(cfg)
    ranked = [shape for caller, shape in calls if caller == "of_each"]
    assert ranked == [(2, 8)] * (cfg.steps // cfg.kfac_update_freq)  # two layers, rank 8
    others = [call for call in calls if call[0] != "of_each"]
    # the five telemetry steps' records are computed after the step loop, in one pass
    assert others == [("effective_ranks", (2 * cfg.steps // cfg.telemetry_every, 8))]
    assert selects == []


class TestPenaltyComplements:
    """Each step's lambda_r penalty reads complements(rank(step, last_k)) of the geometries it starts with."""

    START = 33  # rank_adaptation_start_step, between the accumulations at 30 and 35

    @pytest.mark.parametrize(
        "overrides, switches, holds",
        [
            (dict(), True, False),
            (dict(rank_adaptation_start_step=10**9), False, False),
            # reprojection at step 20 takes reprojection_k = 3, and from START the band holds it
            # against the spectral k of 2
            (dict(rank_adaptation_threshold=0.85, hysteresis_eps=0.2), False, True),
        ],
        ids=["rank-adaptation", "fixed-k", "hysteresis-held"],
    )
    def test_every_step_uses_its_geometries_complements(self, monkeypatch, overrides, switches, holds):
        settings = dict(
            lambda_r=0.5, use_two_sided=True, g_gate_min_samples=24, reprojection_k=3,
            rank_adaptation_threshold=0.5, rank_adaptation_start_step=self.START, telemetry_every=0,
        )
        tr, task, cfg = make_trainer(**{**settings, **overrides})
        seen = []

        def recording(adapter, q_a, q_side):
            seen.append((adapter, q_a, q_side))
            return reprojection_penalty(adapter, q_a, q_side)

        monkeypatch.setattr(trainer_module, "reprojection_penalty", recording)
        switched = held = False
        for step in range(cfg.steps):
            geometries = tr._geometries
            last_ks = [monitor.last_k for monitor in tr.monitors]
            seen.clear()
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            if geometries is None:
                assert seen == []
                continue
            assert [adapter for adapter, _, _ in seen] == tr.model.adapters()
            for (_, q_a, q_side), geometry, last_k in zip(seen, geometries, last_ks):
                k = geometry.rank(step, last_k)
                want_a, want_side = geometry.complements(k)
                assert q_a is want_a and q_side is want_side
                held |= k != geometry.rank(step)
            if step == self.START:
                switched = any(g.rank(step, k) != g.rank(step - 1, k) for g, k in zip(geometries, last_ks))
        # the spectral k differs from reprojection_k where it takes over, mid-accumulation
        assert switched == switches
        # the k the band holds is the one reprojection holds, not the spectral k
        assert held == holds


def two_pass_gradients(trainer, before, step):
    """One step's preconditioned gradients as the trainer once made them.

    Penalty gradients go into zero-filled buffers, from the projectors of
    the statistics the step started with (before holds each layer's a, b,
    a_cov, g_cov and n_cov then); a second pass adds them to the tape
    gradients and preconditions with the inverses the step ended with.
    """
    cfg = trainer.config
    ramp = regularizer_ramp(step, cfg.reprojection_warmup_steps)
    penalty_grads = []
    for (a, b, a_cov, g_cov, n_cov), (_, adapter) in zip(before, trainer.model.layers):
        ga, gb = np.zeros_like(a), np.zeros_like(b)
        k = reference_rank(cfg, a_cov, adapter.rank, step)
        proj_a = make_projector(sym_eig(a_cov), k)
        proj_side = make_projector(sym_eig(g_cov), k) if uses_g_side(cfg, n_cov) else proj_a
        ga += ramp * cfg.lambda_r * 2.0 * (a - proj_a.apply_left(a))
        gb += ramp * cfg.lambda_r * 2.0 * (b - proj_side.apply_right(b))
        penalty_grads.append((ga, gb))
    grads = []
    for tape, stats, (pa, pb) in zip(trainer.model.tapes, trainer.stats, penalty_grads):
        grads += precondition(tape.grad_a + pa, tape.grad_b + pb, stats)
    return grads


class TestOnePassStep:
    TWO_LAYER = "two_task_forgetting(d=8, hidden=8, pretrain_steps=0)"

    @pytest.mark.parametrize("step", [30, 33], ids=["accumulating", "plain"])
    @pytest.mark.parametrize("two_sided", [True, False], ids=["g_side", "a_side"])
    def test_preconditioned_gradient_matches_two_pass(self, monkeypatch, step, two_sided):
        # tau = 0.5 keeps k below the rank, so the penalty is not zero
        tr, task, cfg = make_trainer(
            task=self.TWO_LAYER, lambda_r=0.5, use_two_sided=two_sided, g_gate_min_samples=16,
            rank_adaptation_threshold=0.5, telemetry_every=0,
        )
        for s in range(step):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), s)
        before = [
            (ad.a.copy(), ad.b.copy(), st.a_cov, st.g_cov, st.n_cov)
            for (_, ad), st in zip(tr.model.layers, tr.stats)
        ]
        seen = []
        clip = trainer_module.clipped_flat

        def recording(grads, max_norm):
            seen.append([g.copy() for g in grads])
            return clip(grads, max_norm)

        monkeypatch.setattr(trainer_module, "clipped_flat", recording)
        result = tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        # preconditioning, once logged, never stops
        assert any(e["action"] == "precondition" for e in tr.events)
        assert result.loss > result.task_loss
        assert (tr.stats[0].a_cov is not before[0][2]) == (step % cfg.kfac_update_freq == 0)
        expected = two_pass_gradients(tr, before, step)
        assert len(seen[0]) == len(expected) == 4
        for got, want in zip(seen[0], expected):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


class TestSharedSpectra:
    @pytest.mark.parametrize(
        "overrides",
        [dict(lambda_r=0.5), dict(lambda_r=0.0), dict(ema_beta=0.9)],
        ids=["lambda_r", "no_penalty", "ema"],
    )
    def test_stability_matches_from_scratch(self, overrides):
        tr, task, cfg = make_trainer(**overrides)
        n_layers = len(tr.monitors)
        checked = 0
        for step in range(cfg.steps):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            if step % cfg.telemetry_every:
                continue
            for record in tr.records[-n_layers:]:
                covs = [a_covs[record.layer] for a_covs, _ in tr._window]
                if len(covs) < 2:
                    continue
                spectra = [sym_eig(c).eigenvalues for c in covs]
                cov_var, eig_cv = stability_stats(covs, max(1, record.k_selected), spectra)
                assert record.cov_var == cov_var
                assert record.eig_cv == eig_cv
                checked += 1
        assert checked > 0

    def test_window_keeps_its_own_covariances(self):
        cov_vars = []
        for scribble in (False, True):
            tr, task, cfg = make_trainer(telemetry_every=0)
            last = 8 * cfg.kfac_update_freq  # an accumulation step
            for step in range(last + 1):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            if scribble:
                tr.stats[0].a_cov[...] = 1e3
            tr._emit_telemetry(last)
            cov_vars.append(tr.records[0].cov_var)
        assert cov_vars[0] > 0.0
        assert cov_vars[1] == cov_vars[0]

    def test_window_holds_at_most_cov_window_accumulations(self):
        tr, task, cfg = make_trainer(kfac_update_freq=1, telemetry_every=0)
        for step in range(trainer_module.COV_WINDOW + 5):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            assert len(tr._window) == min(step + 1, trainer_module.COV_WINDOW)
        a_covs, spectra = tr._window[-1]
        assert a_covs.shape == (len(tr.stats), cfg.lora_rank, cfg.lora_rank)
        assert spectra.shape == (len(tr.stats), cfg.lora_rank)
        assert np.array_equal(a_covs[0], tr.stats[0].a_cov)


class TestRunExperiment:
    def test_zero_steps_no_drift(self, tmp_path):
        cfg = GritConfig(task=TASK, steps=0, seed=3, lora_rank=4, eval_size=64)
        record = run_experiment(cfg, out_dir=tmp_path / "run")
        assert record.pt_loss_after == record.pt_loss_before
        assert record.d_ft == 0
        assert record.final_task_loss is None  # no step ran

        def no_constant(name):
            raise AssertionError(f"record.json holds {name}, which JSON does not allow")

        json.loads((tmp_path / "run" / "record.json").read_text(), parse_constant=no_constant)
        loaded = read_record(tmp_path / "run")
        assert loaded.final_task_loss is None
        assert loaded.pt_loss_after == record.pt_loss_after

    def test_divergence_point_after_first_geometry_action(self):
        never = 10**9
        cfg_common = dict(
            task=TASK, steps=40, seed=5, lora_rank=4, min_lora_rank=2, batch_size=8,
            eval_size=64, kfac_update_freq=10, kfac_min_samples=8,
            reprojection_freq=10**9, reprojection_warmup_steps=never,
            ng_warmup_steps=0, learning_rate=0.05, telemetry_every=0,
        )
        tr_g, task_g, cfg_g = make_trainer(mode="grit", **cfg_common)
        tr_c, task_c, cfg_c = make_trainer(mode="lora_control", **cfg_common)
        losses_g = run_loop(tr_g, task_g, cfg_g)
        losses_c = run_loop(tr_c, task_c, cfg_c)
        precond_steps = [e["step"] for e in tr_g.events if e["action"] == "precondition"]
        first = min(precond_steps)
        # identical losses up to and including the step of the first preconditioned
        # update (the loss is computed before the update applies)
        assert losses_g[: first + 1] == losses_c[: first + 1]
        assert losses_g[first + 1 :] != losses_c[first + 1 :]

    def test_record_replay_identical(self, tmp_path):
        cfg = GritConfig(
            task=TASK, steps=30, seed=7, lora_rank=4, min_lora_rank=2,
            kfac_update_freq=5, kfac_min_samples=16, reprojection_freq=10,
            reprojection_warmup_steps=10, telemetry_every=10, eval_size=64,
        )
        r1 = run_experiment(cfg, out_dir=tmp_path / "a")
        r2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "record.json").read_bytes() == (tmp_path / "b" / "record.json").read_bytes()
        assert (tmp_path / "a" / "telemetry.jsonl").read_bytes() == (tmp_path / "b" / "telemetry.jsonl").read_bytes()
        assert r1 == r2

    def test_run_dir_contents(self, tmp_path):
        cfg = GritConfig(task=TASK, steps=20, seed=9, lora_rank=4, telemetry_every=10, eval_size=64)
        run_experiment(cfg, out_dir=tmp_path / "run")
        for name in ("config.cfg", "manifest.json", "telemetry.jsonl", "events.jsonl",
                     "stats.jsonl", "updates.jsonl", "checkpoint.json", "record.json"):
            assert (tmp_path / "run" / name).exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        record = read_record(tmp_path / "run")
        assert record.n_params == 100

    def test_stats_snapshot_stream_schema(self, tmp_path):
        cfg = GritConfig(
            task=TASK, steps=20, seed=6, lora_rank=4, kfac_update_freq=5,
            telemetry_every=0, eval_size=64,
        )
        run_experiment(cfg, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "stats.jsonl").read_text().splitlines()
        assert lines
        snap = json.loads(lines[0])
        assert set(snap) == {"step", "layer", "n_cov", "a_cov", "g_cov"}
        assert set(snap["a_cov"]) == set(snap["g_cov"]) == {"shape", "f64"}
        assert snap["a_cov"]["shape"] == snap["g_cov"]["shape"] == [4, 4]
        steps = [json.loads(l)["step"] for l in lines]
        assert all(s % cfg.kfac_update_freq == 0 for s in steps)

    def test_unknown_task_rejected(self):
        cfg = GritConfig(task="mystery_task(d=3)", steps=1)
        with pytest.raises(Exception):
            run_experiment(cfg)

    def test_empty_batch_rejected(self):
        tr, task, cfg = make_trainer(steps=1)
        with pytest.raises(ValidationError):
            tr.train_step((np.zeros((0, 10)), np.zeros((0, 10))), 0)

    def test_non_finite_loss_aborts_with_step_context(self):
        from grit.errors import GritError

        tr, task, cfg = make_trainer(steps=1)
        x, y = task.sample_batch(tr.data_rng, 4)
        with pytest.raises(GritError, match="step 0"), pytest.warns(RuntimeWarning, match="overflow"):
            tr.train_step((x * 1e200, y), 0)

    def test_failed_run_marks_manifest(self, tmp_path):
        from grit.errors import GritError

        cfg = GritConfig(task=TASK, steps=5, seed=1, learning_rate=1e200, eval_size=64,
                         lora_rank=4, telemetry_every=0)
        with pytest.raises(GritError), pytest.warns(RuntimeWarning, match="overflow"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_failed_rerun_leaves_no_earlier_record(self, tmp_path):
        out = tmp_path / "run"
        done = GritConfig(task=TASK, steps=5, seed=0, mode="lora_control", eval_size=64,
                          lora_rank=4, telemetry_every=0)
        run_experiment(done, out_dir=out)
        assert read_record(out).seed == 0
        failing = GritConfig(task=TASK, steps=5, seed=1, mode="lora_control", learning_rate=1e200,
                             eval_size=64, lora_rank=4, telemetry_every=0)
        with pytest.raises(GritError, match="step 0"), pytest.warns(RuntimeWarning, match="overflow"):
            run_experiment(failing, out_dir=out)
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        assert not (out / "record.json").exists()
        assert not (out / "checkpoint.json").exists()
        with pytest.raises(ValidationError, match="no record.json"):
            read_record(out)

    def test_failed_rerun_leaves_no_earlier_audit(self, tmp_path):
        from grit.cli import main as grit_cli

        out = tmp_path / "run"
        done = GritConfig(task=TASK, steps=5, seed=0, mode="lora_control", eval_size=64,
                          lora_rank=4, telemetry_every=1)
        run_experiment(done, out_dir=out)
        assert grit_cli(["--quiet", "audit", str(out)]) == 0
        assert sorted(p.name for p in (out / "audit").iterdir()) == sorted(AUDIT_CSVS)
        (out / "audit" / "notes.txt").write_text("kept")
        failing = GritConfig(task=TASK, steps=5, seed=1, mode="lora_control", learning_rate=1e200,
                             eval_size=64, lora_rank=4, telemetry_every=1)
        with pytest.raises(GritError, match="step 0"), pytest.warns(RuntimeWarning, match="overflow"):
            run_experiment(failing, out_dir=out)
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        assert [p.name for p in (out / "audit").iterdir()] == ["notes.txt"]

    def test_run_beside_a_file_named_audit(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "audit").write_text("not an audit directory")
        cfg = GritConfig(task=TASK, steps=3, seed=0, mode="lora_control", eval_size=64,
                         lora_rank=4, telemetry_every=0)
        run_experiment(cfg, out_dir=out)
        assert (out / "audit").read_text() == "not an audit directory"

    def test_changed_base_weight_fails_run(self, tmp_path, monkeypatch):
        from grit.errors import GritError

        train_step = trainer_module.Trainer.train_step

        def tampering(self, batch, step):
            if step == 2:
                w0 = self.model.layers[0][0].w0
                w0.setflags(write=True)
                w0[0, 0] += 1.0
            return train_step(self, batch, step)

        monkeypatch.setattr(trainer_module.Trainer, "train_step", tampering)
        cfg = GritConfig(task=TASK, steps=5, seed=1, eval_size=64, lora_rank=4, telemetry_every=0)
        with pytest.raises(GritError, match="frozen"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_full_energy_r_eff_within_rank(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "R_EFF_ENERGY", 1.0)
        tr, task, cfg = make_trainer(lora_rank=8, telemetry_every=5)
        run_loop(tr, task, cfg)
        assert tr.records
        assert all(rec.r_eff <= cfg.lora_rank for rec in tr.records)


SMALL_NET = "two_task_forgetting(d=5, hidden=4, pretrain_steps=0, init_jitter=0.2)"


def forbid_oracle_code(monkeypatch):
    """Make every public function of grit.oracles, and the TaskInstance delegates to it, raise."""
    import inspect

    from grit import oracles
    from grit.tasks import TaskInstance

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle code reached from the run path")

    for name, value in vars(oracles).items():
        if inspect.isfunction(value) and value.__module__ == oracles.__name__ and not name.startswith("_"):
            monkeypatch.setattr(oracles, name, forbidden)
    monkeypatch.setattr(TaskInstance, "pt_hessian", forbidden)
    monkeypatch.setattr(TaskInstance, "_pt_grad_at", forbidden)


class TestRunPath:
    @pytest.mark.parametrize("mode", ["grit", "lora_control"])
    @pytest.mark.parametrize("telemetry_every", [0, 5])
    def test_no_dense_hessian_on_the_run_path(self, tmp_path, monkeypatch, mode, telemetry_every):
        # no oracle code at all: neither the dense Hessian nor any other reference helper
        from grit.cli import main

        forbid_oracle_code(monkeypatch)
        cfg = GritConfig(task=SMALL_NET, steps=20, seed=2, mode=mode, lora_rank=2, min_lora_rank=1,
                         eval_size=32, kfac_min_samples=8, telemetry_every=telemetry_every)
        record = run_experiment(cfg, out_dir=tmp_path / "run")
        assert np.isfinite(record.quadratic_forgetting_estimate)
        assert record.quadratic_forgetting_estimate > 0.0
        assert (telemetry_every > 0) == (record.geometry_summary.curvature_exposure != 0.0)
        assert main(["--quiet", "audit", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("task", [TASK, SMALL_NET])
    def test_no_per_sample_curvature_on_the_run_path(self, tmp_path, monkeypatch, task):
        # every layer's H is one d_out x d_out matrix, and no run materializes the C_s
        from grit.telemetry import LayerCurvature

        post_init = LayerCurvature.__post_init__

        def shared_only(self):
            assert self.h.ndim == 2, "per-sample H on the run path"
            post_init(self)

        def forbidden(self):
            raise AssertionError("per-sample blocks materialized on the run path")

        monkeypatch.setattr(LayerCurvature, "__post_init__", shared_only)
        monkeypatch.setattr(LayerCurvature, "c", property(forbidden))
        cfg = GritConfig(task=task, steps=20, seed=2, lora_rank=2, min_lora_rank=1,
                         eval_size=32, kfac_min_samples=8, telemetry_every=5)
        record = run_experiment(cfg, out_dir=tmp_path / "run")
        assert record.geometry_summary.curvature_exposure != 0.0

    def test_fit_law_reaches_no_oracle_code(self, tmp_path, monkeypatch):
        from grit.cli import main
        from grit.oracles import _synthetic_law_records
        from grit.runio import write_record

        base, geometry = _synthetic_law_records(
            np.random.default_rng(0), c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5, gammas=(0.1, 0.5, 0.3)
        )
        dirs = []
        for i, rec in enumerate(base + geometry):
            dirs.append(tmp_path / f"run{i}")
            dirs[-1].mkdir()
            write_record(rec, dirs[-1])
        forbid_oracle_code(monkeypatch)
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 0
        assert out.exists()

    def test_training_without_telemetry_leaves_curvature_unbuilt(self):
        tr, task, cfg = make_trainer(telemetry_every=0)
        run_loop(tr, task, cfg)
        assert task._curvature_cache is None


@pytest.fixture
def opened_streams(monkeypatch):
    """Every JsonlWriter a run opens, telemetry's included."""
    opened = []
    init = JsonlWriter.__init__

    def recording_init(self, path):
        init(self, path)
        opened.append(self)

    monkeypatch.setattr(JsonlWriter, "__init__", recording_init)
    return opened


def assert_closed_whole_lines(streams):
    assert sorted(w.path.name for w in streams) == [
        "events.jsonl", "stats.jsonl", "telemetry.jsonl", "updates.jsonl"
    ]
    for writer in streams:
        with pytest.raises(ValueError, match="closed file"):
            writer.append({})
        text = writer.path.read_text()
        assert text == "" or text.endswith("\n")
        for line in text.splitlines():
            json.loads(line)


class TestRunStreams:
    def test_closed_after_a_complete_run(self, tmp_path, opened_streams):
        cfg = GritConfig(task=TASK, steps=20, seed=9, lora_rank=4, telemetry_every=10, eval_size=64,
                         kfac_update_freq=5, kfac_min_samples=16)
        run_experiment(cfg, out_dir=tmp_path / "run")
        assert_closed_whole_lines(opened_streams)
        assert all(w.path.read_text() for w in opened_streams)

    def test_closed_after_a_failed_run(self, tmp_path, opened_streams):
        from grit.errors import GritError

        cfg = GritConfig(task=TASK, steps=5, seed=1, learning_rate=1e200, eval_size=64,
                         lora_rank=4, telemetry_every=0)
        with pytest.raises(GritError), pytest.warns(RuntimeWarning, match="overflow"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        assert_closed_whole_lines(opened_streams)

    def test_closed_after_a_raise_before_the_step_loop(self, tmp_path, opened_streams, monkeypatch):
        def failing_probe(task, model):
            raise OSError("disk full")

        # the first call after the streams are opened
        monkeypatch.setattr(tasks_module.TaskInstance, "pt_loss", failing_probe)
        cfg = GritConfig(task=TASK, steps=5, seed=1, eval_size=64, lora_rank=4)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        assert_closed_whole_lines(opened_streams)


class TestArrayStreams:
    TWO_LAYER = "two_task_forgetting(d=8, hidden=8, pretrain_steps=0, ft_noise=0)"

    def test_stats_lines_decode_to_the_trainer_covariances(self, tmp_path):
        tr, task, cfg = make_trainer(run_dir=tmp_path, mode="grit", task=self.TWO_LAYER, steps=30)
        expected = []
        with tr:
            for step in range(cfg.steps):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
                if step % cfg.kfac_update_freq == 0:
                    expected += [(step, idx, s.n_cov, s.a_cov.copy(), s.g_cov.copy())
                                 for idx, s in enumerate(tr.stats)]
        lines = read_jsonl(tmp_path / "stats.jsonl")
        assert len(lines) == len(expected) == 2 * 6
        for line, (step, idx, n_cov, a_cov, g_cov) in zip(lines, expected):
            assert (line["step"], line["layer"], line["n_cov"]) == (step, idx, n_cov)
            for field, cov in (("a_cov", a_cov), ("g_cov", g_cov)):
                decoded = decode_array(line[field])
                assert decoded.shape == cov.shape == (4, 4)
                assert decoded.tobytes() == cov.tobytes()

    def test_update_lines_decode_to_the_scaled_adapter_update(self, tmp_path):
        tr, task, cfg = make_trainer(run_dir=tmp_path, mode="grit", task=self.TWO_LAYER,
                                     steps=30, telemetry_every=10)
        expected = []
        with tr:
            for step in range(cfg.steps):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
                if step % cfg.telemetry_every == 0:
                    expected += [(step, idx, adapter.scaling * (adapter.b @ adapter.a).ravel())
                                 for idx, (_, adapter) in enumerate(tr.model.layers)]
        lines = read_jsonl(tmp_path / "updates.jsonl")
        assert len(lines) == len(expected) == 2 * 3
        for line, (step, idx, delta) in zip(lines, expected):
            assert (line["step"], line["layer"]) == (step, idx)
            assert line["delta_w"]["shape"] == [64]
            decoded = decode_array(line["delta_w"])
            assert decoded.shape == delta.shape == (64,)
            assert decoded.tobytes() == delta.tobytes()


def assert_same_bytes(run, other, *names):
    """The two run directories hold the same bytes in checkpoint.json, stats.jsonl, updates.jsonl, record.json and names."""
    for name in ("checkpoint.json", "stats.jsonl", "updates.jsonl", "record.json", *names):
        assert (run / name).read_bytes() == (other / name).read_bytes(), name


class TestPreconditionEvents:
    def test_logged_once_at_the_first_preconditioned_step(self, tmp_path, monkeypatch):
        tr, task, cfg = make_trainer(run_dir=tmp_path, mode="grit", steps=80, telemetry_every=0)
        calls = []  # the step of each precondition call

        def recording(ga, gb, stats):
            calls.append(step)
            return precondition(ga, gb, stats)

        monkeypatch.setattr(trainer_module, "precondition", recording)
        with tr:
            for step in range(cfg.steps):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
        first = calls[0]
        assert first > 0 and sorted(set(calls)) == list(range(first, cfg.steps))
        logged = [e for e in tr.events if e["action"].startswith("precondition")]
        assert logged == [{"step": first, "action": "precondition"}]
        assert read_jsonl(tmp_path / "events.jsonl") == tr.events

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identity_preconditioner_is_the_run_without_inverses(self, tmp_path, monkeypatch, seed):
        """The step calls trainer.precondition by that name, and nothing else reads the inverses.

        So an identity there gives the bytes of a sample gate the run never
        meets, apart from the invert and precondition events.
        """
        with monkeypatch.context() as patch:
            patch.setattr(trainer_module, "precondition", lambda ga, gb, stats: (ga, gb))
            run_experiment(study.study_config("grit", seed), tmp_path / "identity")
        run_experiment(study.study_config("grit", seed, kfac_min_samples=10**9), tmp_path / "gated")
        assert_same_bytes(tmp_path / "identity", tmp_path / "gated", "telemetry.jsonl")
        events = {
            run: (tmp_path / run / "events.jsonl").read_text().splitlines() for run in ("identity", "gated")
        }
        kept = [line for line in events["identity"] if json.loads(line)["action"] not in ("invert", "precondition")]
        assert kept == events["gated"]
        assert len(kept) < len(events["identity"])  # the identity run did make inverses

    def test_zeroed_entries_are_logged_per_layer(self, tmp_path):
        tr, task, cfg = make_trainer(run_dir=tmp_path, mode="grit", steps=12, telemetry_every=0)
        with tr:
            for step in range(cfg.steps - 1):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            assert tr.stats[0].inv_ready and tr.stats[0].sanitized_count == 0
            assert "sanitize" not in [e["action"] for e in tr.events]
            # step 11 does not accumulate, so no refresh replaces the planted inverse
            inv_a = tr.stats[0].inv_a.copy()
            inv_a[1, 2] = np.inf
            tr.stats[0].inv_a = inv_a
            with pytest.warns(RuntimeWarning):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), 11)
        d_in = tr.model.layers[0][1].a.shape[1]
        # row 1 of inv_a @ grad_a is non-finite in every column
        assert tr.stats[0].sanitized_count == d_in
        sanitized = [e for e in tr.events if e["action"] == "sanitize"]
        assert sanitized == [{"step": 11, "action": "sanitize", "layer": 0, "count": d_in}]
        assert read_jsonl(tmp_path / "events.jsonl") == tr.events
        assert np.all(np.isfinite(tr.model.layers[0][1].a))


class TestRankSpectraSeam:
    """of_each reads the rank's input through reprojection.rank_spectra alone, and the telemetry records that input."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_spectrum_is_the_fixed_k_run(self, tmp_path, monkeypatch, seed):
        """A flat spectrum's energies are j / r, so at tau = 0.85 and r = 8 its k is 7 (E(6) = 0.75, E(7) = 0.875)."""
        with monkeypatch.context() as patch:
            patch.setattr(
                reprojection_module, "rank_spectra", lambda decomps: np.ones((len(decomps) // 2, decomps[0].dim))
            )
            run_experiment(study.study_config("grit", seed), tmp_path / "flat")
        fixed = study.study_config("grit", seed, rank_adaptation_start_step=10**9, reprojection_k=7)
        run_experiment(fixed, tmp_path / "fixed")
        assert fixed.rank_adaptation_threshold == 0.85 and fixed.lora_rank == 8
        assert_same_bytes(tmp_path / "flat", tmp_path / "fixed", "events.jsonl")
        records = {run: telemetry_module.read_telemetry(tmp_path / run / "telemetry.jsonl") for run in ("flat", "fixed")}
        assert [dataclasses.replace(rec, spectrum=[]) for rec in records["flat"]] == [
            dataclasses.replace(rec, spectrum=[]) for rec in records["fixed"]
        ]
        assert records["flat"] and all(rec.spectrum == [1.0] * 8 for rec in records["flat"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("source", ["a_cov", "g_cov"])
    def test_audit_energy_curve_gives_k(self, tmp_path, monkeypatch, seed, source):
        """At each reprojection step, k is read off cumulative_energy.csv as the rank rule reads it, whatever the source."""
        from grit.cli import main

        config = study.study_config("grit", seed, telemetry_every=40)
        with monkeypatch.context() as patch:
            if source == "g_cov":
                patch.setattr(
                    reprojection_module, "rank_spectra",
                    lambda decomps: np.array([decomp.eigenvalues for decomp in decomps[1::2]]),
                )
            run_experiment(config, tmp_path / "run")
        assert main(["--quiet", "audit", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "audit" / "cumulative_energy.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["step", "layer", "index", "energy"]
        curves = {}
        for step, layer, _, energy in rows:
            curves.setdefault((int(step), int(layer)), []).append(float(energy))
        reach = config.rank_adaptation_threshold * (1.0 - 16 * np.finfo(np.float64).eps)
        reprojected = [
            rec for rec in telemetry_module.read_telemetry(tmp_path / "run" / "telemetry.jsonl")
            if rec.step >= config.reprojection_warmup_steps and rec.step % config.reprojection_freq == 0
        ]
        assert len(reprojected) == 22
        for rec in reprojected:
            k = next(j for j, energy in enumerate(curves[rec.step, rec.layer], start=1) if energy >= reach)
            assert max(k, config.min_lora_rank) == rec.k_selected, (rec.step, rec.layer)


class TestInvertEvents:
    def test_rungs_and_condition_numbers_match_references(self, tmp_path):
        tr, task, cfg = make_trainer(
            run_dir=tmp_path, task=TestOnePassStep.TWO_LAYER, telemetry_every=0,
        )
        with tr:
            run_loop(tr, task, cfg)
        inverts = [e for e in read_jsonl(tmp_path / "events.jsonl") if e["action"] == "invert"]
        covs = {(line["step"], line["layer"]): line for line in read_jsonl(tmp_path / "stats.jsonl")}
        assert len(inverts) >= 8
        eye = np.eye(cfg.lora_rank)
        for event in inverts:
            assert len(event["rung"]) == len(event["cond_a"]) == len(event["cond_g"]) == 2
            for layer, rungs in enumerate(event["rung"]):
                line = covs[(event["step"], layer)]
                for cov, rung, cond in (
                    (decode_array(line["a_cov"]), rungs[0], event["cond_a"][layer]),
                    (decode_array(line["g_cov"]), rungs[1], event["cond_g"][layer]),
                ):
                    _, ref_rung = damped_solve(cov, cfg.kfac_damping, eye)
                    assert rung == ref_rung
                    shifted = symmetrize(cov) + rung * cfg.kfac_damping * eye
                    assert np.isclose(cond, np.linalg.cond(shifted), rtol=1e-8, atol=0.0)
        # the last event describes the inverses the statistics hold
        assert [list(st.rung) for st in tr.stats] == inverts[-1]["rung"]
        assert [st.cond[0] for st in tr.stats] == inverts[-1]["cond_a"]

    def test_inverses_match_damped_solve(self):
        tr, task, cfg = make_trainer(task=TestOnePassStep.TWO_LAYER, telemetry_every=0)
        run_loop(tr, task, cfg)
        eye = np.eye(cfg.lora_rank)
        for stats in tr.stats:
            for inv, cov in ((stats.inv_a, stats.a_cov), (stats.inv_g, stats.g_cov)):
                ref, _ = damped_solve(cov, cfg.kfac_damping, eye)
                assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)


class TestNonFiniteParameters:
    def test_overflowed_update_fails_the_step_with_clean_streams(self, tmp_path):
        cfg = GritConfig(
            task="synthetic_lowrank(d=10)", steps=5, seed=0, eval_size=64,
            learning_rate=1e200, reprojection_warmup_steps=0,
        )

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        # the step-0 update is about 1e200 per entry: finite, but its squares overflow
        with pytest.raises(GritError, match="non-finite parameters at step 0"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        run = tmp_path / "run"
        assert json.loads((run / "manifest.json").read_text())["status"] == "failed"
        lines = (run / "events.jsonl").read_text().splitlines()
        events = [json.loads(line, parse_constant=reject) for line in lines]
        assert all(e["step"] == 0 for e in events)
        assert "reproject" not in [e["action"] for e in events]


class TestRunLifecycle:
    def run_with_step(self, tmp_path, monkeypatch, raising_step):
        train_step = trainer_module.Trainer.train_step

        def step(self, batch, step):
            if step == 2:
                raising_step()
            return train_step(self, batch, step)

        monkeypatch.setattr(trainer_module.Trainer, "train_step", step)
        cfg = GritConfig(task=TASK, steps=5, seed=1, eval_size=64, lora_rank=4, telemetry_every=0)
        return run_experiment(cfg, out_dir=tmp_path / "run")

    def manifest_status(self, tmp_path):
        return json.loads((tmp_path / "run" / "manifest.json").read_text())["status"]

    def test_any_exception_in_the_step_loop_marks_failed(self, tmp_path, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            self.run_with_step(tmp_path, monkeypatch, boom)
        assert self.manifest_status(tmp_path) == "failed"

    def test_interrupt_marks_interrupted(self, tmp_path, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.run_with_step(tmp_path, monkeypatch, interrupt)
        assert self.manifest_status(tmp_path) == "interrupted"

    def test_interrupt_closes_the_streams(self, tmp_path, monkeypatch, opened_streams):
        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.run_with_step(tmp_path, monkeypatch, interrupt)
        assert_closed_whole_lines(opened_streams)

    def test_a_rerun_that_cannot_open_its_streams_is_marked_failed(self, tmp_path, opened_streams):
        from grit.cli import main

        out = tmp_path / "run"
        cfg = GritConfig(task=TASK, steps=50, seed=0, eval_size=64, lora_rank=4, min_lora_rank=2,
                         kfac_update_freq=5, kfac_min_samples=16, telemetry_every=10)
        run_experiment(cfg, out_dir=out)
        assert main(["--quiet", "audit", str(out)]) == 0
        (out / "stats.jsonl").unlink()
        (out / "stats.jsonl").mkdir()
        opened_streams.clear()
        with pytest.raises(IsADirectoryError):
            run_experiment(dataclasses.replace(cfg, seed=1), out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["seed"]) == ("failed", 1)
        assert not (out / "record.json").exists()
        assert not (out / "checkpoint.json").exists()
        assert not any((out / "audit" / name).exists() for name in AUDIT_CSVS)
        # the streams opened before stats.jsonl are closed again
        assert sorted(w.path.name for w in opened_streams) == ["events.jsonl", "telemetry.jsonl"]
        for writer in opened_streams:
            with pytest.raises(ValueError, match="closed file"):
                writer.append({})
        assert main(["--quiet", "audit", str(out)]) == 1

    def test_failure_after_training_marks_failed(self, tmp_path, monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(trainer_module, "save_checkpoint", disk_full)
        cfg = GritConfig(task=TASK, steps=5, seed=1, eval_size=64, lora_rank=4, telemetry_every=0)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        assert self.manifest_status(tmp_path) == "failed"
        assert not (tmp_path / "run" / "record.json").exists()


class TestUpdateFold:
    """The update covariance, folded a block of steps at a time, equals its per-step sum bit for bit."""

    CASES = {
        "two_layer_mid_block": dict(task="two_task_forgetting(d=10, hidden=6, pretrain_steps=0)",
                                    telemetry_every=7, reprojection_freq=12),
        "two_layer_no_telemetry": dict(task="two_task_forgetting(d=10, hidden=6, pretrain_steps=0)",
                                       telemetry_every=0, reprojection_freq=12),
        "synthetic_mid_block": dict(telemetry_every=7, reprojection_freq=12),
        "synthetic_no_telemetry": dict(telemetry_every=0, reprojection_freq=12),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_per_step_sum_at_every_read(self, monkeypatch, case):
        reads = []  # (step, the update covariances the telemetry pass computed for that step's snapshot)
        sym_eig_stack_ = trainer_module.sym_eig_stack

        def recording_decomps(mats, labels):
            n_layers = len(tr.monitors)
            for start in range(0, len(mats), n_layers):
                reads.append((int(labels[start].rsplit(" ", 1)[1]), mats[start : start + n_layers].copy()))
            return sym_eig_stack_(mats, labels)

        monkeypatch.setattr(trainer_module, "sym_eig_stack", recording_decomps)
        tr, task, cfg = make_trainer(
            mode="grit", steps=70, reprojection_warmup_steps=24, **self.CASES[case]
        )
        updates = []

        def recording_step(params, grads, _step=tr.optimizer.step):
            new = _step(params, grads)
            updates.append(new - params)
            return new

        tr.optimizer.step = recording_step
        shapes = [(adapter.a.shape, adapter.b.shape) for _, adapter in tr.model.layers]
        reference = np.zeros((len(shapes), cfg.lora_rank, cfg.lora_rank))
        expected_reads = []
        folded = resets = 0
        for step in range(cfg.steps):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            start = 0
            for idx, (a_shape, b_shape) in enumerate(shapes):
                mid = start + int(np.prod(a_shape))
                end = mid + int(np.prod(b_shape))
                delta_a = updates[-1][start:mid].reshape(a_shape)
                delta_b = updates[-1][mid:end].reshape(b_shape)
                reference[idx] += delta_a @ delta_a.T + delta_b.T @ delta_b
                start = end
            if cfg.telemetry_every and step % cfg.telemetry_every == 0:
                expected_reads.append((step, reference.copy()))
            for event in tr.events:
                if event["action"] == "reproject" and event["step"] == step:
                    reference[event["layer"]] = 0.0
                    resets += 1
            if tr._pending == 0:  # just folded: at a block's end or a reset
                assert tr._update_cov.tobytes() == reference.tobytes()
                folded += 1
        assert resets > 0 and folded > 0
        tr.records  # the snapshots still pending
        assert len(reads) == len(expected_reads)
        for (step, got), (want_step, want) in zip(reads, expected_reads):
            assert step == want_step and got.tobytes() == want.tobytes()
        assert tr.update_covariances().tobytes() == reference.tobytes()

    def test_fold_waits_for_a_full_block(self):
        tr, task, cfg = make_trainer(mode="lora_control", telemetry_every=0)
        for step in range(trainer_module.UPDATE_BLOCK - 1):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            assert tr._pending == step + 1
            assert np.all(tr._update_cov == 0.0)
        tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), trainer_module.UPDATE_BLOCK - 1)
        assert tr._pending == 0 and np.any(tr._update_cov != 0.0)


class TestTelemetryBlocks:
    """A telemetry step snapshots what its records read; a block of snapshots is computed in one pass."""

    TWO_LAYER = dict(task="two_task_forgetting(d=10, hidden=6)", mode="grit", reprojection_warmup_steps=24)
    # telemetry every 7 steps and reprojection every 12: snapshots taken mid-block, with resets between them
    MID_BLOCK = dict(TWO_LAYER, telemetry_every=7, reprojection_freq=12)

    @pytest.mark.parametrize(
        "config",
        [
            study.study_config("grit", 0, steps=120, telemetry_every=1),
            make_config(steps=120, telemetry_every=1, **TWO_LAYER),
            make_config(steps=120, **MID_BLOCK),
        ],
        ids=["criterion8", "two_layer", "two_layer_mid_block"],
    )
    def test_block_size_leaves_the_bytes(self, tmp_path, monkeypatch, config):
        outputs = []
        for block in (1, 3, 16):  # block 1 computes each telemetry step's records in its own step
            monkeypatch.setattr(trainer_module, "TELEMETRY_BLOCK", block)
            tr, task, cfg = trainer_for(config, tmp_path / f"block{block}")
            with tr:
                run_loop(tr, task, cfg)
            outputs.append(
                [(tmp_path / f"block{block}" / name).read_bytes() for name in ("telemetry.jsonl", "updates.jsonl")]
                + [repr(tr.records)]
            )
        # telemetry steps fall on accumulations and applied reprojections
        assert {"accumulate", "reproject"} <= {e["action"] for e in tr.events}
        assert len(tr.records) == len(range(0, 120, tr.config.telemetry_every)) * len(tr.monitors)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_a_telemetry_step_only_copies(self, monkeypatch):
        constructed = []
        post_init = AdapterPair.__post_init__

        def counting_post_init(adapter):
            constructed.append(adapter)
            post_init(adapter)

        emit = trainer_module.Trainer._emit_telemetry
        seen = []  # per telemetry step: the pending count and covariances before and after, and AdapterPairs built

        def checked(self, step):
            before = (self._pending, self._update_cov.tobytes())
            constructed.clear()
            emit(self, step)
            seen.append((before, (self._pending, self._update_cov.tobytes()), len(constructed)))

        monkeypatch.setattr(AdapterPair, "__post_init__", counting_post_init)
        monkeypatch.setattr(trainer_module.Trainer, "_emit_telemetry", checked)
        tr, task, cfg = make_trainer(**self.MID_BLOCK, steps=60)
        run_loop(tr, task, cfg)
        assert any(before[0] > 0 for before, _, _ in seen)  # snapshots with updates pending
        assert all(after == before and built == 0 for before, after, built in seen)

    def test_a_block_holds_a_bounded_number_of_pending_updates(self, monkeypatch):
        held = []  # after each telemetry step: the pending updates of its snapshot, and of every pending one
        emit = trainer_module.Trainer._emit_telemetry

        def counting(self, step):
            emit(self, step)
            held.append((len(self._snapshots[-1].pending), sum(len(snap.pending) for snap in self._snapshots)))

        monkeypatch.setattr(trainer_module.Trainer, "_emit_telemetry", counting)
        tr, task, cfg = make_trainer(**self.TWO_LAYER, steps=60, telemetry_every=1)
        run_loop(tr, task, cfg)
        own, block = zip(*held)
        assert max(own) == trainer_module.UPDATE_BLOCK - 1
        assert max(block) <= trainer_module.TELEMETRY_BLOCK * (trainer_module.UPDATE_BLOCK - 1)

    def test_a_reprojection_step_records_the_reprojected_update(self, tmp_path):
        tr, task, cfg = make_trainer(run_dir=tmp_path, telemetry_every=20, reprojection_freq=20, steps=60)
        trained = []  # the optimizer's new parameters, which reprojection replaces

        def recording_step(params, grads, _step=tr.optimizer.step):
            trained.append(_step(params, grads))
            return trained[-1]

        tr.optimizer.step = recording_step
        expected, stale = [], []
        with tr:
            for step in range(cfg.steps):
                tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
                if step % cfg.telemetry_every == 0:
                    (_, adapter), = tr.model.layers
                    expected.append(adapter.scaling * (adapter.b @ adapter.a).ravel())
                    a_cols, b_cols = tr._layer_columns[0]
                    a = trained[-1][a_cols].reshape(adapter.a.shape)
                    b = trained[-1][b_cols].reshape(adapter.b.shape)
                    stale.append(adapter.scaling * (b @ a).ravel())
        reprojected = {e["step"] for e in tr.events if e["action"] == "reproject"}
        assert reprojected & {20, 40}
        assert any(e.tobytes() != s.tobytes() for e, s in zip(expected, stale))
        lines = read_jsonl(tmp_path / "updates.jsonl")
        assert [decode_array(line["delta_w"]).tobytes() for line in lines] == [e.tobytes() for e in expected]

    def test_records_read_mid_run_hold_every_telemetry_step(self):
        tr, task, cfg = make_trainer(**self.TWO_LAYER, steps=40, telemetry_every=1)
        n_layers = len(tr.monitors)
        for step in range(cfg.steps):
            tr.train_step(task.sample_batch(tr.data_rng, cfg.batch_size), step)
            if step % 3 == 0:
                assert [(r.step, r.layer) for r in tr.records] == [
                    (s, idx) for s in range(step + 1) for idx in range(n_layers)
                ]
                assert tr._snapshots == []

    def test_no_more_than_a_block_is_pending(self, monkeypatch):
        pending = []
        emit = trainer_module.Trainer._emit_telemetry

        def counting(self, step):
            emit(self, step)
            pending.append(len(self._snapshots))

        monkeypatch.setattr(trainer_module.Trainer, "_emit_telemetry", counting)
        tr, task, cfg = make_trainer(steps=50, telemetry_every=1)
        run_loop(tr, task, cfg)
        assert max(pending) == trainer_module.TELEMETRY_BLOCK
        assert len(tr._snapshots) == cfg.steps % trainer_module.TELEMETRY_BLOCK

    def test_a_decomposition_error_names_the_layer_and_the_step(self):
        tr, task, cfg = make_trainer(**self.TWO_LAYER, steps=12, telemetry_every=2)
        run_loop(tr, task, cfg)
        tr._snapshots[3].update_cov[1, 0, 0] = np.nan
        with pytest.raises(DecompositionError, match="update covariance of layer 1 at step 6"):
            tr.records

    def test_a_failed_run_keeps_its_telemetry(self, tmp_path, monkeypatch):
        cfg = GritConfig(task=TASK, steps=60, seed=0, eval_size=64, lora_rank=4, min_lora_rank=2,
                         kfac_update_freq=5, kfac_min_samples=16, telemetry_every=2)
        run_experiment(cfg, out_dir=tmp_path / "complete")
        step = trainer_module.AdamW.step

        def failing(self, params, grads):
            if self.t == 37:  # the step count before this step's increment
                raise RuntimeError("boom")
            return step(self, params, grads)

        monkeypatch.setattr(trainer_module.AdamW, "step", failing)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(cfg, out_dir=tmp_path / "failed")
        assert json.loads((tmp_path / "failed" / "manifest.json").read_text())["status"] == "failed"
        for name in ("telemetry.jsonl", "updates.jsonl"):
            failed = (tmp_path / "failed" / name).read_text().splitlines()
            complete = (tmp_path / "complete" / name).read_text().splitlines()
            # 19 telemetry steps, 0 to 36: one block of 16 flushed at step 30, three at the exit
            assert len(failed) == (name == "telemetry.jsonl") + 19
            assert failed == complete[: len(failed)]

    def test_a_failed_exit_flush_is_noted_on_the_exception(self, monkeypatch, opened_streams, tmp_path):
        def failing_exposure(*args):
            raise ValueError("no exposure")

        monkeypatch.setattr(trainer_module, "exposure_from_basis", failing_exposure)
        tr, task, cfg = make_trainer(run_dir=tmp_path, steps=3, telemetry_every=1)
        with pytest.raises(RuntimeError, match="boom") as info, tr:
            run_loop(tr, task, cfg)
            raise RuntimeError("boom")
        assert any("no exposure" in note for note in info.value.__notes__)
        assert_closed_whole_lines(opened_streams)

    def test_a_flush_error_in_a_step_is_not_raised_again_at_exit(self, monkeypatch, tmp_path):
        def failing_exposure(*args):
            raise ValueError("no exposure")

        monkeypatch.setattr(trainer_module, "exposure_from_basis", failing_exposure)
        tr, task, cfg = make_trainer(run_dir=tmp_path, steps=trainer_module.TELEMETRY_BLOCK, telemetry_every=1)
        with pytest.raises(ValueError, match="no exposure") as info, tr:
            run_loop(tr, task, cfg)
        assert not getattr(info.value, "__notes__", [])
        assert tr._snapshots == []

    def test_a_failed_exit_flush_is_raised_after_a_clean_block(self, monkeypatch):
        def failing_exposure(*args):
            raise ValueError("no exposure")

        monkeypatch.setattr(trainer_module, "exposure_from_basis", failing_exposure)
        tr, task, cfg = make_trainer(steps=1, telemetry_every=1)
        with pytest.raises(ValueError, match="no exposure"), tr:
            run_loop(tr, task, cfg)


class TestMedian:
    @pytest.mark.parametrize(
        "values",
        [[3.0], [2.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0], [5.0, 1.0, 5.0, 5.0, 0.0],
         [0.1, 0.2], [1e-310, 3e-310], [0.0, 1.0, 1.0, 0.0, 1.0, 1.0]],
    )
    def test_bitwise_np_median(self, values):
        values = np.array(values)
        assert np.float64(median(values)).tobytes() == np.float64(np.median(values)).tobytes()

    def test_bitwise_np_median_on_random_vectors(self):
        rng = np.random.default_rng(31)
        for n in list(range(1, 40)) + [64, 255, 256, 2304]:
            for values in (
                np.abs(rng.normal(size=n)),
                rng.integers(0, 4, size=n) * 0.1,  # ties and zeros
                np.where(rng.random(n) < 0.5, 0.0, rng.random(n)),
            ):
                assert np.float64(median(values)).tobytes() == np.float64(np.median(values)).tobytes()

    def test_run_and_audit_leave_numpy_ma_unimported(self, tmp_path):
        script = (
            "import sys\n"
            "from grit.cli import main\n"
            "from grit.config import GritConfig\n"
            "from grit.trainer import run_experiment\n"
            f"cfg = GritConfig(task={TASK!r}, steps=12, seed=0, lora_rank=4, min_lora_rank=2,"
            " telemetry_every=5, eval_size=64)\n"
            "run = sys.argv[1]\n"
            "run_experiment(cfg, run)\n"
            "assert 'numpy.ma' not in sys.modules, 'run_experiment imported numpy.ma'\n"
            "assert main(['--quiet', 'audit', run]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'grit audit imported numpy.ma'\n"
        )
        src = str(Path(trainer_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "run")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestStreamGroups:
    """Each accumulation's stats lines, and each step's group of events, reach their stream in one append."""

    def test_one_append_per_accumulation_and_event_group(self, tmp_path, monkeypatch):
        appends = []
        append = JsonlWriter.append

        def recording(self, *objs):
            appends.append((self.path.name, objs))
            append(self, *objs)

        monkeypatch.setattr(JsonlWriter, "append", recording)
        tr, task, cfg = make_trainer(
            run_dir=tmp_path, mode="grit", task=TestOnePassStep.TWO_LAYER,
            reprojection_warmup_steps=0, telemetry_every=0,
        )
        with tr:
            run_loop(tr, task, cfg)
        n_layers = len(tr.model.layers)
        # stats lines are appended already encoded (runio.stats_line)
        stats = [[json.loads(line) for line in objs] for name, objs in appends if name == "stats.jsonl"]
        accumulations = [e["step"] for e in tr.events if e["action"] == "accumulate"]
        assert [[line["step"] for line in objs] for objs in stats] == [[s] * n_layers for s in accumulations]
        events = [objs for name, objs in appends if name == "events.jsonl"]
        groups = [[e["action"] for e in objs] for objs in events]
        assert ["accumulate", "invert"] in groups
        # preconditioning starts with the first inverses, in the first invert step's append
        first_invert = next(i for i, group in enumerate(groups) if "invert" in group)
        assert groups[first_invert] == ["accumulate", "invert", "precondition"]
        assert sum("precondition" in group for group in groups) == 1
        assert ["reproject"] * n_layers in groups or ["reproject_gated"] * n_layers in groups
        for objs in events:
            assert len({e["step"] for e in objs}) == 1
            actions = [e["action"] for e in objs]
            assert actions in (
                ["accumulate"], ["accumulate", "invert"], ["accumulate", "invert", "precondition"], ["sanitize"]
            ) or (
                len(actions) == n_layers and set(actions) <= {"reproject", "reproject_gated"}
            )
        assert [e for objs in events for e in objs] == tr.events

    @pytest.mark.parametrize(
        "seed, overrides",
        [(0, {}), (1, {}), (2, {}), (0, dict(ng_warmup_steps=100, reprojection_warmup_steps=0))],
        ids=["criterion8_s0", "criterion8_s1", "criterion8_s2", "ng_warmup_s0"],
    )
    def test_preconditioning_starts_in_the_first_invert_step(self, tmp_path, seed, overrides):
        """That step accumulates and makes every layer's first inverses, so it is the first that preconditions."""
        run_experiment(study.study_config("grit", seed, **overrides), tmp_path)
        events = read_jsonl(tmp_path / "events.jsonl")
        first = next(i for i, event in enumerate(events) if event["action"] == "invert")
        assert events[first + 1] == {"step": events[first]["step"], "action": "precondition"}
        assert [event["action"] for event in events].count("precondition") == 1
