import dataclasses
from pathlib import Path

import numpy as np
import pytest

from grit import tasks
from grit import trainer as trainer_module
from grit.config import GritConfig
from grit.errors import ConfigError
from grit.model import squared_error, zero_adapter_model
from grit.oracles import base_weight_vector, delta_w_vector, layer_slices, pt_grad_at
from grit.tasks import build_task, parse_task_spec
from grit.trainer import run_experiment, seed_stream


def build(spec, seed=0, rank=4, eval_size=64):
    return build_task(
        spec, rank=rank, alpha=1.0, eval_size=eval_size,
        model_rng=seed_stream(seed, "model"), data_rng=seed_stream(seed, "task-data"),
    )


class TestParseSpec:
    def test_bare_name(self):
        assert parse_task_spec("synthetic_lowrank") == ("synthetic_lowrank", {})

    def test_with_args(self):
        name, params = parse_task_spec("synthetic_lowrank(d=8, r_true=2, noise=0.1)")
        assert name == "synthetic_lowrank"
        assert params == {"d": 8.0, "r_true": 2.0, "noise": 0.1}

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            parse_task_spec("mystery(d=2)")

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_task_spec("synthetic_lowrank(d)")

    @pytest.mark.parametrize(
        "spec",
        [
            "synthetic_lowrank(dd=6)",
            "two_task_forgetting(r_true=2)",
            "synthetic_lowrank(d=6.5)",
            "two_task_forgetting(pretrain_steps=1e-3)",
            "synthetic_lowrank(d=4, d=5)",
            "synthetic_lowrank(noise=nan)",
            "synthetic_lowrank(d=inf)",
        ],
    )
    def test_undeclared_duplicate_or_mistyped_argument(self, spec):
        with pytest.raises(ConfigError) as info:
            parse_task_spec(spec)
        assert info.value.key == "task"

    def test_integer_arguments_parse_as_int(self):
        _, params = parse_task_spec("two_task_forgetting(d=8, hidden=1e1, ft_noise=0)")
        assert params == {"d": 8, "hidden": 10, "ft_noise": 0.0}
        assert all(isinstance(params[k], int) for k in ("d", "hidden"))

    @pytest.mark.parametrize("spec", ["synthetic_lowrank(d=3)", "two_task_forgetting(d=8, hidden=3)"])
    def test_rank_above_layer_width(self, spec):
        with pytest.raises(ConfigError) as info:
            build(spec, rank=4)
        assert info.value.key == "lora_rank"


class TestDocumentedSignatures:
    @pytest.mark.parametrize("name", sorted(tasks._TASKS))
    def test_readme_and_docstring_show_the_declared_defaults(self, name):
        arguments = ", ".join(f"{f.name}={f.default!r}" for f in dataclasses.fields(tasks._TASKS[name]))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for text in (readme, tasks.__doc__):
            assert f"{name}({arguments})" in " ".join(text.split())


class TestSyntheticLowrank:
    def test_inputs_concentrate_on_planted_subspace(self):
        task = build("synthetic_lowrank(d=16, r_true=2, noise=0.01)")
        rng = seed_stream(0, "probe")
        x, _ = task.sample_batch(rng, 512)
        cov = x.T @ x / 512
        eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert eigs[:2].sum() / eigs.sum() > 0.98

    def test_pt_loss_zero_at_init(self):
        task = build("synthetic_lowrank(d=10, r_true=2, noise=0.05)")
        assert task.pt_loss(task.model) == 0.0

    def test_n_params(self):
        task = build("synthetic_lowrank(d=10)")
        assert task.n_params == 100

    def test_n_params_counts_every_base_weight(self):
        task = build("two_task_forgetting(d=6, hidden=4, pretrain_steps=0)", rank=2)
        assert task.n_params == 4 * 6 + 6 * 4 == sum(base.w0.size for base, _ in task.model.layers)


class TestTwoTaskForgetting:
    def test_base_starts_at_pretraining_optimum(self):
        task = build("two_task_forgetting(d=8, hidden=8, pretrain_steps=50)")
        assert task.pt_loss(task.model) < 1e-20

    def test_pretraining_gradient_vanishes(self):
        task = build("two_task_forgetting(d=8, hidden=8, pretrain_steps=50)")
        grad = pt_grad_at(task, base_weight_vector(task.model))
        assert np.max(np.abs(grad)) < 1e-12

    @pytest.mark.parametrize("d", [8, 48])
    def test_pretraining_at_fixed_point_leaves_teacher_weights(self, d):
        # init_jitter = 0: no pretraining step runs, whatever the bound
        bases = [
            [base.w0 for base, _ in build(
                f"two_task_forgetting(d={d}, hidden={d}, pretrain_steps={steps})"
            ).model.layers]
            for steps in (0, 1, 100)
        ]
        for weights in bases[1:]:
            assert all(np.array_equal(w, ref) for w, ref in zip(weights, bases[0]))

    def test_pretraining_trains_off_the_fixed_point(self):
        spec = "two_task_forgetting(d=8, hidden=8, pretrain_steps={}, init_jitter=0.3)"
        start, trained = build(spec.format(0)), build(spec.format(5))
        for (base, _), (start_base, _) in zip(trained.model.layers, start.model.layers):
            assert not np.array_equal(base.w0, start_base.w0)
        assert trained.pt_loss(trained.model) < start.pt_loss(start.model)

    def test_finetune_targets_differ_from_teacher(self):
        task = build("two_task_forgetting(d=8, hidden=8, pretrain_steps=0)")
        rng = seed_stream(0, "probe")
        x, y = task.sample_batch(rng, 64)
        base_pred = task.model.forward(x)
        assert np.linalg.norm(y - base_pred) > 0.1

    def test_hessian_is_psd(self):
        task = build("two_task_forgetting(d=6, hidden=6, pretrain_steps=0)")
        h1 = task.pt_hessian()
        eigs = np.linalg.eigvalsh(h1)
        assert eigs.min() > -1e-8
        assert h1.shape == (72, 72)

    def test_quadratic_matches_exact_for_small_steps(self):
        task = build("two_task_forgetting(d=6, hidden=6, pretrain_steps=0)")
        rng = seed_stream(1, "probe")
        hess = task.pt_hessian()
        w0 = base_weight_vector(task.model)
        direction = rng.normal(size=w0.size)
        direction /= np.linalg.norm(direction)
        eps = 1e-3
        # exact drift via a probe model at w0 + eps * direction
        w = w0 + eps * direction
        bases = [base for base, _ in task.model.layers]
        shifted = zero_adapter_model(
            [w[sl].reshape(base.w0.shape) for sl, base in zip(layer_slices(task.model), bases)],
            [base.activation for base in bases],
        )
        exact = (
            0.5 * np.mean(np.sum((shifted.forward(task.pt_inputs) - task.pt_targets) ** 2, axis=1))
        )
        quad = 0.5 * eps**2 * direction @ (hess @ direction)
        assert abs(exact - quad) / max(exact, 1e-12) < 0.05

    def test_layer_slices_cover_weights(self):
        task = build("two_task_forgetting(d=6, hidden=7, pretrain_steps=0)")
        total = sum(s.stop - s.start for s in layer_slices(task.model))
        assert total == base_weight_vector(task.model).size == 6 * 7 + 7 * 6


def reference_base(d, hidden, pretrain_steps, init_jitter, rank=4, seed=0, eval_size=64):
    """The base weights of the hand-written pretraining loop the task build replaced, and the
    model RNG after every draw of the build (teachers, jitter, adapters, fine-tune deltas)."""
    model_rng, data_rng = seed_stream(seed, "model"), seed_stream(seed, "task-data")
    teacher_w1 = model_rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    teacher_w2 = model_rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(d, hidden))
    w1 = teacher_w1 + init_jitter * model_rng.normal(size=teacher_w1.shape)
    w2 = teacher_w2 + init_jitter * model_rng.normal(size=teacher_w2.shape)
    x_tr = data_rng.normal(size=(max(eval_size, 128), d))
    y_tr = np.tanh(x_tr @ teacher_w1.T) @ teacher_w2.T
    for _ in range(pretrain_steps):
        h = np.tanh(x_tr @ w1.T)
        err = (h @ w2.T - y_tr) / x_tr.shape[0]
        g2 = err.T @ h
        g1 = ((err @ w2) * (1.0 - h * h)).T @ x_tr
        if not (g1.any() or g2.any()):
            break
        w1, w2 = w1 - 0.5 * g1, w2 - 0.5 * g2
    for d_in, d_out in ((d, hidden), (hidden, d)):
        model_rng.normal(0.0, np.sqrt(1.0 / d_in), size=(rank, d_in))
    for w in (teacher_w1, teacher_w2):
        model_rng.normal(size=(w.shape[0], 2))
        model_rng.normal(size=(w.shape[1], 2))
    return [w1, w2], [teacher_w1, teacher_w2], model_rng


class TestPretrainingThroughModel:
    """The base comes from Model.forward/backward bit for bit as from the hand-written loop."""

    @pytest.mark.parametrize("d, hidden", [(8, 8), (7, 10)])
    def test_jittered_base_matches_the_hand_written_loop(self, d, hidden):
        spec = f"two_task_forgetting(d={d}, hidden={hidden}, pretrain_steps=20, init_jitter=0.05)"
        expected, teacher, _ = reference_base(d, hidden, 20, 0.05)
        weights = [base.w0 for base, _ in build(spec).model.layers]
        assert all(np.array_equal(w, ref) for w, ref in zip(weights, expected))
        assert not any(np.array_equal(w, t) for w, t in zip(weights, teacher))

    @pytest.mark.parametrize("d, hidden", [(8, 8), (7, 10)])
    def test_unjittered_base_is_the_teacher_and_later_draws_are_unchanged(self, d, hidden):
        model_rng = seed_stream(0, "model")
        task = build_task(
            f"two_task_forgetting(d={d}, hidden={hidden}, pretrain_steps=100)", rank=4, alpha=1.0,
            eval_size=64, model_rng=model_rng, data_rng=seed_stream(0, "task-data"),
        )
        _, teacher, reference_rng = reference_base(d, hidden, 100, 0.0)
        assert all(np.array_equal(base.w0, t) for (base, _), t in zip(task.model.layers, teacher))
        assert model_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_no_step_runs_without_jitter(self, monkeypatch):
        from grit.model import Model

        def forbidden(self, loss_grad):
            raise AssertionError("a pretraining step ran")

        monkeypatch.setattr(Model, "backward", forbidden)
        build("two_task_forgetting(d=6, hidden=6, pretrain_steps=100)")

    def test_base_point_matches_a_per_layer_loop(self):
        task = net_with_biases()
        net, out = task._base_point()
        h = task.pt_inputs
        for (base, _), tape in zip(task.model.layers, net.tapes):
            z = h @ base.w0.T + base.bias
            assert np.array_equal(tape.x, h) and np.array_equal(tape.z, z)
            h = np.tanh(z) if base.activation == "tanh" else z
        assert np.array_equal(out, h)


def relative_gap(fast, reference):
    return float(np.max(np.abs(fast - reference)) / np.max(np.abs(reference)))


def net_with_biases(seed=3):
    """Three tanh/tanh/identity layers with biases, off the pretraining optimum."""
    from grit.model import BaseLayer, Model, build_model
    from grit.tasks import TaskInstance

    rng = np.random.default_rng(seed)
    plain = build_model([4, 5, 3, 2], rank=2, scaling=1.2, rng=rng)
    layers = [
        (BaseLayer(w0=base.w0, bias=rng.normal(size=base.d_out), activation=base.activation), adapter)
        for base, adapter in plain.layers
    ]
    model = Model(layers=layers)
    inputs = rng.normal(size=(16, 4))
    return TaskInstance(
        name="biased", model=model, sample_batch=None, pt_inputs=inputs,
        pt_targets=rng.normal(size=(16, 2)),
    )


CURVATURE_TASKS = [
    "synthetic_lowrank(d=5)",
    "two_task_forgetting(d=5, hidden=4, pretrain_steps=30)",
    "two_task_forgetting(d=5, hidden=4, pretrain_steps=0, init_jitter=0.3)",
]


class TestPretrainingCurvature:
    @pytest.mark.parametrize("spec", CURVATURE_TASKS + [None])
    def test_factors_materialize_to_finite_difference_blocks(self, spec):
        from grit.oracles import dense_curvature

        task = net_with_biases() if spec is None else build(spec, rank=2, eval_size=32)
        hess = task.pt_hessian()
        for sl, factors in zip(layer_slices(task.model), task.pt_curvature()):
            assert relative_gap(dense_curvature(factors), hess[sl, sl]) < 1e-6

    @pytest.mark.parametrize("spec", CURVATURE_TASKS + [None])
    def test_second_order_forward_matches_finite_difference_quadratic(self, spec):
        task = net_with_biases() if spec is None else build(spec, rank=2, eval_size=32)
        rng = np.random.default_rng(4)
        for _, adapter in task.model.layers:
            adapter.b = rng.normal(size=adapter.b.shape)
        delta = delta_w_vector(task.model)
        reference = 0.5 * delta @ (task.pt_hessian() @ delta)
        assert abs(task.pt_quadratic(task.model) - reference) < 1e-6 * abs(reference)

    def test_zero_update_has_zero_quadratic(self):
        task = build("two_task_forgetting(d=5, hidden=4, pretrain_steps=0, init_jitter=0.3)")
        assert task.pt_quadratic(task.model) == 0.0  # b = 0 at initialization

    @pytest.mark.parametrize("spec", CURVATURE_TASKS + ["two_task_forgetting(d=12, hidden=9)"])
    def test_built_in_tasks_share_h_in_every_layer(self, spec):
        task = build(spec, rank=2, eval_size=32)
        for (base, _), factors in zip(task.model.layers, task.pt_curvature()):
            assert factors.h.shape == (base.d_out, base.d_out)
            assert factors.d.shape == factors.e.shape == (32, base.d_out)

    def test_h_is_per_sample_below_a_tanh_layer(self):
        task = net_with_biases()
        shapes = [factors.h.shape for factors in task.pt_curvature()]
        assert shapes == [(16, 5, 5), (3, 3), (2, 2)]

    def test_gauss_newton_factors_match_finite_difference_jacobians(self):
        """curvature_backward(model, I, 0) at trained adapters: each layer's mean
        C_s is (1/n) sum_s J_s^T J_s, with J_s from central differences."""
        from grit.model import curvature_backward
        from grit.oracles import fd_gauss_newton

        model = net_with_biases().model
        rng = np.random.default_rng(5)
        for _ in range(40):  # plain gradient steps move the adapters off their initialization
            model.backward(squared_error(model.forward(rng.normal(size=(16, 4))), rng.normal(size=(16, 2)))[1])
            for (_, adapter), tape in zip(model.layers, model.tapes):
                adapter.a -= 0.1 * tape.grad_a
                adapter.b -= 0.1 * tape.grad_b
        assert all(np.abs(adapter.b).max() > 0.1 for adapter in model.adapters())
        out = model.forward(rng.normal(size=(16, 4)))
        factors = curvature_backward(model, np.eye(2), np.zeros_like(out))
        assert [f.h.shape for f in factors] == [(16, 5, 5), (3, 3), (2, 2)]  # per-sample H below tanh
        for factor, reference in zip(factors, fd_gauss_newton(model)):
            assert not factor.e.any()
            # central differences at step 1e-5 agree to about 1e-11 of the largest entry
            assert relative_gap(factor.c.mean(axis=0), reference) < 1e-9

    def test_built_lazily_and_cached(self):
        task = build("two_task_forgetting(d=6, hidden=6, pretrain_steps=0)")
        assert task._curvature_cache is None
        first = task.pt_curvature()
        assert task.pt_curvature() is first
        assert [f.c.shape for f in first] == [(64, 6, 6), (64, 6, 6)]
        assert [f.x.shape for f in first] == [(64, 6), (64, 6)]


# d = 48, where a (steps * batch) x d product moves the last bit against one batch's product
BLOCK_TASKS = [
    "synthetic_lowrank(d=48, r_true=3, noise=0.02)",
    "synthetic_lowrank(d=48, r_true=3, noise=0)",
    "two_task_forgetting(d=48, hidden=40, pretrain_steps=0, ft_noise=0.25)",
    "two_task_forgetting(d=48, hidden=40, pretrain_steps=0, ft_noise=0)",
]


class TestBlockDraws:
    """sample_batch(rng, batch, steps) is bitwise its steps one-batch draws in turn."""

    @pytest.mark.parametrize("steps", [1, 5, 16])
    @pytest.mark.parametrize("spec", BLOCK_TASKS)
    def test_block_equals_successive_batches(self, spec, steps):
        task = build(spec)
        block_rng, step_rng = np.random.default_rng(steps), np.random.default_rng(steps)
        xs, ys = task.sample_batch(block_rng, 16, steps)
        assert xs.shape == ys.shape == (steps, 16, 48)
        for x, y in zip(xs, ys):
            x_one, y_one = task.sample_batch(step_rng, 16)
            assert x_one.shape == y_one.shape == (16, 48)
            assert x.tobytes() == x_one.tobytes()
            assert y.tobytes() == y_one.tobytes()
        assert block_rng.bit_generator.state == step_rng.bit_generator.state

    @pytest.mark.parametrize("noise", [0.25, 0.0])
    def test_inputs_keep_the_single_draw_stream_order(self, noise):
        # one batch draws its inputs, then its noise, before the next batch draws
        task = build(f"two_task_forgetting(d=12, hidden=9, pretrain_steps=0, ft_noise={noise})")
        xs, _ = task.sample_batch(np.random.default_rng(5), 4, 3)
        normals = np.random.default_rng(5).normal(size=(3, 2 if noise else 1, 4, 12))
        assert xs.tobytes() == normals[:, 0].tobytes()


class TestRunDraws:
    """run_experiment trains on the one-batch draws, DATA_BLOCK steps per sample_batch call."""

    @pytest.mark.parametrize(
        "steps", [0, 1, trainer_module.DATA_BLOCK, 2 * trainer_module.DATA_BLOCK + 3],
        ids=["none", "one", "one-block", "partial-last-block"],
    )
    @pytest.mark.parametrize("spec", [BLOCK_TASKS[0], BLOCK_TASKS[2]])
    def test_batches_are_the_one_batch_draws(self, monkeypatch, spec, steps):
        calls, batches = [], []
        build_task_ = trainer_module.build_task
        train_step = trainer_module.Trainer.train_step

        def building(*args, **kwargs):
            task = build_task_(*args, **kwargs)
            sample = task.sample_batch

            def counting(rng, batch, *block):
                calls.append(block)
                return sample(rng, batch, *block)

            task.sample_batch = counting
            return task

        def recording(self, batch, step):
            batches.append((step, batch[0].tobytes(), batch[1].tobytes()))
            return train_step(self, batch, step)

        monkeypatch.setattr(trainer_module, "build_task", building)
        monkeypatch.setattr(trainer_module.Trainer, "train_step", recording)
        cfg = GritConfig(task=spec, steps=steps, seed=3, lora_rank=4, min_lora_rank=2, batch_size=8,
                         kfac_update_freq=5, kfac_min_samples=16, telemetry_every=0, eval_size=32)
        record = run_experiment(cfg)
        assert (record.final_task_loss is None) == (steps == 0)
        block = trainer_module.DATA_BLOCK
        assert calls == [(min(block, steps - start),) for start in range(0, steps, block)]
        reference = build(spec, seed=3)
        rng = seed_stream(3, "data")
        expected = []
        for step in range(steps):
            x, y = reference.sample_batch(rng, cfg.batch_size)
            expected.append((step, x.tobytes(), y.tobytes()))
        assert batches == expected
