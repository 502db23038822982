import numpy as np
import pytest

from grit.errors import ConfigError
from grit.oracles import base_weight_vector, delta_w_vector, layer_slices, pt_grad_at, zero_adapter_model
from grit.tasks import build_task, parse_task_spec
from grit.trainer import seed_stream


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
        # init_jitter = 0: the loop stops at its first step, whatever the bound
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
        shifted = zero_adapter_model(
            task.model,
            [w[sl].reshape(base.w0.shape) for sl, (base, _) in zip(layer_slices(task.model), task.model.layers)],
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
        pt_targets=rng.normal(size=(16, 2)), n_params=4 * 5 + 5 * 3 + 3 * 2,
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

    def test_built_lazily_and_cached(self):
        task = build("two_task_forgetting(d=6, hidden=6, pretrain_steps=0)")
        assert task._curvature_cache is None
        first = task.pt_curvature()
        assert task.pt_curvature() is first
        assert [f.c.shape for f in first] == [(64, 6, 6), (64, 6, 6)]
        assert [f.x.shape for f in first] == [(64, 6), (64, 6)]
