import numpy as np
import pytest

from grit.errors import ShapeError, TapeError, ValidationError
from grit.model import (
    ACTIVATIONS,
    AdapterPair,
    BaseLayer,
    Model,
    build_model,
    init_adapter,
    load_checkpoint,
    save_checkpoint,
    trainable_count,
)
from grit.oracles import fold_adapters


def seeded_model(seed=0, dims=(6, 5, 4), rank=3, nonzero_b=True):
    rng = np.random.default_rng(seed)
    model = build_model(list(dims), rank=rank, scaling=1.3, rng=rng)
    if nonzero_b:
        for _, adapter in model.layers:
            adapter.b = rng.normal(0.0, 0.4, size=adapter.b.shape)
    return model, rng


class TestForward:
    def test_zero_adapter_matches_base(self):
        rng = np.random.default_rng(1)
        model = build_model([5, 4], rank=2, scaling=1.0, rng=rng)
        x = rng.normal(size=(3, 5))
        base_out = np.tanh(x @ model.layers[0][0].w0.T) if model.layers[0][0].activation == "tanh" else x @ model.layers[0][0].w0.T
        # single layer built with identity output activation
        assert model.layers[0][0].activation == "identity"
        assert np.array_equal(model.forward(x), x @ model.layers[0][0].w0.T)

    def test_identity_map(self):
        base = BaseLayer(w0=np.zeros((3, 3)), activation="identity")
        adapter = AdapterPair(a=np.eye(3), b=np.eye(3), rank=3, scaling=1.0)
        model = Model(layers=[(base, adapter)])
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert np.allclose(model.forward(x), x)

    def test_matches_densified_reference(self):
        model, rng = seeded_model(seed=3)
        x = rng.normal(size=(8, 6))
        dense = fold_adapters(model)
        assert np.max(np.abs(model.forward(x) - dense.forward(x))) < 1e-12

    def test_shape_error(self):
        model, _ = seeded_model()
        with pytest.raises(ShapeError):
            model.forward(np.ones((2, 7)))

    def test_tape_captures_inputs(self):
        model, rng = seeded_model(seed=4)
        x = rng.normal(size=(5, 6))
        model.forward(x)
        assert np.array_equal(model.tapes[0].x, x)
        assert model.tapes[1].x is not None

    def test_predict_matches_forward_without_touching_tapes(self):
        model, rng = seeded_model(seed=15)
        x_train = rng.normal(size=(3, 6))
        x_eval = rng.normal(size=(4, 6))
        out_train = model.forward(x_train)
        out_eval = model.predict(x_eval)
        assert np.array_equal(model.tapes[0].x, x_train)  # tapes untouched by predict
        assert np.array_equal(out_eval, model.forward(x_eval))
        model.forward(x_train)
        model.backward(out_train)  # tapes still usable after interleaved predicts


class TestBackward:
    def test_quadratic_loss_single_identity_layer(self):
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=(4, 4))
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(4, 2))
        alpha = 0.7
        model = Model(
            layers=[(BaseLayer(w0=w0, activation="identity"), AdapterPair(a=a, b=b, rank=2, scaling=alpha))]
        )
        x = rng.normal(size=(3, 4))
        y = model.forward(x)
        tapes = model.backward(y)  # loss = 0.5 ||y||^2 so dL/dy = y
        expected_grad_a = alpha * b.T @ (y.T @ x)
        assert np.max(np.abs(tapes[0].grad_a - expected_grad_a)) < 1e-12

    def test_zero_loss_grad(self):
        model, rng = seeded_model(seed=6)
        x = rng.normal(size=(4, 6))
        out = model.forward(x)
        tapes = model.backward(np.zeros_like(out))
        for tape in tapes:
            assert np.all(tape.grad_a == 0.0)
            assert np.all(tape.grad_b == 0.0)

    def test_backward_without_forward(self):
        model, _ = seeded_model()
        model_fresh = Model(layers=model.layers, tapes=None or [type(t)() for t in model.tapes])
        with pytest.raises(TapeError):
            model_fresh.backward(np.zeros((2, 4)))

    def test_double_backward_rejected(self):
        model, rng = seeded_model(seed=8)
        x = rng.normal(size=(2, 6))
        out = model.forward(x)
        model.backward(out)
        with pytest.raises(TapeError):
            model.backward(out)

    def test_finite_difference_two_layer_tanh(self):
        rng = np.random.default_rng(9)
        model = build_model([6, 5, 4], rank=2, scaling=1.1, rng=rng, activations=["tanh", "tanh"])
        for _, adapter in model.layers:
            adapter.b = rng.normal(0.0, 0.3, size=adapter.b.shape)
        x = rng.normal(size=(3, 6))
        target = rng.normal(size=(3, 4))

        def loss():
            pred = model.forward(x)
            return 0.5 * float(np.sum((pred - target) ** 2))

        pred = model.forward(x)
        model.backward(pred - target)
        grads = [(t.grad_a.copy(), t.grad_b.copy()) for t in model.tapes]
        h = 1e-6
        for idx, (_, adapter) in enumerate(model.layers):
            for mat, grad in ((adapter.a, grads[idx][0]), (adapter.b, grads[idx][1])):
                it = np.nditer(mat, flags=["multi_index"])
                while not it.finished:
                    i = it.multi_index
                    orig = mat[i]
                    mat[i] = orig + h
                    up = loss()
                    mat[i] = orig - h
                    down = loss()
                    mat[i] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-3) < 1e-6
                    it.iternext()


def reference_backward(model, loss_grad):
    """(dy, dy^T x, grad_a, grad_b) per layer, recomputing each effective weight."""
    from grit.model import _act_deriv

    dh, out = loss_grad, []
    for (base, adapter), tape in zip(reversed(model.layers), reversed(model.tapes)):
        dz = dh * _act_deriv(base.activation, tape.z)
        grad_w = dz.T @ tape.x
        out.append((dz, grad_w, adapter.scaling * (adapter.b.T @ grad_w), adapter.scaling * (grad_w @ adapter.a.T)))
        dh = dz @ adapter.effective_weight(base.w0)
    return out[::-1]


class TestEffectiveWeightOnTape:
    def test_forward_keeps_effective_weight(self):
        model, rng = seeded_model(seed=11)
        model.forward(rng.normal(size=(3, 6)))
        for (base, adapter), tape in zip(model.layers, model.tapes):
            assert np.array_equal(tape.w_eff, adapter.effective_weight(base.w0))

    def test_backward_does_not_recompute_effective_weight(self, monkeypatch):
        model, rng = seeded_model(seed=12)
        out = model.forward(rng.normal(size=(3, 6)))
        calls = []
        original = AdapterPair.effective_weight

        def counted(self, w0):
            calls.append(self)
            return original(self, w0)

        monkeypatch.setattr(AdapterPair, "effective_weight", counted)
        model.backward(out)
        assert calls == []

    def test_tapes_bit_equal_to_recomputing_backward(self):
        model, rng = seeded_model(seed=13, dims=(6, 5, 7, 4))
        x, target = rng.normal(size=(5, 6)), rng.normal(size=(5, 4))
        loss_grad = model.forward(x) - target
        expected = reference_backward(model, loss_grad)
        tapes = model.backward(loss_grad)
        for tape, (dy, grad_w, grad_a, grad_b) in zip(tapes, expected):
            assert np.array_equal(tape.dy, dy)
            assert np.array_equal(tape.dy.T @ tape.x, grad_w)
            assert np.array_equal(tape.grad_a, grad_a)
            assert np.array_equal(tape.grad_b, grad_b)

    def test_clear_drops_effective_weight(self):
        model, rng = seeded_model(seed=14)
        model.forward(rng.normal(size=(2, 6)))
        tape = model.tapes[0]
        tape.clear()
        assert tape.w_eff is None


class TestFreezeAndCounts:
    def test_base_weights_write_protected(self):
        model, _ = seeded_model()
        with pytest.raises(ValueError):
            model.layers[0][0].w0[0, 0] = 5.0

    def test_trainable_count_worked_example(self):
        assert trainable_count(4096, 4096, 8) == 65_536

    def test_trainable_count_zero_rank(self):
        assert trainable_count(10, 20, 0) == 0

    def test_trainable_count_small(self):
        assert trainable_count(3, 5, 2) == 16

    def test_trainable_count_validation(self):
        with pytest.raises(ValidationError):
            trainable_count(0, 4, 1)

    def test_rank_bound_enforced(self):
        with pytest.raises(ValidationError):
            AdapterPair(a=np.zeros((5, 4)), b=np.zeros((4, 5)), rank=5, scaling=1.0)

    def test_init_adapter_starts_at_zero_update(self):
        rng = np.random.default_rng(12)
        adapter = init_adapter(6, 4, 3, 1.0, rng)
        assert np.all(adapter.delta_w() == 0.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model, rng = seeded_model(seed=13)
        path = tmp_path / "model.json"
        save_checkpoint(model, path, seed=13)
        loaded, seed = load_checkpoint(path)
        assert seed == 13
        x = rng.normal(size=(4, 6))
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99, "seed": 0, "layers": []}')
        with pytest.raises(ValidationError):
            load_checkpoint(path)


class TestActivationDerivatives:
    @pytest.mark.parametrize("name", ACTIVATIONS)
    def test_second_derivative_matches_central_difference(self, name):
        from grit.model import _act_deriv, _act_deriv2

        z = np.array([-1.7, -0.4, 0.3, 1.1, 2.5])
        step = 1e-5
        fd = (_act_deriv(name, z + step) - _act_deriv(name, z - step)) / (2.0 * step)
        assert np.allclose(_act_deriv2(name, z), fd, atol=1e-8)

    def test_unknown_activation(self):
        from grit.model import _act_deriv2

        with pytest.raises(ValidationError):
            _act_deriv2("softplus", np.zeros(2))
