import base64
import json

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
    squared_error,
    trainable_count,
    zero_adapter_model,
)
from grit.oracles import fold_adapters
from grit.runio import encode_array


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

    @pytest.mark.parametrize("d", [12, 48])
    def test_predict_of_a_stack_is_each_batch_alone(self, d):
        rng = np.random.default_rng(d)
        net = zero_adapter_model(
            [rng.normal(size=(d, d)) / np.sqrt(d), rng.normal(size=(d, d)) / np.sqrt(d)], ["tanh", "identity"]
        )
        stack = rng.normal(size=(16, 16, d))
        out = net.predict(stack)
        assert out.shape == stack.shape
        for batch, got in zip(stack, out):
            assert got.tobytes() == net.predict(batch).tobytes()

    def test_forward_of_a_stack_raises(self):
        model, rng = seeded_model(seed=16)
        with pytest.raises(ShapeError):
            model.forward(rng.normal(size=(2, 3, 6)))
        assert model.tapes[0].x is None


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
    dh, out = loss_grad, []
    for (base, adapter), tape in zip(reversed(model.layers), reversed(model.tapes)):
        dz = dh * ACTIVATIONS[base.activation].deriv(tape.z)
        grad_w = dz.T @ tape.x
        out.append((dz, grad_w, adapter.scaling * (adapter.b.T @ grad_w), adapter.scaling * (grad_w @ adapter.a.T)))
        dh = dz @ (base.w0 + adapter.scaling * (adapter.b @ adapter.a))
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
            assert np.array_equal(tape.grad_w, grad_w)
            assert np.array_equal(tape.grad_a, grad_a)
            assert np.array_equal(tape.grad_b, grad_b)

    def test_clear_drops_effective_weight(self):
        model, rng = seeded_model(seed=14)
        model.forward(rng.normal(size=(2, 6)))
        tape = model.tapes[0]
        tape.clear()
        assert tape.w_eff is None


class TestBackwardByteContract:
    """backward reads tanh's derivative from the stored output, passes dh through an
    identity layer and skips a scaling of 1.0; each gives the bytes of reference_backward's
    dh * _act_deriv(z) with the scaling multiplied in."""

    @staticmethod
    def two_layer(scaling):
        model, rng = seeded_model(seed=21, dims=(6, 5, 4))
        assert [base.activation for base, _ in model.layers] == ["tanh", "identity"]
        for _, adapter in model.layers:
            adapter.scaling = scaling
        return model, rng.normal(size=(7, 6)), rng.normal(size=(7, 4))

    @staticmethod
    def synthetic_lowrank(scaling):
        from grit.tasks import build_task

        rng = np.random.default_rng(22)
        task = build_task(
            "synthetic_lowrank(d=10, r_true=2, noise=0.05)", rank=4, alpha=scaling, eval_size=16,
            model_rng=rng, data_rng=rng,
        )
        model = task.model
        assert [base.activation for base, _ in model.layers] == ["identity"]
        model.layers[0][1].b = rng.normal(0.0, 0.4, size=model.layers[0][1].b.shape)
        x, y = task.sample_batch(rng, 8)
        return model, x, y

    @pytest.mark.parametrize("scaling", [1.0, 0.5])
    @pytest.mark.parametrize("build", ["two_layer", "synthetic_lowrank"])
    def test_tapes_equal_the_old_formula_bytewise(self, build, scaling):
        model, x, y = getattr(self, build)(scaling)
        assert all(adapter.scaling == scaling for _, adapter in model.layers)
        loss_grad = (model.forward(x) - y) / x.shape[0]
        expected = reference_backward(model, loss_grad)
        tapes = model.backward(loss_grad)
        for tape, (dy, _, grad_a, grad_b) in zip(tapes, expected):
            assert tape.dy.tobytes() == dy.tobytes()
            assert tape.grad_a.tobytes() == grad_a.tobytes()
            assert tape.grad_b.tobytes() == grad_b.tobytes()

    def test_output_on_the_tape_is_the_activation_of_z(self):
        model, x, _ = self.two_layer(1.0)
        out = model.forward(x)
        tanh_tape, identity_tape = model.tapes
        assert tanh_tape.h.tobytes() == np.tanh(tanh_tape.z).tobytes()
        assert identity_tape.h is identity_tape.z and out is identity_tape.h

    @pytest.mark.parametrize("build", ["two_layer", "synthetic_lowrank"])
    def test_first_layer_input_gradient_is_not_formed(self, build):
        model, x, y = getattr(self, build)(1.0)
        loss_grad = model.forward(x) - y
        model.tapes[0].w_eff = None  # the input gradient is the only reader of the first w_eff
        model.backward(loss_grad)
        assert all(tape.grad_a is not None for tape in model.tapes)


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

    @pytest.mark.parametrize(
        "w0, bias",
        [(np.zeros((3, 2)), np.zeros(1)), (np.zeros((3, 2)), np.zeros((1, 3))), (np.zeros(3), None)],
        ids=["bias_of_length_1", "bias_of_2_dims", "1_dim_w0"],
    )
    def test_base_layer_shapes_enforced(self, w0, bias):
        with pytest.raises(ShapeError):
            BaseLayer(w0=w0, bias=bias)

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

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"format_version": 1, "layers": []}',
            '{"format_version": 1, "seed": 0, "layers": [{"w0": [[1.0]]}]}',
            '{"format_version": 1, "seed": 0, "layers": [[1.0]]}',
            pytest.param('{"format_version": 1, "seed": ' + "9" * 5000 + ', "layers": []}', id="long_integer"),
            pytest.param(
                '{"format_version": 1, "seed": 0, "layers": [{"d_in": 1, "d_out": 1, "rank": 0, "scaling": 1.0,'
                ' "activation": "identity", "w0": [[1' + "0" * 400 + ']], "bias": null, "a": [], "b": []}]}',
                id="w0_past_float_range",
            ),
        ],
    )
    def test_damaged_file_is_a_validation_error_naming_it(self, tmp_path, text):
        path = tmp_path / "checkpoint.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="checkpoint.json"):
            load_checkpoint(path)


def model_with_bias(seed=21):
    """seeded_model with a bias on its first layer, so every array kind is saved."""
    model, rng = seeded_model(seed=seed)
    base, adapter = model.layers[0]
    model.layers[0] = (BaseLayer(w0=base.w0, bias=rng.normal(size=base.d_out), activation=base.activation), adapter)
    return model, rng


def model_arrays(model):
    """Every saved array of a model, in layer order: w0, bias (when set), a, b."""
    return [
        array
        for base, adapter in model.layers
        for array in (base.w0, base.bias, adapter.a, adapter.b)
        if array is not None
    ]


def version_1_text(model, seed):
    """The checkpoint text a version-1 writer produced: every array as nested JSON lists."""
    return json.dumps({
        "format_version": 1,
        "seed": seed,
        "layers": [
            {
                "d_in": base.d_in, "d_out": base.d_out, "activation": base.activation,
                "w0": base.w0.tolist(), "bias": None if base.bias is None else base.bias.tolist(),
                "a": adapter.a.tolist(), "b": adapter.b.tolist(),
                "rank": adapter.rank, "scaling": adapter.scaling,
            }
            for base, adapter in model.layers
        ],
    }, sort_keys=True)


def write_checkpoint(model, path, version, seed):
    """A checkpoint of model at path in the given format version."""
    if version == 1:
        path.write_text(version_1_text(model, seed))
    else:
        save_checkpoint(model, path, seed=seed)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestCheckpointFormat:
    def test_version_2_writes_each_array_through_the_codec(self, tmp_path):
        model, _ = model_with_bias()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(model, path, seed=4)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        layer = doc["layers"][0]
        assert layer["w0"] == encode_array(model.layers[0][0].w0)
        assert layer["bias"] == encode_array(model.layers[0][0].bias)
        assert doc["layers"][1]["bias"] is None
        raw = layer["a"]
        a = np.frombuffer(base64.b64decode(raw["f64"]), "<f8").reshape(raw["shape"])
        assert a.tobytes() == model.layers[0][1].a.tobytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_both_versions_load_bit_for_bit(self, tmp_path, version):
        model, rng = model_with_bias()
        # values whose shortest repr is long, and the signed zero, survive both encodings
        model.layers[1][1].b[0, 0] = -0.0
        model.layers[1][1].b[0, 1] = 0.1 + 0.2
        path = tmp_path / "checkpoint.json"
        write_checkpoint(model, path, version, seed=8)
        loaded, seed = load_checkpoint(path)
        assert seed == 8
        assert_same_arrays(model_arrays(loaded), model_arrays(model))
        for _, adapter in loaded.layers:  # a loaded model trains as a built one does
            assert adapter.a.flags.writeable and adapter.b.flags.writeable
        x = rng.normal(size=(4, 6))
        assert np.array_equal(loaded.forward(x), model.forward(x))

    def test_a_version_1_file_and_its_version_2_rewrite_load_alike(self, tmp_path):
        model, _ = model_with_bias()
        old, new = tmp_path / "v1.json", tmp_path / "v2.json"
        old.write_text(version_1_text(model, seed=3))
        save_checkpoint(load_checkpoint(old)[0], new, seed=3)
        assert_same_arrays(model_arrays(load_checkpoint(new)[0]), model_arrays(load_checkpoint(old)[0]))

    @pytest.mark.parametrize("version", [0, 3, "2", True, None])
    def test_other_versions_rejected(self, tmp_path, version):
        model, _ = seeded_model()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(model, path, seed=0)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("key, value", [("d_in", 99), ("d_out", 99), ("d_out", 5)])
    def test_dims_that_disagree_with_w0_rejected(self, tmp_path, version, key, value):
        model, _ = seeded_model()  # layer 0 is 6 -> 5, layer 1 is 5 -> 4
        path = tmp_path / "checkpoint.json"
        write_checkpoint(model, path, version, seed=0)
        doc = json.loads(path.read_text())
        doc["layers"][1][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"checkpoint\.json.*layer 1 .*w0 of shape \(4, 5\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "key, value, kind",
        [("d_in", 5.0, "an integer"), ("d_out", 4.0, "an integer"), ("rank", 3.0, "an integer"),
         ("scaling", True, "a number"), ("activation", 1, "a string")],
        ids=["d_in_float", "d_out_float", "rank_float", "scaling_bool", "activation_number"],
    )
    def test_layer_value_of_another_kind_rejected(self, tmp_path, version, key, value, kind):
        # each value equals the saved one (layer 1 is 5 -> 4 at rank 3), or passes the layer's own checks
        model, _ = seeded_model()
        path = tmp_path / "checkpoint.json"
        write_checkpoint(model, path, version, seed=0)
        doc = json.loads(path.read_text())
        doc["layers"][1][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"checkpoint\.json: not a checkpoint.*layer 1: {key} is {value!r}, not {kind}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("seed", ["abc", 7.0, None, False], ids=["string", "float", "null", "bool"])
    def test_seed_of_another_kind_rejected(self, tmp_path, version, seed):
        model, _ = seeded_model()
        path = tmp_path / "checkpoint.json"
        write_checkpoint(model, path, version, seed=7)
        doc = json.loads(path.read_text())
        doc["seed"] = seed
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"checkpoint\.json: not a checkpoint.*seed is {seed!r}, not an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_bias_of_another_length_rejected(self, tmp_path, version):
        model, _ = model_with_bias()
        path = tmp_path / "checkpoint.json"
        write_checkpoint(model, path, version, seed=0)
        doc = json.loads(path.read_text())
        doc["layers"][0]["bias"] = [0.5] if version == 1 else encode_array(np.array([0.5]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"checkpoint\.json: not a checkpoint.*bias of shape \(1,\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda layer: layer["w0"].update(f64="not*base64"),
            lambda layer: layer["a"].update(f64=layer["a"]["f64"][:-4]),
            lambda layer: layer["b"].update(shape=[layer["b"]["shape"][0] + 1, layer["b"]["shape"][1]]),
            lambda layer: layer["w0"].pop("shape"),
            lambda layer: layer.update(a={"f64": 7, "shape": [1]}),
        ],
        ids=["bad_base64", "short_bytes", "bytes_do_not_fill_shape", "no_shape", "payload_not_text"],
    )
    def test_damaged_version_2_payload_rejected(self, tmp_path, corrupt):
        model, _ = seeded_model()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(model, path, seed=0)
        doc = json.loads(path.read_text())
        corrupt(doc["layers"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"checkpoint\.json: not a checkpoint"):
            load_checkpoint(path)


class TestSquaredError:
    @pytest.mark.parametrize("rows", [1, 2, 16, 257])
    def test_loss_and_gradient_bits(self, rows):
        rng = np.random.default_rng(rows)
        pred, targets = rng.normal(size=(rows, 7)), rng.normal(size=(rows, 7))
        loss, grad = squared_error(pred, targets)
        err = pred - targets
        assert type(loss) is float
        assert loss == float(0.5 * np.mean(np.sum(err * err, axis=1)))
        assert np.array_equal(grad, err / rows)


class TestZeroAdapterModel:
    def test_runs_the_base_weights_without_drawing(self):
        model, rng = seeded_model(seed=15)
        state = rng.bit_generator.state
        bases = [base for base, _ in model.layers]
        net = zero_adapter_model([b.w0 for b in bases], [b.activation for b in bases])
        assert rng.bit_generator.state == state
        x = rng.normal(size=(3, 6))
        expected = np.tanh(x @ bases[0].w0.T) @ bases[1].w0.T
        assert np.array_equal(net.forward(x), expected)
        assert np.array_equal(net.predict(x), expected)

    def test_backward_leaves_the_weight_gradients(self):
        net = zero_adapter_model([np.array([[2.0, -1.0]])], ["identity"], [np.array([0.5])])
        x = np.array([[1.0, 3.0], [0.0, 1.0]])
        out = net.forward(x)
        assert np.array_equal(out, [[-0.5], [-0.5]])
        net.backward(np.ones_like(out))
        assert np.array_equal(net.tapes[0].grad_w, [[1.0, 4.0]])
        assert net.tapes[0].grad_a.shape == (0, 2)


class TestActivationDerivatives:
    @pytest.mark.parametrize("name", ACTIVATIONS)
    def test_second_derivative_matches_central_difference(self, name):
        act = ACTIVATIONS[name]
        z = np.array([-1.7, -0.4, 0.3, 1.1, 2.5])
        step = 1e-5
        fd = (act.deriv(z + step) - act.deriv(z - step)) / (2.0 * step)
        assert np.allclose(act.deriv2(z), fd, atol=1e-8)

    def test_identity_layer_passes_its_output_gradient_through(self):
        model, _ = seeded_model()
        out = model.forward(np.ones((3, model.d_in)))
        loss_grad = np.ones_like(out)
        model.backward(loss_grad)
        assert model.tapes[-1].dy is loss_grad

    def test_unknown_activation(self):
        with pytest.raises(ValidationError, match="softplus"):
            BaseLayer(w0=np.zeros((2, 2)), activation="softplus")
