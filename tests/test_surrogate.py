import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rthdg import pool, surrogate
from rthdg.errors import FormatError, ModelMismatch
from rthdg.local import SigmaField
from rthdg.surrogate import (_ADAM_CHUNK, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                             TrainState, _adam_step, elu, elu_grad, flatten_operators,
                             forward, init_mlp, input_size, load_model,
                             mae_gradients, mae_loss, model_fingerprint,
                             output_size, predict_local_ops_batch, save_model,
                             surrogate_input, trace_count, train,
                             unflatten_operators)


def test_full_scale_sizes():
    assert input_size(6, 6) == 49
    assert trace_count(6, 6, 28) == 392
    assert output_size(6, 6, 28) == 392 * 441 == 172872


def test_dims_and_linear_regression_case():
    model = init_mlp(3, 3, 8, n_layers=1, seed=0)
    assert model.dims == [16, 5120]
    assert model.n_layers == 1
    model4 = init_mlp(3, 3, 8, n_layers=4, seed=0)
    assert model4.dims == [16, 32, 32, 32, 5120]
    with pytest.raises(ValueError):
        init_mlp(3, 3, 8, n_layers=0)


def test_init_determinism():
    a = init_mlp(2, 2, 8, n_layers=3, seed=123)
    b = init_mlp(2, 2, 8, n_layers=3, seed=123)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = init_mlp(2, 2, 8, n_layers=3, seed=124)
    assert any(np.any(wa != wc) for wa, wc in zip(a.weights, c.weights))


def test_elu_definition():
    assert elu(0.0) == 0.0
    v = elu(-30.0)
    assert -1.0 < v < -1.0 + 1e-12
    assert elu(2.5) == 2.5


def test_one_layer_is_affine():
    model = init_mlp(2, 2, 8, n_layers=1, seed=0)
    x1 = np.zeros(9)
    x2 = np.ones(9)
    # affine: f(a x1 + (1-a) x2) = a f(x1) + (1-a) f(x2)
    a = 0.3
    lhs = forward(model, a * x1 + (1 - a) * x2)
    rhs = a * forward(model, x1) + (1 - a) * forward(model, x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_zero_weights_zero_output():
    model = init_mlp(2, 2, 8, n_layers=2, seed=0)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    assert np.abs(forward(model, np.ones(9))).max() == 0.0


def test_forward_shape_check():
    model = init_mlp(2, 2, 8, n_layers=2, seed=0)
    with pytest.raises(ValueError):
        forward(model, np.ones(8))


def test_forward_determinism():
    model = init_mlp(2, 2, 8, n_layers=3, seed=5)
    x = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(forward(model, x), forward(model, x))


def test_gradients_match_finite_differences():
    # central differences on a scalar MAE loss; targets offset so no
    # residual sits near the |.| kink
    rng = np.random.default_rng(17)
    model = init_mlp(1, 1, 4, n_layers=3, seed=7)  # tiny: 4 -> 8 -> 8 -> 96
    x = rng.uniform(0.0, 2.0, (3, 4))
    y = forward(model, x) + 0.3 + 0.2 * rng.random((3, model.dims[-1]))
    _, gws, gbs = mae_gradients(model, x, y)
    step = 1e-6
    for li in range(model.n_layers):
        for param, grad in ((model.weights[li], gws[li]),
                            (model.biases[li], gbs[li])):
            flat = param.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                lp = mae_loss(model, x, y)
                flat[idx] = orig - step
                lm = mae_loss(model, x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(gflat[idx]), 1e-12)
                assert abs(fd - gflat[idx]) / denom < 1e-5


def one_sample_dataset(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, (1, 16))
    y = 0.05 * rng.standard_normal((1, 5120))
    return SimpleNamespace(inputs=x, labels=y, train_idx=np.array([0]),
                           test_idx=np.array([], dtype=int))


def test_single_sample_overfit():
    # a wide MLP interpolates one point; lr starts at 1e-3 and decays so the
    # Adam step size does not floor the loss
    ds = one_sample_dataset()
    model = init_mlp(3, 3, 8, n_layers=4, seed=0)
    schedule = tuple((800, 10.0 ** (-3 - k)) for k in range(6))  # 4800 steps
    state = train(model, ds, schedule=schedule, batch_size=1, seed=0)
    assert state.step <= 5000
    assert state.history[-1]["train_mae"] < 1e-6


def test_train_empty_dataset():
    ds = SimpleNamespace(inputs=np.zeros((0, 16)), labels=np.zeros((0, 5120)),
                         train_idx=np.array([], dtype=int),
                         test_idx=np.array([], dtype=int))
    model = init_mlp(3, 3, 8, n_layers=1, seed=0)
    with pytest.raises(ValueError):
        train(model, ds, schedule=((1, 1e-3),))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_aborts_on_nonfinite_loss():
    ds = one_sample_dataset(5)
    model = init_mlp(3, 3, 8, n_layers=2, seed=0)
    for w in model.weights:
        w[:] = 1e200  # the composed forward pass overflows
    with pytest.raises(ArithmeticError, match="non-finite"):
        train(model, ds, schedule=((2, 1e-3),), batch_size=1, seed=0)


def test_train_determinism():
    ds = one_sample_dataset(3)
    models = []
    for _ in range(2):
        m = init_mlp(3, 3, 8, n_layers=2, seed=4)
        train(m, ds, schedule=((3, 1e-3),), batch_size=1, seed=9)
        models.append(m)
    for wa, wb in zip(models[0].weights, models[1].weights):
        np.testing.assert_array_equal(wa, wb)


@pytest.mark.parametrize("batch_size, schedule", [(0, ((1, 1e-3),)), (1, ((0, 1e-3),)),
                                                   (1, ((0, 1e-3), (0, 1e-4)))])
def test_train_rejects_zero_batch_size_and_empty_schedule(batch_size, schedule):
    with pytest.raises(ValueError, match="batch size|no epochs"):
        train(init_mlp(3, 3, 8, n_layers=1), one_sample_dataset(), schedule=schedule,
              batch_size=batch_size)


def random_dataset(n_samp=12, seed=3):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(inputs=rng.uniform(0, 10, (n_samp, 16)),
                           labels=0.05 * rng.standard_normal((n_samp, 5120)),
                           train_idx=np.arange(n_samp - 3),
                           test_idx=np.arange(n_samp - 3, n_samp))


def trained_bytes():
    model = init_mlp(3, 3, 8, n_layers=3, seed=1)
    state = train(model, random_dataset(), schedule=((3, 1e-3),), batch_size=4, seed=2)
    arrays = model.weights + model.biases + state.m_w + state.v_w + state.m_b + state.v_b
    losses = [(h["train_mae"], h["test_mae"]) for h in state.history]
    return [a.tobytes() for a in arrays], losses


def test_train_bitwise_equal_across_workers(monkeypatch, set_workers):
    set_workers(1)
    want = trained_bytes()
    # a desk model takes the pooled path: the output layer's products in
    # 80 column blocks, its weight update in row blocks
    monkeypatch.setattr(surrogate, "_FORWARD_BLOCK", 64)
    monkeypatch.setattr(pool, "MIN_BLOCK_WORK", 1024)
    blocks = []
    run_blocks = pool.run_blocks
    monkeypatch.setattr(pool, "run_blocks",
                        lambda kernel, bounds: blocks.append(len(bounds) - 1)
                        or run_blocks(kernel, bounds))
    for workers in (1, 2, 4):
        set_workers(workers)
        blocks.clear()
        assert trained_bytes() == want
        assert max(blocks) == 80
        # the output-layer weight update: 32 rows in one block per worker
        assert workers == 1 or workers in blocks


def test_mae_gradients_into_reused_buffer_equal_fresh_ones(set_workers):
    model = init_mlp(3, 3, 8, n_layers=3, seed=5)
    ds = random_dataset()
    loss, gws, gbs = mae_gradients(model, ds.inputs[:5], ds.labels[:5])
    out = np.full(model.weights[-1].shape, np.nan)
    for workers in (1, 2):
        set_workers(workers)
        got = mae_gradients(model, ds.inputs[:5], ds.labels[:5], out=out)
        assert got[1][-1] is out
        assert got[0] == loss
        for a, b in zip(got[1] + got[2], gws + gbs):
            assert a.tobytes() == b.tobytes()


def reference_adam_step(param, grad, mom, vel, lr, corr1, corr2):
    """The whole-array Adam update that `_adam_step` reproduces bit for bit."""
    mom *= ADAM_BETA1
    mom += (1 - ADAM_BETA1) * grad
    vel *= ADAM_BETA2
    vel += (1 - ADAM_BETA2) * grad * grad
    param -= lr * (mom / corr1) / (np.sqrt(vel / corr2) + ADAM_EPS)


def laid_out(values, layout):
    """`values` copied into a C-ordered, Fortran-ordered or strided array."""
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    big = np.zeros(tuple(2 * n for n in values.shape))
    view = big[tuple(slice(None, None, -2) for _ in values.shape)]
    view[...] = values
    return view


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("shape", [(1,), (_ADAM_CHUNK - 1,), (_ADAM_CHUNK,), (_ADAM_CHUNK + 1,),
                                   (3 * _ADAM_CHUNK + 5,), (3, _ADAM_CHUNK + 1),
                                   (_ADAM_CHUNK - 1, 3), (7, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_adam_step_bitwise_equals_reference(shape, layout):
    rng = np.random.default_rng(sum(shape))
    scratch = (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
    param = laid_out(rng.standard_normal(shape), layout)
    mom = laid_out(np.zeros(shape), layout)
    vel = laid_out(np.zeros(shape), layout)
    ref_param, ref_mom, ref_vel = param.copy(), mom.copy(), vel.copy()
    for t, lr in enumerate((1e-3, 1e-3, 1e-4), start=1):
        grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
        corr1, corr2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        _adam_step(param, grad, mom, vel, lr, corr1, corr2, scratch)
        reference_adam_step(ref_param, grad, ref_mom, ref_vel, lr, corr1, corr2)
        assert np.array_equal(param, ref_param)
        assert np.array_equal(mom, ref_mom)
        assert np.array_equal(vel, ref_vel)


def test_adam_step_allocates_no_parameter_sized_buffer():
    n = 1 << 20
    rng = np.random.default_rng(0)
    param, grad, mom, vel = rng.standard_normal((4, 8, n // 8))
    vel = np.abs(vel)
    scratch = (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
    tracemalloc.start()
    try:
        _adam_step(param, grad, mom, vel, 1e-3, 0.1, 0.001, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_train_peak_memory_below_five_and_a_half_parameter_sizes():
    # the moments and one gradient are parameter-sized; the whole-array Adam
    # expression added about one more parameter size of temporaries (6.1x)
    ds = SimpleNamespace(inputs=np.random.default_rng(6).uniform(0, 10, (6, 16)),
                         labels=np.zeros((6, 5120)), train_idx=np.arange(6),
                         test_idx=np.array([], dtype=int))
    model = init_mlp(3, 3, 8)
    nbytes = sum(a.nbytes for a in model.weights + model.biases)
    tracemalloc.start()
    try:
        train(model, ds, schedule=((3, 1e-3),), batch_size=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * nbytes


def test_train_updates_fortran_ordered_weight_in_place():
    model = init_mlp(3, 3, 8, n_layers=3, seed=4)
    model.weights[1] = np.asfortranarray(model.weights[1])
    initial = [a.copy() for a in model.weights + model.biases]
    state = train(model, one_sample_dataset(3), schedule=((1, 1e-3),), batch_size=1, seed=0)
    assert state.step == 1
    for start, a in zip(initial, model.weights + model.biases):
        assert not np.array_equal(a, start)
    assert state.history[0]["seconds"] > 0


def zero_state(model):
    zeros = [[np.zeros_like(a) for a in arrays]
             for arrays in (model.weights, model.weights, model.biases, model.biases)]
    return TrainState(((1, 1e-3),), *zeros)


def transposed_moment_state():
    state = zero_state(init_mlp(3, 3, 8, n_layers=3))
    state.v_w[2] = np.ascontiguousarray(state.v_w[2].T)  # same size, other shape
    return state


@pytest.mark.parametrize("other, message", [
    (lambda: zero_state(init_mlp(2, 2, 8, n_layers=3)), "layer 0"),
    (lambda: zero_state(init_mlp(3, 3, 8, n_layers=2)), "2 weight moments"),
    (transposed_moment_state, "layer 2: weight"),
], ids=["other-degree", "fewer-layers", "transposed-moment"])
def test_train_rejects_state_that_does_not_fit(other, message):
    model = init_mlp(3, 3, 8, n_layers=3)
    with pytest.raises(ValueError, match=message):
        train(model, one_sample_dataset(), schedule=((1, 1e-3),), state=other())


def test_surrogate_input_scaling():
    sig = SigmaField.from_scattering(np.arange(16.0).reshape(4, 4), 1.0)
    np.testing.assert_array_equal(surrogate_input(sig, 2.0),
                                  sig.sigma_s.reshape(-1))
    np.testing.assert_array_equal(surrogate_input(sig, 1.0),
                                  0.5 * sig.sigma_s.reshape(-1))
    with pytest.raises(ValueError):
        surrogate_input(sig, (1.0, 2.0))


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(2)
    n_tr, n_sp = trace_count(2, 2, 8), 9
    y = rng.standard_normal((3, n_tr * n_tr + n_sp * n_tr))
    stack = unflatten_operators(y, 2, 2, 8)
    for e, ops in enumerate(stack):
        assert ops.a_i2o.shape == (n_tr, n_tr)
        assert ops.a_i2m.shape == (n_sp, n_tr)
        np.testing.assert_array_equal(flatten_operators(ops), y[e])
    # writing an element writes its row
    back = unflatten_operators(np.zeros_like(y), 2, 2, 8)
    for e, ops in enumerate(stack):
        back[e] = ops
    assert back.a_i2o.base.tobytes() == y.tobytes()
    with pytest.raises(ValueError):
        unflatten_operators(y[:, :-1], 2, 2, 8)


def test_predict_shapes_full_scale():
    model = init_mlp(6, 6, 28, n_layers=1, seed=0)
    sig = SigmaField.from_scattering(np.ones((7, 7)), 1.0)
    ops = predict_local_ops_batch(model, [sig], 2.0, 28)
    assert ops.a_i2o.shape == (1, 392, 392)
    assert ops.a_i2m.shape == (1, 49, 392)
    assert np.abs(ops.fhat_u).max() == 0.0


def test_predict_dimension_mismatch():
    model = init_mlp(3, 3, 8, n_layers=1, seed=0)
    sig = SigmaField.from_scattering(np.ones((3, 3)), 1.0)  # p = 2, not 3
    with pytest.raises(ModelMismatch):
        predict_local_ops_batch(model, [sig], 2.0, 8)
    sig = SigmaField.from_scattering(np.ones((4, 4)), 1.0)
    with pytest.raises(ModelMismatch):
        predict_local_ops_batch(model, [sig], 2.0, 12)  # N_a = 12, not 8


def test_save_load_roundtrip(tmp_path):
    model = init_mlp(2, 2, 8, n_layers=3, seed=11)
    model.meta["schedule"] = [[300, 1e-3]]
    path = tmp_path / "m.bin"
    save_model(model, path)
    back = load_model(path)
    x = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(forward(model, x), forward(back, x))
    assert back.meta["schedule"] == [[300, 0.001]]
    assert back.meta["fingerprint"] == model_fingerprint(model)


def test_load_rejects_mismatched_header(tmp_path):
    model = init_mlp(2, 2, 8, n_layers=2, seed=0)
    path = tmp_path / "m.bin"
    save_model(model, path)
    with pytest.raises(ModelMismatch):
        load_model(path, expect=(3, 3, 8))
    back = load_model(path, expect=(2, 2, 8))
    assert back.n_layers == 2


def test_load_rejects_corrupt_file(tmp_path):
    model = init_mlp(2, 2, 8, n_layers=2, seed=0)
    path = tmp_path / "m.bin"
    save_model(model, path)
    raw = path.read_bytes()
    (tmp_path / "bad1.bin").write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(FormatError):
        load_model(tmp_path / "bad1.bin")
    (tmp_path / "bad2.bin").write_bytes(raw[:-16])
    with pytest.raises(FormatError):
        load_model(tmp_path / "bad2.bin")
    # header after the magic: <6IB = version, p_x, p_y, n_a, p_a, n_layers, single_coeff
    p_a_at, single_at = 8 + 4 * 4, 8 + 6 * 4
    assert raw[p_a_at:p_a_at + 4] == bytes(4) and raw[single_at] == 1
    (tmp_path / "bad3.bin").write_bytes(raw[:p_a_at] + b"\x01" + raw[p_a_at + 1:])
    with pytest.raises(FormatError):
        load_model(tmp_path / "bad3.bin")
    (tmp_path / "bad4.bin").write_bytes(raw[:single_at] + b"\x00" + raw[single_at + 1:])
    with pytest.raises(FormatError):
        load_model(tmp_path / "bad4.bin")
    # one flipped bit in the first weight matrix: the layout still parses,
    # the stored fingerprint does not match
    weights_at = len(raw) - sum(w.nbytes + b.nbytes
                                for w, b in zip(model.weights, model.biases))
    flip = weights_at + 8 * 5 + 2
    (tmp_path / "bad5.bin").write_bytes(raw[:flip] + bytes([raw[flip] ^ 1]) + raw[flip + 1:])
    with pytest.raises(FormatError, match="fingerprint"):
        load_model(tmp_path / "bad5.bin")
    assert load_model(path).meta["fingerprint"] == model_fingerprint(model)


def test_fingerprint_changes_with_weights():
    model = init_mlp(2, 2, 8, n_layers=2, seed=0)
    fp1 = model_fingerprint(model)
    model.weights[0][0, 0] += 1e-12
    assert model_fingerprint(model) != fp1


def test_training_monotonicity_statistical(capacity_models):
    # window-100 smoothed train MAE at the end of training is no larger
    # than its value 1000 epochs earlier
    hist = np.asarray(capacity_models[4].meta["train_mae_history"])
    assert hist.size >= 1100
    smoothed_end = hist[-100:].mean()
    smoothed_before = hist[-1100:-1000].mean()
    assert smoothed_end <= smoothed_before


def test_held_out_prediction_within_3x_test_mae(capacity_models, desk_dataset):
    # entrywise MAE between a held-out prediction and the exact operators
    # stays within 3x the recorded test MAE
    model = capacity_models[4]
    idx = desk_dataset.test_idx[0]
    pred = forward(model, desk_dataset.inputs[idx])
    err = np.abs(pred - desk_dataset.labels[idx]).mean()
    assert err <= 3 * model.meta["test_mae"]


def _forward_one_block(model, x):
    """The forward pass with one product per layer: the reference for the blocked output layer."""
    h = np.atleast_2d(np.asarray(x, float))
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if i != model.n_layers - 1:
            h = elu(h)
    return h[0] if np.ndim(x) == 1 else h


@pytest.mark.parametrize("block", [surrogate._FORWARD_BLOCK, 64, 192])
def test_forward_bitwise_equal_across_workers_and_to_one_block(monkeypatch, set_workers,
                                                               block):
    # 17,400 output columns: more than one block, and not a multiple of 64
    model = init_mlp(4, 4, 12, n_layers=3, seed=2)
    assert model.dims[-1] > block and model.dims[-1] % block != 0
    monkeypatch.setattr(surrogate, "_FORWARD_BLOCK", block)
    x = np.random.default_rng(8).uniform(0, 5, (9, model.dims[0]))
    for inputs in (x, x[:1], x[0]):
        want = _forward_one_block(model, inputs)
        for workers in (1, 2, 4):
            set_workers(workers)
            got = forward(model, inputs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def three_array_gradients(model, x, y):
    """mae_gradients with the residual, its absolute value and sign, and delta
    as fresh arrays, the output layer's column blocks on the calling thread."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    acts, pre = surrogate._forward_cached(model, x)
    resid = acts[-1] - y
    loss = float(np.mean(np.abs(resid)))
    delta = np.sign(resid) / resid.size
    gw = np.empty(model.weights[-1].shape)
    bounds = surrogate._column_bounds(gw.shape[1])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.matmul(acts[-2].T, delta[:, lo:hi], out=gw[:, lo:hi])
    gws, gbs = [gw], [delta.sum(axis=0)]
    for i in range(model.n_layers - 1, 0, -1):
        delta = (delta @ model.weights[i].T) * elu_grad(pre[i - 1])
        gws.insert(0, acts[i - 1].T @ delta)
        gbs.insert(0, delta.sum(axis=0))
    return loss, gws, gbs


def test_mae_loss_bitwise_equals_the_three_array_expression():
    # 10,752 output columns: two column blocks of the output layer
    model = init_mlp(3, 3, 12, n_layers=2, seed=5)
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 5, (6, model.dims[0]))
    y = rng.standard_normal((6, model.dims[-1]))
    for xs, ys in ((x, y), (x[0], y[0])):
        want = float(np.mean(np.abs(forward(model, xs) - ys)))
        assert mae_loss(model, xs, ys).hex() == want.hex()
        loss, gws, gbs = mae_gradients(model, xs, ys)
        want_loss, want_gws, want_gbs = three_array_gradients(model, xs, ys)
        assert loss.hex() == want_loss.hex() == want.hex()
        assert [a.tobytes() for a in gws + gbs] == [a.tobytes() for a in want_gws + want_gbs]
    out_bytes = y.nbytes
    tracemalloc.start()
    try:
        mae_loss(model, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out_bytes  # one output-sized array, not three


def test_unflatten_a_stack_gives_views_of_each_row():
    p, na = 2, 8
    n_tr = trace_count(p, p, na)
    y = np.random.default_rng(1).standard_normal((5, output_size(p, p, na)))
    stack = unflatten_operators(y, p, p, na)
    assert len(stack) == 5 and stack.a_i2o.shape == (5, n_tr, n_tr)
    assert np.shares_memory(stack.a_i2o, y) and np.shares_memory(stack.a_i2m, y)
    n_i2o = n_tr * n_tr
    for e, ops in enumerate(stack):
        assert np.shares_memory(ops.a_i2o, y[e]) and np.shares_memory(ops.a_i2m, y[e])
        assert ops.a_i2o.tobytes() == y[e, :n_i2o].tobytes()
        assert ops.a_i2m.tobytes() == y[e, n_i2o:].tobytes()
        assert not ops.fhat_u.any() and not ops.f_mean.any()
    assert stack.fhat_u.flags.writeable and stack.f_mean.flags.writeable
    with pytest.raises(ValueError):
        unflatten_operators(y[:, 1:], p, p, na)
    with pytest.raises(ValueError):
        unflatten_operators(y[None], p, p, na)
    with pytest.raises(ValueError):
        unflatten_operators(y[0], p, p, na)  # one row is not a stack
