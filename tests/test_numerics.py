"""Autodiff ops vs finite differences, optimizer, checkpoints, determinism."""
import numpy as np
import pytest

from stacksolver import numerics as nm
from stacksolver.numerics import OptimizerConfig, ParamRegistry, Tape


def make_registry(**tensors) -> ParamRegistry:
    registry = ParamRegistry()
    for name, value in tensors.items():
        registry.add(name, value)
    return registry


def check(loss_fn, registry, probes=40, seed=0, tol=1e-6):
    err = nm.grad_check(loss_fn, registry, probes, np.random.default_rng(seed))
    assert err < tol, f"max relative error {err}"


def rng_arr(rng, *shape):
    return rng.standard_normal(shape) * 0.5


# ---------------------------------------------------------------------------
# per-op gradient checks


def test_grads_elementwise_ops():
    rng = np.random.default_rng(1)
    registry = make_registry(a=rng_arr(rng, 6), b=rng_arr(rng, 6))

    def loss_fn(tape):
        a = nm.param(tape, registry, "a")
        b = nm.param(tape, registry, "b")
        y = nm.add(tape, nm.tanh(tape, a), nm.sigmoid(tape, b))
        y = nm.add(tape, y, nm.relu(tape, a))
        return nm.dot(tape, y, y)

    check(loss_fn, registry)


def test_grads_linear_ops():
    rng = np.random.default_rng(2)
    registry = make_registry(m=rng_arr(rng, 4, 6), v=rng_arr(rng, 6),
                             u=rng_arr(rng, 4), w=rng_arr(rng, 3, 6))

    def loss_fn(tape):
        m = nm.param(tape, registry, "m")
        v = nm.param(tape, registry, "v")
        u = nm.param(tape, registry, "u")
        w = nm.param(tape, registry, "w")
        a = nm.matvec(tape, m, v)            # (4,)
        b = nm.matvec_t(tape, m, u)          # (6,)
        c = nm.matmul_nt(tape, m, w)         # (4, 3)
        d = nm.add_col(tape, c, a)
        e = nm.matvec_t(tape, d, a)          # (3,)
        return nm.add(tape, nm.dot(tape, e, e),
                      nm.dot(tape, b, nm.param(tape, registry, "v")))

    check(loss_fn, registry)


def test_grads_structural_ops():
    rng = np.random.default_rng(3)
    registry = make_registry(a=rng_arr(rng, 5), b=rng_arr(rng, 3),
                             t=rng_arr(rng, 4, 3))

    def loss_fn(tape):
        a = nm.param(tape, registry, "a")
        b = nm.param(tape, registry, "b")
        t = nm.param(tape, registry, "t")
        cat = nm.concat(tape, [a, b])                        # (8,)
        piece = nm.gather(tape, cat, np.arange(2, 7))        # (5,)
        row = nm.embedding_row(tape, t, 1)                   # (3,)
        stacked = nm.rows_stack(tape, [b, row, b])           # (3, 3)
        picked = nm.gather(tape, piece, np.array([0, 0, 3])) # fan-in on index 0
        col = nm.cols(tape, stacked, 0, 2)                   # (3, 2)
        s = nm.matvec_t(tape, col, picked)
        return nm.add(tape, nm.dot(tape, s, s), nm.dot(tape, piece, piece))

    check(loss_fn, registry)


def test_grads_softmax_and_scale():
    rng = np.random.default_rng(4)
    registry = make_registry(z=rng_arr(rng, 7), g=rng_arr(rng, 1), x=rng_arr(rng, 4))

    def loss_fn(tape):
        z = nm.param(tape, registry, "z")
        p = nm.softmax(tape, z)
        s = nm.gather(tape, nm.param(tape, registry, "g"), np.array([0]))
        # a one-block gate is a scalar times a tensor
        y = nm.gate_blocks(tape, s, [nm.param(tape, registry, "x")])
        return nm.add(tape, nm.dot(tape, y, y), nm.dot(tape, p, p))

    check(loss_fn, registry)


def test_grads_gate_blocks():
    rng = np.random.default_rng(5)
    registry = make_registry(g=rng_arr(rng, 3), a=rng_arr(rng, 4),
                             b=rng_arr(rng, 2), c=rng_arr(rng, 5))

    def loss_fn(tape):
        g = nm.sigmoid(tape, nm.param(tape, registry, "g"))
        blocks = [nm.param(tape, registry, n) for n in ("a", "b", "c")]
        out = nm.gate_blocks(tape, g, blocks)
        return nm.dot(tape, out, out)

    check(loss_fn, registry)


def test_grads_lstm_cell():
    rng = np.random.default_rng(6)
    h = 5
    registry = make_registry(
        x=rng_arr(rng, 3), h0=rng_arr(rng, h), c0=rng_arr(rng, h),
        wx=rng_arr(rng, 4 * h, 3), wh=rng_arr(rng, 4 * h, h), b=rng_arr(rng, 4 * h))

    def loss_fn(tape):
        args = [nm.param(tape, registry, n) for n in ("x", "h0", "c0", "wx", "wh", "b")]
        h1, c1 = nm.lstm_cell(tape, *args)
        h2, c2 = nm.lstm_cell(tape, args[0], h1, c1, *args[3:])
        return nm.add(tape, nm.dot(tape, h2, h2), nm.dot(tape, c2, c2))

    check(loss_fn, registry, probes=60)


def test_grads_attention():
    rng = np.random.default_rng(7)
    registry = make_registry(
        u=rng_arr(rng, 4), v1=rng_arr(rng, 4), v2=rng_arr(rng, 4), v3=rng_arr(rng, 4),
        score=rng_arr(rng, 6), w=rng_arr(rng, 6, 8), b=rng_arr(rng, 6))

    def loss_fn(tape):
        u = nm.param(tape, registry, "u")
        vs = [nm.param(tape, registry, n) for n in ("v1", "v2", "v3")]
        ctx, weights = nm.attention(tape, u, vs, nm.param(tape, registry, "score"),
                                    nm.param(tape, registry, "w"),
                                    nm.param(tape, registry, "b"))
        return nm.add(tape, nm.dot(tape, ctx, ctx), nm.dot(tape, weights, weights))

    check(loss_fn, registry, probes=60)


def test_grads_dense_relu_dense():
    rng = np.random.default_rng(8)
    registry = make_registry(x=rng_arr(rng, 4), w1=rng_arr(rng, 6, 4),
                             b1=rng_arr(rng, 6), w2=rng_arr(rng, 3, 6),
                             b2=rng_arr(rng, 3))

    def loss_fn(tape):
        args = [nm.param(tape, registry, n) for n in ("x", "w1", "b1", "w2", "b2")]
        y = nm.dense_relu_dense(tape, *args)
        loss, _ = nm.softmax_cross_entropy(tape, y, 1)
        return loss

    check(loss_fn, registry, tol=1e-4)


def test_grads_cross_entropy_is_softmax_minus_onehot():
    rng = np.random.default_rng(9)
    registry = make_registry(z=rng_arr(rng, 5))
    tape = Tape()
    z = nm.param(tape, registry, "z")
    loss, probs = nm.softmax_cross_entropy(tape, z, 2)
    tape.backward(loss)
    expected = probs.copy()
    expected[2] -= 1.0
    assert np.allclose(registry.grads["z"], expected, atol=1e-12)
    check(lambda tape: nm.softmax_cross_entropy(
        tape, nm.param(tape, registry, "z"), 2)[0], registry)


def test_grads_dropout_path():
    rng = np.random.default_rng(10)
    registry = make_registry(x=rng_arr(rng, 30))

    def loss_fn(tape):
        x = nm.param(tape, registry, "x")
        y = nm.dropout(tape, x, 0.3, True, np.random.default_rng(77))
        return nm.dot(tape, y, y)

    check(loss_fn, registry)


def test_grads_fanout_sums_three_consumers():
    rng = np.random.default_rng(11)
    registry = make_registry(x=rng_arr(rng, 5))

    def loss_fn(tape):
        x = nm.param(tape, registry, "x")
        a = nm.tanh(tape, x)
        b = nm.sigmoid(tape, x)
        c = nm.relu(tape, x)
        return nm.dot(tape, a, nm.add(tape, b, c))

    check(loss_fn, registry)
    # the analytic gradient equals the sum of the three single-consumer paths
    registry.zero_grads()
    tape = Tape()
    loss = loss_fn(tape)
    tape.backward(loss)
    full = registry.grads["x"].copy()
    assert np.any(full != 0)


# ---------------------------------------------------------------------------
# op semantics


def test_lstm_zero_params_fixed_point():
    registry = make_registry(wx=np.zeros((8, 3)), wh=np.zeros((8, 2)), b=np.zeros(8))
    x = nm.constant(np.ones(3))
    h = nm.constant(np.zeros(2))
    c = nm.constant(np.zeros(2))
    h1, c1 = nm.lstm_cell(None, x, h, c, *(nm.param(None, registry, n)
                                           for n in ("wx", "wh", "b")))
    assert np.array_equal(h1.value, np.zeros(2))
    assert np.array_equal(c1.value, np.zeros(2))


def test_lstm_shape_mismatch():
    registry = make_registry(wx=np.zeros((8, 3)), wh=np.zeros((8, 2)), b=np.zeros(8))
    bad_x = nm.constant(np.ones(5))
    with pytest.raises(nm.ShapeMismatch):
        nm.lstm_cell(None, bad_x, nm.constant(np.zeros(2)), nm.constant(np.zeros(2)),
                     *(nm.param(None, registry, n) for n in ("wx", "wh", "b")))


def test_attention_singleton_and_symmetry():
    rng = np.random.default_rng(12)
    w_score = nm.constant(rng_arr(rng, 6))
    w = nm.constant(rng_arr(rng, 6, 8))
    b = nm.constant(rng_arr(rng, 6))
    u = nm.constant(rng_arr(rng, 4))
    v = nm.constant(rng_arr(rng, 4))
    ctx, weights = nm.attention(None, u, [v], w_score, w, b)
    assert np.allclose(weights.value, [1.0])
    assert np.allclose(ctx.value, v.value)
    ctx2, weights2 = nm.attention(None, u, [v, v], w_score, w, b)
    assert np.allclose(weights2.value, [0.5, 0.5])


def test_attention_empty_candidates():
    with pytest.raises(nm.EmptyCandidates):
        nm.attention(None, nm.constant(np.zeros(2)), [], nm.constant(np.zeros(2)),
                     nm.constant(np.zeros((2, 4))), nm.constant(np.zeros(2)))


def test_dense_relu_dense_hand_values():
    x = nm.constant(np.array([1.0]))
    w1 = nm.constant(np.array([[2.0]]))
    b1 = nm.constant(np.array([-1.0]))
    w2 = nm.constant(np.array([[3.0]]))
    b2 = nm.constant(np.array([0.0]))
    y = nm.dense_relu_dense(None, x, w1, b1, w2, b2)
    assert np.allclose(y.value, [3.0])


def test_dense_relu_dense_zero_params():
    x = nm.constant(np.ones(4))
    zeros = lambda *s: nm.constant(np.zeros(s))
    y = nm.dense_relu_dense(None, x, zeros(3, 4), zeros(3), zeros(2, 3), zeros(2))
    assert np.array_equal(y.value, np.zeros(2))


def test_cross_entropy_values():
    logits = nm.constant(np.zeros(5))
    loss, probs = nm.softmax_cross_entropy(None, logits, 3)
    assert np.isclose(float(loss.value), np.log(5))
    assert np.allclose(probs, 0.2)
    favored = np.zeros(5)
    favored[3] = 30.0
    loss2, _ = nm.softmax_cross_entropy(None, nm.constant(favored), 3)
    assert float(loss2.value) < 1e-9
    with pytest.raises(nm.IndexOutOfRange):
        nm.softmax_cross_entropy(None, logits, 9)


def test_softmax_is_distribution():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = nm.softmax(None, nm.constant(rng.standard_normal(9) * 5)).value
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_dropout_identity_cases():
    x = nm.constant(np.ones(8))
    assert nm.dropout(None, x, 0.0, True, np.random.default_rng(0)) is x
    assert nm.dropout(None, x, 0.5, False, None) is x


def test_dropout_monte_carlo_mean():
    rng = np.random.default_rng(123)
    x = nm.constant(np.ones(100_000))
    y = nm.dropout(None, x, 0.1, True, rng)
    p = 0.1
    sigma = np.sqrt((p / (1 - p)) / x.value.size)
    assert abs(y.value.mean() - 1.0) < 3 * sigma


def test_dropout_validates_rate():
    with pytest.raises(ValueError):
        nm.dropout(None, nm.constant(np.ones(3)), 1.5, True, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_params():
    registry = make_registry(w=np.array([1.0, -2.0]))
    before = registry["w"].copy()
    nm.adam_step(registry, {"w": np.zeros(2)}, OptimizerConfig())
    assert np.array_equal(registry["w"], before)
    assert registry.adam_t == 1


def test_adam_first_step_closed_form():
    config = OptimizerConfig(gradient_clip_norm=None)
    assert config.learning_rate == 0.001
    registry = make_registry(w=np.array([0.5]))
    nm.adam_step(registry, {"w": np.array([1.0])}, config)
    # m_hat = v_hat = 1, so the step is -lr / (1 + eps)
    expected = 0.5 - 0.001 / (1.0 + config.epsilon)
    assert np.isclose(registry["w"][0], expected, rtol=0, atol=1e-15)


def test_adam_clipping_bounds_update():
    config = OptimizerConfig(gradient_clip_norm=1.0)
    registry = make_registry(w=np.zeros(4))
    nm.adam_step(registry, {"w": np.full(4, 100.0)}, config)
    # post-clip gradient has norm 1; the first Adam step is still -lr-ish
    assert np.all(np.abs(registry["w"]) <= config.learning_rate * 1.01)


def test_adam_shape_mismatch():
    registry = make_registry(w=np.zeros(4))
    with pytest.raises(nm.ShapeMismatch):
        nm.adam_step(registry, {"w": np.zeros(3)}, OptimizerConfig())


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0)
    with pytest.raises(ValueError):
        OptimizerConfig(beta1=1.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            OptimizerConfig(gradient_clip_norm=bad)
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon=bad)
    assert OptimizerConfig(gradient_clip_norm=None).gradient_clip_norm is None


@pytest.mark.parametrize("clip", [5.0, None])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_non_finite_gradient_updates_nothing(clip, bad):
    registry = make_registry(w=np.array([1.0, -2.0]), u=np.array([0.5]))
    before = {name: registry[name].copy() for name in registry.names()}
    with pytest.raises(nm.NonFiniteValue):
        nm.adam_step(registry, {"w": np.array([0.1, bad]), "u": np.array([1.0])},
                     OptimizerConfig(gradient_clip_norm=clip))
    assert registry.adam_t == 0
    for name in registry.names():
        assert np.array_equal(registry[name], before[name])
        assert not registry.adam_m[name].any() and not registry.adam_v[name].any()


# ---------------------------------------------------------------------------
# registry and checkpoints


def test_registry_unique_names_and_frozen_shapes():
    registry = make_registry(w=np.zeros(3))
    with pytest.raises(ValueError):
        registry.add("w", np.zeros(3))
    assert registry.size() == 3


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    registry = make_registry(alpha=rng_arr(rng, 3, 4), beta=rng_arr(rng, 7))
    registry.adam_m["alpha"][...] = rng_arr(rng, 3, 4)
    registry.adam_v["beta"][...] = np.abs(rng_arr(rng, 7))
    registry.adam_t = 12
    path = tmp_path / "model.bin"
    nm.save_checkpoint(path, registry)
    loaded = nm.load_checkpoint(path)
    assert loaded.names() == registry.names()
    assert loaded.adam_t == 12
    for name in registry.names():
        assert np.array_equal(loaded[name], registry[name])
        assert np.array_equal(loaded.adam_m[name], registry.adam_m[name])
        assert np.array_equal(loaded.adam_v[name], registry.adam_v[name])
    # saving the loaded registry reproduces the file byte for byte
    path2 = tmp_path / "model2.bin"
    nm.save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        nm.load_checkpoint(path)


# ---------------------------------------------------------------------------
# determinism and the checker itself


def test_forward_determinism_same_seed():
    def build():
        rng = np.random.default_rng(55)
        registry = make_registry(w=nm.uniform_init(rng, (6, 6)),
                                 v=nm.uniform_init(rng, (6,)))
        y = nm.matvec(None, nm.param(None, registry, "w"),
                      nm.param(None, registry, "v"))
        return nm.tanh(None, y).value
    assert np.array_equal(build(), build())


def test_grad_check_exact_for_linear_model():
    registry = make_registry(w=np.array([2.0, -1.0, 0.5]))
    x = np.array([1.0, 2.0, 3.0])

    def loss_fn(tape):
        w = nm.param(tape, registry, "w")
        return nm.dot(tape, w, nm.constant(x))

    err = nm.grad_check(loss_fn, registry, 3, np.random.default_rng(0))
    assert err < 1e-9
