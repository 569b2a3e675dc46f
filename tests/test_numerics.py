"""Autodiff ops vs finite differences, optimizer, checkpoints, determinism."""
import math
import struct

import numpy as np
import pytest

from stacksolver import numerics as nm
from stacksolver.numerics import OptimizerConfig, ParamRegistry, Tape


def make_registry(**tensors) -> ParamRegistry:
    values = {name: np.asarray(value, dtype=np.float64) for name, value in tensors.items()}
    registry = ParamRegistry({name: value.shape for name, value in values.items()})
    for name, value in values.items():
        registry[name][...] = value
    return registry


def check(loss_fn, registry, probes=40, seed=0, tol=1e-6):
    err = nm.grad_check(loss_fn, registry, probes, np.random.default_rng(seed))
    assert err < tol, f"max relative error {err}"


def rng_arr(rng, *shape):
    return rng.standard_normal(shape) * 0.5


def xent(tape, *nodes):
    """A scalar loss whose gradient is nonzero on every entry of ``nodes``:
    the summed cross-entropy of each node's rows against their first entry."""
    return nm.add_n(tape, [
        nm.softmax_cross_entropy(tape, y, np.zeros(y.value.size // y.value.shape[-1],
                                                   dtype=np.intp))
        for y in nodes])


def lstm_step(tape, x, h, c, wx, wh, b):
    """One step of ``nm.lstm``'s one stream over rows ``x`` from (h, c): (h', c')."""
    _, h1, c1 = nm.lstm(tape, x, np.ones(x.value.shape[0], dtype=np.intp), [[wx, wh, b]],
                        (False,), (h, c))
    return h1, c1


# ---------------------------------------------------------------------------
# per-op gradient checks


def test_grads_elementwise_ops():
    rng = np.random.default_rng(1)
    registry = make_registry(a=rng_arr(rng, 6), b=rng_arr(rng, 6))

    def loss_fn(tape):
        a = nm.param(tape, registry, "a")
        b = nm.param(tape, registry, "b")
        y = nm.add_n(tape, [nm.tanh(tape, a), nm.tanh(tape, b), a])
        return xent(tape, y)

    check(loss_fn, registry)


def test_grads_linear_ops():
    rng = np.random.default_rng(2)
    registry = make_registry(m=rng_arr(rng, 4, 6), v=rng_arr(rng, 6),
                             x=rng_arr(rng, 3, 6), b=rng_arr(rng, 4),
                             w=rng_arr(rng, 2, 4), c=rng_arr(rng, 2))

    def loss_fn(tape):
        m = nm.param(tape, registry, "m")
        b = nm.param(tape, registry, "b")
        a = nm.linear(tape, nm.param(tape, registry, "v"), m, b)     # one row (4,)
        rows = nm.linear(tape, nm.param(tape, registry, "x"), m, b)  # rows (3, 4)
        e = nm.linear(tape, rows, nm.param(tape, registry, "w"),
                      nm.param(tape, registry, "c"))                  # (3, 2)
        return xent(tape, e, a)

    check(loss_fn, registry)


def test_grads_structural_ops():
    rng = np.random.default_rng(3)
    registry = make_registry(a=rng_arr(rng, 5), b=rng_arr(rng, 3),
                             t=rng_arr(rng, 4, 3))

    def loss_fn(tape):
        a = nm.param(tape, registry, "a")
        b = nm.param(tape, registry, "b")
        t = nm.param(tape, registry, "t")
        cat = nm.concat(tape, [a, b])                          # (8,)
        piece = nm.gather(tape, cat, np.arange(2, 7))          # (5,)
        rows = nm.gather(tape, t, np.array([1, 1, 3]))         # fan-in on row 1
        head = nm.gather(tape, t, slice(0, 3))                 # (3, 3)
        wide = nm.concat(tape, [rows, head])                   # (3, 6), last axis
        picked = nm.gather(tape, t, (np.array([0, 2, 0]), np.array([1, 1, 1])))
        return xent(tape, wide, piece, picked)

    check(loss_fn, registry)


def test_grads_row_buffer():
    rng = np.random.default_rng(13)
    registry = make_registry(a=rng_arr(rng, 16, 3), b=rng_arr(rng, 3))

    def loss_fn(tape):
        buffer = nm.RowBuffer(tape, 3)  # 16 rows, filled by a
        rows_a = buffer.append(nm.tanh(tape, nm.param(tape, registry, "a")))
        pair = buffer.gather(np.array([[rows_a[1], rows_a[0]], [rows_a[1], rows_a[1]]]))
        row_b = buffer.append(nm.param(tape, registry, "b"))  # grows the buffer
        picked = buffer.gather(np.array([[row_b[0]], [rows_a[0]]]))
        return xent(tape, pair, picked)

    check(loss_fn, registry)


def test_grads_softmax_and_scale():
    """The attention weights alone carry a gradient back through the softmax
    (the context has none), and a one-block gate scales a tensor."""
    rng = np.random.default_rng(4)
    registry = make_registry(u=rng_arr(rng, 1, 3), keys=rng_arr(rng, 1, 7, 3),
                             score=rng_arr(rng, 5), w=rng_arr(rng, 5, 6), b=rng_arr(rng, 5),
                             g=rng_arr(rng, 1, 4), c=rng_arr(rng, 1), x=rng_arr(rng, 4))

    def loss_fn(tape):
        _, p = nm.attention(tape, *(nm.param(tape, registry, name)
                                    for name in ("u", "keys", "score", "w", "b")),
                            np.array([0]))
        # a one-block gate is a scalar times a tensor
        (y,), _ = nm.gate_blocks(tape, nm.param(tape, registry, "x"),
                                 nm.param(tape, registry, "g"),
                                 nm.param(tape, registry, "c"), [4])
        return xent(tape, y, p)

    check(loss_fn, registry)


def test_grads_gate_blocks():
    """Two groups of three gates over [a; b; c], as the decoder gates its
    features, for one row and three, with dropout on the gated copies and without."""
    rng = np.random.default_rng(5)
    sizes = [4, 2, 5]
    for rows in (1, 3):
        registry = make_registry(a=rng_arr(rng, rows, 4), b=rng_arr(rng, rows, 2),
                                 c=rng_arr(rng, rows, 5), w=rng_arr(rng, 6, 11),
                                 wb=rng_arr(rng, 6))
        for p in (0.0, 0.3):
            def loss_fn(tape):
                x = nm.concat(tape, [nm.param(tape, registry, n) for n in ("a", "b", "c")])
                outs, _ = nm.gate_blocks(tape, x, nm.param(tape, registry, "w"),
                                         nm.param(tape, registry, "wb"), sizes)
                drop = np.random.default_rng(77)
                return xent(tape, *(nm.dropout(tape, out, p, drop) for out in outs))

            check(loss_fn, registry, probes=60)


def test_gate_blocks_equal_one_linear_per_group_bitwise():
    rng = np.random.default_rng(12)
    sizes = [64, 128, 64]
    for rows in (1, 3, 16):
        x = rng_arr(rng, rows, 256)
        w = rng_arr(rng, 6, 256)
        b = rng_arr(rng, 6)
        outs, gates = nm.gate_blocks(None, nm.constant(x), nm.constant(w),
                                     nm.constant(b), sizes)
        for j in range(2):
            z = np.dot(x, w[3 * j:3 * j + 3].T)
            z += b[3 * j:3 * j + 3]
            e = np.exp(-np.abs(z))
            want = np.where(z >= 0, 1.0, e) / (1.0 + e)
            assert np.array_equal(gates[j], want)
            blocks = np.split(x, np.cumsum(sizes)[:-1], axis=-1)
            assert np.array_equal(outs[j].value, np.concatenate(
                [want[:, k:k + 1] * blk for k, blk in enumerate(blocks)], axis=-1))


def test_grads_lstm_one_step_from_a_state():
    """Two chained one-step ``nm.lstm`` calls, each from the other's (h, c),
    as the decoder's step 0 hands its state on to the later steps."""
    rng = np.random.default_rng(6)
    h = 5
    registry = make_registry(
        x=rng_arr(rng, 2, 1, 3), h0=rng_arr(rng, 2, h), c0=rng_arr(rng, 2, h),
        wx=rng_arr(rng, 4 * h, 3), wh=rng_arr(rng, 4 * h, h), b=rng_arr(rng, 4 * h))

    def loss_fn(tape):
        args = [nm.param(tape, registry, n) for n in ("x", "h0", "c0", "wx", "wh", "b")]
        h1, c1 = lstm_step(tape, *args)
        h2, c2 = lstm_step(tape, args[0], h1, c1, *args[3:])
        return xent(tape, h2, c2)

    check(loss_fn, registry, probes=60)


# the encoder's two directions from a zero state, and the decoder's one
# forward stream from a given (h, c)
STREAMS = [pytest.param((False, True), False, id="bidirectional"),
           pytest.param((False,), True, id="forward-from-a-state")]


@pytest.mark.parametrize("reverse, initial", STREAMS)
def test_grads_lstm_padded(reverse, initial):
    rng = np.random.default_rng(14)
    h = 3
    k = len(reverse)
    tensors = dict(x=rng_arr(rng, 3, 4, 2), **{
        f"{j}{n}": rng_arr(rng, *shape) for j in range(k)
        for n, shape in (("wx", (4 * h, 2)), ("wh", (4 * h, h)), ("b", (4 * h,)))})
    if initial:
        tensors |= dict(h0=rng_arr(rng, 3, k * h), c0=rng_arr(rng, 3, k * h))
    registry = make_registry(**tensors)
    for lengths in (np.array([4, 2, 1]), np.array([4, 4, 4])):
        def loss_fn(tape):
            weights = [[nm.param(tape, registry, f"{j}{n}") for n in ("wx", "wh", "b")]
                       for j in range(k)]
            start = [nm.param(tape, registry, n) for n in ("h0", "c0")] if initial else ()
            states, h_last, c_last = nm.lstm(tape, nm.param(tape, registry, "x"), lengths,
                                             weights, reverse, start)
            return xent(tape, states, h_last, c_last)

        check(loss_fn, registry, probes=60)


@pytest.mark.parametrize("reverse, initial", STREAMS)
def test_lstm_matches_cell_steps_and_ignores_padding(reverse, initial):
    rng = np.random.default_rng(15)
    h = 3
    k = len(reverse)
    x = rng_arr(rng, 2, 4, 2)
    x[1, 2:] = 30.0  # padding of row 1 must not leak into its states
    weights = [[nm.constant(rng_arr(rng, 4 * h, 2)), nm.constant(rng_arr(rng, 4 * h, h)),
                nm.constant(rng_arr(rng, 4 * h))] for _ in reverse]
    start = [rng_arr(rng, 2, k * h) if initial else np.zeros((2, k * h)) for _ in "hc"]
    # a padded batch of two, its first row alone, which has no padding, and a
    # row with no steps, which keeps its start
    for lengths in ([4, 2], [4], [2, 0]):
        rows = len(lengths)
        states, h_last, c_last = nm.lstm(
            None, nm.constant(x[:rows]), np.array(lengths), weights, reverse,
            [nm.constant(v[:rows]) for v in start] if initial else ())
        for row, n in enumerate(lengths):
            for j, (rev, w) in enumerate(zip(reverse, weights)):
                cols = slice(j * h, (j + 1) * h)
                h_ref, c_ref = (v[row, cols] for v in start)
                for t in (range(n - 1, -1, -1) if rev else range(n)):
                    h_ref, c_ref, _ = nm._lstm_cell(x[row, t], h_ref, c_ref,
                                                    *(v.value for v in w))
                    assert np.allclose(states.value[row, t, cols], h_ref, rtol=0, atol=1e-14)
                assert np.all(states.value[row, n:, cols] == 0.0)
                assert np.allclose(h_last.value[row, cols], h_ref, rtol=0, atol=1e-14)
                assert np.allclose(c_last.value[row, cols], c_ref, rtol=0, atol=1e-14)


def _lstm_gates_back(dh, dc, acts, c_prev, c, dz):
    """Gradient on the gate logits, written into ``dz`` (gates on its first
    axis), and on the previous cell (returned) from gradients on (h, c): one
    step of the backward that ``nm.lstm`` ran before it took the gate factors
    of all steps at once."""
    gi, gf, go, gg = acts
    tc = np.tanh(c)
    dc_tot = dc + dh * go * (1.0 - tc * tc)
    np.multiply(dc_tot, gg, out=dz[0])
    np.multiply(dc_tot, c_prev, out=dz[1])
    np.multiply(dh, tc, out=dz[2])
    dz[:3] *= acts[:3]
    dz[:3] *= 1.0 - acts[:3]
    np.multiply(dc_tot, gi, out=dz[3])
    dz[3] *= 1.0 - gg * gg
    return dc_tot * gf


def reference_lstm_grads(x, lengths, weights, reverse, initial, g_states, g_h, g_c):
    """Gradients on x, on each stream's (wx, wh, b) and on the initial (h, c)
    from gradients on ``nm.lstm``'s states and final (h, c), one row and one
    stream at a time, stepping ``_lstm_gates_back`` back from the last step."""
    rows, hidden = x.shape[0], weights[0][1].shape[1]
    dx = np.zeros_like(x)
    dw = [[np.zeros_like(w) for w in ws] for ws in weights]
    d_initial = [np.zeros((rows, len(weights) * hidden)) for _ in "hc"]
    for r, n in enumerate(lengths):
        for j, ((wx, wh, b), rev) in enumerate(zip(weights, reverse)):
            cols = slice(j * hidden, (j + 1) * hidden)
            order = list(range(n - 1, -1, -1) if rev else range(n))
            hs, cs, acts = [initial[0][r, cols]], [initial[1][r, cols]], []
            for t in order:
                h1, c1, a = nm._lstm_cell(x[r, t], hs[-1], cs[-1], wx, wh, b)
                hs.append(h1)
                cs.append(c1)
                acts.append(a)
            dh, dc = g_h[r, cols].copy(), g_c[r, cols].copy()
            for i in range(len(order) - 1, -1, -1):
                t = order[i]
                dh = dh + g_states[r, t, cols]
                dz = np.empty((4, hidden))
                dc = _lstm_gates_back(dh, dc, nm._by_gate(acts[i]), cs[i], cs[i + 1], dz)
                dz = dz.reshape(-1)  # [i f o g], as the rows of wx and wh
                dx[r, t] += dz @ wx
                dw[j][0] += np.outer(dz, x[r, t])
                dw[j][1] += np.outer(dz, hs[i])
                dw[j][2] += dz
                dh = dz @ wh
            d_initial[0][r, cols], d_initial[1][r, cols] = dh, dc
    return dx, dw, d_initial


@pytest.mark.parametrize("lengths", [[4], [4, 2, 1], [4, 4, 4]], ids=str)
@pytest.mark.parametrize("reverse, initial", STREAMS)
def test_lstm_backward_matches_the_per_step_reference(reverse, initial, lengths):
    """The op's gradients, with its gate factors taken for all steps at once,
    equal those of the per-step backward, whatever gradient reaches its
    padded states."""
    rng = np.random.default_rng(17)
    h = 5
    rows, k = len(lengths), len(reverse)
    x = nm.constant(rng_arr(rng, rows, 4, 3))
    weights = [[nm.constant(rng_arr(rng, *shape))
                for shape in ((4 * h, 3), (4 * h, h), (4 * h,))] for _ in reverse]
    start = [nm.constant(rng_arr(rng, rows, k * h)) for _ in "hc"] if initial else []
    tape = Tape()
    states, h_last, c_last = nm.lstm(tape, x, np.array(lengths), weights, reverse, start)
    upstream = [rng_arr(rng, *v.value.shape) for v in (states, h_last, c_last)]
    for node, g in zip((states, h_last, c_last), upstream):
        node.grad = g.copy()
    tape.backward(nm.constant(0.0))  # runs the op's closure on the gradients set above
    dx, dw, d_initial = reference_lstm_grads(
        x.value, lengths, [[v.value for v in w] for w in weights], reverse,
        [v.value for v in start] or [np.zeros((rows, k * h))] * 2, *upstream)
    pairs = [(x.grad, dx)] + [(v.grad, d) for w, dws in zip(weights, dw)
                              for v, d in zip(w, dws)]
    pairs += [(v.grad, d) for v, d in zip(start, d_initial)]
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_one_lstm_step_is_the_greedy_step_bitwise():
    """One step of ``nm.lstm`` from a given (h, c) and ``nm._lstm_cell``, the
    step that greedy decoding runs, give the same bytes: both sum
    (x W_x^T + b) + h W_h^T."""
    rng = np.random.default_rng(16)
    for _ in range(50):
        d, x_dim = (int(v) for v in rng.choice([3, 16, 64], size=2))
        x, h, c = rng_arr(rng, 1, x_dim), rng_arr(rng, 1, d), rng_arr(rng, 1, d)
        w = (rng_arr(rng, 4 * d, x_dim), rng_arr(rng, 4 * d, d), rng_arr(rng, 4 * d))
        want = nm._lstm_cell(x, h, c, *w)[:2]
        got = lstm_step(None, *map(nm.constant, (x[:, None], h, c, *w)))
        assert same_bits([v.value for v in got], want)


@pytest.mark.parametrize("rows", [1, 2, 16])
def test_weight_grad_equals_matmul_bitwise(rows):
    rng = np.random.default_rng(rows)
    g = rng.standard_normal((rows, 256))
    x = rng.standard_normal((rows, 64))
    want = (g.T @ x).tobytes()
    assert nm._weight_grad(g, x).tobytes() == want
    # leading axes are rows
    assert nm._weight_grad(g.reshape(rows, 1, 256), x.reshape(rows, 1, 64)).tobytes() == want


def test_grads_attention():
    rng = np.random.default_rng(7)
    registry = make_registry(
        u=rng_arr(rng, 2, 4), keys=rng_arr(rng, 2, 3, 4),
        score=rng_arr(rng, 6), w=rng_arr(rng, 6, 8), b=rng_arr(rng, 6))
    mask = np.array([[True, True, True], [True, True, False]])

    def loss_fn(tape):
        ctx, weights = nm.attention(tape, nm.param(tape, registry, "u"),
                                    nm.param(tape, registry, "keys"),
                                    nm.param(tape, registry, "score"),
                                    nm.param(tape, registry, "w"),
                                    nm.param(tape, registry, "b"), np.arange(2), mask=mask,
                                    dropout_p=0.3, rng=np.random.default_rng(3))
        return xent(tape, ctx, weights)

    check(loss_fn, registry, probes=60)
    # attention reads over chosen key rows, repeated ones included, next to
    # each other and apart
    rows = np.array([1, 1, 0, 1])
    registry = make_registry(**{name: registry[name] for name in registry.names()},
                             q=rng_arr(rng, 4, 4))

    def rows_loss(tape):
        ctx, _ = nm.attention(tape, nm.param(tape, registry, "q"),
                              nm.param(tape, registry, "keys"),
                              nm.param(tape, registry, "score"),
                              nm.param(tape, registry, "w"),
                              nm.param(tape, registry, "b"), rows, mask=mask,
                              dropout_p=0.3, rng=np.random.default_rng(4))
        return xent(tape, ctx)

    check(rows_loss, registry, probes=60)
    # scores over (problem, first candidates) rows, as the operand scorer
    # reads them: problems repeat, next to each other and apart
    problem = np.array([0, 1, 1, 0, 1])
    registry = make_registry(**{name: registry[name] for name in registry.names()},
                             p=rng_arr(rng, 5, 4))

    def operand_loss(tape):
        scores = nm.attention_scores(tape, nm.param(tape, registry, "p"),
                                     nm.param(tape, registry, "keys"),
                                     nm.param(tape, registry, "score"),
                                     nm.param(tape, registry, "w"),
                                     nm.param(tape, registry, "b"), (problem, slice(0, 2)),
                                     dropout_p=0.3, rng=np.random.default_rng(5))
        return xent(tape, scores)

    check(operand_loss, registry, probes=60)


def test_an_attention_read_records_two_closures():
    """The scores (with their own key half) are one op, the softmax and the
    weighted sum another."""
    rng = np.random.default_rng(14)
    registry = make_registry(u=rng_arr(rng, 2, 4), keys=rng_arr(rng, 2, 3, 4),
                             score=rng_arr(rng, 6), w=rng_arr(rng, 6, 8), b=rng_arr(rng, 6))
    tape = Tape()
    args = [nm.param(tape, registry, name) for name in ("u", "keys", "score", "w", "b")]
    nm.attention(tape, *args, np.arange(2), mask=np.array([[True, True, False], [True] * 3]))
    assert len(tape._backs) == 2
    tape = Tape()
    args = [nm.param(tape, registry, name) for name in ("u", "keys", "score", "w", "b")]
    nm.attention_scores(tape, *args, (np.array([1, 0]), slice(0, 2)))
    assert len(tape._backs) == 1


def check_dense_relu_dense(hidden_dropout):
    rng = np.random.default_rng(8)
    registry = make_registry(x=rng_arr(rng, 4), w1=rng_arr(rng, 6, 4),
                             b1=rng_arr(rng, 6), w2=rng_arr(rng, 3, 6),
                             b2=rng_arr(rng, 3))

    def loss_fn(tape):
        args = [nm.param(tape, registry, n) for n in ("x", "w1", "b1", "w2", "b2")]
        y = nm.dense_relu_dense(tape, *args, hidden_dropout=hidden_dropout,
                                rng=np.random.default_rng(5))
        return nm.softmax_cross_entropy(tape, y, 1)

    check(loss_fn, registry, tol=1e-4)


def test_grads_dense_relu_dense():
    check_dense_relu_dense(0.0)


def test_grads_dense_relu_dense_with_hidden_dropout():
    """The fused op's one closure carries the gradient through the dropped
    hidden layer as well as through the ReLU."""
    check_dense_relu_dense(0.4)


def test_grads_cross_entropy_is_softmax_minus_onehot():
    rng = np.random.default_rng(9)
    registry = make_registry(z=rng_arr(rng, 5))
    tape = Tape()
    z = nm.param(tape, registry, "z")
    loss = nm.softmax_cross_entropy(tape, z, 2)
    tape.backward(loss)
    expected = nm.masked_softmax(registry["z"])
    expected[2] -= 1.0
    assert np.allclose(registry.grads["z"], expected, atol=1e-12)
    check(lambda tape: nm.softmax_cross_entropy(
        tape, nm.param(tape, registry, "z"), 2), registry)


def test_grads_dropout_path():
    rng = np.random.default_rng(10)
    registry = make_registry(x=rng_arr(rng, 30))

    def loss_fn(tape):
        x = nm.param(tape, registry, "x")
        return xent(tape, nm.dropout(tape, x, 0.3, np.random.default_rng(77)))

    check(loss_fn, registry)


def test_grads_fanout_sums_three_consumers():
    rng = np.random.default_rng(11)
    registry = make_registry(x=rng_arr(rng, 5))

    def loss_fn(tape):
        x = nm.param(tape, registry, "x")
        a = nm.tanh(tape, x)
        b = nm.gather(tape, x, np.array([4, 0, 1, 2, 3]))
        c = nm.dropout(tape, x, 0.5, np.random.default_rng(3))
        # a's second consumer: its gradient reaches a after add_n's, and
        # must not leak into the gradients that add_n handed b and c
        d = nm.tanh(tape, a)
        return xent(tape, nm.add_n(tape, [a, b, c]), d)

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
    x = nm.constant(np.ones((1, 1, 3)))
    h = nm.constant(np.zeros((1, 2)))
    c = nm.constant(np.zeros((1, 2)))
    h1, c1 = lstm_step(None, x, h, c, *(nm.param(None, registry, n)
                                        for n in ("wx", "wh", "b")))
    assert np.array_equal(h1.value, np.zeros((1, 2)))
    assert np.array_equal(c1.value, np.zeros((1, 2)))


def test_lstm_shape_mismatch():
    registry = make_registry(wx=np.zeros((8, 3)), wh=np.zeros((8, 2)), b=np.zeros(8))
    weights = [nm.param(None, registry, n) for n in ("wx", "wh", "b")]
    zeros = nm.constant(np.zeros((1, 2)))
    with pytest.raises(nm.ShapeMismatch):  # an input of the wrong width
        lstm_step(None, nm.constant(np.ones((1, 1, 5))), zeros, zeros, *weights)
    with pytest.raises(nm.ShapeMismatch):  # a state of another row count
        lstm_step(None, nm.constant(np.ones((1, 1, 3))), nm.constant(np.zeros((2, 2))),
                  zeros, *weights)


def test_attention_singleton_and_symmetry():
    rng = np.random.default_rng(12)
    w_score = nm.constant(rng_arr(rng, 6))
    w = nm.constant(rng_arr(rng, 6, 8))
    b = nm.constant(rng_arr(rng, 6))
    u = nm.constant(rng_arr(rng, 1, 4))
    v = rng_arr(rng, 4)
    first = np.array([0])
    ctx, weights = nm.attention(None, u, nm.constant(v[None, None]), w_score, w, b, first)
    assert np.allclose(weights.value, [[1.0]])
    assert np.allclose(ctx.value, [v])
    pair = nm.constant(np.stack([v, v])[None])
    ctx2, weights2 = nm.attention(None, u, pair, w_score, w, b, first)
    assert np.allclose(weights2.value, [[0.5, 0.5]])
    # a masked (padding) entry gets exactly zero weight
    padded = nm.constant(np.stack([v, rng_arr(rng, 4)])[None])
    ctx3, weights3 = nm.attention(None, u, padded, w_score, w, b, first,
                                  mask=np.array([[True, False]]))
    assert weights3.value.tolist() == [[1.0, 0.0]]
    assert np.array_equal(ctx3.value, ctx.value)


def test_attention_empty_candidates():
    with pytest.raises(nm.EmptyCandidates):
        nm.attention(None, nm.constant(np.zeros((1, 2))), nm.constant(np.zeros((1, 0, 2))),
                     nm.constant(np.zeros(2)), nm.constant(np.zeros((2, 4))),
                     nm.constant(np.zeros(2)), np.array([0]))


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
    loss = nm.softmax_cross_entropy(None, logits, 3)
    assert np.isclose(float(loss.value), np.log(5))
    favored = np.zeros(5)
    favored[3] = 30.0
    loss2 = nm.softmax_cross_entropy(None, nm.constant(favored), 3)
    assert float(loss2.value) < 1e-9
    with pytest.raises(nm.IndexOutOfRange):
        nm.softmax_cross_entropy(None, logits, 9)


def test_softmax_is_distribution():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = nm.masked_softmax(rng.standard_normal(9) * 5)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_dropout_identity_cases():
    x = nm.constant(np.ones(8))
    assert nm.dropout(None, x, 0.0, np.random.default_rng(0)) is x
    assert nm.dropout(None, x, 0.5, None) is x


def test_dropout_monte_carlo_mean():
    rng = np.random.default_rng(123)
    x = nm.constant(np.ones(100_000))
    y = nm.dropout(None, x, 0.1, rng)
    p = 0.1
    sigma = np.sqrt((p / (1 - p)) / x.value.size)
    assert abs(y.value.mean() - 1.0) < 3 * sigma


def test_dropout_validates_rate():
    with pytest.raises(ValueError):
        nm.dropout(None, nm.constant(np.ones(3)), 1.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_params():
    registry = make_registry(w=np.array([1.0, -2.0]))
    before = registry["w"].copy()
    nm.adam_step(registry, OptimizerConfig())
    assert np.array_equal(registry["w"], before)
    assert registry.adam_t == 1


def test_adam_first_step_closed_form():
    config = OptimizerConfig(gradient_clip_norm=math.inf)
    assert config.learning_rate == 0.001
    registry = make_registry(w=np.array([0.5]))
    registry.grads["w"][...] = 1.0
    nm.adam_step(registry, config)
    # m_hat = v_hat = 1, so the step is -lr / (1 + eps)
    expected = 0.5 - 0.001 / (1.0 + nm.ADAM_EPSILON)
    assert np.isclose(registry["w"][0], expected, rtol=0, atol=1e-15)


def test_adam_clipping_bounds_update():
    config = OptimizerConfig(gradient_clip_norm=1.0)
    registry = make_registry(w=np.zeros(4))
    registry.grads["w"][...] = 100.0
    nm.adam_step(registry, config)
    # post-clip gradient has norm 1; the first Adam step is still -lr-ish
    assert np.all(np.abs(registry["w"]) <= config.learning_rate * 1.01)


def reference_adam_step(params, grads, m, v, t, config):
    """The per-name Adam loop that the whole-arena update replaced."""
    total = 0.0
    for name in params:
        total += float((grads[name] * grads[name]).sum())
    norm = np.sqrt(total)
    clip_scale = 1.0
    if norm > config.gradient_clip_norm:
        clip_scale = config.gradient_clip_norm / norm
    beta1, beta2 = nm.ADAM_BETA1, nm.ADAM_BETA2
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if clip_scale != 1.0:
            g = g * clip_scale
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        p -= config.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + nm.ADAM_EPSILON)


@pytest.mark.parametrize("clip", [math.inf, 0.5])
def test_adam_step_matches_per_name_reference(clip):
    rng = np.random.default_rng(21)
    shapes = {"w": (4, 3), "b": (4,), "e": (5, 2, 3), "s": ()}
    if clip == math.inf:
        # "c" spans more than two of adam_step's chunks, whose edges fall
        # within it. Under clipping the reference's per-name norm sums in
        # another order, which moves the near-zero entries of so long a
        # parameter by more than the tolerance, with or without chunks.
        shapes = {"w": (4, 3), "c": (2 * nm.ADAM_CHUNK + 3,), **shapes}
    # parameters on the scale of one step, so that a last-bit change in a
    # step shows in the parameter
    registry = make_registry(**{name: 1e-3 * rng_arr(rng, *shape)
                                for name, shape in shapes.items()})
    params = {name: registry[name].copy() for name in shapes}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    config = OptimizerConfig(gradient_clip_norm=clip)
    for t in range(1, 4):
        for name, shape in shapes.items():
            registry.grads[name][...] = rng_arr(rng, *shape)
        grads = {name: registry.grads[name].copy() for name in shapes}
        if clip < math.inf:
            assert np.sqrt(sum((g * g).sum() for g in grads.values())) > clip
        nm.adam_step(registry, config)
        reference_adam_step(params, grads, m, v, t, config)
        assert registry.adam_t == t
        for name in shapes:
            for got, want in ((registry[name], params[name]),
                              (registry.adam_m[name], m[name]),
                              (registry.adam_v[name], v[name])):
                if clip == math.inf:
                    assert np.array_equal(got, want), name
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            OptimizerConfig(gradient_clip_norm=bad)
    assert OptimizerConfig(gradient_clip_norm=math.inf).gradient_clip_norm == math.inf


@pytest.mark.parametrize("clip", [5.0, math.inf])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_non_finite_gradient_updates_nothing(clip, bad):
    registry = make_registry(w=np.array([1.0, -2.0]), u=np.array([0.5]))
    before = {name: registry[name].copy() for name in registry.names()}
    registry.grads["w"][...] = [0.1, bad]
    registry.grads["u"][...] = 1.0
    with pytest.raises(nm.NonFiniteValue):
        nm.adam_step(registry, OptimizerConfig(gradient_clip_norm=clip))
    assert registry.adam_t == 0
    for name in registry.names():
        assert np.array_equal(registry[name], before[name])
        assert not registry.adam_m[name].any() and not registry.adam_v[name].any()


# ---------------------------------------------------------------------------
# registry and checkpoints


def test_registry_unique_names_and_frozen_shapes():
    registry = make_registry(w=np.zeros(3))
    assert registry.flat.size == 3
    assert registry.shapes == {"w": (3,)}


def test_registry_views_share_the_arena_and_copies_share_nothing():
    rng = np.random.default_rng(15)
    registry = make_registry(w=rng_arr(rng, 3, 2), b=rng_arr(rng, 3), s=rng_arr(rng))
    buffers = (registry.flat, registry.flat_grads, registry.flat_m, registry.flat_v)
    views = (registry, registry.grads, registry.adam_m, registry.adam_v)
    for table, buf in zip(views, buffers):
        assert buf.shape == (registry.flat.size,) and buf.flags.c_contiguous
        for name in registry.names():
            assert np.shares_memory(table[name], buf), name
    registry["b"][...] = 7.0
    assert np.array_equal(registry.flat[6:9], [7.0, 7.0, 7.0])
    registry.flat_m[...] = 2.0
    registry.adam_t = 3
    other = registry.copy()
    assert other.names() == registry.names() and other.adam_t == 0
    assert not {"flat_grads", "flat_m", "flat_v"} & vars(other).keys()
    for buf in buffers:
        assert not np.shares_memory(buf, other.flat)
    assert other.flat.tobytes() == registry.flat.tobytes()
    for name in registry.names():
        assert np.shares_memory(other[name], other.flat), name


def test_registry_makes_training_buffers_on_first_use():
    def made(reg):
        return [b for b in ("flat_grads", "flat_m", "flat_v") if b in vars(reg)]

    registry = make_registry(w=np.ones((2, 3)), b=np.zeros(2))
    assert made(registry) == []
    nm.linear(None, nm.constant(np.ones(3)), nm.param(None, registry, "w"),
              nm.param(None, registry, "b"))
    assert made(registry) == []
    assert made(registry.copy()) == []
    tape = Tape()
    assert tape.param_leaf(registry, "w").grad is registry.grads["w"]
    assert made(registry) == ["flat_grads"] and not registry.flat_grads.any()
    nm.adam_step(registry, OptimizerConfig())
    assert made(registry) == ["flat_grads", "flat_m", "flat_v"]
    assert made(registry.copy()) == []


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    registry = make_registry(alpha=rng_arr(rng, 3, 4), beta=rng_arr(rng, 7))
    registry.adam_m["alpha"][...] = rng_arr(rng, 3, 4)
    registry.adam_t = 12
    path = tmp_path / "model.bin"
    nm.save_checkpoint(path, registry)
    # magic, version, the shape table, 8 bytes per parameter and the sha256
    table = sum(2 + len(name) + 1 + 4 * len(shape) for name, shape in registry.shapes.items())
    assert path.stat().st_size == 4 + 1 + 4 + table + 8 * registry.flat.size + 32
    loaded = nm.load_checkpoint(path)
    assert loaded.names() == registry.names() and loaded.shapes == registry.shapes
    assert loaded.adam_t == 0 and "flat_m" not in vars(loaded)
    assert loaded.flat.tobytes() == registry.flat.tobytes()
    # saving the loaded registry reproduces the file byte for byte
    path2 = tmp_path / "model2.bin"
    nm.save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        nm.load_checkpoint(path)


def test_checkpoint_cut_or_padded_is_a_typed_error(tmp_path):
    rng = np.random.default_rng(8)
    registry = make_registry(w=rng_arr(rng, 3, 2), b=rng_arr(rng, 3))
    path = tmp_path / "ckpt.bin"
    nm.save_checkpoint(path, registry)
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(nm.CheckpointError):
            nm.load_checkpoint(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(nm.CheckpointError, match="1 bytes after"):
        nm.load_checkpoint(path)


def test_checkpoint_every_byte_flip_is_a_typed_error(tmp_path):
    rng = np.random.default_rng(16)
    registry = make_registry(w=rng_arr(rng, 2, 2), b=rng_arr(rng, 2))
    registry.adam_t = 5
    path = tmp_path / "ckpt.bin"
    nm.save_checkpoint(path, registry)
    data = path.read_bytes()
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0xFF
        path.write_bytes(flipped)
        with pytest.raises(nm.CheckpointError):
            nm.load_checkpoint(path)


def test_checkpoint_version_1_is_rejected(tmp_path):
    """And version 2, which also stored the Adam step count and moments."""
    path = tmp_path / "old.bin"
    for version in (1, 2):
        path.write_bytes(b"SSCK" + bytes([version]) + struct.pack("<IQ", 0, 0))
        with pytest.raises(nm.CheckpointError,
                           match=f"unsupported checkpoint version {version}"):
            nm.load_checkpoint(path)


# ---------------------------------------------------------------------------
# determinism and the checker itself


def test_forward_determinism_same_seed():
    def build():
        rng = np.random.default_rng(55)
        registry = ParamRegistry({"w": (6, 6), "v": (6,), "b": (6,)})
        for name in registry.names():
            nm.uniform_init(rng, registry[name])
        y = nm.linear(None, nm.param(None, registry, "v"),
                      nm.param(None, registry, "w"), nm.param(None, registry, "b"))
        return nm.tanh(None, y).value
    assert np.array_equal(build(), build())


def test_uniform_init_draws_what_rng_uniform_draws():
    """One draw over an arena gives each parameter, in table order, the
    values that ``rng.uniform`` gives it as a new array, bit for bit."""
    registry = ParamRegistry({"w": (7, 5), "b": (3,), "s": (2, 1, 4)})
    nm.uniform_init(np.random.default_rng(21), registry.flat)
    reference = np.random.default_rng(21)
    for name, shape in registry.shapes.items():
        assert registry[name].tobytes() == reference.uniform(-0.08, 0.08, shape).tobytes()


def test_grad_check_exact_for_linear_model():
    registry = make_registry(w=np.array([[2.0, -1.0, 0.5]]))
    x = np.array([1.0, 2.0, 3.0])

    def loss_fn(tape):
        y = nm.linear(tape, nm.constant(x), nm.param(tape, registry, "w"),
                      nm.constant(np.zeros(1)))
        return nm.gather(tape, y, 0)

    err = nm.grad_check(loss_fn, registry, 3, np.random.default_rng(0))
    assert err < 1e-9


@pytest.mark.parametrize("idx", [
    np.array([0, 2, 2, 3, 5, 5, 5]),                 # sorted, with repeats
    np.array([5, 0, 3, 2, 5, 2, 0]),                 # unsorted, with repeats
    np.array([4, 1, 0, 5, 3]),                       # unsorted, no repeats
    np.array([1, 1, 1]),                             # one row, repeated
    np.array([], dtype=np.intp),
    (np.array([0, 0, 1, 4, 4]), slice(1, 3)),        # rows, then a slice
    (np.array([4, 0, 4, 1, 0]), slice(None), slice(0, 2)),
    (np.array([3, 0, 3]), None, slice(1, 3)),        # rows, then a new axis
    (slice(None), None),                             # a view: one plain add
])
def test_scatter_matches_add_at(idx):
    rng = np.random.default_rng(0)
    base = rng_arr(rng, 6, 3, 4)
    g = rng_arr(rng, *base[idx].shape)
    want = base.copy()
    np.add.at(want, idx, g)
    got = base.copy()
    nm._scatter(got, idx, g)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------------------
# the array functions' out= buffers


def same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_array_functions_write_the_same_bits_into_out(rows, nan, seed):
    """Every array function that greedy decoding runs on its workspace gives
    byte for byte what it gives without ``out``, also into views of a wider
    row as the workspace passes them, and with a NaN in its input."""
    rng = np.random.default_rng([seed, rows, nan])
    d, k, n_keys = (int(v) for v in rng.integers(2, 40, size=3))
    x = rng_arr(rng, rows, k)
    if nan:
        x[0, int(rng.integers(k))] = np.nan

    def wide(shape, width):  # a buffer that is the last columns of wider rows
        return np.full(shape[:-1] + (shape[-1] + width,), 7.0)[..., width:]

    w, b = rng_arr(rng, d, k), rng_arr(rng, d)
    assert same_bits([nm._linear(x, w, b, out=np.zeros((rows + 2, d))[2:])],
                     [nm._linear(x, w, b)])
    z = rng_arr(rng, rows, n_keys)
    z[:, 0] = np.nan if nan else z[:, 0]
    want = nm.masked_softmax(z)
    assert same_bits([nm.masked_softmax(z, out=np.empty_like(z))], [want])
    assert same_bits([nm.masked_softmax(z, out=z)], [want])

    h, c = rng_arr(rng, rows, d), rng_arr(rng, rows, d)
    lstm = (rng_arr(rng, 4 * d, k), rng_arr(rng, 4 * d, d), rng_arr(rng, 4 * d))
    want = nm._lstm_cell(x, h, c, *lstm)
    h_in_row = wide(h.shape, 5)
    h_in_row[...] = h
    c_copy = c.copy()  # h and c stepped in place, as greedy decoding steps them
    got = nm._lstm_cell(x, h_in_row, c_copy, *lstm, out=(
        h_in_row, c_copy, np.empty((rows, 4 * d)), np.empty((rows, 4 * d))))
    assert same_bits(got, want) and got[0] is h_in_row and got[1] is c_copy

    w_attn = rng_arr(rng, d, k + d)
    keys = rng_arr(rng, rows, n_keys, d)
    pre = nm._attention_pre(w_attn, keys, k)
    args = (x, pre, w_attn[:, :k], rng_arr(rng, d), rng_arr(rng, d))
    want = nm._attention_scores(*args)
    got = nm._attention_scores(*args, out=(np.empty(pre.shape), np.empty((rows, n_keys))))
    assert same_bits(got, want)
    # greedy decoding's weighted sum, one row over its keys, into a feature row
    weights = nm.masked_softmax(want[1][:1])
    assert same_bits([np.matmul(weights, keys[0], out=wide((1, d), 4))],
                     [np.matmul(weights, keys[0])])

    sizes = [int(s) for s in rng.multinomial(k - 3, [1 / 3] * 3) + 1]
    gate_w, gate_b = rng_arr(rng, 6, k), rng_arr(rng, 6)
    views = (gate_w.reshape(2, 3, -1).transpose(0, 2, 1), gate_b.reshape(2, 1, 3))
    want = nm._gate_blocks(x, *views, sizes)
    got = nm._gate_blocks(x, *views, sizes, out=(np.empty((2, rows, k)), np.empty((2, rows, 3)),
                                                 np.empty((2, rows, 3))))
    assert same_bits(got, want)

    head = (rng_arr(rng, d, k), rng_arr(rng, d), rng_arr(rng, 7, d), rng_arr(rng, 7))
    got = nm._dense_relu_dense(x, *head, out=(np.empty((rows, d)), np.empty((rows, d)),
                                               np.zeros((rows + 2, 7))[2:]))
    assert same_bits(got, nm._dense_relu_dense(x, *head))
