"""Tape-based reverse-mode autodiff over numpy arrays, with optimizer and checkpoints.

Everything runs in float64. A ``Tape`` records one backward closure per
executed op, in execution order; ``Tape.backward`` replays them reversed,
accumulating gradients additively so fan-out just works. Trainable tensors
live in a ``ParamRegistry`` keyed by name; leaf nodes for parameters are
memoized per tape and their gradients are flushed into the registry after
the backward sweep.

All ops accept ``tape=None`` for inference-only forward passes (nothing is
recorded, so closures are never built). Node values must never be mutated
while a tape that refers to them is still alive.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    pass


class EmptyCandidates(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


class NonFiniteValue(ArithmeticError):
    """A loss or gradient norm is NaN or infinite."""


class Node:
    """A value in the computation graph. ``grad`` is allocated lazily."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: np.ndarray | None = None


def _acc(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


class ParamRegistry:
    """Named, flat registry of every trainable tensor plus optimizer slots.

    Names are unique, shapes are frozen at ``add`` time, and every tensor
    gets a same-shape gradient slot and Adam moment slots.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t: int = 0

    def add(self, name: str, value: np.ndarray | Sequence) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        self._params[name] = arr
        self.grads[name] = np.zeros_like(arr)
        self.adam_m[name] = np.zeros_like(arr)
        self.adam_v[name] = np.zeros_like(arr)
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def size(self) -> int:
        return sum(p.size for p in self._params.values())

    def copy(self) -> "ParamRegistry":
        other = ParamRegistry()
        for name, p in self._params.items():
            other.add(name, p.copy())
            other.adam_m[name][...] = self.adam_m[name]
            other.adam_v[name][...] = self.adam_v[name]
        other.adam_t = self.adam_t
        return other


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward()."""

    __slots__ = ("_backs", "_params")

    def __init__(self):
        self._backs: list[Callable[[], None]] = []
        self._params: dict[str, tuple[ParamRegistry, Node]] = {}

    def record(self, back: Callable[[], None]) -> None:
        self._backs.append(back)

    def param_leaf(self, registry: ParamRegistry, name: str) -> Node:
        hit = self._params.get(name)
        if hit is not None:
            return hit[1]
        node = Node(registry[name])
        self._params[name] = (registry, node)
        return node

    def backward(self, root: Node) -> None:
        """Reverse sweep from ``root``; flushes parameter grads into registries."""
        root.grad = np.ones_like(root.value)
        for back in reversed(self._backs):
            back()
        for name, (registry, node) in self._params.items():
            if node.grad is not None:
                registry.grads[name] += node.grad


def param(tape: Tape | None, registry: ParamRegistry, name: str) -> Node:
    if tape is None:
        return Node(registry[name])
    return tape.param_leaf(registry, name)


def constant(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def uniform_init(rng: np.random.Generator, shape, scale: float = 0.08) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape)


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(tape: Tape | None, a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(f"add: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value + b.value)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(a, out.grad)
            _acc(b, out.grad)
        tape.record(back)
    return out


def add_n(tape: Tape | None, parts: Sequence[Node]) -> Node:
    """Sum of same-shape nodes (used to total per-step losses)."""
    if not parts:
        raise EmptyCandidates("add_n of no nodes")
    out = Node(sum(p.value for p in parts[1:]) + parts[0].value if len(parts) > 1
               else parts[0].value.copy())
    if tape is not None:
        def back():
            if out.grad is None:
                return
            for p in parts:
                _acc(p, out.grad)
        tape.record(back)
    return out


def tanh(tape: Tape | None, x: Node) -> Node:
    out = Node(np.tanh(x.value))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(x, (1.0 - out.value * out.value) * out.grad)
        tape.record(back)
    return out


def sigmoid(tape: Tape | None, x: Node) -> Node:
    v = x.value
    out = Node(np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                        np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v)))))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(x, out.value * (1.0 - out.value) * out.grad)
        tape.record(back)
    return out


def relu(tape: Tape | None, x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(x, (x.value > 0.0) * out.grad)
        tape.record(back)
    return out


def concat(tape: Tape | None, parts: Sequence[Node]) -> Node:
    if not parts:
        raise EmptyCandidates("concat of no nodes")
    out = Node(np.concatenate([p.value for p in parts]))
    if tape is not None:
        sizes = [p.value.shape[0] for p in parts]
        def back():
            if out.grad is None:
                return
            off = 0
            for p, sz in zip(parts, sizes):
                _acc(p, out.grad[off:off + sz])
                off += sz
        tape.record(back)
    return out


def cols(tape: Tape | None, m: Node, lo: int, hi: int) -> Node:
    out = Node(m.value[:, lo:hi])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if m.grad is None:
                m.grad = np.zeros_like(m.value)
            m.grad[:, lo:hi] += out.grad
        tape.record(back)
    return out


def rows_stack(tape: Tape | None, rows: Sequence[Node]) -> Node:
    if not rows:
        raise EmptyCandidates("rows_stack of no nodes")
    out = Node(np.stack([r.value for r in rows]))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            for i, r in enumerate(rows):
                _acc(r, out.grad[i])
        tape.record(back)
    return out


def gather(tape: Tape | None, x: Node, idx: np.ndarray) -> Node:
    out = Node(x.value[idx])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            np.add.at(x.grad, idx, out.grad)
        tape.record(back)
    return out


def dot(tape: Tape | None, a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(f"dot: {a.value.shape} vs {b.value.shape}")
    out = Node(np.asarray(a.value @ b.value))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(a, out.grad * b.value)
            _acc(b, out.grad * a.value)
        tape.record(back)
    return out


# ---------------------------------------------------------------------------
# linear algebra primitives


def matvec(tape: Tape | None, m: Node, v: Node) -> Node:
    if m.value.ndim != 2 or v.value.ndim != 1 or m.value.shape[1] != v.value.shape[0]:
        raise ShapeMismatch(f"matvec: {m.value.shape} @ {v.value.shape}")
    out = Node(m.value @ v.value)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(m, np.outer(out.grad, v.value))
            _acc(v, m.value.T @ out.grad)
        tape.record(back)
    return out


def matvec_t(tape: Tape | None, m: Node, v: Node) -> Node:
    """M.T @ v for a (k, n) matrix and length-k vector."""
    if m.value.ndim != 2 or v.value.ndim != 1 or m.value.shape[0] != v.value.shape[0]:
        raise ShapeMismatch(f"matvec_t: {m.value.shape}.T @ {v.value.shape}")
    out = Node(m.value.T @ v.value)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(m, np.outer(v.value, out.grad))
            _acc(v, m.value @ out.grad)
        tape.record(back)
    return out


def matmul_nt(tape: Tape | None, a: Node, b: Node) -> Node:
    """A @ B.T for (k, n) and (j, n) matrices."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
        raise ShapeMismatch(f"matmul_nt: {a.value.shape} @ {b.value.shape}.T")
    out = Node(a.value @ b.value.T)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(a, out.grad @ b.value)
            _acc(b, out.grad.T @ a.value)
        tape.record(back)
    return out


def add_col(tape: Tape | None, m: Node, v: Node) -> Node:
    """M + v[:, None] column broadcast."""
    if m.value.shape[0] != v.value.shape[0]:
        raise ShapeMismatch(f"add_col: {m.value.shape} + {v.value.shape}")
    out = Node(m.value + v.value[:, None])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(m, out.grad)
            _acc(v, out.grad.sum(axis=1))
        tape.record(back)
    return out


def affine(tape: Tape | None, w: Node, x: Node, b: Node) -> Node:
    return add(tape, matvec(tape, w, x), b)


# ---------------------------------------------------------------------------
# probability ops


def softmax(tape: Tape | None, x: Node) -> Node:
    z = x.value - x.value.max()
    e = np.exp(z)
    p = e / e.sum()
    out = Node(p)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            g = out.grad
            _acc(x, p * (g - (g * p).sum()))
        tape.record(back)
    return out


def softmax_cross_entropy(tape: Tape | None, logits: Node, target: int) -> tuple[Node, np.ndarray]:
    """Stabilized -log softmax(logits)[target]; also returns the probabilities."""
    n = logits.value.shape[0]
    if not 0 <= target < n:
        raise IndexOutOfRange(f"target {target} out of range for {n} logits")
    z = logits.value - logits.value.max()
    lse = np.log(np.exp(z).sum())
    p = np.exp(z - lse)
    loss = Node(np.asarray(lse - z[target]))
    if tape is not None:
        def back():
            if loss.grad is None:
                return
            g = p.copy()
            g[target] -= 1.0
            _acc(logits, g * loss.grad)
        tape.record(back)
    return loss, p


def dropout(tape: Tape | None, x: Node, p: float, training: bool,
            rng: np.random.Generator | None) -> Node:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(x.value.shape) >= p) / (1.0 - p)
    out = Node(x.value * keep)
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(x, out.grad * keep)
        tape.record(back)
    return out


def embedding_row(tape: Tape | None, table: Node, idx: int) -> Node:
    out = Node(table.value[idx])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if table.grad is None:
                table.grad = np.zeros_like(table.value)
            table.grad[idx] += out.grad
        tape.record(back)
    return out


def gate_blocks(tape: Tape | None, gates: Node, blocks: Sequence[Node]) -> Node:
    """Concat of gates[k] * blocks[k]; one scalar gate scales one whole block."""
    if gates.value.shape[0] != len(blocks):
        raise ShapeMismatch(f"{gates.value.shape[0]} gates for {len(blocks)} blocks")
    out = Node(np.concatenate([gates.value[k] * blk.value for k, blk in enumerate(blocks)]))
    if tape is not None:
        sizes = [blk.value.shape[0] for blk in blocks]
        def back():
            if out.grad is None:
                return
            if gates.grad is None:
                gates.grad = np.zeros_like(gates.value)
            off = 0
            for k, (blk, sz) in enumerate(zip(blocks, sizes)):
                sl = out.grad[off:off + sz]
                gates.grad[k] += sl @ blk.value
                _acc(blk, gates.value[k] * sl)
                off += sz
        tape.record(back)
    return out


# ---------------------------------------------------------------------------
# composed network pieces


def lstm_cell(tape: Tape | None, x: Node, h: Node, c: Node,
              wx: Node, wh: Node, b: Node) -> tuple[Node, Node]:
    """Single fused LSTM cell step: gates i, f, o, g; returns (h', c')."""
    hidden = h.value.shape[0]
    if (wx.value.shape[0] != 4 * hidden or wh.value.shape != (4 * hidden, hidden)
            or b.value.shape[0] != 4 * hidden or wx.value.shape[1] != x.value.shape[0]
            or c.value.shape[0] != hidden):
        raise ShapeMismatch(
            f"lstm_cell: x{x.value.shape} h{h.value.shape} c{c.value.shape} "
            f"wx{wx.value.shape} wh{wh.value.shape} b{b.value.shape}")
    z = wx.value @ x.value + wh.value @ h.value + b.value
    zi, zf, zo, zg = z[:hidden], z[hidden:2 * hidden], z[2 * hidden:3 * hidden], z[3 * hidden:]
    gi = 1.0 / (1.0 + np.exp(-zi))
    gf = 1.0 / (1.0 + np.exp(-zf))
    go = 1.0 / (1.0 + np.exp(-zo))
    gg = np.tanh(zg)
    cn_val = gf * c.value + gi * gg
    tc = np.tanh(cn_val)
    hn = Node(go * tc)
    cn = Node(cn_val)
    if tape is not None:
        def back():
            dh = hn.grad
            dc = cn.grad
            if dh is None and dc is None:
                return
            dc_tot = np.zeros_like(cn_val) if dc is None else dc.copy()
            if dh is not None:
                dc_tot += dh * go * (1.0 - tc * tc)
                do = dh * tc
            else:
                do = np.zeros_like(go)
            di = dc_tot * gg
            df = dc_tot * c.value
            dg = dc_tot * gi
            dz = np.concatenate([
                di * gi * (1.0 - gi),
                df * gf * (1.0 - gf),
                do * go * (1.0 - go),
                dg * (1.0 - gg * gg),
            ])
            _acc(wx, np.outer(dz, x.value))
            _acc(wh, np.outer(dz, h.value))
            _acc(b, dz)
            _acc(x, wx.value.T @ dz)
            _acc(h, wh.value.T @ dz)
            _acc(c, dc_tot * gf)
        tape.record(back)
    return hn, cn


def attention_pre(tape: Tape | None, w: Node, vmat: Node, query_dim: int) -> Node:
    """Candidate-side half of the attention hidden layer, reusable across steps."""
    wv = cols(tape, w, query_dim, w.value.shape[1])
    return matmul_nt(tape, wv, vmat)


def _as_matrix(tape: Tape | None, candidates) -> Node:
    if isinstance(candidates, Node):
        if candidates.value.shape[0] == 0:
            raise EmptyCandidates("attention over zero candidates")
        return candidates
    if len(candidates) == 0:
        raise EmptyCandidates("attention over zero candidates")
    return rows_stack(tape, candidates)


def attention_scores(tape: Tape | None, u: Node, candidates, w_score: Node,
                     w: Node, b: Node, *, pre: Node | None = None,
                     dropout_p: float = 0.0, training: bool = False,
                     rng: np.random.Generator | None = None) -> Node:
    """Additive attention scores w_score . tanh(W [u; v_i] + b) for each candidate."""
    vmat = _as_matrix(tape, candidates)
    du = u.value.shape[0]
    if pre is None:
        pre = attention_pre(tape, w, vmat, du)
    wu = cols(tape, w, 0, du)
    a = affine(tape, wu, u, b)
    hidden = tanh(tape, add_col(tape, pre, a))
    hidden = dropout(tape, hidden, dropout_p, training, rng)
    return matvec_t(tape, hidden, w_score)


def attention(tape: Tape | None, u: Node, candidates, w_score: Node, w: Node,
              b: Node, *, pre: Node | None = None, dropout_p: float = 0.0,
              training: bool = False, rng: np.random.Generator | None = None
              ) -> tuple[Node, Node]:
    """Soft attention read; returns (context vector, weight distribution node)."""
    vmat = _as_matrix(tape, candidates)
    scores = attention_scores(tape, u, vmat, w_score, w, b, pre=pre,
                              dropout_p=dropout_p, training=training, rng=rng)
    weights = softmax(tape, scores)
    context = matvec_t(tape, vmat, weights)
    return context, weights


def dense_relu_dense(tape: Tape | None, x: Node, w1: Node, b1: Node, w2: Node,
                     b2: Node, *, hidden_dropout: float = 0.0,
                     training: bool = False,
                     rng: np.random.Generator | None = None) -> Node:
    """One-hidden-layer ReLU scorer: W2 relu(W1 x + b1) + b2."""
    hidden = relu(tape, affine(tape, w1, x, b1))
    hidden = dropout(tape, hidden, hidden_dropout, training, rng)
    return affine(tape, w2, hidden, b2)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    gradient_clip_norm: float | None = 5.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must be in (0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.gradient_clip_norm is not None and not self.gradient_clip_norm > 0:
            raise ValueError("gradient_clip_norm must be positive or None")


def adam_step(registry: ParamRegistry, grads: dict[str, np.ndarray],
              config: OptimizerConfig) -> ParamRegistry:
    """Bias-corrected Adam update, in place; increments the step counter.

    Raises ``NonFiniteValue`` before touching any parameter when the global
    gradient norm is NaN or infinite."""
    total = 0.0
    for name in registry.names():
        g = grads[name]
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise NonFiniteValue(f"gradient norm is {norm}")
    clip_scale = 1.0
    if config.gradient_clip_norm is not None and norm > config.gradient_clip_norm:
        clip_scale = config.gradient_clip_norm / norm
    registry.adam_t += 1
    t = registry.adam_t
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    for name in registry.names():
        g = grads[name]
        p = registry[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"{name}: grad {g.shape} vs param {p.shape}")
        if clip_scale != 1.0:
            g = g * clip_scale
        m = registry.adam_m[name]
        v = registry.adam_v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
    return registry


# ---------------------------------------------------------------------------
# finite-difference checker


def grad_check(loss_fn: Callable[[Tape | None], Node], registry: ParamRegistry,
               probe_count: int, rng: np.random.Generator,
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(tape)`` must build the loss as a Node and be deterministic for
    fixed parameter values (reseed any internal rng per call). Probes that
    fail at the base step size are re-measured at step/10 and the better of
    the two errors is kept, which discards spurious failures from a central
    difference straddling a ReLU kink.
    """
    registry.zero_grads()
    tape = Tape()
    loss = loss_fn(tape)
    tape.backward(loss)
    analytic = {name: registry.grads[name].copy() for name in registry.names()}
    registry.zero_grads()

    names = registry.names()
    sizes = np.array([registry[n].size for n in names])
    total = int(sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    flat_picks = rng.integers(0, total, size=probe_count)

    def numeric_at(name: str, i: int, h: float) -> float:
        flat = registry[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        lp = float(loss_fn(None).value)
        flat[i] = orig - h
        lm = float(loss_fn(None).value)
        flat[i] = orig
        return (lp - lm) / (2.0 * h)

    worst = 0.0
    for flat_idx in flat_picks:
        k = int(np.searchsorted(offsets, flat_idx, side="right")) - 1
        name = names[k]
        i = int(flat_idx - offsets[k])
        ana = float(analytic[name].reshape(-1)[i])
        num = numeric_at(name, i, step)
        err = abs(ana - num) / max(1.0, abs(ana), abs(num))
        if err > 1e-4:
            num2 = numeric_at(name, i, step / 10.0)
            err2 = abs(ana - num2) / max(1.0, abs(ana), abs(num2))
            err = min(err, err2)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoint archive

_CKPT_MAGIC = b"SSCK"
_CKPT_VERSION = 1


def save_checkpoint(path, registry: ParamRegistry) -> None:
    """Flat archive of (name, shape, float64 LE data) plus Adam slots."""
    out = bytearray()
    out += _CKPT_MAGIC
    out += bytes([_CKPT_VERSION])
    names = registry.names()
    out += struct.pack("<I", len(names))
    for name in names:
        nb = name.encode("utf-8")
        arr = registry[name]
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            out += struct.pack("<I", d)
        out += arr.astype("<f8").tobytes()
    out += struct.pack("<Q", registry.adam_t)
    for name in names:
        out += registry.adam_m[name].astype("<f8").tobytes()
        out += registry.adam_v[name].astype("<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> ParamRegistry:
    data = Path(path).read_bytes()
    if data[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint archive")
    if data[4] != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {data[4]}")
    off = 5
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    registry = ParamRegistry()
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off:off + nlen].decode("utf-8")
        off += nlen
        ndim = data[off]
        off += 1
        shape = []
        for _ in range(ndim):
            (d,) = struct.unpack_from("<I", data, off)
            off += 4
            shape.append(d)
        n_items = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(data, dtype="<f8", count=n_items, offset=off).reshape(shape)
        off += n_items * 8
        registry.add(name, arr.copy())
    (registry.adam_t,) = struct.unpack_from("<Q", data, off)
    off += 8
    for name in registry.names():
        n_items = registry[name].size
        shape = registry[name].shape
        m = np.frombuffer(data, dtype="<f8", count=n_items, offset=off).reshape(shape)
        off += n_items * 8
        v = np.frombuffer(data, dtype="<f8", count=n_items, offset=off).reshape(shape)
        off += n_items * 8
        registry.adam_m[name][...] = m
        registry.adam_v[name][...] = v
    return registry
