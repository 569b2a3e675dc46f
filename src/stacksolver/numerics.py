"""Tape-based reverse-mode autodiff over numpy arrays, with optimizer and checkpoints.

Everything runs in float64. A ``Tape`` records one backward closure per
executed op, in execution order; ``Tape.backward`` replays them reversed,
accumulating gradients additively so fan-out just works: a node's first
gradient is copied, later ones are added to it. Trainable tensors are named
views into the flat buffers of a ``ParamRegistry``, built zeroed from a
{name: shape} table: a new model draws into it, a checkpoint reads into it.
Leaf nodes for parameters are memoized per tape, and their gradients are the
registry's gradient views, so the backward sweep adds into it directly.
A registry holds only its parameters until training needs more: the first
taped parameter read (or ``zero_grads``) makes the gradient buffer, the
first ``adam_step`` the two Adam moments, so a model that only decodes
holds one buffer instead of four. A checkpoint holds the parameters and
nothing else, since nothing trains on from a saved model; it streams
between the file and the arena, with no copy of either in between.

Ops act on the last axis and treat any leading axes as rows, so one op call
serves a whole batch of problems. Whole recurrences, attention scores and
the two-layer scorer are fused ops with a single backward closure each,
which keeps only what that closure needs (dropout masks are kept as
booleans). An attention read records two closures: ``attention_scores``,
which projects its own key half of the hidden layer, and the masked
softmax with the weighted sum. An op's forward that greedy decoding also
runs is a private array function (``_linear``, ``_lstm_cell``,
``_attention_pre``, ``_attention_scores``, ``masked_softmax``,
``_gate_blocks``, ``_dense_relu_dense``): the op calls it on its nodes'
values, and the greedy loop on plain arrays, writing into its workspace
through the functions' ``out`` buffers, so each formula is written once.
The key half is one of them because greedy decoding projects it once per
decode and reuses it at every step; teacher forcing reads each attention
once per run, so the op has no key half to share. ``lstm`` is the one
recurrence op: it steps k streams at once, time-major, with one stacked
product per step and each gate's block of every stream contiguous;
``_lstm_cell`` is one step of one stream in its order of sums.
``gate_blocks`` computes every group of feature gates (the decoder has two)
with one product over the stacked gate weights, applies their sigmoids and
scales the feature blocks.
``RowBuffer`` is the append-only vector store behind the decoder's pointer
stacks. Per-step ops take their weight gradients ``g.T @ x`` from
``_weight_grad``, which hands a one-row product to ``np.dot``: matmul runs
it outside BLAS, about 3x slower, and each entry is one product either way.
An attention read names the key row of each query row by an index array
(a decode's every step, teacher forcing's every (problem, step), problem by
problem) and works per run of one index: ``attention`` takes one product
per run, and ``_scatter`` sums a run's gradient before adding it to that
row.

All ops accept ``tape=None`` for inference-only forward passes (nothing is
recorded, so closures are never built), and ops with dropout apply it
exactly when they are given an ``rng``. Node values must never be mutated
while a tape that refers to them is still alive.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
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


class CheckpointError(ValueError):
    """A checkpoint is not a v3 archive, is cut short, padded or altered, or
    does not hold the parameters that its model description registers."""


class Node:
    """A value in the computation graph. ``grad`` is allocated lazily."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: np.ndarray | None = None


def _acc(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


class ParamRegistry:
    """Every trainable tensor, packed into contiguous float64 buffers.

    ``ParamRegistry(shapes)`` lays out a zeroed ``flat`` over the {name:
    shape} table in its order; ``registry[name]`` is a writable view into
    it. A model that only decodes holds nothing else. ``flat_grads`` and the
    Adam moments ``flat_m`` and ``flat_v`` share that layout and are made,
    zeroed, on their first use (the gradient by ``Tape.param_leaf``,
    ``zero_grads`` or ``grad_check``, the moments by ``adam_step``);
    ``grads[name]``, ``adam_m[name]`` and ``adam_v[name]`` are writable
    views into them. ``copy`` and ``load_checkpoint`` give the parameters
    alone.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        starts = list(itertools.accumulate(map(math.prod, self.shapes.values()), initial=0))
        self._spans = list(zip(self.shapes.items(), starts, starts[1:]))
        self.flat = np.zeros(starts[-1])
        self._params = self._views(self.flat)
        self.adam_t = 0

    def _views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        return {name: buf[lo:hi].reshape(shape) for (name, shape), lo, hi in self._spans}

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.flat.size)

    # made on first access, then plain attributes: no check on later reads
    flat_grads = cached_property(_zeros)
    flat_m = cached_property(_zeros)
    flat_v = cached_property(_zeros)
    grads = cached_property(lambda self: self._views(self.flat_grads))
    adam_m = cached_property(lambda self: self._views(self.flat_m))
    adam_v = cached_property(lambda self: self._views(self.flat_v))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self.shapes)

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def copy(self) -> "ParamRegistry":
        """The parameters alone, in one new buffer: no gradient, no Adam
        moments and an Adam step count of 0, as a loaded checkpoint has."""
        other = ParamRegistry(self.shapes)
        other.flat[...] = self.flat
        return other


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward()."""

    __slots__ = ("_backs", "_params")

    def __init__(self):
        self._backs: list[Callable[[], None]] = []
        self._params: dict[str, Node] = {}

    def record(self, back: Callable[[], None]) -> None:
        self._backs.append(back)

    def param_leaf(self, registry: ParamRegistry, name: str) -> Node:
        node = self._params.get(name)
        if node is None:
            node = self._params[name] = Node(registry[name])
            node.grad = registry.grads[name]
        return node

    def backward(self, root: Node) -> None:
        """Reverse sweep from ``root``, adding into the registries' gradients.

        Each closure is dropped once it has run, so the intermediate values
        that only it referred to are freed during the sweep."""
        root.grad = np.ones_like(root.value)
        backs, self._backs = self._backs, []
        while backs:
            backs.pop()()


def param(tape: Tape | None, registry: ParamRegistry, name: str) -> Node:
    if tape is None:
        return Node(registry[name])
    return tape.param_leaf(registry, name)


def constant(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def uniform_init(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` in place with what ``rng.uniform(low, high, out.shape)``
    returns, bit for bit (``low + (high - low) * u``), with no temporary."""
    low, high = -0.08, 0.08
    rng.random(out=out)
    out *= high - low
    out += low


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def _is_basic(idx) -> bool:
    """Whether ``idx`` is slices only, so that ``x[idx]`` is a view."""
    return all(isinstance(i, slice) for i in (idx if isinstance(idx, tuple) else (idx,)))


def _runs(rows: np.ndarray) -> list[tuple[int, int, int]]:
    """(index, lo, hi) of each run ``rows[lo:hi]`` of one repeated index."""
    if rows.size == 0:  # a problem with no constants to attend from
        return []
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    ends = np.append(starts[1:], rows.size)
    return list(zip(rows[starts].tolist(), starts.tolist(), ends.tolist()))


def _scatter(grad: np.ndarray, idx, g: np.ndarray) -> None:
    """grad[idx] += g, summing over repeated indices.

    A 1-D array of non-negative row indices, alone or followed by slices,
    is sorted (stably, unless it already is) and each run of one row is
    summed at once: ``np.add.at`` adds one index at a time, which is slow
    when each names a block of many entries, and so is ``np.add.reduceat``
    over the first axis of such blocks. Any other index goes to ``np.add.at``."""
    rows, rest = (idx[0], idx[1:]) if isinstance(idx, tuple) else (idx, ())
    if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind in "iu"
            and _is_basic(rest)):
        np.add.at(grad, idx, g)
        return
    if rows.size == 0:
        return
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        rows, g = rows[order], g[order]
    runs = _runs(rows)
    if len(runs) == rows.size:  # no index repeats: one fancy add
        grad[(rows,) + rest] += g
        return
    for row, lo, hi in runs:
        grad[(row,) + rest] += g[lo:hi].sum(axis=0)


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


def concat(tape: Tape | None, parts: Sequence[Node], axis: int = -1) -> Node:
    """Concatenation along ``axis`` (the last by default)."""
    if not parts:
        raise EmptyCandidates("concat of no nodes")
    out = Node(np.concatenate([p.value for p in parts], axis=axis))
    if tape is not None:
        ends = np.cumsum([p.value.shape[axis] for p in parts]).tolist()
        lead = (slice(None),) * (axis % out.value.ndim)
        def back():
            if out.grad is None:
                return
            for p, lo, hi in zip(parts, [0, *ends], ends):
                _acc(p, out.grad[lead + (slice(lo, hi),)])
        tape.record(back)
    return out


def gather(tape: Tape | None, x: Node, idx) -> Node:
    """``x[idx]`` for index arrays, slices or new axes."""
    out = Node(x.value[idx])
    if tape is not None:
        def back():
            if out.grad is None:
                return
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            _scatter(x.grad, idx, out.grad)
        tape.record(back)
    return out


class RowBuffer:
    """Append-only store of d-vectors that later ops read back by index.

    ``append`` copies a node's rows in and returns their indices; ``gather``
    reads any rows back as one node, so a stack of vectors is a set of
    pointers into the buffer. Gathers add their gradients into one
    buffer-wide array; the backward closure of an append runs after those of
    every later gather and hands its rows' share to the appended node.
    """

    def __init__(self, tape: Tape | None, dim: int):
        self.tape = tape
        self.value = np.zeros((16, dim))  # at least doubled when an append overflows it
        self.size = 0
        self.grad: np.ndarray | None = None

    def append(self, node: Node) -> np.ndarray:
        dim = self.value.shape[1]
        rows = node.value.reshape(-1, dim)
        lo, hi = self.size, self.size + rows.shape[0]
        if hi > self.value.shape[0]:
            grown = np.zeros((max(hi, 2 * self.value.shape[0]), dim))
            grown[:lo] = self.value[:lo]
            self.value = grown  # earlier gathers hold copies, not views
        self.value[lo:hi] = rows
        self.size = hi
        if self.tape is not None:
            def back():
                if self.grad is not None:
                    _acc(node, self.grad[lo:hi].reshape(node.value.shape))
            self.tape.record(back)
        return np.arange(lo, hi)

    def gather(self, idx: np.ndarray) -> Node:
        """Rows ``idx``; the vectors named along its last axis are concatenated."""
        dim = self.value.shape[1]
        out = Node(self.value[idx].reshape(idx.shape[:-1] + (idx.shape[-1] * dim,)))
        if self.tape is not None:
            def back():
                if out.grad is None:
                    return
                if self.grad is None:
                    self.grad = np.zeros_like(self.value)
                np.add.at(self.grad, idx.ravel(), out.grad.reshape(-1, dim))
            self.tape.record(back)
        return out


# ---------------------------------------------------------------------------
# linear algebra primitives


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g.T @ x`` over the rows of ``g`` and ``x`` (leading axes flattened):
    the gradient on W of a product ``x @ W.T`` whose gradient is ``g``."""
    g2 = g.reshape(-1, g.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    if g2.shape[0] == 1:
        return np.dot(g2.T, x2)  # one product per entry: the bits of matmul's non-BLAS loop
    return g2.T @ x2


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, *,
            out: np.ndarray | None = None) -> np.ndarray:
    """x @ W.T + b: the forward of ``linear``, into ``out`` when given."""
    y = np.dot(x, w.T, out)
    y += b
    return y


def linear(tape: Tape | None, x: Node, w: Node, b: Node) -> Node:
    """x @ W.T + b for a (n, k) matrix W, over the last axis of x."""
    if (w.value.ndim != 2 or x.value.shape[-1] != w.value.shape[1]
            or b.value.shape != w.value.shape[:1]):
        raise ShapeMismatch(f"linear: {x.value.shape} @ {w.value.shape}.T + {b.value.shape}")
    out = Node(_linear(x.value, w.value, b.value))
    if tape is not None:
        def back():
            g = out.grad
            if g is None:
                return
            _acc(w, _weight_grad(g, x.value))
            _acc(b, g.reshape(-1, g.shape[-1]).sum(axis=0))
            _acc(x, g @ w.value)
        tape.record(back)
    return out


# ---------------------------------------------------------------------------
# probability ops


def masked_softmax(z: np.ndarray, mask: np.ndarray | None = None, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis; entries where ``mask`` is False get exactly 0.
    Written into ``out`` when given, which may be ``z``."""
    if mask is not None:
        z = np.where(mask, z, -np.inf)
    # the ufuncs' reduce (last axis, keepdims): what max and sum call, unwrapped
    e = np.subtract(z, np.maximum.reduce(z, -1, None, None, True), out)
    np.exp(e, e)
    e /= np.add.reduce(e, -1, None, None, True)
    return e


def softmax_cross_entropy(tape: Tape | None, logits: Node, targets,
                          mask: np.ndarray | None = None) -> Node:
    """Stabilized -log softmax(logits)[target], summed over rows. Entries
    where ``mask`` is False are left out of the softmax. ``targets`` holds
    one index per row (an int for one row)."""
    shape = logits.value.shape
    n = shape[-1]
    z = logits.value.reshape(-1, n)
    t = np.asarray(targets, dtype=np.intp).reshape(-1)
    if t.shape[0] != z.shape[0]:
        raise ShapeMismatch(f"{t.shape[0]} targets for {z.shape[0]} rows of logits")
    if t.size and not 0 <= t.min() <= t.max() < n:
        raise IndexOutOfRange(f"targets {t.tolist()} out of range for {n} logits")
    rows = np.arange(t.shape[0])
    if mask is not None:
        mask = mask.reshape(-1, n)
        if not mask[rows, t].all():
            raise IndexOutOfRange("a target is masked")
        z = np.where(mask, z, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    p = np.exp(z - lse[:, None])
    loss = Node(np.asarray((lse - z[rows, t]).sum()))
    if tape is not None:
        def back():
            if loss.grad is None:
                return
            g = p.copy()
            g[rows, t] -= 1.0
            _acc(logits, (g * loss.grad).reshape(shape))
        tape.record(back)
    return loss


def _keep_mask(shape, p: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout keep mask, or None when dropout is off: without an
    rng (inference) or at p == 0."""
    if rng is None or p <= 0.0:
        return None
    if not p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    return rng.random(shape) >= p


def _dropped(x: np.ndarray, keep: np.ndarray | None, p: float) -> np.ndarray:
    """``x`` with inverted dropout at rate ``p`` by the keep mask, or ``x``
    itself without one."""
    if keep is None:
        return x
    out = x * (1.0 / (1.0 - p))
    out *= keep  # in place: a (rows, C, d) temporary costs more than the product
    return out


def dropout(tape: Tape | None, x: Node, p: float,
            rng: np.random.Generator | None) -> Node:
    """Inverted dropout; identity without an rng or at p == 0."""
    keep = _keep_mask(x.value.shape, p, rng)
    if keep is None:
        return x
    scale = 1.0 / (1.0 - p)
    out = Node(_dropped(x.value, keep, p))
    if tape is not None:
        def back():
            if out.grad is None:
                return
            _acc(x, out.grad * scale * keep)
        tape.record(back)
    return out


def _gate_blocks(x: np.ndarray, w: np.ndarray, b: np.ndarray, sizes: Sequence[int], *,
                 out: Sequence[np.ndarray | None] = (None,) * 3
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward of ``gate_blocks`` for ``w`` and ``b`` viewed as (G, k, K)
    and (G, ..., K): the gated copies (G, ..., k), the gates (G, ..., K) and
    each gate repeated over its block (G, ..., k). ``out`` holds buffers for
    the gated copies, the gates and the gate logits."""
    z = np.matmul(x, w, out[2])
    z += b
    e = np.exp(-np.abs(z))  # a sigmoid stable on both sides of 0
    gates = np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out[1])
    scale = gates.repeat(sizes, axis=-1)
    return np.multiply(x, scale, out[0]), gates, scale


def gate_blocks(tape: Tape | None, x: Node, w: Node, b: Node,
                sizes: Sequence[int]) -> tuple[list[Node], np.ndarray]:
    """Copies of ``x`` whose blocks are scaled by sigmoid gates computed from
    ``x``, one copy per group of gates, as one op.

    ``x``'s last axis is split into blocks of ``sizes``; ``w`` (G*K, k) and
    ``b`` (G*K,) stack G groups of K = len(sizes) gate rows. Group j's gates
    are sigmoid(x @ W_j.T + b_j), and gate k scales all of block k. The
    product is stacked per group, so a gate equals, bit for bit, the one a
    separate linear over W_j gives; one (G*K, k) product would not, because
    BLAS sums its columns in another order. Returns the G gated copies and
    the gate values, (G, ..., K).
    """
    n_blocks = len(sizes)
    groups = w.value.shape[0] // n_blocks
    if (w.value.ndim != 2 or groups * n_blocks != w.value.shape[0] or groups == 0
            or not x.value.shape[-1] == w.value.shape[1] == sum(sizes)
            or b.value.shape != w.value.shape[:1]):
        raise ShapeMismatch(f"gate_blocks: x{x.value.shape}, blocks {list(sizes)}, "
                            f"w{w.value.shape} b{b.value.shape}")
    w3 = w.value.reshape(groups, n_blocks, -1)
    gated, gates, scale = _gate_blocks(
        x.value, w3.transpose(0, 2, 1),
        b.value.reshape((groups,) + (1,) * (x.value.ndim - 1) + (n_blocks,)), sizes)
    outs = [Node(g) for g in gated]
    if tape is not None:
        def back():
            if all(o.grad is None for o in outs):
                return
            dout = np.empty((groups,) + x.value.shape)
            for d, o in zip(dout, outs):
                d[...] = 0.0 if o.grad is None else o.grad
            # gradient on each gate: its block of x against its copy's gradient
            dgate = np.add.reduceat(dout * x.value, np.cumsum([0, *sizes[:-1]]), axis=-1)
            dz = dgate * gates * (1.0 - gates)
            dz2 = dz.reshape(groups, -1, n_blocks)
            x2 = x.value.reshape(-1, x.value.shape[-1])
            _acc(w, (dz2.transpose(0, 2, 1) @ x2).reshape(w.value.shape))
            _acc(b, dz2.sum(axis=1).reshape(-1))
            _acc(x, (dout * scale).sum(axis=0) + (dz2 @ w3).sum(axis=0).reshape(x.value.shape))
        tape.record(back)
    return outs, gates


# ---------------------------------------------------------------------------
# recurrences


def _lstm_gates(z: np.ndarray, c_prev: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
    """Gate activations in place of the gate logits z ([i f o g] on the first
    axis), then the new cell and hidden state into ``c`` (may be ``c_prev``)
    and ``h``, which holds the temporaries until then."""
    # logistic 1 / (1 + exp(-z)) of i, f, o; an overflowing exp gives exactly 0
    sig = z[:3]
    np.negative(sig, sig)
    np.exp(sig, sig)
    sig += 1.0
    np.divide(1.0, sig, sig)
    g = np.tanh(z[3], z[3])
    np.multiply(z[1], c_prev, c)
    c += np.multiply(z[0], g, h)
    np.multiply(z[2], np.tanh(c, h), h)


def _lstm_gates_back(dh: np.ndarray, dc: np.ndarray, acts: np.ndarray,
                     c_prev: np.ndarray, c: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Gradient on the gate logits, written into ``dz`` (gates on its first
    axis), and on the previous cell (returned) from gradients on (h, c)."""
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


def _by_gate(z: np.ndarray) -> np.ndarray:
    """A (..., 4h) view of [i f o g] gate blocks as (4, ..., h)."""
    return z.reshape(z.shape[:-1] + (4, -1)).transpose((z.ndim - 1, *range(z.ndim - 1), z.ndim))


def _lstm_cell(x: np.ndarray, h: np.ndarray, c: np.ndarray, wx: np.ndarray,
               wh: np.ndarray, b: np.ndarray, *, out: Sequence[np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of one ``lstm`` stream from (h, c) over rows x, summing as it
    does, (x W_x^T + b) + h W_h^T: (h', c') and the gate activations,
    (..., 4h). ``out`` holds buffers for h', c' (these may be h and c), the
    gate activations and h's product with W_h."""
    hn, cn, acts, hw = out or (np.empty_like(h), np.empty_like(c), None, None)
    acts = np.dot(x, wx.T, acts)
    acts += b
    acts += np.dot(h, wh.T, hw)
    _lstm_gates(_by_gate(acts), c, cn, hn)
    return hn, cn, acts


def lstm(tape: Tape | None, x: Node, lengths: np.ndarray, streams: Sequence[Sequence[Node]],
         reverse: Sequence[bool], initial: Sequence[Node] = ()) -> tuple[Node, Node, Node]:
    """k LSTM streams over one padded batch, as one op.

    ``x`` is (B, T, in), and row r's steps are ``x[r, :lengths[r]]``: the
    rest is read as zeros, so whatever it holds (even NaN) reaches neither
    the states nor the gradients. Stream j has its own (wx, wh, b),
    ``streams[j]``, runs from a row's last step back if ``reverse[j]``, and
    starts from ``initial`` (h, c) or zero; a padded step carries the state
    over. Returns the states (B, T, k*h), zero past each row's length, and
    the final (h, c), (B, k*h); these and ``initial`` hold the streams side
    by side. Input projections and weight gradients are one product per stream.
    """
    n_rows, steps, x_dim = x.value.shape
    k, hidden = len(streams), streams[0][1].value.shape[1]
    for w in streams:
        if [v.value.shape for v in w] != [(4 * hidden, x_dim), (4 * hidden, hidden),
                                          (4 * hidden,)]:
            raise ShapeMismatch(f"lstm: input {x_dim}, hidden {hidden}, (wx, wh, b) of "
                                f"shapes {[v.value.shape for v in w]}")
    if initial and any(v.value.shape != (n_rows, k * hidden) for v in initial):
        raise ShapeMismatch(f"lstm: x{x.value.shape}, {k} streams of {hidden}, initial "
                            f"{[v.value.shape for v in initial]}")
    # (k, ...) weights: views of one stream's, copies of several
    wx, wh, b = (ws[0].value[None] if k == 1 else np.stack([w.value for w in ws])
                 for ws in zip(*streams))
    real = np.arange(steps)[None, :] < np.asarray(lengths)[:, None]  # (B, T)
    padded = not real.all()  # a batch of one never is
    # np.where, not a product: 0 x NaN is NaN
    x2 = (np.where(real[..., None], x.value, 0.0) if padded else x.value).reshape(-1, x_dim)

    def flip(a):  # (k, B, T, ...) with each reversed stream's T axis reversed
        if not any(reverse):
            return a
        return np.stack([a[j, :, ::-1] if rev else a[j] for j, rev in enumerate(reverse)])

    def by_stream(a):  # (B, k*h) as (k, B, h)
        return a.reshape(n_rows, k, hidden).transpose(1, 0, 2)

    xz = np.matmul(x2, wx.transpose(0, 2, 1)) + b[:, None]
    # (T, 4, k, B, h): the gate logits of each step
    acts = np.ascontiguousarray(
        flip(xz.reshape(k, n_rows, steps, 4, hidden)).transpose(2, 3, 0, 1, 4))
    # h and c; state s + 1 follows step s, and state 0 is the start
    hc = np.zeros((2, steps + 1, k, n_rows, hidden))
    hs, cs = hc
    for state, v in zip((hs[0], cs[0]), initial):
        state[...] = by_stream(v.value)
    if padded:
        pad = flip(np.broadcast_to(~real, (k, n_rows, steps))).transpose(2, 0, 1)  # (T, k, B)
    wh_t = wh.transpose(0, 2, 1)
    for s in range(steps):
        z = acts[s]
        z += np.matmul(hs[s], wh_t).reshape(k, n_rows, 4, hidden).transpose(2, 0, 1, 3)
        _lstm_gates(z, cs[s], cs[s + 1], hs[s + 1])
        if padded:
            hc[:, s + 1, pad[s]] = hc[:, s, pad[s]]
    # (k, B, T, h) in step order, side by side
    out = Node(np.concatenate(flip(hs[1:].transpose(1, 2, 0, 3)), axis=-1))
    if padded:
        out.value[~real] = 0.0
    h_last, c_last = (Node(np.concatenate(v[steps], axis=-1)) for v in (hs, cs))
    if tape is not None:
        def back():
            if out.grad is None and h_last.grad is None and c_last.grad is None:
                return
            g = np.zeros_like(out.value) if out.grad is None else out.grad
            # (T, k, B, h): each stream's share of the states' gradient, per step
            dh_out = flip(g.reshape(n_rows, steps, k, hidden).transpose(2, 0, 1, 3)
                          ).transpose(2, 0, 1, 3)
            if padded:
                dh_out = np.where(pad[..., None], 0.0, dh_out)
            dh, dc = (np.zeros((k, n_rows, hidden)) if v.grad is None
                      else by_stream(v.grad).copy() for v in (h_last, c_last))
            dz = np.empty_like(acts)
            for s in range(steps - 1, -1, -1):
                dh += dh_out[s]
                dc_prev = _lstm_gates_back(dh, dc, acts[s], cs[s], cs[s + 1], dz[s])
                dh_prev = np.matmul(dz[s].transpose(1, 2, 0, 3).reshape(k, n_rows, -1), wh)
                if padded:  # the gradient passes a carried state unchanged
                    dz[s][:, pad[s]] = 0.0
                    dh_prev[pad[s]] = dh[pad[s]]
                    dc_prev[pad[s]] = dc[pad[s]]
                dh, dc = dh_prev, dc_prev
            for v, d in zip(initial, (dh, dc)):
                _acc(v, d.transpose(1, 0, 2).reshape(n_rows, -1))
            # per stream, rows in step order
            dz = flip(dz.transpose(2, 3, 0, 1, 4)).reshape(k, -1, 4 * hidden)
            h_prev = flip(hs[:steps].transpose(1, 2, 0, 3)).reshape(k, -1, hidden)
            for w, dz_j, h_j in zip(streams, dz, h_prev):
                for node, g in zip(w, (_weight_grad(dz_j, x2), _weight_grad(dz_j, h_j),
                                       dz_j.sum(axis=0))):
                    _acc(node, g)
            for g in np.matmul(dz, wx):
                _acc(x, g.reshape(x.value.shape))
        tape.record(back)
    return out, h_last, c_last


# ---------------------------------------------------------------------------
# attention


def _attention_pre(w: np.ndarray, keys: np.ndarray, query_dim: int) -> np.ndarray:
    """Key half of the attention hidden layer, keys @ W[:, query_dim:].T:
    greedy decoding projects it once per decode and reuses it at every step."""
    return keys @ w[:, query_dim:].T  # `@` reads the view in place, np.dot would copy it


def _attention_scores(query: np.ndarray, pre_rows: np.ndarray, w_query: np.ndarray,
                      b: np.ndarray, w_score: np.ndarray, keep: np.ndarray | None = None,
                      dropout_p: float = 0.0, *, out: Sequence[np.ndarray | None] = (None, None)
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The forward of ``attention_scores`` over the key halves ``pre_rows``,
    (R, C, d), with ``w_query`` the query half of W: the hidden layer
    tanh(W [u_r; k_rc] + b) and the scores (R, C) of its dropped copy, each
    written into its buffer in ``out`` where one is given."""
    u = query @ w_query.T
    u += b
    hidden = np.add(pre_rows, u[:, None, :], out[0])
    np.tanh(hidden, hidden)
    n_rows, n_keys, width = hidden.shape
    scores = np.matmul(_dropped(hidden, keep, dropout_p).reshape(-1, width), w_score,
                       None if out[1] is None else out[1].reshape(-1))
    return hidden, scores.reshape(n_rows, n_keys)


def attention_scores(tape: Tape | None, query: Node, keys: Node, w_score: Node,
                     w: Node, b: Node, rows, *, dropout_p: float = 0.0,
                     rng: np.random.Generator | None = None) -> Node:
    """Additive scores w_score . tanh(W [u_r; k_rc] + b), one row per query.

    ``keys`` is (B, C, dk); query row r scores the keys of ``keys[rows][r]``,
    where ``rows`` is an index array of key rows, alone or followed by a
    slice of their keys. Dropout acts on the hidden layer.
    """
    query_dim = query.value.shape[-1]
    w_query, w_keys = w.value[:, :query_dim], w.value[:, query_dim:]
    if keys.value.shape[-1] != w_keys.shape[1]:
        raise ShapeMismatch(f"attention_scores: keys {keys.value.shape} for W {w.value.shape}")
    pre = _attention_pre(w.value, keys.value, query_dim)
    pre_rows = pre[rows]
    if pre_rows.shape[0] != query.value.shape[0]:
        raise ShapeMismatch(f"{query.value.shape[0]} queries for {pre_rows.shape[0]} key rows")
    keep = _keep_mask(pre_rows.shape, dropout_p, rng)
    # the hidden layer goes over the rows' key half, which is this op's own:
    # each new (rows, C, d) array costs more than the arithmetic on it
    hidden, scores = _attention_scores(query.value, pre_rows, w_query, b.value,
                                       w_score.value, keep, dropout_p, out=(pre_rows, None))
    width = hidden.shape[-1]
    out = Node(scores)
    if tape is not None:
        def back():
            g = out.grad
            if g is None:
                return
            # the dropped hidden layer is recomputed rather than kept alive
            _acc(w_score, g.reshape(-1) @ _dropped(hidden, keep, dropout_p).reshape(-1, width))
            dz = np.multiply(hidden, hidden)
            np.subtract(1.0, dz, out=dz)
            dz *= w_score.value
            dz *= g[:, :, None]
            if keep is not None:
                dz *= keep
                dz *= 1.0 / (1.0 - dropout_p)
            d_pre = np.zeros(pre.shape)
            _scatter(d_pre, rows, dz)
            da = dz.sum(axis=1)
            if w.grad is None:
                w.grad = np.zeros_like(w.value)
            w.grad[:, :query_dim] += _weight_grad(da, query.value)
            _acc(b, da.sum(axis=0))
            _acc(query, da @ w_query)
            w.grad[:, query_dim:] += _weight_grad(d_pre, keys.value)
            _acc(keys, d_pre @ w_keys)
        tape.record(back)
    return out


def attention(tape: Tape | None, query: Node, keys: Node, w_score: Node, w: Node,
              b: Node, rows: np.ndarray, *, mask: np.ndarray | None = None,
              dropout_p: float = 0.0,
              rng: np.random.Generator | None = None) -> tuple[Node, Node]:
    """Soft attention read of each query row over its row of ``keys``.

    ``keys`` is (B, C, dk) with ``mask`` (B, C) marking real entries; query
    row r reads ``keys[rows[r]]``, for an index array ``rows``. Masked
    entries get exactly 0 weight. Returns (context vectors, weight
    distributions): ``attention_scores``, then one op for the masked
    softmax and the weighted sum. Each run of rows that read one key row is
    one product, so no (rows, C, d) copy of the keys is made.
    """
    if keys.value.shape[1] == 0:
        raise EmptyCandidates("attention over zero candidates")
    scores = attention_scores(tape, query, keys, w_score, w, b, rows,
                              dropout_p=dropout_p, rng=rng)
    p = masked_softmax(scores.value, None if mask is None else mask[rows])
    weights = Node(p)
    runs = _runs(rows)
    context = Node(np.empty(p.shape[:1] + keys.value.shape[2:]))
    for row, lo, hi in runs:
        np.matmul(p[lo:hi], keys.value[row], out=context.value[lo:hi])
    if tape is not None:
        def back():
            g = context.grad
            if g is None and weights.grad is None:
                return
            if g is not None:
                if keys.grad is None:
                    keys.grad = np.zeros_like(keys.value)
                d_weights = np.empty_like(p)
                for row, lo, hi in runs:
                    np.matmul(g[lo:hi], keys.value[row].T, out=d_weights[lo:hi])
                    keys.grad[row] += p[lo:hi].T @ g[lo:hi]
                _acc(weights, d_weights)
            # through the softmax
            g = weights.grad
            _acc(scores, p * (g - (g * p).sum(axis=-1, keepdims=True)))
        tape.record(back)
    return context, weights


def _dense_relu_dense(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                      b2: np.ndarray, keep: np.ndarray | None = None, dropout_p: float = 0.0,
                      *, out: Sequence[np.ndarray | None] = (None,) * 3
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward of ``dense_relu_dense``: W1 x + b1, the hidden layer (its
    ReLU, dropped by ``keep``) and the output, each into its buffer in ``out``
    where one is given."""
    pre = _linear(x, w1, b1, out=out[0])
    hidden = _dropped(np.maximum(pre, 0.0, out=out[1]), keep, dropout_p)
    return pre, hidden, _linear(hidden, w2, b2, out=out[2])


def dense_relu_dense(tape: Tape | None, x: Node, w1: Node, b1: Node, w2: Node,
                     b2: Node, *, hidden_dropout: float = 0.0,
                     rng: np.random.Generator | None = None) -> Node:
    """One-hidden-layer ReLU scorer, W2 relu(W1 x + b1) + b2, as one op;
    dropout acts on the hidden layer."""
    for w, b, k in ((w1, b1, x.value.shape[-1]), (w2, b2, w1.value.shape[0])):
        if w.value.ndim != 2 or w.value.shape[1] != k or b.value.shape != w.value.shape[:1]:
            raise ShapeMismatch(f"dense_relu_dense: x{x.value.shape}, w1{w1.value.shape} "
                                f"b1{b1.value.shape}, w2{w2.value.shape} b2{b2.value.shape}")
    keep = _keep_mask(x.value.shape[:-1] + w1.value.shape[:1], hidden_dropout, rng)
    pre, hidden, y = _dense_relu_dense(x.value, w1.value, b1.value, w2.value, b2.value,
                                       keep, hidden_dropout)
    out = Node(y)
    if tape is not None:
        def back():
            g = out.grad
            if g is None:
                return
            _acc(w2, _weight_grad(g, hidden))
            _acc(b2, g.reshape(-1, g.shape[-1]).sum(axis=0))
            # through the dropout and the ReLU
            g = (pre > 0.0) * _dropped(g @ w2.value, keep, hidden_dropout)
            _acc(w1, _weight_grad(g, x.value))
            _acc(b1, g.reshape(-1, g.shape[-1]).sum(axis=0))
            _acc(x, g @ w1.value)
        tape.record(back)
    return out


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and the denominator's epsilon (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.001
    gradient_clip_norm: float = 5.0  # inf never clips

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if not self.gradient_clip_norm > 0:
            raise ValueError("gradient_clip_norm must be positive")


def adam_step(registry: ParamRegistry, config: OptimizerConfig) -> ParamRegistry:
    """Bias-corrected Adam update from ``registry.flat_grads``, in place over
    the whole arena; increments the step counter.

    Raises ``NonFiniteValue`` before touching any parameter when the global
    gradient norm is NaN or infinite."""
    g = registry.flat_grads
    norm = np.sqrt(g @ g)
    if not np.isfinite(norm):
        raise NonFiniteValue(f"gradient norm is {norm}")
    registry.adam_t += 1
    t = registry.adam_t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # every intermediate goes through these two rows: an arena-sized temporary
    # per operation would cost more than the arithmetic
    step, scratch = np.empty((2, g.size))
    if norm > config.gradient_clip_norm:
        g = np.multiply(g, config.gradient_clip_norm / norm, out=step)
    m, v = registry.flat_m, registry.flat_v
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, g, out=scratch), 1.0 - ADAM_BETA2, out=scratch)
    # flat -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.multiply(np.divide(m, bc1, out=step), config.learning_rate, out=step)
    np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
    scratch += ADAM_EPSILON
    step /= scratch
    registry.flat -= step
    return registry


# ---------------------------------------------------------------------------
# finite-difference checker


def grad_check(loss_fn: Callable[[Tape | None], Node], registry: ParamRegistry,
               probe_count: int, rng: np.random.Generator) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(tape)`` must build the loss as a Node and be deterministic for
    fixed parameter values (reseed any internal rng per call). Probes that
    fail at the 1e-5 step are re-measured at a tenth of it and the better of
    the two errors is kept, which discards spurious failures from a central
    difference straddling a ReLU kink.
    """
    registry.zero_grads()
    tape = Tape()
    loss = loss_fn(tape)
    tape.backward(loss)
    analytic = registry.flat_grads.copy()
    registry.zero_grads()
    flat = registry.flat

    def numeric_at(i: int, h: float) -> float:
        orig = flat[i]
        flat[i] = orig + h
        lp = float(loss_fn(None).value)
        flat[i] = orig - h
        lm = float(loss_fn(None).value)
        flat[i] = orig
        return (lp - lm) / (2.0 * h)

    step = 1e-5
    worst = 0.0
    for i in rng.integers(0, flat.size, size=probe_count):
        ana = float(analytic[i])
        num = numeric_at(i, step)
        err = abs(ana - num) / max(1.0, abs(ana), abs(num))
        if err > 1e-4:
            num2 = numeric_at(i, step / 10.0)
            err2 = abs(ana - num2) / max(1.0, abs(ana), abs(num2))
            err = min(err, err2)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoint archive

_CKPT_MAGIC = b"SSCK"
_CKPT_VERSION = 3


def save_checkpoint(path, registry: ParamRegistry) -> str:
    """Magic, version, a name/ndim/shape table, the parameters (float64 LE),
    then a sha256 of every byte before it, which is returned in hex. The
    parameters go from the arena to the file as they are."""
    header = bytearray(_CKPT_MAGIC)
    header += struct.pack("<BI", _CKPT_VERSION, len(registry.shapes))
    for name, shape in registry.shapes.items():
        nb = name.encode("utf-8")
        header += struct.pack(f"<H{len(nb)}sB{len(shape)}I", len(nb), nb, len(shape), *shape)
    flat = registry.flat.astype("<f8", copy=False)  # no copy on a little-endian host
    digest = hashlib.sha256(header)
    digest.update(flat)
    with open(path, "wb") as f:
        f.write(header)
        f.write(flat)
        f.write(digest.digest())
    return digest.hexdigest()


def load_checkpoint(path, *, sha256: str | None = None) -> ParamRegistry:
    """The parameters that ``save_checkpoint`` wrote, as a registry; when
    ``sha256`` is given, the archive's digest must be that one.

    The header is read and checked against the file's size before anything
    is allocated; the parameters are then read straight into the arena."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(5)
        if head[:4] != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint archive")
        if head[4:] != bytes([_CKPT_VERSION]):
            raise CheckpointError(f"{path}: unsupported checkpoint version "
                                  f"{head[4] if len(head) > 4 else None}")
        digest = hashlib.sha256(head)

        def take(n: int) -> bytes:
            """The next ``n`` bytes, which must all be present."""
            data = f.read(n)
            if len(data) < n:
                raise CheckpointError(f"{path}: truncated: needs more than its "
                                      f"{file_size} bytes")
            digest.update(data)
            return data

        (count,) = struct.unpack("<I", take(4))
        shapes: dict[str, tuple[int, ...]] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2))
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: parameter name is not UTF-8") from None
            if name in shapes:
                raise CheckpointError(f"{path}: parameter {name!r} stored twice")
            (ndim,) = take(1)
            shapes[name] = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = sum(math.prod(shape) for shape in shapes.values())
        end = f.tell() + 8 * size + 32
        if end > file_size:
            raise CheckpointError(f"{path}: truncated: needs {end} bytes, has {file_size}")
        if end < file_size:
            raise CheckpointError(f"{path}: {file_size - end} bytes after the archive")
        registry = ParamRegistry(shapes)
        if f.readinto(registry.flat) != registry.flat.nbytes:
            raise CheckpointError(f"{path}: truncated while reading")
        digest.update(registry.flat)
        if sys.byteorder != "little":
            registry.flat.byteswap(inplace=True)
        if f.read(32) != digest.digest():
            raise CheckpointError(f"{path}: sha256 does not match the contents")
    if sha256 is not None and digest.hexdigest() != sha256:
        raise CheckpointError(f"{path}: sha256 {digest.hexdigest()} is not the "
                              f"{sha256} recorded for it")
    return registry
