"""The semantic stack machine that decodes equations action by action.

Each decoding step advances a recurrent state over the previous step's
result vector, extracts gated features (recurrent state, top-two stack
vectors, attention over the problem), picks a stack action behind a
legality mask built from ``eqlang.is_legal``, and applies it to a stack of
semantic vectors. The matching symbolic stack is a pure function of the
actions, so a run does not carry it: greedy decoding steps it with
``eqlang.symbolic_step`` beside the semantic one, and training checks each gold
target once with ``eqlang.check_target`` before the run sees it.

Actions: generate the unknown variable (first step only), push an operand
chosen by content-based addressing over candidate vectors, apply one of the
four binary operators through a per-operator semantic transformer, or close
an equation. Operators consume the two top elements as ``second <op> top``.

A ``DecoderRun`` steps the R rows of a training batch in lockstep under
teacher forcing. Semantic vectors live in an append-only buffer and each
semantic stack is a tuple of pointers into it (a "thin stack"), so pushes
and equals only move pointers, top and second are one gather, and the
operator transforms run once per operator over the rows that apply it.
``_stack_step`` is the one statement of how an action moves a row's
pointers. Greedy decoding runs its single row in a loop on plain arrays,
with no graph nodes: the forward functions of the ops that a run records
write each step into a workspace made once per decode, and ``_stack_step``
moves the pointers, so it shares every formula with ``DecoderRun`` and its
decodes are a one-row run's bit for bit. It copies a step's readouts into
a ``StepTrace`` only when asked.

The recurrence (``advance`` and ``apply_action``) reads only the previous
step's result vector, never the heads' outputs. Greedy decoding must run
the heads at every step to choose the next action. Teacher forcing knows
every action in advance: it steps the stacks alone after step 0's genvar,
the one action that reads h, runs the LSTM over the later steps as one op,
and then the heads once over all the states, stacked as one ``TallState``.
``param_shapes`` is the one place that names the decoder's parameters.
The decoder works in the encoder's width and at the encoder's dropout
rate, so ``DecoderConfig`` holds neither: ``param_shapes`` takes the width,
a ``DecoderRun`` reads it from the encoded batch and takes the rate from
its caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import eqlang
from . import numerics as nm
from .corpus import PreparedProblem
from .encoder import EncodedBatch, check_integers
from .eqlang import EQUAL, GENVAR, PUSH, Expr, IllegalAction, StackAction  # noqa: F401
from .numerics import Node, ParamRegistry, Tape


@dataclass
class DecoderConfig:
    use_gate: bool = True
    use_attention: bool = True
    use_stack_feature: bool = True
    transformer_mode: str = "mlp"  # or "embedding"
    max_steps: int = 40

    def __post_init__(self):
        check_integers(max_steps=self.max_steps)
        if self.transformer_mode not in ("mlp", "embedding"):
            raise ValueError(f"unknown transformer_mode {self.transformer_mode!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.max_steps > eqlang.MAX_ACTIONS:  # a decode holds a vector row per step
            raise ValueError(f"max_steps must be at most {eqlang.MAX_ACTIONS}, "
                             f"got {self.max_steps}")


def param_shapes(config: DecoderConfig, dim: int) -> dict[str, tuple[int, ...]]:
    """Each decoder parameter's shape, in the order that a new model draws
    them, for operand vectors of the encoder's width ``dim``."""
    d = dim
    nb = 1 + config.use_stack_feature + config.use_attention  # feature blocks
    f_dim = d * (1 + 2 * config.use_stack_feature + config.use_attention)
    n_actions = len(eqlang.ACTIONS)
    shapes = {"dec.lstm.wx": (4 * d, d), "dec.lstm.wh": (4 * d, d), "dec.lstm.b": (4 * d,)}
    if config.use_attention:
        shapes |= {"dec.qattn.v": (d,), "dec.qattn.w": (d, 2 * d), "dec.qattn.b": (d,)}
    shapes |= {"dec.genvar.v": (d,), "dec.genvar.w": (d, 2 * d), "dec.genvar.b": (d,)}
    if config.use_gate:
        for which in ("sa", "opd"):
            shapes |= {f"dec.gate_{which}.w": (nb, f_dim), f"dec.gate_{which}.b": (nb,)}
    shapes |= {"dec.act.w1": (d, f_dim), "dec.act.b1": (d,), "dec.act.w2": (n_actions, d),
               "dec.act.b2": (n_actions,), "dec.opd.v": (d,), "dec.opd.w": (d, f_dim + d),
               "dec.opd.b": (d,)}
    for op in eqlang.OPS:
        if config.transformer_mode == "mlp":
            shapes |= {f"dec.tf.{op}.w": (d, 2 * d), f"dec.tf.{op}.b": (d,),
                       f"dec.tf.{op}.u": (d, d), f"dec.tf.{op}.c": (d,)}
        else:
            shapes[f"dec.tf.{op}.vec"] = (d,)
    return shapes


def semantic_transform(op: str, pairs: Node | None, params: Mapping[str, Node],
                       mode: str, *, tape: Tape | None = None) -> Node:
    """Semantic vectors of ``e1 <op> e2`` via the operator's transformer (its
    nodes in ``params``), for rows ``pairs`` = [e1; e2]. The ``embedding``
    transformer ignores its operands and returns the operator's one vector."""
    def p(name: str) -> Node:
        return params[f"dec.tf.{op}.{name}"]

    if mode == "embedding":
        return p("vec")
    return nm.tanh(tape, nm.dense_relu_dense(tape, pairs, p("w"), p("b"), p("u"), p("c")))


# rows of every run's vector buffer that exist before the first step
ZERO_ROW, ONE_ROW, PI_ROW = 0, 1, 2


@dataclass
class DecoderState:
    """R rows decoding in lockstep; row r decodes problem r of the run.

    The semantic stacks are a thin stack: each is a tuple of rows of the
    run's vector buffer, top last, so its length is the stack's depth.
    """
    h: Node | None           # (R, d); None past teacher forcing's step 0
    c: Node | None           # (R, d)
    last: np.ndarray         # (R,) buffer row of the previous step's result
    unknown: np.ndarray      # (R,) buffer row of x, -1 before it is generated
    vec_stacks: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.vec_stacks)

    @property
    def depth(self) -> np.ndarray:
        """(R,) stack depth of each row."""
        return np.fromiter(map(len, self.vec_stacks), dtype=np.intp, count=self.rows)

    @property
    def has_unknown(self) -> np.ndarray:
        return self.unknown >= 0

    @property
    def top_two(self) -> np.ndarray:
        """(R, 2) buffer rows of each row's top and second stack entries
        (the zero row where absent)."""
        return np.array([(stack[-1] if stack else ZERO_ROW,
                          stack[-2] if len(stack) > 1 else ZERO_ROW)
                         for stack in self.vec_stacks], dtype=np.intp)

    @property
    def problem(self) -> np.ndarray:
        """The run's problem of each row: row r decodes problem r."""
        return np.arange(self.rows)


@dataclass
class TallState:
    """What the heads read of N lockstep states of one run, as the rows of
    one state: h after each step's LSTM step, the stack tops and depth
    before its action, and each row's problem in the run.

    Teacher forcing stacks every (row, step) of a batch into one, problem
    by problem (``DecoderRun.stack_steps``), so the features, both heads and
    both losses run once over the whole batch; to them it reads like a
    ``DecoderState`` of N rows.
    """
    h: Node                   # (N, d)
    top_two: np.ndarray       # (N, 2) buffer rows, as DecoderState.top_two
    depth: np.ndarray         # (N,)
    has_unknown: np.ndarray   # (N,) bool
    problem: np.ndarray       # (N,) the run's problem of each row, non-decreasing

    @property
    def rows(self) -> int:
        return self.depth.size


@dataclass
class Features:
    action_feats: Node
    operand_feats: Node
    attention_weights: np.ndarray | None
    gate_action: np.ndarray | None
    gate_operand: np.ndarray | None


@dataclass
class ActionDistribution:
    logits: Node
    legal: np.ndarray  # (R, 7) bool


@dataclass
class OperandDistribution:
    """Scores over each row's candidates [c_1..c_n, 1, pi] (+ x once
    generated), padded to the widest row; padding has probability 0."""
    scores: Node       # (P, C)
    count: np.ndarray  # (P,) candidates of each row

    @property
    def mask(self) -> np.ndarray:
        """(P, C) bool, True on a row's candidates."""
        return np.arange(self.scores.value.shape[1]) < self.count[:, None]


@dataclass
class StepTrace:
    """Neural readouts of one greedy step; the step's action and resulting
    stack are ``DecodeResult.actions`` and ``stack_history`` at that index.
    The probabilities are computed from the kept logits when read."""
    action_logits: np.ndarray
    legal: np.ndarray
    operand_scores: np.ndarray | None
    attention: np.ndarray | None
    gate_action: np.ndarray | None
    gate_operand: np.ndarray | None

    @property
    def action_probs(self) -> np.ndarray:
        return nm.masked_softmax(self.action_logits, self.legal)

    @property
    def operand_probs(self) -> np.ndarray | None:
        if self.operand_scores is None:
            return None
        return nm.masked_softmax(self.operand_scores)


@dataclass
class DecodeResult:
    actions: list[StackAction]
    equations: list[tuple[Expr, Expr]]
    answer: object | None
    status: str  # solved | unsolvable | budget_exceeded
    trace: list[StepTrace]
    stack_history: list[tuple[Expr, ...]] = field(default_factory=list)


# eqlang's legal actions by (stack depth, capped at 2) and (unknown generated),
# as masks (read-only: every run shares them) and as indices
_LEGAL = np.array([[[eqlang.is_legal(kind, depth, has_unknown)
                     for kind in range(len(eqlang.ACTIONS))]
                    for has_unknown in (False, True)] for depth in range(3)])
_LEGAL.flags.writeable = False
_LEGAL_KINDS = [[np.flatnonzero(legal) for legal in by_depth] for by_depth in _LEGAL]


def _stack_step(stack: tuple[int, ...], kind: int, vec: int) -> tuple[tuple[int, ...], int]:
    """One action of index ``kind`` on a thin stack: the stack after it and
    the step's result row. ``vec`` is the row that the action pushes (a
    push's operand) or appends (x at genvar, an operator's new vector);
    an equal reads none."""
    if kind == PUSH:
        return stack + (vec,), vec
    if kind == EQUAL:
        # equal application: the remaining top is the step result, or zero
        return stack[:-2], stack[-3] if len(stack) > 2 else ZERO_ROW
    if kind == GENVAR:
        return stack, vec
    return stack[:-2] + (vec,), vec


def legal_action_mask(stack_depth, has_unknown) -> np.ndarray:
    """The (7,) legal actions at one row's depth and unknown flag, or the
    (R, 7) masks of arrays of them."""
    return _LEGAL[np.minimum(stack_depth, 2), np.asarray(has_unknown, dtype=np.intp)]


class DecoderRun:
    """One teacher-forced decoding pass over R encoded problems, on their
    semantic stacks only.

    Every method acts on all rows of a state at once. Teacher forcing runs
    ``advance`` at step 0 only and ``apply_action`` at every step, on the
    step's first rows (a batch sorted by target length drops its ended rows
    so); ``stack_steps`` then runs the LSTM and stacks the states into one
    ``TallState`` for the features, the heads and the losses. So each
    attention read and the operand scorer run once per run, each projecting
    its own key half, and the two gates' weights are stacked once per run.
    """

    def __init__(self, encoded: EncodedBatch, problems: Sequence[PreparedProblem],
                 registry: ParamRegistry, config: DecoderConfig, *,
                 tape: Tape | None = None, rng: np.random.Generator | None = None,
                 dropout_p: float = 0.0):
        self.encoded = encoded
        self.problems = list(problems)
        self.config = config
        self.tape = tape
        self.rng = rng  # dropout runs exactly when there is one, at dropout_p
        self.dropout_p = dropout_p
        self._p = {name: nm.param(tape, registry, name)
                   for name in registry.shapes if name.startswith("dec.")}
        self._lstm = [[self._p[f"dec.lstm.{n}"] for n in ("wx", "wh", "b")]]  # one stream
        dim = encoded.final_h.value.shape[-1]  # the encoder's width
        self.buffer = nm.RowBuffer(tape, dim)
        self.buffer.append(nm.constant(np.zeros(dim)))
        self.buffer.append(encoded.one_vector)
        self.buffer.append(encoded.pi_vector)
        n_constants = encoded.n_constants
        const_start = self.buffer.size + np.cumsum(n_constants) - n_constants
        self.buffer.append(encoded.constants)
        # each row's operand candidates [c_1..c_n, 1, pi, x] (eqlang's order) as
        # buffer rows, padded; x's slot holds the zero row until x is generated,
        # and states before that mask it out
        width = int(n_constants.max()) + 3
        self._candidate_count = n_constants + 2  # x joins at genvar
        self._candidate_rows = np.array(
            [[*range(start, start + n), ONE_ROW, PI_ROW] + [ZERO_ROW] * (width - n - 2)
             for start, n in zip(const_start.tolist(), n_constants.tolist())],
            dtype=np.intp)
        # an unpadded batch (every greedy decode) needs no attention mask
        self._token_mask = None if encoded.token_mask.all() else encoded.token_mask
        if config.use_gate:
            # both gates' weights, stacked once: one gate op per step
            self._gate_w = nm.concat(tape, [self._p["dec.gate_sa.w"],
                                            self._p["dec.gate_opd.w"]], axis=0)
            self._gate_b = nm.concat(tape, [self._p["dec.gate_sa.b"],
                                            self._p["dec.gate_opd.b"]])

    def initial_state(self) -> DecoderState:
        rows = len(self.problems)
        return DecoderState(
            h=self.encoded.final_h, c=self.encoded.final_c,
            last=np.full(rows, ZERO_ROW, dtype=np.intp),
            unknown=np.full(rows, -1, dtype=np.intp), vec_stacks=((),) * rows)

    def advance(self, state: DecoderState) -> DecoderState:
        """Step the decoder recurrence over the previous action's result: one
        step of ``nm.lstm`` from the state's (h, c)."""
        x = nm.dropout(self.tape, self.buffer.gather(state.last[:, None, None]),
                       self.dropout_p, self.rng)
        _, h, c = nm.lstm(self.tape, x, np.ones(state.rows, dtype=np.intp), self._lstm,
                          (False,), (state.h, state.c))
        return DecoderState(h, c, state.last, state.unknown, state.vec_stacks)

    def stack_steps(self, steps: Sequence[DecoderState]) -> TallState:
        """Every row of every state in ``steps`` as one ``TallState``, problem
        by problem and each problem's steps in order.

        ``steps`` holds each step's state before its action, on the first
        rows of the run: step 0's after ``advance``, the later ones with the
        stacks alone. Their h is one ``nm.lstm`` from step 0's (h, c) over
        each later step's input, the previous step's result vector."""
        first = steps[0]
        real = np.arange(first.rows)[:, None] < [state.rows for state in steps]  # (R, T)

        def grid(field: str) -> np.ndarray:  # (R, T, ...), 0 (the zero row) past a row's steps
            parts = [getattr(state, field) for state in steps]
            out = np.zeros(real.shape[::-1] + parts[0].shape[1:], dtype=parts[0].dtype)
            out[real.T] = np.concatenate(parts)
            return out.swapaxes(0, 1)

        inputs = nm.dropout(self.tape, self.buffer.gather(grid("last")[:, 1:, None]),
                            self.dropout_p, self.rng)
        later, _, _ = nm.lstm(self.tape, inputs, real.sum(axis=1) - 1, self._lstm, (False,),
                              (first.h, first.c))
        h = nm.concat(self.tape, [nm.gather(self.tape, first.h, (slice(None), None)), later],
                      axis=1)
        pairs = np.nonzero(real)
        return TallState(nm.gather(self.tape, h, pairs), grid("top_two")[real],
                         grid("depth")[real], grid("has_unknown")[real], pairs[0])

    def state_features(self, state: DecoderState | TallState) -> Features:
        """Gated concatenation of recurrent state, stack status, and attention."""
        cfg = self.config
        blocks = [state.h]
        if cfg.use_stack_feature:
            blocks.append(self.buffer.gather(state.top_two))
        attn_weights = None
        if cfg.use_attention:
            context, weights = nm.attention(
                self.tape, state.h, self.encoded.token_matrix,
                self._p["dec.qattn.v"], self._p["dec.qattn.w"], self._p["dec.qattn.b"],
                state.problem, mask=self._token_mask, dropout_p=self.dropout_p, rng=self.rng)
            blocks.append(context)
            attn_weights = weights.value
        feats = blocks[0] if len(blocks) == 1 else nm.concat(self.tape, blocks)
        if not cfg.use_gate:
            return Features(feats, feats, attn_weights, None, None)
        (action_feats, operand_feats), gates = nm.gate_blocks(
            self.tape, feats, self._gate_w, self._gate_b,
            [blk.value.shape[-1] for blk in blocks])
        return Features(action_feats, operand_feats, attn_weights, gates[0], gates[1])

    # -- stack action selection

    def select_action(self, feats: Features,
                      state: DecoderState | TallState) -> ActionDistribution:
        x = nm.dropout(self.tape, feats.action_feats, self.dropout_p, self.rng)
        logits = nm.dense_relu_dense(
            self.tape, x, self._p["dec.act.w1"], self._p["dec.act.b1"],
            self._p["dec.act.w2"], self._p["dec.act.b2"],
            hidden_dropout=self.dropout_p, rng=self.rng)
        return ActionDistribution(logits, legal_action_mask(state.depth, state.has_unknown))

    def action_loss(self, dist: ActionDistribution, targets: np.ndarray) -> Node:
        """Summed cross-entropy of each row's gold action index."""
        return nm.softmax_cross_entropy(self.tape, dist.logits, targets, dist.legal)

    # -- operand selection

    def select_operand(self, feats: Features, state: DecoderState | TallState,
                       rows: np.ndarray | None = None) -> OperandDistribution:
        """Operand scores for ``rows`` of the state (all rows by default)."""
        query = feats.operand_feats
        problem = state.problem
        if rows is not None and rows.size < state.rows:
            query = nm.gather(self.tape, query, rows)
            problem = problem[rows]
        # each row's candidates [c_1..c_n, 1, pi, (x)], padded to the widest row;
        # a copy, since genvar fills x's slot in place
        count = self._candidate_count[problem]
        keys = self.buffer.gather(self._candidate_rows[:, :, None].copy())
        scores = nm.attention_scores(
            self.tape, query, keys, self._p["dec.opd.v"], self._p["dec.opd.w"],
            self._p["dec.opd.b"], (problem, slice(0, int(count.max()))),
            dropout_p=self.dropout_p, rng=self.rng)
        return OperandDistribution(scores, count)

    def operand_loss(self, dist: OperandDistribution, targets: np.ndarray) -> Node:
        """Summed cross-entropy of each scored row's gold candidate index."""
        return nm.softmax_cross_entropy(self.tape, dist.scores, targets, dist.mask)

    # -- state transition

    def apply_action(self, state: DecoderState,
                     actions: Sequence[StackAction]) -> DecoderState:
        """Apply one legal action per row to the semantic stacks: training
        checks its targets with ``eqlang.check_target``. Generating x and
        applying an operator append new vectors, one op call per kind; then
        ``_stack_step`` moves each row's pointers."""
        if len(actions) != state.rows:
            raise ValueError(f"{len(actions)} actions for {state.rows} rows")
        kinds = [eqlang.action_index(action) for action in actions]
        vec = np.full(state.rows, ZERO_ROW, dtype=np.intp)  # each row's pushed or new row
        unknown = state.unknown.copy()
        genvar: list[int] = []
        by_op: dict[str, list[int]] = {}
        for row, (kind, action) in enumerate(zip(kinds, actions)):
            if kind == GENVAR:
                genvar.append(row)
            elif kind == PUSH:
                vec[row] = self._candidate_rows[
                    row, eqlang.operand_index(action.ref, self.problems[row].n_constants)]
            elif kind != EQUAL:
                by_op.setdefault(action.op, []).append(row)

        if genvar:  # step 0, the one step at which eqlang allows it, of every row
            if len(genvar) < state.rows:
                raise ValueError("genvar must be every row's action at once")
            rows = state.problem
            x, _ = nm.attention(
                self.tape, state.h, self.encoded.token_matrix, self._p["dec.genvar.v"],
                self._p["dec.genvar.w"], self._p["dec.genvar.b"], rows,
                mask=self._token_mask, dropout_p=self.dropout_p, rng=self.rng)
            unknown[rows] = vec[rows] = self.buffer.append(x)
            self._candidate_rows[rows, self._candidate_count[rows]] = unknown[rows]
            self._candidate_count[rows] += 1
        for op, op_rows in by_op.items():
            pairs = None
            if self.config.transformer_mode == "mlp":
                pairs = self.buffer.gather(
                    np.array([state.vec_stacks[r][-2:] for r in op_rows], dtype=np.intp))
            new = self.buffer.append(semantic_transform(
                op, pairs, self._p, self.config.transformer_mode, tape=self.tape))
            vec[op_rows] = new  # embedding: one vector for every row
        last = state.last.copy()
        vec_stacks = []
        for row, (stack, kind) in enumerate(zip(state.vec_stacks, kinds)):
            stack, last[row] = _stack_step(stack, kind, int(vec[row]))
            vec_stacks.append(stack)
        return DecoderState(h=state.h, c=state.c, last=last, unknown=unknown,
                            vec_stacks=tuple(vec_stacks))


def greedy_decode(encoded: EncodedBatch, problem: PreparedProblem,
                  registry: ParamRegistry, config: DecoderConfig, *,
                  trace: bool = False) -> DecodeResult:
    """Decode with argmax action/operand choices until solvable or out of budget.

    The argmax runs over the legal logits and the operand scores; a chosen
    logit or score that is not finite raises ``NonFiniteValue``. Each action
    steps the semantic stack and, beside it, the symbolic stack and
    equations that the result reports. A division by the constant 0 is
    legal for the mask, but no expression holds it: the decode ends
    ``unsolvable`` before that action. With ``trace`` the result holds a
    ``StepTrace`` of copies for each step; without it, none.

    One row needs no tape and no batching, so the loop runs on plain arrays:
    each step calls the forward functions of the ops that a ``DecoderRun``
    records, on operands of the shapes that a one-row run gives them, and
    ``_stack_step`` for the transition, so its decodes are the run's bit for
    bit. Once per decode it binds the parameters and their query halves,
    does the work that does not change from step to step, and allocates a
    workspace for every array a step writes: the feature row [h, top,
    second, context] (h and c are the LSTM's state in place), the gate
    logits, the attention and operand hidden layers and scores, the gates
    and the action head's layers. The forward functions write into it.
    """
    def params(layer: str, *names: str) -> list[np.ndarray]:
        return [registry[f"dec.{layer}.{name}"] for name in names]

    lstm = params("lstm", "wx", "wh", "b")
    head = params("act", "w1", "b1", "w2", "b2")
    opd_w, opd_b, opd_v = params("opd", "w", "b", "v")
    genvar = params("genvar", "w", "b", "v")
    keys = encoded.token_matrix.value  # (1, T, d)
    dim = keys.shape[-1]
    n = problem.n_constants
    # the run's vector buffer: the zero row, 1, pi and the constants, then a
    # row for each step that appends a vector (at most one per step)
    size = PI_ROW + 1 + n
    buffer = np.zeros((size + config.max_steps, dim))
    buffer[ONE_ROW], buffer[PI_ROW] = encoded.one_vector.value, encoded.pi_vector.value
    buffer[PI_ROW + 1:size] = encoded.constants.value
    # the operand candidates [c_1..c_n, 1, pi, x] as buffer rows; x's slot
    # holds the zero row until genvar
    candidates = np.array([*range(PI_ROW + 1, size), ONE_ROW, PI_ROW, ZERO_ROW],
                          dtype=np.intp)
    count = n + 2
    sizes = [dim] + [2 * dim] * config.use_stack_feature + [dim] * config.use_attention
    transforms = {op: params(f"tf.{op}", "w", "b", "u", "c")
                  for op in eqlang.OPS if config.transformer_mode == "mlp"}
    # the workspace: every array that a step writes, made once
    feats = np.zeros((1, sum(sizes)))  # [h, top, second, context]
    h, context = feats[:, :dim], feats[:, -dim:]
    top, second = feats[0, dim:2 * dim], feats[0, 2 * dim:3 * dim]
    h[...] = encoded.final_h.value
    c = encoded.final_c.value.copy()
    cell = (h, c, np.empty((1, 4 * dim)), np.empty((1, 4 * dim)))
    action_feats = operand_feats = feats
    if config.use_attention:
        attn_w, *attn = params("qattn", "w", "b", "v")
        attn = (attn_w[:, :dim], *attn)  # W's query half, sliced once
        q_pre = nm._attention_pre(attn_w, keys, dim)
        attn_out = (np.empty(keys.shape), np.empty(keys.shape[:2]))
        weights = attn_out[1]
    if config.use_gate:
        gate_w, gate_b = map(np.concatenate, zip(params("gate_sa", "w", "b"),
                                                 params("gate_opd", "w", "b")))
        gate_w = (gate_w.reshape(2, len(sizes), -1).transpose(0, 2, 1),
                  gate_b.reshape(2, 1, len(sizes)))  # as ``nm.gate_blocks`` views them
        gate_out = (np.empty((2,) + feats.shape), np.empty((2, 1, len(sizes))),
                    np.empty((2, 1, len(sizes))))
        (action_feats, operand_feats), gates = gate_out[:2]
    head_out = (np.empty((1, dim)), np.empty((1, dim)), np.empty((1, len(eqlang.ACTIONS))))
    logits = head_out[2][0]
    opd_q = opd_w[:, :feats.shape[-1]]  # the operand scorer's query half
    opd_out = (np.empty((1, n + 3, dim)), np.empty((1, n + 3)))
    opd_pre = None  # the operand keys' half, projected at a push, again after genvar

    stack: tuple[int, ...] = ()
    last, unknown = ZERO_ROW, -1
    actions: list[StackAction] = []
    steps: list[StepTrace] = []
    symbolic: list[Expr] = []
    equations: list[tuple[Expr, Expr]] = []
    history: list[tuple[Expr, ...]] = []
    status = "budget_exceeded"
    for step in range(1, config.max_steps + 1):
        nm._lstm_cell(buffer[last:last + 1], h, c, *lstm, out=cell)
        if config.use_stack_feature:  # the top two vectors, the zero row where absent
            top[:] = buffer[stack[-1] if stack else ZERO_ROW]
            second[:] = buffer[stack[-2] if len(stack) > 1 else ZERO_ROW]
        if config.use_attention:  # ``nm.attention``'s read of the problem
            nm._attention_scores(h, q_pre, *attn, out=attn_out)
            np.matmul(nm.masked_softmax(weights, out=weights), keys[0], out=context)
        if config.use_gate:
            nm._gate_blocks(feats, *gate_w, sizes, out=gate_out)
        nm._dense_relu_dense(action_feats, *head, out=head_out)
        depth, known = min(len(stack), 2), int(unknown >= 0)
        kinds = _LEGAL_KINDS[depth][known]
        kind = int(kinds[logits[kinds].argmax()])
        _check_finite(logits[kind], "action logit", step)
        scores = ref = None
        vec = ZERO_ROW
        if kind == PUSH:
            if opd_pre is None:  # and the views of the workspace for this many candidates
                opd_pre = nm._attention_pre(opd_w, buffer[candidates][None], feats.shape[-1])
                opd_args = (opd_pre[:, :count], opd_q, opd_b, opd_v)
                opd_now = (opd_out[0][:, :count], opd_out[1][:, :count])
            scores = nm._attention_scores(operand_feats, *opd_args, out=opd_now)[1][0]
            choice = int(scores.argmax())
            _check_finite(scores[choice], "operand score", step)
            ref = eqlang.operand_at(choice, n)
            vec = int(candidates[choice])
        action = eqlang.action_at(kind, ref)
        try:
            eqlang.symbolic_step(symbolic, equations, action, problem.constant_values)
        except eqlang.ZeroDivisor:
            status = "unsolvable"  # the mask allows it, but no expression holds it
            break
        if kind != PUSH and kind != EQUAL:  # genvar and the operators append a vector
            new = buffer[size:size + 1]
            if kind == GENVAR:  # x: the genvar attention's read of the problem
                x_scores = nm._attention_scores(h, nm._attention_pre(genvar[0], keys, dim),
                                                genvar[0][:, :dim], *genvar[1:])[1]
                np.matmul(nm.masked_softmax(x_scores), keys[0], out=new)
                candidates[count] = unknown = size
                count += 1
                opd_pre = None  # x's key is new
            elif config.transformer_mode == "mlp":
                pairs = buffer[list(stack[-2:])].reshape(1, -1)
                nm._dense_relu_dense(pairs, *transforms[action.op], out=(*head_out[:2], new))
                np.tanh(new, new)
            else:
                new[:] = registry[f"dec.tf.{action.op}.vec"]
            vec, size = size, size + 1
        stack, last = _stack_step(stack, kind, vec)
        actions.append(action)
        history.append(tuple(symbolic))
        if trace:
            steps.append(StepTrace(
                action_logits=logits.copy(), legal=_LEGAL[depth, known].copy(),
                operand_scores=None if scores is None else scores.copy(),
                attention=weights[0].copy() if config.use_attention else None,
                gate_action=gates[0, 0].copy() if config.use_gate else None,
                gate_operand=gates[1, 0].copy() if config.use_gate else None))
        # only an equal closes an equation; solvable once one mentions x
        if kind == EQUAL and any(map(eqlang.has_unknown, equations[-1])):
            status = "solved"
            break
    answer = None
    if status == "solved":
        try:
            answer = eqlang.solve(equations)
        except (eqlang.NonAffine, eqlang.NoUnknown, eqlang.DivisionByZero):
            status = "unsolvable"
    return DecodeResult(actions=actions, equations=equations,
                        answer=answer, status=status, trace=steps,
                        stack_history=history)


def _check_finite(value: float, what: str, step: int) -> None:
    if not math.isfinite(value):
        raise nm.NonFiniteValue(f"decode step {step}: the chosen {what} is {value}")
