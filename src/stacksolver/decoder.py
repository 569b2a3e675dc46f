"""The semantic stack machine that decodes equations action by action.

Each decoding step advances a recurrent state over the previous step's
result vector, extracts gated features (recurrent state, top-two stack
vectors, attention over the problem), picks a stack action behind a
legality mask, and applies it to a stack that carries matching symbolic and
semantic halves. The symbolic half evolves through exactly the same
transition function as the standalone stack VM, so the two worlds cannot
drift apart.

Actions: generate the unknown variable (first step only), push an operand
chosen by content-based addressing over candidate vectors, apply one of the
four binary operators through a per-operator semantic transformer, or close
an equation. Operators consume the two top elements as ``second <op> top``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from . import eqlang
from . import numerics as nm
from .corpus import PreparedProblem
from .encoder import EncodedProblem
from .eqlang import (
    APPLY_EQUAL,
    GEN_VAR,
    Apply,
    ApplyEqual,
    ConstRef,
    Expr,
    GenVar,
    ONE_REF,
    OperandRef,
    PI_REF,
    Push,
    StackAction,
    UNKNOWN_REF,
)
from .numerics import Node, ParamRegistry, Tape


class IllegalAction(RuntimeError):
    pass


# action indices in every distribution over stack actions
GENVAR_IDX, PUSH_IDX, ADD_IDX, SUB_IDX, MUL_IDX, DIV_IDX, EQUAL_IDX = range(7)
N_ACTIONS = 7
ACTION_NAMES = ("genvar", "push", "apply+", "apply-", "apply*", "apply/", "equal")
_OP_TO_IDX = {"+": ADD_IDX, "-": SUB_IDX, "*": MUL_IDX, "/": DIV_IDX}
_IDX_TO_OP = {v: k for k, v in _OP_TO_IDX.items()}


def action_to_index(action: StackAction) -> int:
    if isinstance(action, GenVar):
        return GENVAR_IDX
    if isinstance(action, Push):
        return PUSH_IDX
    if isinstance(action, Apply):
        return _OP_TO_IDX[action.op]
    return EQUAL_IDX


def index_to_action(idx: int, ref: OperandRef | None = None) -> StackAction:
    if idx == GENVAR_IDX:
        return GEN_VAR
    if idx == PUSH_IDX:
        if ref is None:
            raise ValueError("push needs an operand reference")
        return Push(ref)
    if idx == EQUAL_IDX:
        return APPLY_EQUAL
    return Apply(_IDX_TO_OP[idx])


def ref_to_candidate_index(ref: OperandRef, n_constants: int) -> int:
    """Position of an operand in the candidate list [c_1..c_n, 1, pi, x]."""
    if isinstance(ref, ConstRef):
        if ref.index >= n_constants:
            raise IndexError(f"constant index {ref.index} out of range")
        return ref.index
    if isinstance(ref, eqlang.OneRef):
        return n_constants
    if isinstance(ref, eqlang.PiRef):
        return n_constants + 1
    return n_constants + 2


def candidate_index_to_ref(idx: int, n_constants: int) -> OperandRef:
    if idx < n_constants:
        return ConstRef(idx)
    if idx == n_constants:
        return ONE_REF
    if idx == n_constants + 1:
        return PI_REF
    return UNKNOWN_REF


@dataclass
class DecoderConfig:
    dim: int = 256
    use_gate: bool = True
    use_attention: bool = True
    use_stack_feature: bool = True
    transformer_mode: str = "mlp"  # or "embedding"
    constant_repr: str = "semantic"  # or "fixed"
    max_steps: int = 40
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.transformer_mode not in ("mlp", "embedding"):
            raise ValueError(f"unknown transformer_mode {self.transformer_mode!r}")
        if self.constant_repr not in ("semantic", "fixed"):
            raise ValueError(f"unknown constant_repr {self.constant_repr!r}")
        if self.constant_repr == "fixed":
            # placeholder operand vectors carry no semantics to transform
            self.transformer_mode = "embedding"

    @property
    def block_count(self) -> int:
        return 1 + int(self.use_stack_feature) + int(self.use_attention)

    @property
    def feature_dim(self) -> int:
        d = self.dim
        return d + (2 * d if self.use_stack_feature else 0) + (d if self.use_attention else 0)


def register_params(registry: ParamRegistry, config: DecoderConfig,
                    rng: np.random.Generator) -> None:
    d = config.dim
    f_dim = config.feature_dim
    nb = config.block_count
    registry.add("dec.lstm.wx", nm.uniform_init(rng, (4 * d, d)))
    registry.add("dec.lstm.wh", nm.uniform_init(rng, (4 * d, d)))
    b = nm.uniform_init(rng, (4 * d,))
    b[d:2 * d] = 1.0
    registry.add("dec.lstm.b", b)
    if config.use_attention:
        registry.add("dec.qattn.v", nm.uniform_init(rng, (d,)))
        registry.add("dec.qattn.w", nm.uniform_init(rng, (d, 2 * d)))
        registry.add("dec.qattn.b", nm.uniform_init(rng, (d,)))
    registry.add("dec.genvar.v", nm.uniform_init(rng, (d,)))
    registry.add("dec.genvar.w", nm.uniform_init(rng, (d, 2 * d)))
    registry.add("dec.genvar.b", nm.uniform_init(rng, (d,)))
    if config.use_gate:
        for which in ("sa", "opd"):
            registry.add(f"dec.gate_{which}.w", nm.uniform_init(rng, (nb, f_dim)))
            registry.add(f"dec.gate_{which}.b", nm.uniform_init(rng, (nb,)))
    registry.add("dec.act.w1", nm.uniform_init(rng, (d, f_dim)))
    registry.add("dec.act.b1", nm.uniform_init(rng, (d,)))
    registry.add("dec.act.w2", nm.uniform_init(rng, (N_ACTIONS, d)))
    registry.add("dec.act.b2", nm.uniform_init(rng, (N_ACTIONS,)))
    registry.add("dec.opd.v", nm.uniform_init(rng, (d,)))
    registry.add("dec.opd.w", nm.uniform_init(rng, (d, f_dim + d)))
    registry.add("dec.opd.b", nm.uniform_init(rng, (d,)))
    for op in eqlang.OPS:
        if config.transformer_mode == "mlp":
            registry.add(f"dec.tf.{op}.w", nm.uniform_init(rng, (d, 2 * d)))
            registry.add(f"dec.tf.{op}.b", nm.uniform_init(rng, (d,)))
            registry.add(f"dec.tf.{op}.u", nm.uniform_init(rng, (d, d)))
            registry.add(f"dec.tf.{op}.c", nm.uniform_init(rng, (d,)))
        else:
            registry.add(f"dec.tf.{op}.vec", nm.uniform_init(rng, (d,)))


def semantic_transform(op: str, e1: Node, e2: Node, registry: ParamRegistry,
                       mode: str = "mlp", *, tape: Tape | None = None) -> Node:
    """Semantic vector of ``e1 <op> e2`` via the operator's transformer."""
    if mode == "embedding":
        return nm.param(tape, registry, f"dec.tf.{op}.vec")
    w = nm.param(tape, registry, f"dec.tf.{op}.w")
    b = nm.param(tape, registry, f"dec.tf.{op}.b")
    u = nm.param(tape, registry, f"dec.tf.{op}.u")
    c = nm.param(tape, registry, f"dec.tf.{op}.c")
    hidden = nm.relu(tape, nm.affine(tape, w, nm.concat(tape, [e1, e2]), b))
    return nm.tanh(tape, nm.affine(tape, u, hidden, c))


@dataclass
class DecoderState:
    sym_stack: tuple[Expr, ...]
    vec_stack: tuple[Node, ...]
    h: Node
    c: Node
    last_result: Node
    unknown_vector: Node | None
    equations: tuple[tuple[Expr, Expr], ...]

    @property
    def stack_depth(self) -> int:
        return len(self.sym_stack)

    @property
    def has_unknown(self) -> bool:
        return self.unknown_vector is not None


@dataclass
class Features:
    action_feats: Node
    operand_feats: Node
    attention_weights: np.ndarray | None
    gate_action: np.ndarray | None
    gate_operand: np.ndarray | None


@dataclass
class ActionDistribution:
    probs: np.ndarray  # length 7; masked entries are exactly 0
    logits: Node
    legal_indices: np.ndarray


@dataclass
class OperandDistribution:
    probs: np.ndarray  # over [c_1..c_n, 1, pi] (+ x once generated)
    scores: Node
    n_constants: int


@dataclass
class StepTrace:
    """Neural readouts of one greedy step; the step's action and resulting
    stack are ``DecodeResult.actions`` and ``stack_history`` at that index."""
    action_probs: np.ndarray
    operand_probs: np.ndarray | None
    attention: np.ndarray | None
    gate_action: np.ndarray | None
    gate_operand: np.ndarray | None


@dataclass
class DecodeResult:
    actions: list[StackAction]
    equations: list[tuple[Expr, Expr]]
    answer: object | None
    status: str  # solved | unsolvable | budget_exceeded
    trace: list[StepTrace]
    stack_history: list[tuple[Expr, ...]] = field(default_factory=list)


def legal_action_mask(stack_depth: int, has_unknown: bool) -> np.ndarray:
    """Push is always legal; operators need two operands; one unknown only."""
    mask = np.ones(N_ACTIONS, dtype=bool)
    if stack_depth < 2:
        mask[ADD_IDX:EQUAL_IDX + 1] = False
    if has_unknown:
        mask[GENVAR_IDX] = False
    return mask


class DecoderRun:
    """One decoding pass (teacher-forced or greedy) over an encoded problem."""

    def __init__(self, encoded: EncodedProblem, problem: PreparedProblem,
                 registry: ParamRegistry, config: DecoderConfig, *,
                 tape: Tape | None = None, training: bool = False,
                 rng: np.random.Generator | None = None):
        self.encoded = encoded
        self.problem = problem
        self.registry = registry
        self.config = config
        self.tape = tape
        self.training = training
        self.rng = rng
        self.zero = nm.constant(np.zeros(config.dim))
        self.base_candidates = list(encoded.constant_vectors) + [
            encoded.one_vector, encoded.pi_vector]
        if config.use_attention:
            # candidate half of the attention hidden layer, shared across steps
            self._q_pre = nm.attention_pre(
                tape, nm.param(tape, registry, "dec.qattn.w"),
                encoded.token_matrix, config.dim)
        else:
            self._q_pre = None

    def _p(self, name: str) -> Node:
        return nm.param(self.tape, self.registry, name)

    def initial_state(self) -> DecoderState:
        return DecoderState(
            sym_stack=(), vec_stack=(),
            h=self.encoded.final_h, c=self.encoded.final_c,
            last_result=self.zero, unknown_vector=None,
            equations=())

    def advance(self, state: DecoderState) -> DecoderState:
        """Step the decoder recurrence over the previous action's result."""
        x = nm.dropout(self.tape, state.last_result, self.config.dropout_p,
                       self.training, self.rng)
        h, c = nm.lstm_cell(self.tape, x, state.h, state.c,
                            self._p("dec.lstm.wx"), self._p("dec.lstm.wh"),
                            self._p("dec.lstm.b"))
        return replace(state, h=h, c=c)

    def state_features(self, state: DecoderState) -> Features:
        """Gated concatenation of recurrent state, stack status, and attention."""
        cfg = self.config
        blocks = [state.h]
        if cfg.use_stack_feature:
            top = state.vec_stack[-1] if state.stack_depth >= 1 else self.zero
            second = state.vec_stack[-2] if state.stack_depth >= 2 else self.zero
            blocks.append(nm.concat(self.tape, [top, second]))
        attn_weights = None
        if cfg.use_attention:
            context, weights = nm.attention(
                self.tape, state.h, self.encoded.token_matrix,
                self._p("dec.qattn.v"), self._p("dec.qattn.w"), self._p("dec.qattn.b"),
                pre=self._q_pre, dropout_p=cfg.dropout_p,
                training=self.training, rng=self.rng)
            blocks.append(context)
            attn_weights = weights.value
        if not cfg.use_gate:
            feats = blocks[0] if len(blocks) == 1 else nm.concat(self.tape, blocks)
            return Features(feats, feats, attn_weights, None, None)
        gate_in = blocks[0] if len(blocks) == 1 else nm.concat(self.tape, blocks)
        gates = {}
        gated = {}
        for which in ("sa", "opd"):
            g = nm.sigmoid(self.tape, nm.affine(
                self.tape, self._p(f"dec.gate_{which}.w"), gate_in,
                self._p(f"dec.gate_{which}.b")))
            gates[which] = g
            gated[which] = nm.gate_blocks(self.tape, g, blocks)
        return Features(gated["sa"], gated["opd"], attn_weights,
                        gates["sa"].value, gates["opd"].value)

    # -- stack action selection

    def select_action(self, feats: Features, state: DecoderState) -> ActionDistribution:
        cfg = self.config
        x = nm.dropout(self.tape, feats.action_feats, cfg.dropout_p,
                       self.training, self.rng)
        logits = nm.dense_relu_dense(
            self.tape, x, self._p("dec.act.w1"), self._p("dec.act.b1"),
            self._p("dec.act.w2"), self._p("dec.act.b2"),
            hidden_dropout=cfg.dropout_p, training=self.training, rng=self.rng)
        legal = legal_action_mask(state.stack_depth, state.has_unknown)
        legal_indices = np.flatnonzero(legal)
        if legal_indices.size == 0:
            raise IllegalAction("no legal stack action")  # unreachable: push is always legal
        z = logits.value[legal_indices]
        z = z - z.max()
        e = np.exp(z)
        probs = np.zeros(N_ACTIONS)
        probs[legal_indices] = e / e.sum()
        return ActionDistribution(probs, logits, legal_indices)

    def action_loss(self, dist: ActionDistribution, gold: StackAction) -> Node:
        idx = action_to_index(gold)
        where = np.flatnonzero(dist.legal_indices == idx)
        if where.size == 0:
            raise IllegalAction(f"gold action {gold} is masked at this step")
        sub = nm.gather(self.tape, dist.logits, dist.legal_indices)
        loss, _ = nm.softmax_cross_entropy(self.tape, sub, int(where[0]))
        return loss

    # -- operand selection

    def _candidates(self, state: DecoderState) -> list[Node]:
        cands = list(self.base_candidates)
        if state.has_unknown:
            cands.append(state.unknown_vector)
        return cands

    def select_operand(self, feats: Features, state: DecoderState) -> OperandDistribution:
        cands = self._candidates(state)
        scores = nm.attention_scores(
            self.tape, feats.operand_feats, cands,
            self._p("dec.opd.v"), self._p("dec.opd.w"), self._p("dec.opd.b"),
            dropout_p=self.config.dropout_p, training=self.training, rng=self.rng)
        z = scores.value - scores.value.max()
        e = np.exp(z)
        return OperandDistribution(e / e.sum(), scores, self.encoded.n_constants)

    def operand_loss(self, dist: OperandDistribution, gold_ref: OperandRef) -> Node:
        idx = ref_to_candidate_index(gold_ref, dist.n_constants)
        if idx >= dist.probs.shape[0]:
            raise IllegalAction(f"operand {gold_ref} not yet available")
        loss, _ = nm.softmax_cross_entropy(self.tape, dist.scores, idx)
        return loss

    # -- state transition

    def _operand_vector(self, state: DecoderState, ref: OperandRef) -> Node:
        if isinstance(ref, ConstRef):
            return self.encoded.constant_vectors[ref.index]
        if isinstance(ref, eqlang.OneRef):
            return self.encoded.one_vector
        if isinstance(ref, eqlang.PiRef):
            return self.encoded.pi_vector
        if state.unknown_vector is None:
            raise IllegalAction("push of the unknown before it was generated")
        return state.unknown_vector

    def apply_action(self, state: DecoderState, action: StackAction,
                     operand_ref: OperandRef | None = None) -> DecoderState:
        """Apply one action to the dual stack; the caller enforced legality."""
        if isinstance(action, GenVar):
            if state.has_unknown:
                raise IllegalAction("second unknown generation is masked")
            unknown_vec, _ = nm.attention(
                self.tape, state.h, self.encoded.token_matrix,
                self._p("dec.genvar.v"), self._p("dec.genvar.w"),
                self._p("dec.genvar.b"), dropout_p=self.config.dropout_p,
                training=self.training, rng=self.rng)
            return replace(state, unknown_vector=unknown_vec, last_result=unknown_vec)

        if isinstance(action, (Apply, ApplyEqual)) and state.stack_depth < 2:
            raise IllegalAction(f"{action} with stack depth {state.stack_depth}")

        sym_stack = list(state.sym_stack)
        equations = list(state.equations)
        eqlang.symbolic_step(sym_stack, equations, action, self.problem.constant_values)

        if isinstance(action, Push):
            ref = operand_ref if operand_ref is not None else action.ref
            vec = self._operand_vector(state, ref)
            return replace(state, sym_stack=tuple(sym_stack),
                           vec_stack=state.vec_stack + (vec,),
                           last_result=vec)
        if isinstance(action, Apply):
            top_vec = state.vec_stack[-1]
            second_vec = state.vec_stack[-2]
            new_vec = semantic_transform(action.op, second_vec, top_vec,
                                         self.registry, self.config.transformer_mode,
                                         tape=self.tape)
            return replace(state, sym_stack=tuple(sym_stack),
                           vec_stack=state.vec_stack[:-2] + (new_vec,),
                           last_result=new_vec)
        # equal application: the remaining top is the step result, or zero
        remaining = state.vec_stack[:-2]
        result = remaining[-1] if remaining else self.zero
        return replace(state, sym_stack=tuple(sym_stack), vec_stack=remaining,
                       equations=tuple(equations), last_result=result)

    def solvable(self, state: DecoderState) -> bool:
        if not state.equations:
            return False
        lhs, rhs = state.equations[-1]
        return eqlang.has_unknown(lhs) or eqlang.has_unknown(rhs)


def greedy_decode(encoded: EncodedProblem, problem: PreparedProblem,
                  registry: ParamRegistry, config: DecoderConfig, *,
                  tape: Tape | None = None,
                  rng: np.random.Generator | None = None) -> DecodeResult:
    """Decode with argmax action/operand choices until solvable or out of budget."""
    run = DecoderRun(encoded, problem, registry, config, tape=tape,
                     training=False, rng=rng)
    state = run.initial_state()
    actions: list[StackAction] = []
    trace: list[StepTrace] = []
    history: list[tuple[Expr, ...]] = []
    status = "budget_exceeded"
    for _ in range(config.max_steps):
        state = run.advance(state)
        feats = run.state_features(state)
        dist = run.select_action(feats, state)
        idx = int(np.argmax(dist.probs))
        operand_probs = None
        ref = None
        if idx == PUSH_IDX:
            odist = run.select_operand(feats, state)
            ref = candidate_index_to_ref(int(np.argmax(odist.probs)),
                                         odist.n_constants)
            operand_probs = odist.probs
        action = index_to_action(idx, ref)
        state = run.apply_action(state, action, ref)
        actions.append(action)
        history.append(state.sym_stack)
        trace.append(StepTrace(
            action_probs=dist.probs, operand_probs=operand_probs,
            attention=feats.attention_weights, gate_action=feats.gate_action,
            gate_operand=feats.gate_operand))
        if run.solvable(state):
            status = "solved"
            break
    answer = None
    if status == "solved":
        try:
            answer = eqlang.solve(list(state.equations))
        except (eqlang.NonAffine, eqlang.NoUnknown, eqlang.DivisionByZero):
            status = "unsolvable"
    return DecodeResult(actions=actions, equations=list(state.equations),
                        answer=answer, status=status, trace=trace,
                        stack_history=history)
