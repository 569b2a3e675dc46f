"""Problem encoder: token embeddings, a bidirectional LSTM, constant vectors.

Each constant mentioned in the text gets a semantic vector. In ``direct``
mode that is simply the recurrent state at the constant's token position;
the ``self_attention`` mode instead attends from that position over the
whole sequence and keeps the weight rows for export. The external operands
1 and pi, which equations may need but text never mentions, live as two
dedicated trainable vectors. A ``fixed`` constant representation (an
ablation) replaces text-derived vectors with per-slot trainable vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import PreparedProblem
from .numerics import Node, ParamRegistry, Tape

UNK_TOKEN = "<unk>"
UNK_ID = 0

FIXED_SLOT_LIMIT = 15


class EmptyProblem(ValueError):
    pass


class TooManyConstants(ValueError):
    pass


@dataclass
class EncoderConfig:
    vocab_size: int
    embed_dim: int = 128
    hidden_per_direction: int = 128
    constant_mode: str = "direct"  # or "self_attention"
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.embed_dim <= 0 or self.hidden_per_direction <= 0:
            raise ValueError("encoder dimensions must be positive")
        if self.constant_mode not in ("direct", "self_attention"):
            raise ValueError(f"unknown constant_mode {self.constant_mode!r}")

    @property
    def dim(self) -> int:
        """Concatenated semantic dimension shared by every operand vector."""
        return 2 * self.hidden_per_direction


@dataclass
class EncodedProblem:
    token_matrix: Node
    constant_vectors: list[Node]
    one_vector: Node
    pi_vector: Node
    final_h: Node
    final_c: Node
    self_attention_maps: list[np.ndarray] | None

    @property
    def n_constants(self) -> int:
        return len(self.constant_vectors)


def build_vocab(token_lists) -> dict[str, int]:
    """Token ids by first appearance; id 0 is reserved for unknowns."""
    vocab = {UNK_TOKEN: UNK_ID}
    for tokens in token_lists:
        for tok in tokens:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


def register_params(registry: ParamRegistry, config: EncoderConfig,
                    rng: np.random.Generator, *, fixed_slots: int = 0) -> None:
    h = config.hidden_per_direction
    d = config.dim
    registry.add("enc.embed", nm.uniform_init(rng, (config.vocab_size, config.embed_dim)))
    for direction in ("fwd", "bwd"):
        registry.add(f"enc.{direction}.wx", nm.uniform_init(rng, (4 * h, config.embed_dim)))
        registry.add(f"enc.{direction}.wh", nm.uniform_init(rng, (4 * h, h)))
        b = nm.uniform_init(rng, (4 * h,))
        b[h:2 * h] = 1.0  # forget gate starts open
        registry.add(f"enc.{direction}.b", b)
    registry.add("enc.init_h.w", nm.uniform_init(rng, (d, d)))
    registry.add("enc.init_h.b", nm.uniform_init(rng, (d,)))
    registry.add("enc.init_c.w", nm.uniform_init(rng, (d, d)))
    registry.add("enc.init_c.b", nm.uniform_init(rng, (d,)))
    registry.add("enc.one", nm.uniform_init(rng, (d,)))
    registry.add("enc.pi", nm.uniform_init(rng, (d,)))
    if config.constant_mode == "self_attention":
        registry.add("enc.selfattn.v", nm.uniform_init(rng, (d,)))
        registry.add("enc.selfattn.w", nm.uniform_init(rng, (d, 2 * d)))
        registry.add("enc.selfattn.b", nm.uniform_init(rng, (d,)))
    if fixed_slots:
        registry.add("enc.const_slots", nm.uniform_init(rng, (fixed_slots, d)))


def external_constant_vectors(registry: ParamRegistry,
                              tape: Tape | None = None) -> tuple[Node, Node]:
    """The trainable vectors standing in for the operands 1 and pi."""
    return nm.param(tape, registry, "enc.one"), nm.param(tape, registry, "enc.pi")


def encode(problem: PreparedProblem, vocab: dict[str, int],
           registry: ParamRegistry, config: EncoderConfig, *,
           constant_repr: str = "semantic", tape: Tape | None = None,
           training: bool = False,
           rng: np.random.Generator | None = None) -> EncodedProblem:
    """Run the bidirectional recurrence and extract per-constant vectors."""
    m = len(problem.tokens)
    if m == 0:
        raise EmptyProblem("cannot encode a problem with no tokens")
    h_dir = config.hidden_per_direction

    table = nm.param(tape, registry, "enc.embed")
    embeds = [nm.embedding_row(tape, table, vocab.get(tok, UNK_ID))
              for tok in problem.tokens]

    def run_direction(xs, prefix):
        wx = nm.param(tape, registry, f"enc.{prefix}.wx")
        wh = nm.param(tape, registry, f"enc.{prefix}.wh")
        b = nm.param(tape, registry, f"enc.{prefix}.b")
        h = nm.constant(np.zeros(h_dir))
        c = nm.constant(np.zeros(h_dir))
        states = []
        for x in xs:
            h, c = nm.lstm_cell(tape, x, h, c, wx, wh, b)
            states.append(h)
        return states, c

    fwd_states, fwd_cell = run_direction(embeds, "fwd")
    bwd_states_rev, bwd_cell = run_direction(list(reversed(embeds)), "bwd")
    bwd_states = list(reversed(bwd_states_rev))

    token_states = [nm.concat(tape, [f, bwd]) for f, bwd in zip(fwd_states, bwd_states)]
    token_matrix = nm.rows_stack(tape, token_states)

    attention_maps = None
    if constant_repr == "fixed":
        if problem.n_constants > FIXED_SLOT_LIMIT:
            raise TooManyConstants(
                f"{problem.n_constants} constants exceed the {FIXED_SLOT_LIMIT} fixed slots")
        slots = nm.param(tape, registry, "enc.const_slots")
        constant_vectors = [nm.embedding_row(tape, slots, i)
                            for i in range(problem.n_constants)]
    elif config.constant_mode == "self_attention":
        v = nm.param(tape, registry, "enc.selfattn.v")
        w = nm.param(tape, registry, "enc.selfattn.w")
        b = nm.param(tape, registry, "enc.selfattn.b")
        pre = nm.attention_pre(tape, w, token_matrix, config.dim)
        constant_vectors = []
        attention_maps = []
        for p in problem.constant_positions:
            ctx, weights = nm.attention(tape, token_states[p], token_matrix, v, w, b,
                                        pre=pre, dropout_p=config.dropout_p,
                                        training=training, rng=rng)
            constant_vectors.append(ctx)
            attention_maps.append(weights.value.copy())
    else:
        constant_vectors = [token_states[p] for p in problem.constant_positions]

    enc_h = nm.concat(tape, [fwd_states[-1], bwd_states[0]])
    enc_c = nm.concat(tape, [fwd_cell, bwd_cell])
    final_h = nm.affine(tape, nm.param(tape, registry, "enc.init_h.w"), enc_h,
                        nm.param(tape, registry, "enc.init_h.b"))
    final_c = nm.affine(tape, nm.param(tape, registry, "enc.init_c.w"), enc_c,
                        nm.param(tape, registry, "enc.init_c.b"))

    one_vec, pi_vec = external_constant_vectors(registry, tape)
    return EncodedProblem(
        token_matrix=token_matrix,
        constant_vectors=constant_vectors,
        one_vector=one_vec,
        pi_vector=pi_vec,
        final_h=final_h,
        final_c=final_c,
        self_attention_maps=attention_maps,
    )
