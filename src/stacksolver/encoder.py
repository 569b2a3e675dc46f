"""Problem encoder: token embeddings, a bidirectional LSTM, constant vectors.

Each constant mentioned in the text gets a vector, and ``constant_mode``
says where it comes from. In ``direct`` mode it is simply the recurrent
state at the constant's token position; the ``self_attention`` mode instead
attends from that position over the whole sequence; the ``fixed`` mode (an
ablation) ignores the text and gives the i-th constant the i-th of
``FIXED_SLOT_LIMIT`` trainable slot vectors. The external operands 1 and
pi, which equations may need but text never mentions, live as two
dedicated trainable vectors.

``encode_batch`` runs a whole batch at once as a padded, masked BiLSTM and
gathers every problem's constant vectors through flat index arrays;
``encode`` is its one-problem case. ``param_shapes`` is the one place that
names the encoder's parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .corpus import PreparedProblem
from .numerics import Node, ParamRegistry, Tape

UNK_TOKEN = "<unk>"
UNK_ID = 0

FIXED_SLOT_LIMIT = 15

# widest embedding or recurrent layer a config may ask for: at the cap a
# model has about 41M parameters, 0.3 GiB of float64; training adds a
# gradient and two Adam moments of that size, and each Adam step two more
# rows of scratch: six such buffers, about 1.8 GiB, and seven (2.1 GiB) once
# training keeps a best-model copy
MAX_WIDTH = 512


class EmptyProblem(ValueError):
    pass


class TooManyConstants(ValueError):
    pass


def check_integers(**settings) -> None:
    """Raise ``ValueError`` for a setting that is not an integer; a bool or
    a float is not one, whatever its value."""
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class EncoderConfig:
    embed_dim: int = 128
    hidden_per_direction: int = 128
    constant_mode: str = "direct"  # or "self_attention" or "fixed"
    dropout_p: float = 0.1  # the encoder's and the decoder's

    def __post_init__(self):
        check_integers(embed_dim=self.embed_dim, hidden_per_direction=self.hidden_per_direction)
        if not (0 < self.embed_dim <= MAX_WIDTH and 0 < self.hidden_per_direction <= MAX_WIDTH):
            raise ValueError(f"encoder dimensions must be positive and at most {MAX_WIDTH}, "
                             f"got embed_dim {self.embed_dim}, hidden {self.hidden_per_direction}")
        if self.constant_mode not in ("direct", "self_attention", "fixed"):
            raise ValueError(f"unknown constant_mode {self.constant_mode!r}")
        if not 0 <= self.dropout_p < 1:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_p}")

    @property
    def dim(self) -> int:
        """Concatenated semantic dimension shared by every operand vector."""
        return 2 * self.hidden_per_direction


@dataclass
class EncodedBatch:
    """Encoder outputs for a batch of problems, padded to the longest one."""
    token_matrix: Node          # (B, T, d); rows past a problem's length are 0
    token_mask: np.ndarray      # (B, T), True on a problem's own tokens
    constants: Node             # (K, d): every problem's constants, problem by problem
    n_constants: np.ndarray     # (B,) constants per problem
    one_vector: Node
    pi_vector: Node
    final_h: Node               # (B, d)
    final_c: Node


def build_vocab(token_lists) -> dict[str, int]:
    """Token ids by first appearance; id 0 is reserved for unknowns."""
    vocab = {UNK_TOKEN: UNK_ID}
    for tokens in token_lists:
        for tok in tokens:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


def param_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Each encoder parameter's shape, in the order that a new model draws them."""
    h, d, e = config.hidden_per_direction, config.dim, config.embed_dim
    shapes = {"enc.embed": (vocab_size, e)}
    for direction in ("fwd", "bwd"):
        shapes |= {f"enc.{direction}.wx": (4 * h, e), f"enc.{direction}.wh": (4 * h, h),
                   f"enc.{direction}.b": (4 * h,)}
    shapes |= {"enc.init_h.w": (d, d), "enc.init_h.b": (d,), "enc.init_c.w": (d, d),
               "enc.init_c.b": (d,), "enc.one": (d,), "enc.pi": (d,)}
    if config.constant_mode == "self_attention":
        shapes |= {"enc.selfattn.v": (d,), "enc.selfattn.w": (d, 2 * d),
                   "enc.selfattn.b": (d,)}
    if config.constant_mode == "fixed":
        shapes["enc.const_slots"] = (FIXED_SLOT_LIMIT, d)
    return shapes


def encode(problem: PreparedProblem, vocab: dict[str, int],
           registry: ParamRegistry, config: EncoderConfig) -> EncodedBatch:
    """Encode one problem for inference: ``encode_batch`` of a batch of one."""
    return encode_batch([problem], vocab, registry, config)


def encode_batch(problems: Sequence[PreparedProblem], vocab: dict[str, int],
                 registry: ParamRegistry, config: EncoderConfig, *,
                 tape: Tape | None = None,
                 rng: np.random.Generator | None = None) -> EncodedBatch:
    """Run the bidirectional recurrence over a padded batch and extract the
    constant vectors of every problem; dropout runs exactly when ``rng`` is
    given."""
    lengths = np.array([len(p.tokens) for p in problems], dtype=np.intp)
    if lengths.size == 0 or lengths.min() == 0:
        raise EmptyProblem("cannot encode a problem with no tokens")
    n_constants = np.array([p.n_constants for p in problems], dtype=np.intp)
    if config.constant_mode == "fixed" and n_constants.max() > FIXED_SLOT_LIMIT:
        raise TooManyConstants(
            f"{n_constants.max()} constants exceed the {FIXED_SLOT_LIMIT} fixed slots")

    ids = np.full((len(problems), lengths.max()), UNK_ID, dtype=np.intp)
    for row, problem in enumerate(problems):
        ids[row, :lengths[row]] = [vocab.get(tok, UNK_ID) for tok in problem.tokens]
    mask = np.arange(ids.shape[1])[None, :] < lengths[:, None]
    embeds = nm.gather(tape, nm.param(tape, registry, "enc.embed"), ids)

    token_matrix, enc_h, enc_c = nm.lstm(
        tape, embeds, lengths,
        [[nm.param(tape, registry, f"enc.{direction}.{name}") for name in ("wx", "wh", "b")]
         for direction in ("fwd", "bwd")], reverse=(False, True))

    owner = np.repeat(np.arange(len(problems)), n_constants)
    if config.constant_mode == "fixed":
        slots = np.concatenate([np.arange(n) for n in n_constants])
        constants = nm.gather(tape, nm.param(tape, registry, "enc.const_slots"), slots)
    else:
        positions = np.array([i for p in problems for i in p.constant_positions],
                             dtype=np.intp)
        constants = nm.gather(tape, token_matrix, (owner, positions))
        if config.constant_mode == "self_attention":
            constants, _ = nm.attention(
                tape, constants, token_matrix,
                nm.param(tape, registry, "enc.selfattn.v"),
                nm.param(tape, registry, "enc.selfattn.w"),
                nm.param(tape, registry, "enc.selfattn.b"),
                mask=mask, rows=owner, dropout_p=config.dropout_p, rng=rng)

    final_h = nm.linear(tape, enc_h, nm.param(tape, registry, "enc.init_h.w"),
                        nm.param(tape, registry, "enc.init_h.b"))
    final_c = nm.linear(tape, enc_c, nm.param(tape, registry, "enc.init_c.w"),
                        nm.param(tape, registry, "enc.init_c.b"))
    return EncodedBatch(
        token_matrix=token_matrix,
        token_mask=mask,
        constants=constants,
        n_constants=n_constants,
        one_vector=nm.param(tape, registry, "enc.one"),
        pi_vector=nm.param(tape, registry, "enc.pi"),
        final_h=final_h,
        final_c=final_c,
    )
