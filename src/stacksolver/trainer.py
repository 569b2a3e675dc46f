"""Teacher-forced training, evaluation, cross-validation, and model persistence.

A training batch is one graph on one tape: each gold target passes
``eqlang.check_target`` first, the encoder runs the batch as a padded
BiLSTM, the decoder steps every problem's semantic stack in lockstep and
then runs its LSTM over every step at once, and its heads and losses run
once over every (problem, step) of the batch, so one backward sweep and one
Adam step (on the mean-of-problems loss) are taken per batch. Everything is
seeded, so a rerun with the same config reproduces the loss curve bit for
bit. A saved model's ``meta.json`` states each setting once, under the
config that holds it, and records its checkpoint's sha256, so a directory
never loads a checkpoint and a ``meta.json`` that were not saved together.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import decoder as dec
from . import encoder as enc
from . import eqlang
from . import numerics as nm
from .corpus import PreparedProblem
from .decoder import DecoderConfig, DecoderRun, DecodeResult
from .encoder import EncoderConfig, TooManyConstants, check_integers
from .eqlang import PUSH
from .numerics import Node, OptimizerConfig, ParamRegistry, Tape


class EmptyDataset(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    mode: str = "word"
    embed_dim: int = 128
    hidden_per_direction: int = 128
    constant_mode: str = "direct"
    dropout_p: float = 0.1
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    patience: int = 10
    eval_every: int = 1
    target_accuracy: float | None = None

    def __post_init__(self):
        check_integers(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed,
                       patience=self.patience, eval_every=self.eval_every)
        if self.seed < 0 or min(self.epochs, self.batch_size, self.patience,
                                self.eval_every) < 1:
            raise ValueError("seed must be >= 0; epochs, batch_size, patience, eval_every >= 1")
        accuracy = self.target_accuracy
        if accuracy is not None and (isinstance(accuracy, bool)
                                     or not isinstance(accuracy, numbers.Real)
                                     or not 0 <= accuracy <= 1):
            raise ValueError(f"target_accuracy must be None or in [0, 1], got {accuracy!r}")
        if self.mode not in ("word", "char"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # building the encoder's config checks its own rules (sizes,
        # constant_mode, dropout) before any data is read
        if self.encoder.constant_mode == "fixed":
            # fixed slot vectors carry no semantics to transform
            self.decoder = replace(self.decoder, transformer_mode="embedding")

    @property
    def encoder(self) -> EncoderConfig:
        """The encoder's settings, which the fields above hold."""
        return EncoderConfig(self.embed_dim, self.hidden_per_direction,
                             self.constant_mode, self.dropout_p)


@dataclass
class Model:
    registry: ParamRegistry
    vocab: dict[str, int]
    enc_config: EncoderConfig
    dec_config: DecoderConfig
    mode: str


@dataclass
class Metrics:
    answer_accuracy: float
    equation_accuracy: float
    n_total: int
    n_correct_answer: int
    n_correct_equation: int
    n_rejected: int


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    eval_metrics: Metrics | None = None


@dataclass
class TrainResult:
    model: Model
    history: list[EpochStats]
    best_metrics: Metrics | None
    best_epoch: int

    @property
    def final_loss(self) -> float:
        return self.history[-1].mean_loss


def build_model(vocab: dict[str, int], config: TrainConfig,
                rng: np.random.Generator) -> Model:
    """A new model over ``vocab``: one draw over the arena, which holds the
    parameters of ``param_shapes`` in table order, so each gets the values
    of a draw of its own; then each LSTM's forget gate bias is set to 1."""
    enc_config = config.encoder
    registry = ParamRegistry(param_shapes(enc_config, config.decoder, len(vocab)))
    nm.uniform_init(rng, registry.flat)
    for name in ("enc.fwd.b", "enc.bwd.b", "dec.lstm.b"):
        hidden = registry[name].size // 4
        registry[name][hidden:2 * hidden] = 1.0  # forget gate starts open
    return Model(registry, vocab, enc_config, config.decoder, config.mode)


def param_shapes(enc_config: EncoderConfig, dec_config: DecoderConfig,
                 vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape: the encoder's table, then the decoder's."""
    return (enc.param_shapes(enc_config, vocab_size)
            | dec.param_shapes(dec_config, enc_config.dim))


def batch_loss(problems: Sequence[PreparedProblem], model: Model, *,
               tape: Tape | None, rng: np.random.Generator | None = None) -> Node:
    """Summed action and operand losses of a batch under the gold action
    sequences, as one graph on ``tape``. Dropout runs exactly when ``rng``
    is given. A target that ``eqlang.check_target`` rejects raises
    ``IllegalAction`` before anything runs.

    Two passes over one tape. The decoder's recurrence never reads the
    heads, so pass 1 runs it alone: step 0's ``advance`` and genvar, then
    every later step's ``apply_action`` on the stacks alone, in lockstep
    and sorted by target length (longest first), so the rows still decoding
    at step t are always the first ones. ``stack_steps`` runs the LSTM over
    all the steps at once and stacks every (row, step) into one tall state,
    problem by problem. Pass 2 runs the features, both heads and both
    cross-entropies once over it."""
    for problem in problems:
        eqlang.check_target(problem.target, problem.n_constants)
    rows = sorted(problems, key=lambda p: -len(p.target))
    lengths = np.array([len(p.target) for p in rows])
    encoded = enc.encode_batch(rows, model.vocab, model.registry, model.enc_config,
                               tape=tape, rng=rng)
    run = DecoderRun(encoded, rows, model.registry, model.dec_config, tape=tape, rng=rng,
                     dropout_p=model.enc_config.dropout_p)
    steps = [run.advance(run.initial_state())]  # genvar, always step 0, reads its h
    for step in range(lengths[0]):
        active = int((lengths > step).sum())
        if step:  # later steps carry the stacks alone: stack_steps runs their LSTM
            steps.append(dec.DecoderState(None, None, state.last[:active],
                                          state.unknown[:active], state.vec_stacks[:active]))
        state = run.apply_action(steps[-1], [p.target[step] for p in rows[:active]])

    # every (row, step)'s gold action, in the tall state's order
    gold = [(action, problem) for problem in rows for action in problem.target]
    actions = np.array([action.kind for action, _ in gold], dtype=np.intp)
    pushes = np.flatnonzero(actions == PUSH)
    tall = run.stack_steps(steps)
    feats = run.state_features(tall)
    loss = run.action_loss(run.select_action(feats, tall), actions)
    if pushes.size:
        operands = np.array([eqlang.operand_index(gold[i][0].ref, gold[i][1].n_constants)
                             for i in pushes.tolist()], dtype=np.intp)
        loss = nm.add_n(tape, [loss, run.operand_loss(
            run.select_operand(feats, tall, pushes), operands)])
    return loss


def problem_loss(problem: PreparedProblem, model: Model, *, tape: Tape | None,
                 rng: np.random.Generator | None = None) -> Node:
    """Teacher-forced loss of one problem: ``batch_loss`` of a batch of one."""
    return batch_loss([problem], model, tape=tape, rng=rng)


def decode_problem(model: Model, problem: PreparedProblem, max_steps: int | None = None,
                   *, trace: bool = False) -> DecodeResult:
    config = model.dec_config
    if max_steps is not None:
        config = replace(config, max_steps=max_steps)
    encoded = enc.encode(problem, model.vocab, model.registry, model.enc_config)
    return dec.greedy_decode(encoded, problem, model.registry, config, trace=trace)


def evaluate(model: Model, problems: list[PreparedProblem], rejected: int = 0) -> Metrics:
    """Answer accuracy by solving decoded equations; equation accuracy by
    exact action-sequence match. Rejected problems count in the denominator."""
    n_answer = 0
    n_equation = 0
    n_rejected = rejected
    n_served = 0
    for problem in problems:
        try:
            result = decode_problem(model, problem)
        except TooManyConstants:
            n_rejected += 1
            continue
        n_served += 1
        if (result.status == "solved" and result.answer is not None
                and problem.gold_answer is not None
                and eqlang.answers_equal(result.answer, problem.gold_answer)):
            n_answer += 1
        if result.actions == problem.target:
            n_equation += 1
    total = n_served + n_rejected
    if total == 0:
        raise EmptyDataset("nothing to evaluate")
    return Metrics(
        answer_accuracy=n_answer / total,
        equation_accuracy=n_equation / total,
        n_total=total,
        n_correct_answer=n_answer,
        n_correct_equation=n_equation,
        n_rejected=n_rejected,
    )


def train(train_set: list[PreparedProblem], config: TrainConfig,
          heldout: list[PreparedProblem] | None = None) -> TrainResult:
    """Seeded epochs of accumulated-gradient Adam; checkpoints the best model.

    The held-out split drives early stopping and best-model selection; when
    absent, the training set itself is scored (overfitting runs). A model
    with a parameter that is not finite is never kept as the best: it
    raises ``NonFiniteValue``. The model returned holds the best epoch's
    parameters alone, with no gradient or Adam state, as a loaded one does.
    """
    if not train_set:
        raise EmptyDataset("empty training set")
    init_rng = np.random.default_rng(config.seed)
    loop_rng = np.random.default_rng(config.seed + 1)
    if config.constant_mode == "fixed":
        usable = [p for p in train_set if p.n_constants <= enc.FIXED_SLOT_LIMIT]
        if not usable:
            raise EmptyDataset("no problem fits the fixed constant slots")
    else:
        usable = train_set
    vocab = enc.build_vocab(p.tokens for p in usable)
    model = build_model(vocab, config, init_rng)
    eval_set = heldout if heldout is not None else usable

    history: list[EpochStats] = []
    best_registry: ParamRegistry | None = None  # the last epoch always evaluates
    best_metrics: Metrics | None = None
    best_epoch = 0
    epochs_since_best = 0
    order = np.arange(len(usable))
    stop = False
    for epoch in range(1, config.epochs + 1):
        loop_rng.shuffle(order)
        total_loss = 0.0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = order[start:start + config.batch_size]
            model.registry.zero_grads()
            tape = Tape()
            loss = batch_loss([usable[int(i)] for i in batch], model, tape=tape,
                              rng=loop_rng)
            value = float(loss.value)
            if not math.isfinite(value):
                raise nm.NonFiniteValue(
                    f"epoch {epoch}, batch {batch_no}: loss is {value}")
            tape.backward(loss)
            total_loss += value
            if len(batch) > 1:  # x / 1 == x: a pass over the arena that changes nothing
                model.registry.flat_grads /= len(batch)
            try:
                nm.adam_step(model.registry, config.optimizer)
            except nm.NonFiniteValue as exc:
                raise nm.NonFiniteValue(
                    f"epoch {epoch}, batch {batch_no}: {exc}") from None
        mean_loss = total_loss / len(usable)
        stats = EpochStats(epoch=epoch, mean_loss=mean_loss)
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            metrics = evaluate(model, eval_set)
            stats.eval_metrics = metrics
            if best_metrics is None or metrics.answer_accuracy > best_metrics.answer_accuracy:
                if not np.isfinite(model.registry.flat).all():
                    raise nm.NonFiniteValue(f"epoch {epoch}: a parameter is not finite")
                best_metrics = metrics
                best_registry = model.registry.copy()
                best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += config.eval_every
            if (config.target_accuracy is not None
                    and metrics.answer_accuracy >= config.target_accuracy):
                stop = True
            if epochs_since_best >= config.patience:
                stop = True
        history.append(stats)
        if stop:
            break
    model.registry = best_registry
    return TrainResult(model=model, history=history,
                       best_metrics=best_metrics, best_epoch=best_epoch)


def cross_validate(problems: list[PreparedProblem], config: TrainConfig,
                   k: int) -> tuple[list[Metrics], float]:
    """Train k models on k-1 folds each, evaluate on the held-out fold.

    Raises ``EmptyDataset`` before any training when some fold would be
    empty: folds are dealt by id, so that needs k distinct ids."""
    from .corpus import make_folds

    split = make_folds([p.id for p in problems], k=k, seed=config.seed)
    if len(split.assignments) < k:
        raise EmptyDataset(f"{k} folds need at least {k} problems with distinct ids, "
                           f"got {len(split.assignments)}")
    fold_metrics: list[Metrics] = []
    for fold in range(k):
        held_ids = set(split.fold_ids(fold))
        train_part = [p for p in problems if p.id not in held_ids]
        held_part = [p for p in problems if p.id in held_ids]
        result = train(train_part, config, heldout=held_part)
        fold_metrics.append(evaluate(result.model, held_part))
    mean_acc = float(np.mean([m.answer_accuracy for m in fold_metrics]))
    return fold_metrics, mean_acc


# ---------------------------------------------------------------------------
# persistence

_META_NAME = "meta.json"
_CKPT_NAME = "checkpoint.bin"


def save_model(directory, model: Model) -> None:
    """Write the checkpoint, then ``meta.json`` with the checkpoint's sha256.
    Each is written under a temporary name in ``directory`` and then moved
    into place, ``meta.json`` last, so a save that fails part of the way
    leaves the old pair or a pair that ``load_model`` refuses."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / _CKPT_NAME, directory / _META_NAME]
    temps = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        meta = {"vocab": model.vocab, "mode": model.mode,
                "encoder": asdict(model.enc_config), "decoder": asdict(model.dec_config),
                "checkpoint_sha256": nm.save_checkpoint(temps[0], model.registry)}
        temps[1].write_text(
            json.dumps(meta, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def load_model(directory) -> Model:
    """Load a saved model; raises ``CheckpointError`` when there is no
    ``meta.json``, it is not a model description (a setting out of range or
    not an integer, a setting that the configs do not have, as in the
    ``meta.json`` of an older version, an unknown mode, or vocab ids other
    than 0..n-1 with ``<unk>`` at 0), or the checkpoint is not the one it
    records or does not hold exactly the parameters of ``param_shapes``,
    which follow from the configs and the vocab alone: nothing is drawn at
    random."""
    directory = Path(directory)
    if not (directory / _META_NAME).exists():
        raise nm.CheckpointError(f"no model at {directory}")
    try:
        meta = json.loads((directory / _META_NAME).read_text(encoding="utf-8"))
        enc_config = EncoderConfig(**meta["encoder"])
        dec_config = DecoderConfig(**meta["decoder"])
        vocab = meta["vocab"]
        mode = meta["mode"]
        sha256 = meta["checkpoint_sha256"]
        if mode not in ("word", "char"):
            raise ValueError(f"unknown mode {mode!r}")
        ids = list(vocab.values())
        if (vocab.get(enc.UNK_TOKEN) != enc.UNK_ID
                or not all(type(i) is int for i in ids) or sorted(ids) != list(range(len(ids)))):
            raise ValueError(f"vocab ids must be 0..{len(ids) - 1} with "
                             f"{enc.UNK_TOKEN} at {enc.UNK_ID}")
        want = param_shapes(enc_config, dec_config, len(vocab))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise nm.CheckpointError(f"{directory / _META_NAME}: not a model description: "
                                 f"{type(exc).__name__}: {exc}") from None
    registry = nm.load_checkpoint(directory / _CKPT_NAME, sha256=sha256)
    have = registry.shapes
    if have != want:
        diffs = [f"{name}: {have.get(name, 'missing')} in the checkpoint, "
                 f"{want.get(name, 'none')} in {_META_NAME}"
                 for name in sorted(have.keys() | want.keys())
                 if have.get(name) != want.get(name)]
        raise nm.CheckpointError(f"{directory / _CKPT_NAME} does not match "
                                 f"{_META_NAME}: " + "; ".join(diffs[:3]))
    return Model(registry, vocab, enc_config, dec_config, mode)
