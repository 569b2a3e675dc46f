"""Teacher-forced training, evaluation, cross-validation, and model persistence.

Problems are processed one at a time (variable-length stacks make per-problem
graphs natural); gradients accumulate across a batch and one Adam step is
taken per batch with the mean-of-problems loss. Everything is seeded, so a
rerun with the same config reproduces the loss curve bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import decoder as dec
from . import encoder as enc
from . import eqlang
from . import numerics as nm
from .corpus import PreparedProblem
from .decoder import DecoderConfig, DecoderRun, DecodeResult
from .encoder import EncoderConfig, TooManyConstants
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
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class Model:
    registry: ParamRegistry
    vocab: dict[str, int]
    enc_config: EncoderConfig
    dec_config: DecoderConfig
    mode: str = "word"


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
    enc_config = EncoderConfig(
        vocab_size=len(vocab),
        embed_dim=config.embed_dim,
        hidden_per_direction=config.hidden_per_direction,
        constant_mode=config.constant_mode,
        dropout_p=config.dropout_p,
    )
    # the decoder works in the encoder's concatenated dimension
    dec_config = replace(config.decoder, dim=enc_config.dim, dropout_p=config.dropout_p)
    registry = ParamRegistry()
    fixed_slots = enc.FIXED_SLOT_LIMIT if dec_config.constant_repr == "fixed" else 0
    enc.register_params(registry, enc_config, rng, fixed_slots=fixed_slots)
    dec.register_params(registry, dec_config, rng)
    return Model(registry, vocab, enc_config, dec_config, mode=config.mode)


def teacher_force(problem: PreparedProblem, model: Model, *, tape: Tape | None,
                  training: bool = True, rng: np.random.Generator | None = None
                  ) -> tuple[Node, dec.DecoderState]:
    """Sum of per-step losses under the gold action sequence, plus final state."""
    if not problem.target or not isinstance(problem.target[0], eqlang.GenVar):
        raise dec.IllegalAction("target must be non-empty and start with GenVar")
    encoded = enc.encode(problem, model.vocab, model.registry, model.enc_config,
                         constant_repr=model.dec_config.constant_repr,
                         tape=tape, training=training, rng=rng)
    run = DecoderRun(encoded, problem, model.registry, model.dec_config,
                     tape=tape, training=training, rng=rng)
    state = run.initial_state()
    terms: list[Node] = []
    for gold in problem.target:
        state = run.advance(state)
        feats = run.state_features(state)
        dist = run.select_action(feats, state)
        terms.append(run.action_loss(dist, gold))
        if isinstance(gold, eqlang.Push):
            odist = run.select_operand(feats, state)
            terms.append(run.operand_loss(odist, gold.ref))
        state = run.apply_action(state, gold)
    return nm.add_n(tape, terms), state


def problem_loss(problem: PreparedProblem, model: Model, *, tape: Tape | None,
                 training: bool = True,
                 rng: np.random.Generator | None = None) -> Node:
    loss, _ = teacher_force(problem, model, tape=tape, training=training, rng=rng)
    return loss


def decode_problem(model: Model, problem: PreparedProblem,
                   max_steps: int | None = None) -> DecodeResult:
    config = model.dec_config
    if max_steps is not None:
        config = replace(config, max_steps=max_steps)
    encoded = enc.encode(problem, model.vocab, model.registry, model.enc_config,
                         constant_repr=config.constant_repr, tape=None,
                         training=False)
    return dec.greedy_decode(encoded, problem, model.registry, config)


def evaluate(model: Model, problems: list[PreparedProblem], rejected: int = 0,
             *, decode_fn=None) -> Metrics:
    """Answer accuracy by solving decoded equations; equation accuracy by
    exact action-sequence match. Rejected problems count in the denominator."""
    decode = decode_fn or decode_problem
    n_answer = 0
    n_equation = 0
    n_rejected = rejected
    n_served = 0
    for problem in problems:
        try:
            result = decode(model, problem)
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
    absent, the training set itself is scored (overfitting runs).
    """
    if not train_set:
        raise EmptyDataset("empty training set")
    init_rng = np.random.default_rng(config.seed)
    loop_rng = np.random.default_rng(config.seed + 1)
    if config.decoder.constant_repr == "fixed":
        usable = [p for p in train_set if p.n_constants <= enc.FIXED_SLOT_LIMIT]
        if not usable:
            raise EmptyDataset("no problem fits the fixed constant slots")
    else:
        usable = train_set
    vocab = enc.build_vocab(p.tokens for p in usable)
    model = build_model(vocab, config, init_rng)
    eval_set = heldout if heldout is not None else usable

    history: list[EpochStats] = []
    best_registry = model.registry.copy()
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
            for i in batch:
                tape = Tape()
                loss = problem_loss(usable[int(i)], model, tape=tape,
                                    training=True, rng=loop_rng)
                value = float(loss.value)
                if not math.isfinite(value):
                    raise nm.NonFiniteValue(
                        f"epoch {epoch}, batch {batch_no}: loss is {value}")
                tape.backward(loss)
                total_loss += value
            for g in model.registry.grads.values():
                g /= len(batch)
            try:
                nm.adam_step(model.registry, model.registry.grads, config.optimizer)
            except nm.NonFiniteValue as exc:
                raise nm.NonFiniteValue(
                    f"epoch {epoch}, batch {batch_no}: {exc}") from None
        mean_loss = total_loss / len(usable)
        stats = EpochStats(epoch=epoch, mean_loss=mean_loss)
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            metrics = evaluate(model, eval_set)
            stats.eval_metrics = metrics
            if best_metrics is None or metrics.answer_accuracy > best_metrics.answer_accuracy:
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
                   k: int = 5) -> tuple[list[Metrics], float]:
    """Train k models on k-1 folds each, evaluate on the held-out fold."""
    from .corpus import make_folds

    if k < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    split = make_folds([p.id for p in problems], k=k, seed=config.seed)
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
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nm.save_checkpoint(directory / _CKPT_NAME, model.registry)
    meta = {
        "vocab": model.vocab,
        "mode": model.mode,
        "encoder": asdict(model.enc_config),
        "decoder": asdict(model.dec_config),
    }
    (directory / _META_NAME).write_text(
        json.dumps(meta, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")


def load_model(directory) -> Model:
    directory = Path(directory)
    meta = json.loads((directory / _META_NAME).read_text(encoding="utf-8"))
    registry = nm.load_checkpoint(directory / _CKPT_NAME)
    return Model(
        registry=registry,
        vocab={k: int(v) for k, v in meta["vocab"].items()},
        enc_config=EncoderConfig(**meta["encoder"]),
        dec_config=DecoderConfig(**meta["decoder"]),
        mode=meta.get("mode", "word"),
    )
