"""Command-line surface: preprocess, synth, train, eval, cv, solve.

Every artifact-producing command writes a manifest next to its outputs with
the exact config, seed, and dataset hash, so a run is reproducible from the
manifest alone. Exit codes: 0 ok, 2 usage/config/data errors, 3 decode failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, corpus, eqlang, trainer
from .corpus import FormatError, PreparedProblem
from .decoder import DecoderConfig
from .encoder import EmptyProblem, TooManyConstants
from .numerics import CheckpointError, NonFiniteValue, OptimizerConfig
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3


# ---------------------------------------------------------------------------
# prepared files

# the one spelling of a number that ``str(Fraction)`` writes
_FRACTION_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction(text: str) -> Fraction:
    if not _FRACTION_TEXT.fullmatch(text):
        raise ValueError(f"bad number {text!r}")
    return Fraction(text)


def prepared_to_record(p: PreparedProblem) -> dict:
    return {
        "id": p.id,
        "tokens": p.tokens,
        "positions": p.constant_positions,
        "values": [str(v) for v in p.constant_values],
        "target": [eqlang.action_to_wire(a) for a in p.target],
        "answer": str(p.gold_answer),
    }


def prepared_from_record(obj: dict) -> PreparedProblem:
    if not isinstance(obj["id"], str):  # ids are sorted together into folds
        raise ValueError("id is not a string")
    for key in ("tokens", "positions", "values", "target"):
        if not isinstance(obj[key], list):  # a string would load as its characters
            raise ValueError(f"{key} is not a list")
    if not all(isinstance(token, str) for token in obj["tokens"]):
        raise ValueError("a token is not a string")
    if not all(type(i) is int for i in obj["positions"]):  # a bool is not one
        raise ValueError("a position is not an integer")
    problem = PreparedProblem(
        id=obj["id"],
        tokens=list(obj["tokens"]),
        constant_positions=list(obj["positions"]),
        constant_values=[_fraction(v) for v in obj["values"]],
        target=[eqlang.action_from_wire(a) for a in obj["target"]],
        gold_answer=_fraction(obj["answer"]) if obj.get("answer") not in (None, "None") else None,
    )
    _check_prepared(problem)
    return problem


def _check_prepared(p: PreparedProblem) -> None:
    """Reject, as ``ValueError``, a problem that training could not run: at
    least one token, one constant per token position, and a target that
    ``eqlang.check_target`` accepts."""
    if not p.tokens:
        raise ValueError("no tokens")
    if len(p.constant_positions) != len(p.constant_values):
        raise ValueError(f"{len(p.constant_positions)} positions for "
                         f"{len(p.constant_values)} values")
    if not all(0 <= i < len(p.tokens) for i in p.constant_positions):
        raise ValueError(f"a position in {p.constant_positions} is outside "
                         f"the {len(p.tokens)} tokens")
    eqlang.check_target(p.target, p.n_constants)


def load_prepared(path) -> list[PreparedProblem]:
    out = []
    for lineno, line in enumerate(corpus.read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            out.append(prepared_from_record(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError,
                RecursionError) as exc:
            raise FormatError(f"{path}:{lineno}: bad prepared record: "
                              f"{type(exc).__name__}: {exc}") from None
    return out


def _load_any(path, mode: str) -> tuple[list[PreparedProblem], corpus.RejectionReport]:
    """Accept either raw interchange records or an already-prepared file."""
    first = next((line for line in corpus.read_text(path).splitlines() if line.strip()), "")
    if '"target"' in first:
        return load_prepared(path), corpus.RejectionReport()
    raws = corpus.load_dataset(path)
    return corpus.prepare_dataset(raws, mode)


# ---------------------------------------------------------------------------
# manifests and config files


def _dataset_hash(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the variables that set the BLAS thread count, which decides how its sums
# are split, and so the last bits of trained weights
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def _blas_build() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.25 only prints its build
        deps = {}
    blas = deps.get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                   dataset_path, checkpoint: str | None) -> None:
    """The run's config, seed, data and package, and the numpy build and BLAS
    threads that a bit-identical rerun needs too."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "dataset_hash": _dataset_hash(dataset_path) if dataset_path else None,
        "checkpoint": checkpoint,
        "version": f"stacksolver-{__version__}",
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = body.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _switched_off(text: str) -> bool:
    """The value that a ``no_*`` option's text gives the switch it names."""
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"must be true or false, got {text!r}")
    return word not in ("1", "true", "yes")


# Every train and cv option, once: its config-file key (the flag is the key
# spelled with dashes), the field it sets and how its text is parsed. The
# defaults are the config dataclasses' own; heldout_frac is the one option
# that no config holds.
TRAIN_OPTIONS: dict[str, tuple[str, Callable[[str], object]]] = {
    "epochs": ("epochs", int),
    "batch_size": ("batch_size", int),
    "seed": ("seed", int),
    "lr": ("optimizer.learning_rate", float),
    "clip": ("optimizer.gradient_clip_norm", float),
    "mode": ("mode", str),
    "embed_dim": ("embed_dim", int),
    "hidden": ("hidden_per_direction", int),
    "dropout": ("dropout_p", float),
    "max_steps": ("decoder.max_steps", int),
    "patience": ("patience", int),
    "eval_every": ("eval_every", int),
    "heldout_frac": ("heldout_frac", float),
    "transformer": ("decoder.transformer_mode", str),
    "constant_mode": ("constant_mode", str),
    "no_gate": ("decoder.use_gate", _switched_off),
    "no_attention": ("decoder.use_attention", _switched_off),
    "no_stack": ("decoder.use_stack_feature", _switched_off),
}


def build_train_config(args) -> tuple[TrainConfig, float]:
    """The run's config and held-out fraction: the ``--config`` file's values,
    then the flags given over them. Raises ``ValueError`` for a bad one."""
    texts = load_config_file(args.config) if args.config else {}
    unknown = sorted(texts.keys() - TRAIN_OPTIONS.keys())
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    texts.update((key, getattr(args, key)) for key in TRAIN_OPTIONS
                 if getattr(args, key) is not None)
    # the parsed values by the config that holds them; "" is TrainConfig itself
    fields: dict[str, dict] = {"": {}, "optimizer": {}, "decoder": {}}
    for key, text in texts.items():
        path, parse = TRAIN_OPTIONS[key]
        group, _, name = path.rpartition(".")
        try:
            fields[group][name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    heldout_frac = fields[""].pop("heldout_frac", 0.0)
    if not 0 <= heldout_frac < 1:
        raise ValueError(f"heldout_frac must be in [0, 1), got {heldout_frac}")
    if getattr(args, "folds", 2) < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    return TrainConfig(optimizer=OptimizerConfig(**fields["optimizer"]),
                       decoder=DecoderConfig(**fields["decoder"]),
                       **fields[""]), heldout_frac


def write_metrics(path, metrics: trainer.Metrics) -> None:
    lines = [f"{key}={value}" for key, value in asdict(metrics).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    try:
        problems = corpus.synth_generate(args.count, args.seed, args.difficulty)
    except ValueError as exc:
        return _config_error(exc)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    corpus.write_dataset(out, problems)
    write_manifest(out.parent, "synth",
                   {"count": args.count, "seed": args.seed, "difficulty": args.difficulty},
                   args.seed, out, None)
    print(f"wrote {len(problems)} problems to {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    try:
        raws = corpus.load_dataset(args.input)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    prepared, report = corpus.prepare_dataset(raws, args.mode)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(prepared_to_record(p), ensure_ascii=False, sort_keys=True)
             for p in prepared]
    out.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    reject_path = out.with_suffix(out.suffix + ".rejects.json")
    reject_path.write_text(
        json.dumps({"counts": report.counts, "rejected": report.rejected},
                   ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    write_manifest(out.parent, "preprocess", {"mode": args.mode},
                   0, args.input, None)
    for key, value in report.counts.items():
        print(f"{key}={value}")
    return EXIT_OK


def _split_heldout(problems: list[PreparedProblem], frac: float, seed: int):
    if frac <= 0:
        return problems, None
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(problems))
    n_held = max(1, int(len(problems) * frac))
    held_idx = set(int(i) for i in order[:n_held])
    train_part = [p for i, p in enumerate(problems) if i not in held_idx]
    held_part = [p for i, p in enumerate(problems) if i in held_idx]
    return train_part, held_part


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_train(args) -> int:
    try:
        config, heldout_frac = build_train_config(args)
    except (ValueError, OSError) as exc:
        return _config_error(exc)
    problems, report = _load_any(args.data, config.mode)
    train_part, held_part = _split_heldout(problems, heldout_frac, config.seed)
    result = trainer.train(train_part, config, heldout=held_part)
    out = Path(args.out)
    trainer.save_model(out, result.model)
    final_eval = trainer.evaluate(result.model,
                                  held_part if held_part is not None else train_part,
                                  rejected=report.total_rejected)
    write_metrics(out / "metrics.txt", final_eval)
    history_lines = []
    for stats in result.history:
        row = {"epoch": stats.epoch, "mean_loss": stats.mean_loss}
        if stats.eval_metrics is not None:
            row["answer_accuracy"] = stats.eval_metrics.answer_accuracy
            row["equation_accuracy"] = stats.eval_metrics.equation_accuracy
        history_lines.append(json.dumps(row, sort_keys=True))
    (out / "history.jsonl").write_text("\n".join(history_lines) + "\n", encoding="utf-8")
    write_manifest(out, "train", asdict(config), config.seed,
                   args.data, str(out / "checkpoint.bin"))
    print(f"best_epoch={result.best_epoch}")
    print(f"final_loss={result.final_loss}")
    print(f"answer_accuracy={final_eval.answer_accuracy}")
    print(f"equation_accuracy={final_eval.equation_accuracy}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = trainer.load_model(args.checkpoint)
    problems, report = _load_any(args.data, model.mode)
    metrics = trainer.evaluate(model, problems, rejected=report.total_rejected)
    print(f"answer_accuracy={metrics.answer_accuracy}")
    print(f"equation_accuracy={metrics.equation_accuracy}")
    print(f"n_total={metrics.n_total}")
    print(f"n_rejected={metrics.n_rejected}")
    return EXIT_OK


def cmd_cv(args) -> int:
    try:
        config, _ = build_train_config(args)
    except (ValueError, OSError) as exc:
        return _config_error(exc)
    problems, report = _load_any(args.data, config.mode)
    fold_metrics, mean_acc = trainer.cross_validate(problems, config, k=args.folds)
    for fold, metrics in enumerate(fold_metrics):
        print(f"fold{fold}_answer_accuracy={metrics.answer_accuracy}")
    print(f"mean_answer_accuracy={mean_acc}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rows = [{"fold": i, "answer_accuracy": m.answer_accuracy,
                 "equation_accuracy": m.equation_accuracy}
                for i, m in enumerate(fold_metrics)]
        (out / "cv.json").write_text(
            json.dumps({"folds": rows, "mean_answer_accuracy": mean_acc},
                       sort_keys=True, indent=2) + "\n", encoding="utf-8")
        write_manifest(out, "cv", asdict(config), config.seed,
                       args.data, None)
    return EXIT_OK


def _trace_record(i: int, action: eqlang.StackAction, stack, step) -> dict:
    """Step ``i`` of a decode: its action and resulting stack, rendered, and
    the neural readouts of ``step``."""
    return {
        "step": i + 1,
        "action": eqlang.ACTION_NAMES[action.kind],
        "operand": action.ref,
        "action_probs": {name: float(p) for name, p in
                         zip(eqlang.ACTION_NAMES, step.action_probs)},
        "operand_probs": None if step.operand_probs is None else
                         [float(p) for p in step.operand_probs],
        "attention": None if step.attention is None else
                     [float(w) for w in step.attention],
        "gate_action": None if step.gate_action is None else
                       [float(g) for g in step.gate_action],
        "gate_operand": None if step.gate_operand is None else
                        [float(g) for g in step.gate_operand],
        "stack_depth": len(stack),
        "stack": [eqlang.expr_to_infix(e) for e in stack],
    }


def cmd_solve(args) -> int:
    if args.max_steps is not None:
        try:  # the decoder's own rule for a budget, before the checkpoint is read
            DecoderConfig(max_steps=args.max_steps)
        except ValueError as exc:
            return _config_error(exc)
    model = trainer.load_model(args.checkpoint)
    tokens = corpus.tokenize(args.text, model.mode)
    positions, values = corpus.extract_constants(tokens)
    problem = PreparedProblem(id="cli", tokens=tokens, constant_positions=positions,
                              constant_values=values, target=[], gold_answer=None)
    result = trainer.decode_problem(model, problem, max_steps=args.max_steps, trace=True)
    steps = [_trace_record(i, action, stack, step) for i, (action, stack, step)
             in enumerate(zip(result.actions, result.stack_history, result.trace))]
    for rec in steps:
        operand = f" {rec['operand']}" if rec["operand"] else ""
        print(f"step {rec['step']}: {rec['action']}{operand} "
              f"(depth {rec['stack_depth']}) stack: {rec['stack']}")
    for lhs, rhs in result.equations:
        print(f"equation: {eqlang.equation_to_infix(lhs, rhs)}")
    if result.answer is not None:
        print(f"answer: {eqlang.format_rational(Fraction(result.answer))}")
    else:
        print(f"answer: none ({result.status})")
    if args.trace:
        trace = {
            "problem": {"text": args.text, "tokens": tokens,
                        "constants": [str(v) for v in values]},
            "actions": [eqlang.action_to_wire(a) for a in result.actions],
            "equations": [eqlang.equation_to_infix(l, r) for l, r in result.equations],
            "answer": None if result.answer is None else str(result.answer),
            "status": result.status,
            "steps": steps,
        }
        Path(args.trace).write_text(
            json.dumps(trace, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    if result.status == "budget_exceeded":
        return EXIT_DECODE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_train_flags(sub) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    for key, (path, parse) in TRAIN_OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _switched_off:
            # the text a config file would hold, so both go through one parse
            sub.add_argument(flag, action="store_const", const="true",
                             help=f"sets {path} to false")
        else:
            sub.add_argument(flag, help=f"sets {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksolver",
        description="Train and run the stack-decoding math word problem solver")
    parser.add_argument("--version", action="version",
                        version=f"stacksolver {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("out")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty", type=int, default=2, choices=(1, 2, 3))
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("preprocess", help="prepare a dataset and report rejections")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mode", choices=("word", "char"), default="word")
    p.set_defaults(func=cmd_preprocess)

    p = subs.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_cv)

    p = subs.add_parser("solve", help="solve one problem with a reasoning trace")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--trace", help="write per-step trace JSON here")
    p.add_argument("--max-steps", type=int, help="sets decoder.max_steps for this decode")
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, EmptyProblem, TooManyConstants, trainer.EmptyDataset,
            NonFiniteValue, CheckpointError, eqlang.LiteralTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
