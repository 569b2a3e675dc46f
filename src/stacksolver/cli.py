"""Command-line surface: preprocess, synth, train, eval, cv, solve.

Every artifact-producing command writes a manifest next to its outputs with
the exact config, seed, and dataset hash, so a run is reproducible from the
manifest alone. Exit codes: 0 ok, 2 usage/config/data errors, 3 decode failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, corpus, eqlang, trainer
from .corpus import FormatError, PreparedProblem
from .decoder import ACTION_NAMES, DecoderConfig, action_to_index
from .encoder import EmptyProblem
from .numerics import NonFiniteValue, OptimizerConfig
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3


# ---------------------------------------------------------------------------
# wire formats


def action_to_wire(action: eqlang.StackAction) -> str:
    if isinstance(action, eqlang.GenVar):
        return "genvar"
    if isinstance(action, eqlang.Push):
        return f"push:{eqlang.operand_name(action.ref)}"
    if isinstance(action, eqlang.Apply):
        return f"apply:{action.op}"
    return "equal"


_NAMED_OPERANDS = {eqlang.operand_name(ref): ref
                   for ref in (eqlang.ONE_REF, eqlang.PI_REF, eqlang.UNKNOWN_REF)}


def action_from_wire(text: str) -> eqlang.StackAction:
    if text == "genvar":
        return eqlang.GEN_VAR
    if text == "equal":
        return eqlang.APPLY_EQUAL
    kind, _, arg = text.partition(":")
    if kind == "apply":
        return eqlang.Apply(arg)
    if kind == "push":
        if arg in _NAMED_OPERANDS:
            return eqlang.Push(_NAMED_OPERANDS[arg])
        if arg.startswith("c"):
            return eqlang.Push(eqlang.ConstRef(int(arg[1:])))
    raise ValueError(f"bad action encoding {text!r}")


def prepared_to_record(p: PreparedProblem) -> dict:
    return {
        "id": p.id,
        "tokens": p.tokens,
        "positions": p.constant_positions,
        "values": [str(v) for v in p.constant_values],
        "target": [action_to_wire(a) for a in p.target],
        "answer": str(p.gold_answer),
    }


def prepared_from_record(obj: dict) -> PreparedProblem:
    return PreparedProblem(
        id=obj["id"],
        tokens=list(obj["tokens"]),
        constant_positions=[int(i) for i in obj["positions"]],
        constant_values=[Fraction(v) for v in obj["values"]],
        target=[action_from_wire(a) for a in obj["target"]],
        gold_answer=Fraction(obj["answer"]) if obj.get("answer") not in (None, "None") else None,
    )


def load_prepared(path) -> list[PreparedProblem]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(prepared_from_record(json.loads(line)))
    return out


def _load_any(path, mode: str) -> tuple[list[PreparedProblem], corpus.RejectionReport]:
    """Accept either raw interchange records or an already-prepared file."""
    first = ""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                first = line
                break
    if '"target"' in first:
        return load_prepared(path), corpus.RejectionReport()
    raws = corpus.load_dataset(path)
    return corpus.prepare_dataset(raws, mode)


# ---------------------------------------------------------------------------
# manifests and config files


def _dataset_hash(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                   dataset_path, checkpoint: str | None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "dataset_hash": _dataset_hash(dataset_path) if dataset_path else None,
        "checkpoint": checkpoint,
        "version": f"stacksolver-{__version__}",
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


_CONFIG_KEYS = {
    "epochs": int, "batch_size": int, "seed": int, "lr": float, "clip": float,
    "mode": str, "embed_dim": int, "hidden": int, "dropout": float,
    "max_steps": int, "patience": int, "eval_every": int,
    "heldout_frac": float, "transformer": str, "constant_repr": str,
    "constant_mode": str, "no_gate": bool, "no_attention": bool, "no_stack": bool,
}


def build_train_config(args) -> tuple[TrainConfig, float]:
    merged: dict = {}
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)
        for key, raw in file_values.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            typ = _CONFIG_KEYS[key]
            merged[key] = raw.lower() in ("1", "true", "yes") if typ is bool else typ(raw)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            merged[key] = flag
    decoder = DecoderConfig(
        use_gate=not merged.get("no_gate", False),
        use_attention=not merged.get("no_attention", False),
        use_stack_feature=not merged.get("no_stack", False),
        transformer_mode=merged.get("transformer", "mlp"),
        constant_repr=merged.get("constant_repr", "semantic"),
        max_steps=merged.get("max_steps", 40),
    )
    optimizer = OptimizerConfig(
        learning_rate=merged.get("lr", 0.001),
        gradient_clip_norm=merged.get("clip", 5.0),
    )
    return TrainConfig(
        epochs=merged.get("epochs", 50),
        batch_size=merged.get("batch_size", 32),
        seed=merged.get("seed", 0),
        optimizer=optimizer,
        mode=merged.get("mode", "word"),
        embed_dim=merged.get("embed_dim", 128),
        hidden_per_direction=merged.get("hidden", 128),
        constant_mode=merged.get("constant_mode", "direct"),
        dropout_p=merged.get("dropout", 0.1),
        decoder=decoder,
        patience=merged.get("patience", 10),
        eval_every=merged.get("eval_every", 1),
    ), merged.get("heldout_frac", 0.0)


def write_metrics(path, metrics: trainer.Metrics) -> None:
    lines = [f"{key}={value}" for key, value in asdict(metrics).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    problems = corpus.synth_generate(args.count, args.seed, args.difficulty)
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


def cmd_train(args) -> int:
    try:
        config, heldout_frac = build_train_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    model = _load_model_or_exit(args.checkpoint)
    if model is None:
        return EXIT_CONFIG
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
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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


def _load_model_or_exit(checkpoint):
    path = Path(checkpoint)
    if not path.exists() or not (path / "meta.json").exists():
        print(f"error: no model at {checkpoint}", file=sys.stderr)
        return None
    return trainer.load_model(path)


def _trace_record(i: int, action: eqlang.StackAction, stack, step) -> dict:
    """Step ``i`` of a decode: its action and resulting stack, rendered, and
    the neural readouts of ``step``."""
    return {
        "step": i + 1,
        "action": ACTION_NAMES[action_to_index(action)],
        "operand": (eqlang.operand_name(action.ref)
                    if isinstance(action, eqlang.Push) else None),
        "action_probs": {name: float(p) for name, p in
                         zip(ACTION_NAMES, step.action_probs)},
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
    model = _load_model_or_exit(args.checkpoint)
    if model is None:
        return EXIT_CONFIG
    tokens = corpus.tokenize(args.text, model.mode)
    positions, values = corpus.extract_constants(tokens)
    problem = PreparedProblem(id="cli", tokens=tokens, constant_positions=positions,
                              constant_values=values, target=[], gold_answer=None)
    result = trainer.decode_problem(model, problem, max_steps=args.max_steps)
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
            "actions": [action_to_wire(a) for a in result.actions],
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
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--clip", type=float)
    sub.add_argument("--mode", choices=("word", "char"))
    sub.add_argument("--embed-dim", dest="embed_dim", type=int)
    sub.add_argument("--hidden", type=int, help="recurrent units per direction")
    sub.add_argument("--dropout", type=float)
    sub.add_argument("--max-steps", dest="max_steps", type=int)
    sub.add_argument("--patience", type=int)
    sub.add_argument("--eval-every", dest="eval_every", type=int)
    sub.add_argument("--heldout-frac", dest="heldout_frac", type=float)
    sub.add_argument("--no-gate", dest="no_gate", action="store_true", default=False)
    sub.add_argument("--no-attention", dest="no_attention", action="store_true", default=False)
    sub.add_argument("--no-stack", dest="no_stack", action="store_true", default=False)
    sub.add_argument("--transformer", choices=("mlp", "embedding"))
    sub.add_argument("--constant-repr", dest="constant_repr",
                     choices=("semantic", "fixed"))
    sub.add_argument("--constant-mode", dest="constant_mode",
                     choices=("direct", "self_attention"))


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
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError, EmptyProblem, trainer.EmptyDataset,
            NonFiniteValue) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
