"""Runs one workload for a time budget and turns the timings into metrics.

Untraced runs (``trace=False``) give the end-to-end metrics. A traced run
measures half its budget untraced and half traced, gives the per-layer
metrics from the traced half, and compares the two halves' throughput as
``trace_overhead_ratio``.
"""
from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import envstamp
from .checks import Checks
from .tracer import Tracer
from .workloads import STATUSES, clock, make_workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3  # set-ups before each repetition
MODULES = ("corpus", "encoder", "decoder", "eqlang", "numerics", "trainer")
INFER_STEP = ("advance", "state_features", "select_action", "select_operand",
              "apply_action")
TRAIN_STEP = INFER_STEP + ("action_loss", "operand_loss")

END_TO_END = {
    "problems_per_s": "problems/s",
    "step_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Every per-layer number of a traced run, with its unit. Times are per call
# unless the name says otherwise; shares are of ``trainer.train`` time.
LAYER_UNITS = {
    "numerics.backward_ms": "ms",
    "numerics.backward_share": "fraction",
    "numerics.tape_ops_per_problem": "count",
    "numerics.adam_step_ms": "ms",
    "numerics.adam_share": "fraction",
    "numerics.zero_grads_ms": "ms",
    "numerics.zero_grads_share": "fraction",
    "numerics.registry_copy_ms": "ms",
    "numerics.registry_copy_share": "fraction",
    "numerics.save_checkpoint_ms": "ms",
    "numerics.load_checkpoint_ms": "ms",
    "encoder.encode_train_ms": "ms",
    "encoder.encode_train_share": "fraction",
    "encoder.encode_infer_ms": "ms",
    "trainer.problem_loss_ms": "ms",
    "trainer.problem_loss_share": "fraction",
    "trainer.evaluate_s": "s",
    "trainer.evaluate_share": "fraction",
    "decoder.step_train_ms": "ms",
    "decoder.step_train_share": "fraction",
    "decoder.step_infer_ms": "ms",
    **{f"decoder.{method}_self_ms": "ms" for method in INFER_STEP},
    "decoder.steps_per_decode": "count",
    **{f"decoder.status.{status}": "fraction" for status in STATUSES},
    "decoder.budget_step_ratio": "fraction",
    "eqlang.expr_to_infix_ms": "ms",
    "eqlang.render_share": "fraction",
    "eqlang.symbolic_step_us": "us",
    "eqlang.symbolic_step_calls": "count",
    "eqlang.solve_us": "us",
    "eqlang.solve_calls": "count",
    "corpus.synth_generate_s": "s",
    "corpus.prepare_dataset_s": "s",
    **{f"{module}.self_share": "fraction" for module in MODULES},
    "trace_overhead_ratio": "ratio",
}

# The per_layer metrics of the result line: every layer number except the
# times of training-only calls, which decode_fuzz never makes (a time that
# would read 0 on every run there). Those layers enter as shares of
# training time instead; their per-call times are in the report line.
TRAIN_ONLY_TIMES = {
    "numerics.backward_ms", "numerics.adam_step_ms", "numerics.zero_grads_ms",
    "numerics.registry_copy_ms", "numerics.save_checkpoint_ms",
    "numerics.load_checkpoint_ms", "encoder.encode_train_ms",
    "trainer.problem_loss_ms", "trainer.evaluate_s", "decoder.step_train_ms",
}
PER_LAYER = {k: u for k, u in LAYER_UNITS.items() if k not in TRAIN_ONLY_TIMES}


def measure(job, checks: Checks, budget: float, pause, setup_times: list) -> list:
    """Repeat set-up and job, closed loop, until one more repetition would
    overrun ``budget`` seconds; at least one repetition always runs. The
    set-ups are timed into ``setup_times``, so they sample the whole run."""
    reps = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            data = None  # let the previous set-up go before building the next
            setup_began = clock()
            data = job.setup()
            setup_times.append(clock() - setup_began)
        reps.append(job.repetition(data, checks, pause))
        now = time.perf_counter()
        if now - start + (now - began) > budget:
            return reps


def best(rows) -> np.ndarray:
    """Element-wise minimum over repetitions of the same work. Load from
    outside the process only ever adds time, and on a shared host it comes
    and goes, so each step's or decode's fastest repeat is the steadiest
    reading of its cost."""
    return np.min(np.array(rows), axis=0)


def best_decode_ms(reps) -> np.ndarray:
    return best([rep.decode_ms for rep in reps])


def best_timeline(reps) -> tuple[list[str], np.ndarray]:
    """The marks of the training timeline and each interval's best time.
    A repetition whose marks differ from the first's has already failed the
    fingerprint check and is left out."""
    kinds = [kind for kind, _ in reps[0].timeline]
    return kinds, best([[ms for _, ms in rep.timeline] for rep in reps
                        if [kind for kind, _ in rep.timeline] == kinds])


def best_step_ms(reps) -> np.ndarray:
    """Optimizer step times: from the end of one step (or the start of
    ``trainer.train``) to the end of the next, evaluation excluded."""
    steps, busy = [], 0.0
    for kind, ms in zip(*best_timeline(reps)):
        if kind in ("decode", "eval_end"):  # intervals inside an evaluation
            continue
        busy += ms
        if kind == "step":
            steps.append(busy)
            busy = 0.0
    return np.array(steps)


def decode_rate(reps) -> float:
    times = best_decode_ms(reps)
    return 1e3 * times.size / times.sum()


def job_rate(kind: str, reps) -> float:
    """Problems per second of the workload's job. Training time is the sum
    of the best times of the training timeline's intervals, evaluations
    included; the fuzz's is the sum of its decodes' best times."""
    if kind != "train":
        return decode_rate(reps)
    return reps[0].problems / (best_timeline(reps)[1].sum() / 1e3)


def step_ms(kind: str, reps, q: float) -> float:
    """Percentile of the optimizer steps' best times (train) or of the
    decodes' best times (fuzz)."""
    return percentile(best_step_ms(reps) if kind == "train" else best_decode_ms(reps), q)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(kind: str, reps, setup_times: list) -> dict[str, float]:
    return {
        "problems_per_s": job_rate(kind, reps),
        "step_ms_p50": step_ms(kind, reps, 50),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def named_metrics(kind: str, reps, e2e: dict, checks: Checks, n_setups: int) -> dict:
    """The end-to-end metrics under the names that say what they time, only
    where they are defined, with sample counts for percentiles."""
    decodes = best_decode_ms(reps)
    first = reps[0].fingerprint
    out = {}
    if kind == "train":
        n_steps = len(best_step_ms(reps))
        out["train_problems_per_s"] = (e2e["problems_per_s"], "problems/s")
        out["batch_step_ms_p50"] = (e2e["step_ms_p50"], "ms", n_steps)
        out["batch_step_ms_p90"] = (step_ms(kind, reps, 90), "ms", n_steps)
        out["final_loss"] = (first["final_loss"], "nats")
        out["answer_accuracy"] = (first["answer_accuracy"], "fraction")
    out["decode_problems_per_s"] = (decode_rate(reps), "problems/s")
    out["decode_ms_p50"] = (percentile(decodes, 50), "ms", decodes.size)
    out["decode_ms_p99"] = (percentile(decodes, 99), "ms", decodes.size)
    out["setup_s"] = (e2e["setup_s"], "s", n_setups)
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MiB")
    out["fail_ratio"] = (checks.fail_ratio, "failed/attempted")
    table = {}
    for name, (value, unit, *samples) in out.items():
        table[name] = {"value": value, "unit": unit}
        if samples:
            table[name]["samples"] = samples[0]
    for name in ("batch_step_ms_p50", "batch_step_ms_p90", "decode_ms_p50",
                 "decode_ms_p99"):
        if name in table:
            table[name]["repeats"] = len(reps)
    table["fail_ratio"].update(attempted=checks.attempted, failed=checks.failed)
    return table


def layer_metrics(kind: str, tracer: Tracer, plain, traced) -> dict[str, float]:
    s = tracer.summary()

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, scale, key="total_s"):
        return ratio(s[name][key] * scale, s[name]["calls"]) if name in s else 0.0

    train_s = total("trainer.train")
    m = {
        "numerics.backward_ms": per_call("numerics.Tape.backward", 1e3),
        "numerics.backward_share": ratio(total("numerics.Tape.backward"), train_s),
        "numerics.tape_ops_per_problem": ratio(tracer.tape_ops,
                                               calls("numerics.Tape.backward")),
        "numerics.adam_step_ms": per_call("numerics.adam_step", 1e3),
        "numerics.adam_share": ratio(total("numerics.adam_step"), train_s),
        "numerics.zero_grads_ms": per_call("numerics.ParamRegistry.zero_grads", 1e3),
        "numerics.zero_grads_share": ratio(
            total("numerics.ParamRegistry.zero_grads"), train_s),
        "numerics.registry_copy_ms": per_call("numerics.ParamRegistry.copy", 1e3),
        "numerics.registry_copy_share": ratio(
            total("numerics.ParamRegistry.copy"), train_s),
        "numerics.save_checkpoint_ms": per_call("numerics.save_checkpoint", 1e3),
        "numerics.load_checkpoint_ms": per_call("numerics.load_checkpoint", 1e3),
        "encoder.encode_train_ms": per_call("encoder.encode[train]", 1e3),
        "encoder.encode_train_share": ratio(total("encoder.encode[train]"), train_s),
        "encoder.encode_infer_ms": per_call("encoder.encode[infer]", 1e3),
        "trainer.problem_loss_ms": per_call("trainer.problem_loss", 1e3),
        "trainer.problem_loss_share": ratio(total("trainer.problem_loss"), train_s),
        "trainer.evaluate_s": per_call("trainer.evaluate", 1.0),
        "trainer.evaluate_share": ratio(
            tracer.nested_total("trainer.evaluate", "trainer.train"), train_s),
    }
    for mode, methods in (("train", TRAIN_STEP), ("infer", INFER_STEP)):
        spent = sum(total(f"decoder.DecoderRun.{x}[{mode}]") for x in methods)
        m[f"decoder.step_{mode}_ms"] = ratio(
            spent * 1e3, calls(f"decoder.DecoderRun.advance[{mode}]"))
    m["decoder.step_train_share"] = ratio(
        sum(total(f"decoder.DecoderRun.{x}[train]") for x in TRAIN_STEP), train_s)
    for method in INFER_STEP:
        m[f"decoder.{method}_self_ms"] = per_call(
            f"decoder.DecoderRun.{method}[infer]", 1e3, "self_s")
    n_decodes = len(tracer.decodes)
    steps = sum(n for _, n in tracer.decodes)
    m["decoder.steps_per_decode"] = ratio(steps, n_decodes)
    for status in STATUSES:
        m[f"decoder.status.{status}"] = ratio(
            sum(st == status for st, _ in tracer.decodes), n_decodes)
    m["decoder.budget_step_ratio"] = ratio(
        sum(n for st, n in tracer.decodes if st == "budget_exceeded"), steps)
    m["eqlang.expr_to_infix_ms"] = ratio(total("eqlang.expr_to_infix") * 1e3,
                                         calls("decoder.greedy_decode"))
    m["eqlang.render_share"] = ratio(total("eqlang.expr_to_infix"),
                                     total("decoder.greedy_decode"))
    m["eqlang.symbolic_step_us"] = per_call("eqlang.symbolic_step", 1e6)
    m["eqlang.symbolic_step_calls"] = calls("eqlang.symbolic_step")
    m["eqlang.solve_us"] = per_call("eqlang.solve", 1e6)
    m["eqlang.solve_calls"] = calls("eqlang.solve")
    m["corpus.synth_generate_s"] = per_call("corpus.synth_generate", 1.0)
    m["corpus.prepare_dataset_s"] = per_call("corpus.prepare_dataset", 1.0)
    all_self = sum(v["self_s"] for v in s.values())
    for module in MODULES:
        mine = sum(v["self_s"] for k, v in s.items() if k.startswith(module + "."))
        m[f"{module}.self_share"] = ratio(mine, all_self)
    m["trace_overhead_ratio"] = job_rate(kind, traced) / job_rate(kind, plain)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        tiny: bool = False, out_dir: Path = OUT_DIR) -> tuple[dict, dict]:
    """Run one workload; returns (report, result). The result is the
    benchmark's final JSON line; the report holds the named metrics, the
    determinism fingerprint, the checks and the environment stamp."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = envstamp.stamp(ROOT, workload, seed)
    job = make_workload(workload, seed, out_dir, tiny=tiny)
    checks = Checks()
    tracer = Tracer() if trace else None

    job.setup()  # untimed warm-up: the process's first-call costs are not set-up
    setup_times = []
    report = {"env": env, "trace": int(trace)}
    if trace:
        plain = measure(job, checks, seconds / 2, nullcontext, setup_times)
        with tracer.installed():
            traced = measure(job, checks, seconds / 2, tracer.paused, setup_times)
        reps = plain + traced
    else:
        reps = measure(job, checks, seconds, nullcontext, setup_times)
    for rep in reps[1:]:
        checks.same_fingerprint(reps[0].fingerprint, rep.fingerprint)

    if trace:
        values = layer_metrics(job.kind, tracer, plain, traced)
        units = PER_LAYER
        report["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in LAYER_UNITS.items()}
        report["layers"] = tracer.summary()
        spans = out_dir / f"spans-{workload}-seed{seed}.npz"
        tracer.write(spans)
        report["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        values = end_to_end(job.kind, reps, setup_times)
        units = END_TO_END
        report["metrics"] = named_metrics(job.kind, reps, values, checks,
                                          len(setup_times))
    report["repetitions"] = len(reps)
    report["fingerprint"] = reps[0].fingerprint
    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "fail_ratio": checks.fail_ratio,
                        "failures": checks.failures}
    env["loadavg_after"] = list(os.getloadavg())
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result

