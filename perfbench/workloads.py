"""The three workloads, each a seeded set-up plus a repeatable job.

A repetition runs the whole job once and returns its timings and its
determinism fingerprint. Repetitions of one workload and seed do identical
arithmetic, so every repetition must reproduce the first one's fingerprint.
The program receives only generated problems and configs; the workload
seed picks the problems and the model initialisations.
"""
from __future__ import annotations

import hashlib
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stacksolver import corpus, decoder, encoder, numerics, trainer

from .checks import Checks, DecodeRecord
from .tracer import patched

STATUSES = ("solved", "unsolvable", "budget_exceeded")
# Timed intervals are CPU seconds of this process. The process runs one
# thread (``run.py`` pins the BLAS to one), so on an idle host this equals
# wall time; on a shared host it leaves out the time other tenants hold the
# core, which wall time would add to every interval.
clock = time.process_time


@dataclass
class Rep:
    """Timings of one repetition of a workload's job.

    Repetitions with one seed do the same work in the same order, so their
    ``timeline`` and ``decode_ms`` can be combined interval by interval and
    decode by decode.
    """
    problems: int          # training problems, or decodes, per repetition
    timeline: list[tuple[str, float]]  # trainer.train as (mark, ms) intervals (train)
    decode_ms: list[float]  # encode + greedy_decode times: final evaluation or fuzz pass
    fingerprint: dict


def fingerprint(records: list[DecodeRecord], *, final_loss=None,
                answer_accuracy=None) -> dict:
    """Exact summary of a set of decodes; equal across runs with one seed."""
    digest = hashlib.sha256()
    statuses = Counter()
    for r in records:
        digest.update(repr(r.actions).encode())
        statuses[r.status] += 1
    if answer_accuracy is None:
        answer_accuracy = sum(r.answered_correctly for r in records) / len(records)
    return {
        "final_loss": final_loss,
        "answer_accuracy": answer_accuracy,
        "status": {s: statuses[s] for s in STATUSES},
        "steps": sum(len(r.actions) for r in records),
        "actions_sha256": digest.hexdigest(),
    }


class Probe:
    """Untraced hooks that mark a training repetition's timeline: the end of
    each ``Tape.backward``, optimizer step and greedy decode, and the start
    and end of each evaluation. Repetitions with one seed make the same marks
    in the same order, so an interval between two marks is the same work in
    every repetition. Each greedy decode is also kept with its duration."""

    def __init__(self):
        self.marks: list[tuple[str, float]] = []
        self.decodes: list[tuple[DecodeRecord, float]] = []

    @contextmanager
    def installed(self):
        backward = numerics.Tape.__dict__["backward"]
        adam_step = numerics.__dict__["adam_step"]
        evaluate = trainer.__dict__["evaluate"]
        decode_problem = trainer.__dict__["decode_problem"]

        def timed_backward(tape, *args, **kwargs):
            out = backward(tape, *args, **kwargs)
            self.marks.append(("backward", clock()))
            return out

        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self.marks.append(("step", clock()))
            return out

        def timed_evaluate(*args, **kwargs):
            self.marks.append(("eval", clock()))
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.marks.append(("eval_end", clock()))

        def timed_decode_problem(model, problem, *args, **kwargs):
            start = clock()
            result = decode_problem(model, problem, *args, **kwargs)
            end = clock()
            self.marks.append(("decode", end))
            self.decodes.append((DecodeRecord.of(problem, result), end - start))
            return result

        with patched(numerics.Tape, "backward", timed_backward), \
                patched(numerics, "adam_step", timed_adam_step), \
                patched(trainer, "evaluate", timed_evaluate), \
                patched(trainer, "decode_problem", timed_decode_problem):
            yield self

    def timeline(self, start: float) -> list[tuple[str, float]]:
        """Each mark with the milliseconds since the previous mark (or since
        ``start``, for the first)."""
        out = []
        for kind, at in self.marks:
            out.append((kind, (at - start) * 1e3))
            start = at
        return out


@dataclass
class TrainWorkload:
    """Teacher-forced training as ``stacksolver train`` runs it, then
    ``save_model``, ``load_model`` and ``evaluate`` as ``stacksolver eval``
    would."""
    seed: int
    n_train: int
    n_heldout: int
    config: trainer.TrainConfig
    workdir: Path
    kind = "train"

    def setup(self):
        raws = corpus.synth_generate(self.n_train + self.n_heldout, seed=self.seed,
                                     difficulty=2)
        prepared, report = corpus.prepare_dataset(raws)
        if report.total_rejected:
            raise RuntimeError(f"synthetic problems rejected: {report.counts}")
        train_set, heldout = prepared[:self.n_train], prepared[self.n_train:]
        vocab = encoder.build_vocab(p.tokens for p in train_set)
        trainer.build_model(vocab, self.config, np.random.default_rng(self.seed))
        return train_set, heldout or None

    def repetition(self, data, checks: Checks, pause) -> Rep:
        train_set, heldout = data
        eval_set = heldout if heldout is not None else train_set
        max_steps = self.config.decoder.max_steps
        probe = Probe()
        with probe.installed():
            start = clock()
            result = trainer.train(train_set, self.config, heldout=heldout)
            timeline = probe.timeline(start)
            with pause():
                checks.losses(result.history)
                for record, _ in probe.decodes:
                    checks.decode(record, max_steps)
            with tempfile.TemporaryDirectory(dir=self.workdir) as directory:
                trainer.save_model(directory, result.model)
                reloaded = trainer.load_model(directory)
            with pause():
                checks.same_registry(result.model.registry, reloaded.registry)
            probe.decodes.clear()
            metrics = trainer.evaluate(reloaded, eval_set)
        records = [record for record, _ in probe.decodes]
        with pause():
            for record in records:
                checks.decode(record, max_steps)
        return Rep(
            problems=len(result.history) * len(train_set), timeline=timeline,
            decode_ms=[seconds * 1e3 for _, seconds in probe.decodes],
            fingerprint=fingerprint(records, final_loss=result.final_loss,
                                    answer_accuracy=metrics.answer_accuracy))


@dataclass
class FuzzWorkload:
    """Acceptance criterion 4 at model size d=64: greedy decodes of every
    difficulty-3 problem under many randomly initialised models."""
    seed: int
    n_problems: int
    n_models: int
    config: trainer.TrainConfig
    kind = "decode"

    def setup(self):
        raws = corpus.synth_generate(self.n_problems, seed=self.seed, difficulty=3)
        problems, report = corpus.prepare_dataset(raws)
        if report.total_rejected:
            raise RuntimeError(f"synthetic problems rejected: {report.counts}")
        vocab = encoder.build_vocab(p.tokens for p in problems)
        models = []
        for k in range(self.n_models):
            rng = np.random.default_rng([self.seed, k])
            model = trainer.build_model(vocab, self.config, rng)
            # Stratified parameter scales over [1, 30]: small scales run out
            # of budget, large ones close equations early, so every seed
            # gets a similar mix of decode lengths and statuses.
            scale = 1.0 + 29.0 * (k + rng.uniform()) / self.n_models
            for name in model.registry.names():
                model.registry[name][...] *= scale
            models.append(model)
        return problems, models

    def repetition(self, data, checks: Checks, pause) -> Rep:
        problems, models = data
        records = []
        decode_ms = []
        for model in models:
            for problem in problems:
                start = clock()
                encoded = encoder.encode(problem, model.vocab, model.registry,
                                         model.enc_config)
                result = decoder.greedy_decode(encoded, problem, model.registry,
                                               model.dec_config)
                decode_ms.append((clock() - start) * 1e3)
                record = DecodeRecord.of(problem, result)
                records.append(record)
                with pause():
                    checks.decode(record, model.dec_config.max_steps)
        return Rep(problems=len(decode_ms), timeline=[],
                   decode_ms=decode_ms, fingerprint=fingerprint(records))


def _train_config(seed, *, epochs, batch_size, eval_every, dim):
    return trainer.TrainConfig(
        epochs=epochs, batch_size=batch_size, seed=seed, embed_dim=dim,
        hidden_per_direction=dim, eval_every=eval_every, patience=epochs,
        target_accuracy=None)


def make_workload(name: str, seed: int, workdir: Path, *, tiny: bool = False):
    """Build a workload by name. ``tiny`` shrinks every size for tests."""
    if name == "train_b16":
        # The acceptance generalize config: 512 + 128 problems, d=64, batch 16,
        # early stopping off; one epoch and its held-out evaluation per
        # repetition, so a run repeats every optimizer step several times.
        return TrainWorkload(
            seed, n_train=24 if tiny else 512, n_heldout=8 if tiny else 128,
            config=_train_config(seed, epochs=1, batch_size=16, eval_every=1,
                                 dim=4 if tiny else 32),
            workdir=workdir)
    if name == "train_b1":
        # One optimizer step per problem; the only evaluation is at the end.
        epochs = 1 if tiny else 2
        return TrainWorkload(
            seed, n_train=6 if tiny else 128, n_heldout=0,
            config=_train_config(seed, epochs=epochs, batch_size=1,
                                 eval_every=epochs, dim=4 if tiny else 32),
            workdir=workdir)
    if name == "decode_fuzz":
        # The decode work of a pass varies between seeds mostly with the
        # models: over seeds 11-20, 8 models x 50 problems spread 0.10 in
        # total decode steps, 40 models x 10 problems 0.02.
        return FuzzWorkload(
            seed, n_problems=4 if tiny else 10, n_models=2 if tiny else 40,
            config=_train_config(seed, epochs=1, batch_size=1, eval_every=1,
                                 dim=4 if tiny else 32))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train_b16", "train_b1", "decode_fuzz")
