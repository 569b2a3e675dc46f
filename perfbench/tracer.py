"""Span recorder that wraps the library's public boundaries from outside.

Installing a ``Tracer`` replaces module attributes and class methods of
``stacksolver`` with timing wrappers; uninstalling puts the originals back.
The library calls its own modules through module attributes
(``enc.encode``, ``nm.adam_step``, ``eqlang.symbolic_step``) and its
trainer through module globals (``problem_loss``, ``evaluate``), so a
patched attribute sees every call without any change to the library.

Spans live in flat arrays (name id, start, end, parent span, request id)
so that a traced run of half a million spans stays small in memory; they
are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from stacksolver import corpus, decoder, encoder, eqlang, numerics, trainer


def _tape_arg(args, kwargs):
    return kwargs.get("tape")


def _run_tape(args, kwargs):
    return args[0].tape


# (owner, attribute, span name, which argument carries the tape, which
# positional argument carries the problem whose id is the request id).
# Spans whose tape is given are split into "[train]" (tape recorded) and
# "[infer]" (tape=None) so the two decoder paths are timed apart.
BOUNDARIES = (
    (corpus, "synth_generate", "corpus.synth_generate", None, None),
    (corpus, "prepare_dataset", "corpus.prepare_dataset", None, None),
    (encoder, "encode", "encoder.encode", _tape_arg, 0),
    (decoder, "greedy_decode", "decoder.greedy_decode", None, 1),
    (decoder.DecoderRun, "advance", "decoder.DecoderRun.advance", _run_tape, None),
    (decoder.DecoderRun, "state_features", "decoder.DecoderRun.state_features",
     _run_tape, None),
    (decoder.DecoderRun, "select_action", "decoder.DecoderRun.select_action",
     _run_tape, None),
    (decoder.DecoderRun, "select_operand", "decoder.DecoderRun.select_operand",
     _run_tape, None),
    (decoder.DecoderRun, "apply_action", "decoder.DecoderRun.apply_action",
     _run_tape, None),
    (decoder.DecoderRun, "action_loss", "decoder.DecoderRun.action_loss",
     _run_tape, None),
    (decoder.DecoderRun, "operand_loss", "decoder.DecoderRun.operand_loss",
     _run_tape, None),
    (eqlang, "symbolic_step", "eqlang.symbolic_step", None, None),
    (eqlang, "expr_to_infix", "eqlang.expr_to_infix", None, None),
    (eqlang, "solve", "eqlang.solve", None, None),
    (numerics.Tape, "backward", "numerics.Tape.backward", None, None),
    (numerics, "adam_step", "numerics.adam_step", None, None),
    (numerics.ParamRegistry, "zero_grads", "numerics.ParamRegistry.zero_grads",
     None, None),
    (numerics.ParamRegistry, "copy", "numerics.ParamRegistry.copy", None, None),
    (numerics, "save_checkpoint", "numerics.save_checkpoint", None, None),
    (numerics, "load_checkpoint", "numerics.load_checkpoint", None, None),
    (trainer, "build_model", "trainer.build_model", None, None),
    (trainer, "train", "trainer.train", None, None),
    (trainer, "problem_loss", "trainer.problem_loss", None, 0),
    (trainer, "evaluate", "trainer.evaluate", None, None),
    (trainer, "decode_problem", "trainer.decode_problem", None, 1),
    (trainer, "save_model", "trainer.save_model", None, None),
    (trainer, "load_model", "trainer.load_model", None, None),
)


@contextmanager
def patched(owner, attr: str, wrapper):
    """Replace ``owner.attr`` with ``wrapper`` until the block exits."""
    original = owner.__dict__[attr]
    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = []
        self._request_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        # calls of Tape.record: counted, not spanned (hundreds per problem)
        self.tape_ops = 0
        # (status, steps) of every greedy decode seen while enabled
        self.decodes: list[tuple[str, int]] = []
        self.enabled = True
        self._open: list[int] = []
        self._request = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _request_id(self, problem_id: str) -> int:
        rid = self._request_ids.get(problem_id)
        if rid is None:
            rid = self._request_ids[problem_id] = len(self.requests)
            self.requests.append(problem_id)
        return rid

    @contextmanager
    def paused(self):
        """Run untraced work (output checks) inside a traced phase."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, fn, name: str, tape_of, problem_arg):
        tracer = self
        if tape_of is None:
            ids = (self.name_id(name),) * 2
        else:
            ids = (self.name_id(name + "[infer]"), self.name_id(name + "[train]"))
        is_greedy = name == "decoder.greedy_decode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = ids[tape_of is not None and tape_of(args, kwargs) is not None]
            saved_request = tracer._request
            if problem_arg is not None:
                problem = args[problem_arg] if len(args) > problem_arg else kwargs["problem"]
                tracer._request = tracer._request_id(problem.id)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.span_request.append(tracer._request)
            tracer.span_end.append(0.0)
            tracer._open.append(idx)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer._open.pop()
                tracer._request = saved_request
            if is_greedy:
                tracer.decodes.append((result.status, len(result.actions)))
            return result

        return wrapper

    def _count_record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, back):
            if tracer.enabled:
                tracer.tape_ops += 1
            return fn(tape, back)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        with ExitStack() as stack:
            for owner, attr, name, tape_of, problem_arg in BOUNDARIES:
                wrapper = self._wrap(owner.__dict__[attr], name, tape_of, problem_arg)
                stack.enter_context(patched(owner, attr, wrapper))
            stack.enter_context(patched(
                numerics.Tape, "record",
                self._count_record(numerics.Tape.__dict__["record"])))
            yield self

    # -- analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "request": np.frombuffer(self.span_request, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; the wrapped calls run on one thread, so children never
        overlap one another.
        """
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def nested_total(self, name: str, parent: str) -> float:
        """Inclusive seconds of ``name`` spans whose direct parent is ``parent``."""
        a = self.arrays()
        nid, pid = self._name_ids.get(name), self._name_ids.get(parent)
        if nid is None or pid is None:
            return 0.0
        mine = a["name"] == nid
        parents = a["parent"][mine]
        under = (parents >= 0) & (a["name"][np.maximum(parents, 0)] == pid)
        return float((a["end"][mine] - a["start"][mine])[under].sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            requests=np.array(self.requests), **self.arrays())

