"""Output checks. They run outside every timed region.

Each check is one attempted operation; a check that does not hold is one
failed operation. ``fail_ratio`` is failed over attempted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from stacksolver import eqlang


@dataclass
class DecodeRecord:
    """What the checks and the fingerprint need from one greedy decode."""
    problem_id: str
    constants: list
    gold_answer: object
    actions: list
    equations: list
    stack_history: list
    status: str
    answer: object

    @classmethod
    def of(cls, problem, result) -> "DecodeRecord":
        return cls(problem.id, problem.constant_values, problem.gold_answer,
                   result.actions, result.equations, result.stack_history,
                   result.status, result.answer)

    @property
    def answered_correctly(self) -> bool:
        return (self.status == "solved" and self.answer is not None
                and self.gold_answer is not None
                and eqlang.answers_equal(self.answer, self.gold_answer))


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def decode(self, record: DecodeRecord, max_steps: int) -> None:
        """Replay a decode through the stack VM (it must not underflow and
        must mirror the decoder's stacks and equations exactly), and re-parse
        every recorded equation."""
        try:
            outcome = eqlang.execute(record.actions, record.constants,
                                     max_steps=max_steps)
        except (eqlang.StackUnderflow, IndexError, ValueError) as exc:
            self.expect(False, f"{record.problem_id}: replay failed: {exc}")
            return
        ok = (outcome.stack_history == record.stack_history
              and outcome.equations == record.equations)
        for lhs, rhs in record.equations:
            try:
                eqlang.parse_equation(eqlang.equation_to_infix(lhs, rhs))
            except eqlang.EquationSyntaxError:
                ok = False
        self.expect(ok, f"{record.problem_id}: decode does not mirror the VM "
                        "or an equation does not re-parse")

    def losses(self, history) -> None:
        for stats in history:
            self.expect(math.isfinite(stats.mean_loss),
                        f"epoch {stats.epoch}: mean loss {stats.mean_loss!r}")

    def same_registry(self, trained, reloaded) -> None:
        """The reloaded checkpoint must hold bit-identical parameters and
        optimizer state."""
        ok = trained.names() == reloaded.names() and trained.adam_t == reloaded.adam_t
        if ok:
            for name in trained.names():
                for a, b in ((trained[name], reloaded[name]),
                             (trained.adam_m[name], reloaded.adam_m[name]),
                             (trained.adam_v[name], reloaded.adam_v[name])):
                    ok = ok and a.shape == b.shape and a.tobytes() == b.tobytes()
        self.expect(ok, "reloaded checkpoint differs from the trained registry")

    def same_fingerprint(self, first: dict, again: dict) -> None:
        self.expect(first == again, f"repetition fingerprint {again} != {first}")
