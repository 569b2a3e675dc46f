"""Dataset ingestion, tokenization, constant detection, and target construction.

The interchange format is UTF-8 JSON records with ``id``, ``segmented_text``
(or ``original_text``), ``equation`` (``x=...`` infix), and ``ans``; either
one record per line or a single JSON array. Problem text is already
whitespace-segmented into word units by the source file.

``prepare`` turns a raw record into the model's view of a problem: tokens,
constant positions and exact rational values, the gold stack-action target,
and the gold answer. Structural failures reject the sample with a typed
reason so callers can report dataset coverage instead of silently dropping.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import eqlang
from .eqlang import EquationSyntaxError, StackAction, UnalignableLiteral, parse_rational


class FormatError(Exception):
    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"record {index}: {message}")
        self.index = index


class AnswerFormatError(Exception):
    pass


@dataclass
class RawProblem:
    id: str
    text: str
    equation: str
    answer: str

    def __post_init__(self):
        if not self.text or not self.equation:
            raise ValueError("problem text and equation must be non-empty")


@dataclass
class PreparedProblem:
    id: str
    tokens: list[str]
    constant_positions: list[int]
    constant_values: list[Fraction]
    target: list[StackAction]
    gold_answer: Fraction | float | None

    @property
    def n_constants(self) -> int:
        return len(self.constant_values)


# ---------------------------------------------------------------------------
# loading


def _record_to_problem(obj, index: int) -> RawProblem:
    if not isinstance(obj, dict):
        raise FormatError("record is not an object", index)
    text = str(obj.get("segmented_text") or obj.get("original_text") or "")
    if not text.split():  # a text with no tokens is as good as none
        raise FormatError("missing segmented_text/original_text", index)
    equation = obj.get("equation")
    if not equation:
        raise FormatError("missing equation", index)
    if "ans" not in obj:
        raise FormatError("missing ans", index)
    pid = str(obj.get("id", index))
    return RawProblem(id=pid, text=text, equation=str(equation), answer=str(obj["ans"]))


def read_text(path) -> str:
    """A data file's text; a file that is not UTF-8 is a ``FormatError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_dataset(path) -> list[RawProblem]:
    """Read interchange records, preserving source order."""
    text = read_text(path)
    stripped = text.lstrip()
    problems: list[RawProblem] = []
    if stripped.startswith("["):
        try:
            records = json.loads(stripped)
        except ValueError as exc:  # bad JSON, or an integer past the digit limit
            raise FormatError(f"invalid JSON array: {exc}") from exc
        if not isinstance(records, list):
            raise FormatError("top-level JSON value is not an array")
        for i, obj in enumerate(records):
            problems.append(_record_to_problem(obj, i))
    else:
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise FormatError(f"invalid JSON: {exc}", i) from exc
            problems.append(_record_to_problem(obj, i))
    return problems


def write_dataset(path, problems: Sequence[RawProblem]) -> None:
    """One record per line, matching load_dataset."""
    lines = []
    for p in problems:
        lines.append(json.dumps(
            {"id": p.id, "segmented_text": p.text, "equation": p.equation, "ans": p.answer},
            ensure_ascii=False, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# tokenization and constant extraction

_NUM_SPAN_RE = re.compile(r"[0-9.%/]*[0-9][0-9.%/]*")


def tokenize(text: str, mode: str = "word") -> list[str]:
    """Split problem text. Char mode keeps maximal number-like spans whole."""
    words = text.split()
    if mode == "word":
        return words
    if mode != "char":
        raise ValueError(f"unknown tokenize mode {mode!r}")
    tokens: list[str] = []
    for word in words:
        last = 0
        for m in _NUM_SPAN_RE.finditer(word):
            tokens.extend(word[last:m.start()])
            tokens.append(m.group(0))
            last = m.end()
        tokens.extend(word[last:])
    return tokens


def _span_value(token: str) -> tuple[str, Fraction] | None:
    """First numeric span of a token and its exact value, if any."""
    for m in _NUM_SPAN_RE.finditer(token):
        span = m.group(0)
        value = parse_rational(span)
        if value is None:
            # tolerate stray trailing punctuation inside the span, e.g. "5."
            trimmed = span.rstrip("./%")
            value = parse_rational(trimmed)
            span = trimmed
        if value is not None:
            return span, value
    return None


def extract_constants(tokens: Sequence[str]) -> tuple[list[int], list[Fraction]]:
    """Positions and exact values of the numbers mentioned in the text."""
    positions: list[int] = []
    values: list[Fraction] = []
    for idx, token in enumerate(tokens):
        found = _span_value(token)
        if found is not None:
            positions.append(idx)
            values.append(found[1])
    return positions, values


# ---------------------------------------------------------------------------
# answers

_MIXED_RE = re.compile(r"(\d+)\s*(?:又|\()\s*(\d+)\s*/\s*(\d+)\s*\)?")


def parse_answer(text: str) -> Fraction:
    """Exact value of a gold answer string, including mixed numerals a(b/c)."""
    s = text.strip()
    negative = False
    while s.startswith("-"):  # each leading minus flips the sign
        negative = not negative
        s = s[1:].strip()
    if not s:
        raise AnswerFormatError("empty answer")
    m = _MIXED_RE.fullmatch(s)
    if m:
        whole, num, den = m.groups()
        part = parse_rational(f"{num}/{den}")
        if part is None:
            raise AnswerFormatError(f"zero denominator in answer {text!r}")
        value = parse_rational(whole) + part
    else:
        value = parse_rational(s.replace("(", "").replace(")", ""))
        if value is None:
            raise AnswerFormatError(f"cannot parse answer {text!r}")
    return -value if negative else value


# ---------------------------------------------------------------------------
# preparation


def prepare(raw: RawProblem, mode: str = "word") -> PreparedProblem:
    """Build the training view of one problem, or raise a typed rejection.

    Raises UnalignableLiteral, EquationSyntaxError, AnswerFormatError,
    LiteralTooLong, or one of the solver errors (NonAffine/NoUnknown/
    DivisionByZero) when the gold equation cannot back a training target.
    """
    tokens = tokenize(raw.text, mode)
    positions, values = extract_constants(tokens)
    lhs, rhs = eqlang.parse_equation(raw.equation)
    target = eqlang.linearize(lhs, rhs, values)
    answer = parse_answer(raw.answer)
    eqlang.solve([(lhs, rhs)])  # reject gold equations our solver cannot handle
    return PreparedProblem(
        id=raw.id,
        tokens=tokens,
        constant_positions=positions,
        constant_values=values,
        target=target,
        gold_answer=answer,
    )


_REJECTION_KINDS = (
    (UnalignableLiteral, "unalignable"),
    (EquationSyntaxError, "syntax_error"),
    (eqlang.LiteralTooLong, "syntax_error"),
    (AnswerFormatError, "syntax_error"),
    (eqlang.NonAffine, "nonaffine"),
    (eqlang.NoUnknown, "nonaffine"),
    (eqlang.DivisionByZero, "nonaffine"),
)
_REJECTION_CLASSES = tuple(cls for cls, _ in _REJECTION_KINDS)


@dataclass
class RejectionReport:
    counts: dict[str, int] = field(default_factory=lambda: {
        "prepared": 0, "unalignable": 0, "syntax_error": 0, "nonaffine": 0})
    rejected: list[dict] = field(default_factory=list)

    @property
    def total_rejected(self) -> int:
        return len(self.rejected)


def prepare_dataset(raws: Sequence[RawProblem], mode: str = "word"
                    ) -> tuple[list[PreparedProblem], RejectionReport]:
    """Prepare every record, reporting rejection counts rather than dropping silently."""
    prepared: list[PreparedProblem] = []
    report = RejectionReport()
    for raw in raws:
        try:
            prepared.append(prepare(raw, mode))
        except _REJECTION_CLASSES as exc:
            kind = next(k for cls, k in _REJECTION_KINDS if isinstance(exc, cls))
            report.counts[kind] += 1
            report.rejected.append({"id": raw.id, "reason": kind, "detail": str(exc)})
        else:
            report.counts["prepared"] += 1
    return prepared, report


# ---------------------------------------------------------------------------
# fold splitting


@dataclass
class FoldSplit:
    assignments: dict[str, int]

    def fold_ids(self, fold: int) -> list[str]:
        return [pid for pid, f in self.assignments.items() if f == fold]


def make_folds(ids: Sequence[str], k: int, seed: int) -> FoldSplit:
    """Deterministic shuffled round-robin assignment; sorts ids first."""
    if k < 2:
        raise ValueError(f"fold count must be at least 2, got {k}")
    ordered = sorted(ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    assignments = {ordered[int(p)]: j % k for j, p in enumerate(perm)}
    return FoldSplit(assignments)


# ---------------------------------------------------------------------------
# synthetic problems for desk-scale training

_NAMES = ["tom", "jane", "sam", "mia"]
_ITEMS = ["apples", "pens", "marbles", "books", "stickers"]
_CONTAINERS = ["boxes", "bags", "baskets"]

_INT_POOL = [Fraction(n) for n in range(2, 13)]
_DEC_POOL = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(9, 2)]
_RATE_POOL = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(2, 5)]


def _fmt(v: Fraction) -> str:
    return eqlang.format_rational(v)


def _d1_templates(pick):
    a, b = pick(_INT_POOL + _DEC_POOL), pick(_INT_POOL)
    name = pick(_NAMES)
    other = pick([n for n in _NAMES if n != name])
    item = pick(_ITEMS)
    shape = pick(["add", "sub", "mul", "div"])
    if shape == "add":
        text = (f"{name} has {_fmt(a)} {item} . {other} gives {name} {_fmt(b)} more ."
                f" how many {item} does {name} have now ?")
        eq = f"x={_fmt(a)}+{_fmt(b)}"
    elif shape == "sub":
        a = pick([v for v in _INT_POOL if v > 2])
        b = pick([v for v in _INT_POOL if v < a])
        text = (f"{name} has {_fmt(a)} {item} . {name} gives away {_fmt(b)} of them ."
                f" how many {item} are left ?")
        eq = f"x={_fmt(a)}-{_fmt(b)}"
    elif shape == "mul":
        container = pick(_CONTAINERS)
        text = (f"each of the {container} holds {_fmt(a)} {item} . {name} fills {_fmt(b)}"
                f" {container} . how many {item} does {name} have in total ?")
        eq = f"x={_fmt(a)}*{_fmt(b)}"
    else:
        text = (f"{name} shares {_fmt(a)} {item} among {_fmt(b)} friends ."
                f" how many {item} does each friend get ?")
        # spaced so two integer literals read as division, not one fraction
        eq = f"x={_fmt(a)} / {_fmt(b)}"
    return text, eq


def _d2_templates(pick):
    name = pick(_NAMES)
    other = pick([n for n in _NAMES if n != name])
    item = pick(_ITEMS)
    container = pick(_CONTAINERS)
    shape = pick(["spend", "remain", "worth", "pages", "pack"])
    if shape == "spend":
        c = pick(_INT_POOL + _DEC_POOL)
        a = pick([v for v in _INT_POOL if v > 2])
        b = pick([v for v in _INT_POOL if v < a])
        text = (f"each of the {item} costs {_fmt(c)} dollars . {name} has {_fmt(a)} dollars"
                f" and spends {_fmt(b)} dollars on a bag . how many {item} can {name} buy ?")
        eq = f"x=({_fmt(a)}-{_fmt(b)})/{_fmt(c)}"
    elif shape == "remain":
        a = pick(_INT_POOL + _DEC_POOL)
        b = pick(_INT_POOL)
        c = pick(_INT_POOL)
        text = (f"each of the {item} costs {_fmt(a)} dollars . {name} has {_fmt(b)} dollars"
                f" and buys {_fmt(c)} {item} . how many dollars are left ?")
        eq = f"x={_fmt(b)}-{_fmt(a)}*{_fmt(c)}"
    elif shape == "worth":
        a, b, c = pick(_INT_POOL), pick(_INT_POOL), pick(_INT_POOL + _DEC_POOL)
        text = (f"{name} picks {_fmt(a)} {item} and {other} picks {_fmt(b)} {item} ."
                f" each one is worth {_fmt(c)} points . how many points do they score ?")
        eq = f"x=({_fmt(a)}+{_fmt(b)})*{_fmt(c)}"
    elif shape == "pages":
        a, b, c = pick(_INT_POOL), pick(_INT_POOL), pick(_INT_POOL)
        text = (f"{name} reads {_fmt(a)} pages on each of {_fmt(b)} days and then"
                f" {_fmt(c)} more pages . how many pages does {name} read ?")
        eq = f"x={_fmt(a)}*{_fmt(b)}+{_fmt(c)}"
    else:
        a, b, c = pick(_INT_POOL), pick(_INT_POOL), pick(_INT_POOL)
        text = (f"{name} has {_fmt(a)} {item} and {other} has {_fmt(b)} {item} . they pack"
                f" them into {container} of {_fmt(c)} . how many {container} do they fill ?")
        eq = f"x=({_fmt(a)}+{_fmt(b)})/{_fmt(c)}"
    return text, eq


def _d3_templates(pick):
    # every shape uses the external constant 1, which the pools never mention
    name = pick(_NAMES)
    item = pick(_ITEMS)
    shape = pick(["grow", "score", "split"])
    if shape == "grow":
        a = pick(_INT_POOL + _DEC_POOL)
        b = pick(_RATE_POOL)
        c = pick(_INT_POOL)
        text = (f"a plant is {_fmt(a)} cm tall and grows by {_fmt(b)} of its height ."
                f" then {_fmt(c)} cm breaks off . how tall is the plant now ?")
        eq = f"x={_fmt(a)}*(1+{_fmt(b)})-{_fmt(c)}"
    elif shape == "score":
        a, b = pick(_INT_POOL), pick(_INT_POOL)
        c = pick(_RATE_POOL)
        text = (f"{name} scores {_fmt(a)} points and then {_fmt(b)} points . a bonus adds"
                f" {_fmt(c)} of the total . how many points does {name} end with ?")
        eq = f"x=({_fmt(a)}+{_fmt(b)})*(1+{_fmt(c)})"
    else:
        a = pick(_INT_POOL)
        b = pick(_RATE_POOL)
        c = pick(_INT_POOL)
        text = (f"{name} piles up {_fmt(a)} {item} plus {_fmt(b)} of them again , then splits"
                f" the pile among {_fmt(c)} friends . how many does each friend get ?")
        eq = f"x={_fmt(a)}*(1+{_fmt(b)})/{_fmt(c)}"
    return text, eq


_TIERS = {1: _d1_templates, 2: _d2_templates, 3: _d3_templates}


def synth_generate(count: int, seed: int, difficulty: int = 2) -> list[RawProblem]:
    """Deterministic templated problems; ``difficulty`` is the max tier used.

    Tier 1 is a single operation, tier 2 two operations with parentheses,
    tier 3 three operations involving the external constant 1. Gold answers
    are computed by the symbolic solver, and every output is unique and
    survives prepare() with zero rejections by construction.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if difficulty not in (1, 2, 3):
        raise ValueError("difficulty must be 1, 2, or 3")
    rng = np.random.default_rng(seed)

    def pick(pool):
        return pool[int(rng.integers(0, len(pool)))]

    problems: list[RawProblem] = []
    seen: set[tuple[str, str]] = set()
    attempts = 0
    while len(problems) < count:
        attempts += 1
        if attempts > count * 200:
            raise RuntimeError("synthetic template space exhausted")
        tier = int(rng.integers(1, difficulty + 1))
        text, eq = _TIERS[tier](pick)
        if (text, eq) in seen:
            continue
        seen.add((text, eq))
        lhs, rhs = eqlang.parse_equation(eq)
        answer = eqlang.solve([(lhs, rhs)])
        problems.append(RawProblem(
            id=f"synth-{seed}-{len(problems)}",
            text=text,
            equation=eq,
            answer=str(answer),
        ))
    return problems
