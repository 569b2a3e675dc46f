"""The symbolic side of the solver: equation ASTs, stack-action targets, a stack VM.

Expressions are exact-rational trees. Gold equations arrive as infix strings,
get linearized into stack actions (the decoder's supervision targets), and a
small virtual machine replays action sequences into recorded equations that a
single-unknown affine solver turns into answers.

Operand order convention: applying an operator pops ``a`` (top) then ``b``
(second) and builds ``b <op> a``, the standard postfix reading. Floats never
enter this module; constants are ``fractions.Fraction`` throughout.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

OPS = ("+", "-", "*", "/")

# numeric stand-ins for the two external operands
ONE_VALUE = Fraction(1)
PI_VALUE = Fraction(3.141592653589793)
# the portable equation-side spelling of pi; maps to the external operand
PI_LITERAL = Fraction("3.14")

MAX_TREE_DEPTH = 64
# the most actions a gold target or a decode may take: a target has at most
# one action per equation token and a genvar, and a longer equation is rejected
MAX_ACTIONS = 1000
# digits one numeric literal may have; longer ones are rejected before any
# arithmetic (Python refuses to convert past 4300 digits)
MAX_LITERAL_DIGITS = 100


class EqLangError(Exception):
    pass


class EquationSyntaxError(EqLangError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnalignableLiteral(EqLangError):
    def __init__(self, value: Fraction):
        super().__init__(f"equation literal {value} matches no problem constant and is not 1/pi")
        self.value = value


class LiteralTooLong(EqLangError):
    def __init__(self, digits: int):
        super().__init__(f"numeric literal of {digits} digits exceeds the "
                         f"{MAX_LITERAL_DIGITS}-digit limit")


class StackUnderflow(EqLangError):
    pass


class IllegalAction(ValueError):
    """A stack action that the stack machine's rules forbid at its step."""


class NonAffine(EqLangError):
    pass


class NoUnknown(EqLangError):
    pass


class DivisionByZero(EqLangError):
    pass


class ZeroDivisor(ValueError):
    """An operator whose divisor is the constant 0: no expression holds it."""


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Unknown:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown operator {self.op!r}")
        if self.op == "/" and isinstance(self.right, Const) and self.right.value == 0:
            raise ZeroDivisor("division by a structurally zero constant")


Expr = Union[Const, Unknown, BinOp]

UNKNOWN = Unknown()


def has_unknown(e: Expr) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Unknown):
            return True
        if isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
    return False


def evaluate(e: Expr, x: Fraction | None = None) -> Fraction:
    """Direct recursive evaluation; ``x`` substitutes the unknown."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Unknown):
        if x is None:
            raise NoUnknown("expression references the unknown but no value was given")
        return x
    left = evaluate(e.left, x)
    right = evaluate(e.right, x)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if right == 0:
        raise DivisionByZero(f"division by zero while evaluating {expr_to_infix(e)}")
    return left / right


# ---------------------------------------------------------------------------
# stack actions: every index, name and wire string of an action or an
# operand derives from the two tables here

# Stack actions in decoder index order, by wire spelling. Push is the one
# action that takes an operand. A trace names an action by its spelling
# without the colon (``apply+``).
ACTIONS = ("genvar", "push", *(f"apply:{op}" for op in OPS), "equal")
ACTION_NAMES = tuple(wire.replace(":", "") for wire in ACTIONS)
GENVAR, PUSH, EQUAL = (ACTIONS.index(wire) for wire in ("genvar", "push", "equal"))
# Each action's stack effect, by index: the entries it pops, and whether it
# then pushes one. Genvar makes x without touching the stack.
ACTION_POPS = tuple(0 if wire in ("genvar", "push") else 2 for wire in ACTIONS)
ACTION_PUSHES = tuple(wire not in ("genvar", "equal") for wire in ACTIONS)
_APPLY_OP = {ACTIONS.index(f"apply:{op}"): op for op in OPS}

# A push's operand candidates, in decoder order: the problem's constants
# c0..c{n-1}, then these, by name (x only once it has been generated).
EXTERNAL_OPERANDS = ("1", "pi", "x")
_CONST_NAME_RE = re.compile(r"c([0-9]+)")


class StackAction(NamedTuple):
    """One decoder action: ``kind`` indexes ``ACTIONS``, and a push's ``ref``
    names its operand, ``c{i}`` for the i-th constant or an external one."""
    kind: int
    ref: str | None = None

    @property
    def op(self) -> str:
        """The operator of an apply."""
        if self.kind not in _APPLY_OP:
            raise ValueError(f"{ACTIONS[self.kind]} applies no operator")
        return _APPLY_OP[self.kind]


GEN_VAR = StackAction(GENVAR)
APPLY_EQUAL = StackAction(EQUAL)


def push(ref: str) -> StackAction:
    """A push of operand ``ref``: ``c{i}`` (no leading zero), ``1``, ``pi``
    or ``x``."""
    const = _CONST_NAME_RE.fullmatch(ref)
    if ref not in EXTERNAL_OPERANDS and not (const and f"c{int(const[1])}" == ref):
        raise ValueError(f"bad operand name {ref!r}")
    return StackAction(PUSH, ref)


def apply(op: str) -> StackAction:
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    return StackAction(ACTIONS.index(f"apply:{op}"))


# the names that two of perfbench's tests build actions with, until they
# spell them push("c0"), push("x") and apply("+")
Push, Apply, UNKNOWN_REF = push, apply, "x"
ConstRef = "c{}".format


def operand_index(ref: str, n_constants: int) -> int:
    """Candidate index of operand ``ref`` for a problem with ``n_constants``
    constants."""
    if ref in EXTERNAL_OPERANDS:
        return n_constants + EXTERNAL_OPERANDS.index(ref)
    index = int(ref[1:])
    if index >= n_constants:
        raise IndexError(f"constant index {index} out of range")
    return index


def operand_at(index: int, n_constants: int) -> str:
    return f"c{index}" if index < n_constants else EXTERNAL_OPERANDS[index - n_constants]


def action_to_wire(action: StackAction) -> str:
    """Prepared-file spelling of an action: ``push:c2``, ``apply:+``, ``equal``."""
    return f"push:{action.ref}" if action.kind == PUSH else ACTIONS[action.kind]


def action_from_wire(text: str) -> StackAction:
    kind, colon, name = text.partition(":")
    const = _CONST_NAME_RE.fullmatch(name)
    if kind == "push" and colon and (const or name in EXTERNAL_OPERANDS):
        return push(f"c{int(const[1])}" if const else name)
    if text != "push" and text in ACTIONS:
        return StackAction(ACTIONS.index(text))
    raise ValueError(f"bad action encoding {text!r}")


# ---------------------------------------------------------------------------
# number lexing shared with the corpus module


# one numeric literal: a bare a/b between two integers is one rational, and
# an int or a decimal (``5.`` tolerates a trailing dot); then an optional %
_LITERAL = (r"(?:(?P<numerator>\d+)/(?P<denominator>\d+)(?![\d.])"
            r"|(?P<decimal>\d+\.\d*|\.\d+|\d+))(?P<percent>%)?")
_LITERAL_RE = re.compile(_LITERAL)


def _literal_value(m: re.Match) -> Fraction | None:
    """Exact value of the literal that ``m`` matched with ``_LITERAL``: None
    for a zero denominator, ``LiteralTooLong`` past ``MAX_LITERAL_DIGITS``."""
    numerator, denominator, decimal = m.group("numerator", "denominator", "decimal")
    digits = len(decimal) - decimal.count(".") if decimal else len(numerator + denominator)
    if digits > MAX_LITERAL_DIGITS:
        raise LiteralTooLong(digits)
    if decimal:
        whole, _, frac = decimal.partition(".")
        value = Fraction(int(whole + frac), 10 ** len(frac))
    elif int(denominator):
        value = Fraction(int(numerator), int(denominator))
    else:
        return None
    return value / 100 if m["percent"] else value


def parse_rational(text: str) -> Fraction | None:
    """Exact value of one numeric literal: int, decimal, a/b fraction, p%.

    Returns None when the text is not a single literal or has a zero
    denominator, and raises ``LiteralTooLong`` past ``MAX_LITERAL_DIGITS``.
    """
    m = _LITERAL_RE.fullmatch(text.strip())
    return _literal_value(m) if m else None


def format_rational(v: Fraction) -> str:
    """Render a rational the way problem text writes numbers.

    Integers print bare, terminating decimals (up to 12 places) print as
    decimals, anything else as ``a/b``. The execution-time pi value prints
    as ``pi`` so rendered equations stay parseable.
    """
    if v == PI_VALUE:
        return "pi"
    sign = "-" if v < 0 else ""
    v = abs(v)
    if v.denominator == 1:
        return sign + str(v.numerator)
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    places = max(twos, fives)
    if den == 1 and places <= 12:
        scaled = v.numerator * 10 ** places // v.denominator
        digits = str(scaled).rjust(places + 1, "0")
        whole, frac = digits[:-places], digits[-places:].rstrip("0")
        return f"{sign}{whole}.{frac}" if frac else sign + whole
    return sign + f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# infix parser


class _Token(NamedTuple):
    kind: str  # num | x | op | lparen | rparen | eq
    pos: int
    value: Fraction | str | None = None


# kind and value of every token that is not a number literal
_SYMBOLS = {"x": ("x", None), "X": ("x", None),
            "pi": ("num", PI_LITERAL), "PI": ("num", PI_LITERAL), "π": ("num", PI_LITERAL),
            "+": ("op", "+"), "-": ("op", "-"), "*": ("op", "*"), "/": ("op", "/"),
            "×": ("op", "*"), "÷": ("op", "/"),
            "(": ("lparen", None), ")": ("rparen", None), "=": ("eq", None)}
# a number literal or one symbol; whitespace is what no token matches. \d is
# what isdecimal() accepts, so "²" is an unexpected character, not a digit
_TOKEN_RE = re.compile(rf"{_LITERAL}|pi|PI|\S")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m["numerator"] or m["decimal"]:
            kind, value = "num", _literal_value(m)
            if value is None:
                raise EquationSyntaxError("fraction with zero denominator", pos)
        elif m[0] in _SYMBOLS:
            kind, value = _SYMBOLS[m[0]]
        else:
            raise EquationSyntaxError(f"unexpected character {m[0]!r}", pos)
        tokens.append(_Token(kind, pos, value))
    return tokens


# how tightly each operator binds, for the parser and the renderer, which
# gives an atom 3; both levels associate to the left
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    def __init__(self, tokens: list[_Token], text_len: int):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len

    def _fail_pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i].pos
        if self.tokens:
            return self.tokens[-1].pos
        return self.text_len

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise EquationSyntaxError("unexpected end of equation", self._fail_pos())
        self.i += 1
        return tok

    def expr(self, depth: int, level: int = 1) -> Expr:
        """Factors joined by the operators that bind at ``level`` or tighter."""
        node = self.factor(depth)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or _PRECEDENCE[tok.value] < level:
                return node
            self.next()
            rhs = self.expr(depth, _PRECEDENCE[tok.value] + 1)
            try:
                node = BinOp(tok.value, node, rhs)
            except ValueError:
                raise EquationSyntaxError("division by zero constant", tok.pos) from None

    def factor(self, depth: int) -> Expr:
        if depth > MAX_TREE_DEPTH:
            raise EquationSyntaxError("expression nested too deeply", self._fail_pos())
        tok = self.next()
        if tok.kind == "num":
            return Const(tok.value)
        if tok.kind == "x":
            return UNKNOWN
        if tok.kind == "lparen":
            inner = self.expr(depth + 1)
            closer = self.peek()
            if closer is None or closer.kind != "rparen":
                raise EquationSyntaxError("unbalanced parenthesis", tok.pos)
            self.next()
            return inner
        raise EquationSyntaxError("expected a number, x, or '('", tok.pos)


def parse_equation(text: str) -> tuple[Expr, Expr]:
    """Parse ``lhs=rhs`` into a pair of expression trees."""
    tokens = _lex(text)
    if len(tokens) >= MAX_ACTIONS:
        raise EquationSyntaxError(f"equation of more than {MAX_ACTIONS - 1} tokens",
                                  tokens[MAX_ACTIONS - 1].pos)
    split = [k for k, t in enumerate(tokens) if t.kind == "eq"]
    if len(split) != 1:
        pos = tokens[split[1]].pos if len(split) > 1 else (tokens[-1].pos if tokens else 0)
        raise EquationSyntaxError("equation must contain exactly one '='", pos)
    left_parser = _Parser(tokens[:split[0]], len(text))
    lhs = left_parser.expr(1)
    if left_parser.peek() is not None:
        raise EquationSyntaxError("trailing input before '='", left_parser.peek().pos)
    right_parser = _Parser(tokens[split[0] + 1:], len(text))
    rhs = right_parser.expr(1)
    if right_parser.peek() is not None:
        raise EquationSyntaxError("trailing input after equation", right_parser.peek().pos)
    return lhs, rhs


# ---------------------------------------------------------------------------
# linearization


def linearize(lhs: Expr, rhs: Expr, constants: Sequence[Fraction]) -> list[StackAction]:
    """The target of ``lhs=rhs`` over the problem's constants: genvar, the
    left-to-right postfix of both sides as pushes and applies, then equal.

    A literal binds to the first text constant with the exact same value;
    unmatched 1 falls back to the external one, unmatched 3.14/pi to the
    external pi. Anything else is unalignable and rejects the sample.
    """
    actions = [GEN_VAR]

    def emit(e: Expr) -> None:
        if isinstance(e, BinOp):
            emit(e.left)
            emit(e.right)
            actions.append(apply(e.op))
        elif isinstance(e, Unknown):
            actions.append(StackAction(PUSH, "x"))
        elif e.value in constants:
            actions.append(StackAction(PUSH, f"c{constants.index(e.value)}"))
        elif e.value == ONE_VALUE:
            actions.append(StackAction(PUSH, "1"))
        elif e.value == PI_LITERAL:
            actions.append(StackAction(PUSH, "pi"))
        else:
            raise UnalignableLiteral(e.value)

    emit(lhs)
    emit(rhs)
    actions.append(APPLY_EQUAL)
    return actions


# ---------------------------------------------------------------------------
# the stack virtual machine


def resolve_operand(ref: str, constants: Sequence[Fraction]) -> Expr:
    index = operand_index(ref, len(constants))
    return UNKNOWN if ref == "x" else Const((*constants, ONE_VALUE, PI_VALUE)[index])


def symbolic_step(stack: list[Expr], equations: list[tuple[Expr, Expr]],
                  action: StackAction, constants: Sequence[Fraction]) -> None:
    """Apply one action to a symbolic stack in place.

    This is the one symbolic transition: greedy decoding steps it beside
    the decoder's semantic stack, and a decode replays through it.
    """
    kind = action.kind
    if len(stack) < ACTION_POPS[kind]:
        raise StackUnderflow(f"{ACTIONS[kind]} needs {ACTION_POPS[kind]} stack elements, "
                             f"have {len(stack)}")
    if kind == GENVAR:
        return
    if kind == PUSH:
        stack.append(resolve_operand(action.ref, constants))
        return
    top = stack.pop()
    second = stack.pop()
    if kind == EQUAL:
        equations.append((second, top))
    else:
        stack.append(BinOp(action.op, second, top))


def is_legal(kind: int, depth: int, has_unknown: bool) -> bool:
    """Whether the action at index ``kind`` may run on a stack of ``depth``
    entries: the unknown is generated once, and every other action needs the
    entries that it pops."""
    if kind == GENVAR:
        return not has_unknown
    return depth >= ACTION_POPS[kind]


def check_target(target: Sequence[StackAction], n_constants: int) -> None:
    """Raise ``IllegalAction`` unless ``target`` generates the unknown first,
    every step is legal at its stack depth, and every push names an operand
    of a problem with ``n_constants`` constants (x only once generated)."""
    if not target or target[0].kind != GENVAR:
        raise IllegalAction("the target does not start with genvar")
    depth = 0
    for step, (kind, ref) in enumerate(target[1:], 1):  # x exists from here on
        if not is_legal(kind, depth, True):
            raise IllegalAction("the target generates the unknown twice" if kind == GENVAR
                                else f"the target underflows the stack at step {step}")
        if kind == PUSH and ref not in EXTERNAL_OPERANDS and int(ref[1:]) >= n_constants:
            raise IllegalAction(f"the target pushes {ref} of {n_constants} values")
        depth += ACTION_PUSHES[kind] - ACTION_POPS[kind]


@dataclass
class ExecutionOutcome:
    equations: list[tuple[Expr, Expr]]
    stack: list[Expr]
    stack_history: list[tuple[Expr, ...]]


def execute(actions: Sequence[StackAction], constants: Sequence[Fraction], *,
            max_steps: int = 40) -> ExecutionOutcome:
    """Run an action sequence through the symbolic VM, keeping each step's stack."""
    if len(actions) > max_steps:
        raise ValueError(f"{len(actions)} actions exceed the {max_steps}-step budget")
    stack: list[Expr] = []
    equations: list[tuple[Expr, Expr]] = []
    history: list[tuple[Expr, ...]] = []
    for action in actions:
        symbolic_step(stack, equations, action, constants)
        history.append(tuple(stack))
    return ExecutionOutcome(equations, stack, history)


# ---------------------------------------------------------------------------
# affine solver and answer comparison


def _probe(lhs: Expr, rhs: Expr, xs: Sequence[int]) -> list[Fraction]:
    return [evaluate(lhs, Fraction(x)) - evaluate(rhs, Fraction(x)) for x in xs]


def solve(equations: Sequence[tuple[Expr, Expr]]) -> Fraction:
    """Solve the single unknown of an affine equation system.

    The residual lhs-rhs is probed at three points; collinear residuals give
    the affine root. Division by zero at the base probes retries a shifted
    probe set, which handles removable poles at small integers.
    """
    referencing = [(l, r) for l, r in equations if has_unknown(l) or has_unknown(r)]
    if not referencing:
        raise NoUnknown("no recorded equation references the unknown")
    lhs, rhs = referencing[0]
    if isinstance(lhs, Unknown) and not has_unknown(rhs):
        return evaluate(rhs)
    if isinstance(rhs, Unknown) and not has_unknown(lhs):
        return evaluate(lhs)
    points = None
    for xs in ((0, 1, 2), (3, 4, 5)):
        try:
            points = (xs, _probe(lhs, rhs, xs))
            break
        except DivisionByZero:
            continue
    if points is None:
        raise DivisionByZero("residual undefined at all probe points")
    (x0, x1, x2), (f0, f1, f2) = points
    slope = (f1 - f0) / (x1 - x0)
    predicted = f0 + slope * (x2 - x0)
    gap = abs(predicted - f2)
    if gap > Fraction(1, 10 ** 9) * max(1, abs(predicted), abs(f2)):
        raise NonAffine("equation residual is not affine in the unknown")
    if slope == 0:
        raise NonAffine("unknown cancels out of the equation")
    return Fraction(x0) - f0 / slope


def answers_equal(a, b) -> bool:
    """True when a matches the gold answer b within a relative 1e-4, compared
    exactly, so an answer beyond float range is just wrong."""
    a, b = Fraction(a), Fraction(b)
    return abs(a - b) <= Fraction(1, 10**4) * max(1, abs(b))


# ---------------------------------------------------------------------------
# rendering


def expr_to_infix(e: Expr) -> str:
    """Minimal-parenthesization infix rendering, reparseable by parse_equation."""

    def rec(node: Expr) -> tuple[str, int]:
        if isinstance(node, Const):
            return format_rational(node.value), 3
        if isinstance(node, Unknown):
            return "x", 3
        prec = _PRECEDENCE[node.op]
        left_s, left_p = rec(node.left)
        right_s, right_p = rec(node.right)
        if left_p < prec:
            left_s = f"({left_s})"
        if right_p < prec or (right_p == prec and node.op in "-/"):
            right_s = f"({right_s})"
        return f"{left_s} {node.op} {right_s}", prec

    return rec(e)[0]


def equation_to_infix(lhs: Expr, rhs: Expr) -> str:
    return f"{expr_to_infix(lhs)} = {expr_to_infix(rhs)}"
