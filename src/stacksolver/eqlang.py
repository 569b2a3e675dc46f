"""The symbolic side of the solver: equation ASTs, postfix targets, a stack VM.

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
# operand references and stack actions


@dataclass(frozen=True)
class ConstRef:
    index: int


@dataclass(frozen=True)
class OneRef:
    pass


@dataclass(frozen=True)
class PiRef:
    pass


@dataclass(frozen=True)
class UnknownRef:
    pass


OperandRef = Union[ConstRef, OneRef, PiRef, UnknownRef]

ONE_REF = OneRef()
PI_REF = PiRef()
UNKNOWN_REF = UnknownRef()


@dataclass(frozen=True)
class GenVar:
    pass


@dataclass(frozen=True)
class Push:
    ref: OperandRef


@dataclass(frozen=True)
class Apply:
    op: str

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class ApplyEqual:
    pass


StackAction = Union[GenVar, Push, Apply, ApplyEqual]

GEN_VAR = GenVar()
APPLY_EQUAL = ApplyEqual()


# ---------------------------------------------------------------------------
# the action and operand tables: every index, name and wire string of an
# action or an operand derives from these two

# Stack actions in decoder index order, by wire spelling. Push is the one
# action that takes an operand (its entry is the class), and every action
# after it pops the top two stack entries. A trace names an action by its
# spelling without the colon (``apply+``).
ACTIONS = {"genvar": GEN_VAR, "push": Push,
           **{f"apply:{op}": Apply(op) for op in OPS}, "equal": APPLY_EQUAL}
_WIRE = tuple(ACTIONS)
ACTION_NAMES = tuple(wire.replace(":", "") for wire in _WIRE)
GENVAR, PUSH, EQUAL = (_WIRE.index(wire) for wire in ("genvar", "push", "equal"))
_ACTION_LIST = tuple(ACTIONS.values())
_ACTION_INDEX = {action: i for i, action in enumerate(_ACTION_LIST)}

# A push's operand candidates, in decoder order: the problem's constants
# c0..c{n-1}, then these, by name (x only once it has been generated).
EXTERNAL_OPERANDS = {"1": ONE_REF, "pi": PI_REF, "x": UNKNOWN_REF}
_EXTERNAL = tuple(EXTERNAL_OPERANDS.values())
_EXTERNAL_NAME = {ref: name for name, ref in EXTERNAL_OPERANDS.items()}
_CONST_NAME_RE = re.compile(r"c([0-9]+)")


def action_index(action: StackAction) -> int:
    return PUSH if isinstance(action, Push) else _ACTION_INDEX[action]


def action_at(index: int, ref: OperandRef | None = None) -> StackAction:
    """The action at ``index``; a push takes its operand ``ref``."""
    return Push(ref) if index == PUSH else _ACTION_LIST[index]


def operand_index(ref: OperandRef, n_constants: int) -> int:
    """Candidate index of ``ref`` for a problem with ``n_constants`` constants."""
    if isinstance(ref, ConstRef):
        if not 0 <= ref.index < n_constants:
            raise IndexError(f"constant index {ref.index} out of range")
        return ref.index
    return n_constants + _EXTERNAL.index(ref)


def operand_at(index: int, n_constants: int) -> OperandRef:
    return ConstRef(index) if index < n_constants else _EXTERNAL[index - n_constants]


def operand_name(ref: OperandRef) -> str:
    """``c{i}`` for the i-th constant, else the external operand's name."""
    return f"c{ref.index}" if isinstance(ref, ConstRef) else _EXTERNAL_NAME[ref]


def action_to_wire(action: StackAction) -> str:
    """Prepared-file spelling of an action: ``push:c2``, ``apply:+``, ``equal``."""
    if isinstance(action, Push):
        return f"push:{operand_name(action.ref)}"
    return _WIRE[_ACTION_INDEX[action]]


def action_from_wire(text: str) -> StackAction:
    kind, colon, name = text.partition(":")
    if kind == "push" and colon:
        if name in EXTERNAL_OPERANDS:
            return Push(EXTERNAL_OPERANDS[name])
        const = _CONST_NAME_RE.fullmatch(name)
        if const:
            return Push(ConstRef(int(const.group(1))))
    elif text != "push" and text in ACTIONS:
        return ACTIONS[text]
    raise ValueError(f"bad action encoding {text!r}")


# ---------------------------------------------------------------------------
# number lexing shared with the corpus module


_FRACTION_RE = re.compile(r"(\d+)/(\d+)(?![\d.])")
_DECIMAL_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")


def parse_rational(text: str) -> Fraction | None:
    """Exact value of one numeric literal: int, decimal, a/b fraction, p%.

    Returns None when the text is not a single literal, and raises
    ``LiteralTooLong`` past ``MAX_LITERAL_DIGITS``. A bare ``a/b`` between
    two integers is one rational; ``5.`` tolerates a trailing dot.
    """
    s = text.strip()
    percent = False
    if s.endswith("%"):
        percent = True
        s = s[:-1]
    m = _FRACTION_RE.fullmatch(s)
    if not m and not _DECIMAL_RE.fullmatch(s):
        return None
    digits = len(s) - s.count(".") - s.count("/")
    if digits > MAX_LITERAL_DIGITS:
        raise LiteralTooLong(digits)
    if m:
        den = int(m.group(2))
        if den == 0:
            return None
        value = Fraction(int(m.group(1)), den)
    else:
        whole, _, frac = s.partition(".")
        value = Fraction(int(whole + frac), 10 ** len(frac))
    return value / 100 if percent else value


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
_TOKEN_RE = re.compile(rf"(?P<num>(?:{_FRACTION_RE.pattern}|{_DECIMAL_RE.pattern})%?)"
                       r"|pi|PI|\S")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        pos, num = m.start(), m["num"]
        if num is not None:
            kind, value = "num", parse_rational(num)
            if value is None:
                raise EquationSyntaxError("fraction with zero denominator", pos)
        elif m[0] in _SYMBOLS:
            kind, value = _SYMBOLS[m[0]]
        else:
            raise EquationSyntaxError(f"unexpected character {m[0]!r}", pos)
        tokens.append(_Token(kind, pos, value))
    return tokens


# how tightly each operator binds; both levels associate to the left
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}


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

    def expr(self, depth: int, level: int = 0) -> Expr:
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
# postfix linearization

PostfixToken = Union[Fraction, str]  # Fraction literal, "x", an operator, or "="


def to_postfix(lhs: Expr, rhs: Expr) -> list[PostfixToken]:
    """Left-to-right postfix of both sides, terminated by '='."""
    out: list[PostfixToken] = []

    def emit(e: Expr) -> None:
        if isinstance(e, Const):
            out.append(e.value)
        elif isinstance(e, Unknown):
            out.append("x")
        else:
            emit(e.left)
            emit(e.right)
            out.append(e.op)

    emit(lhs)
    emit(rhs)
    out.append("=")
    return out


def linearize(postfix: Sequence[PostfixToken],
              constants: Sequence[Fraction]) -> list[StackAction]:
    """Map postfix tokens onto stack actions over the problem's constants.

    A literal binds to the first text constant with the exact same value;
    unmatched 1 falls back to the external one, unmatched 3.14/pi to the
    external pi. Anything else is unalignable and rejects the sample.
    """
    actions: list[StackAction] = [GEN_VAR]
    for tok in postfix:
        if isinstance(tok, Fraction):
            for i, c in enumerate(constants):
                if c == tok:
                    actions.append(Push(ConstRef(i)))
                    break
            else:
                if tok == ONE_VALUE:
                    actions.append(Push(ONE_REF))
                elif tok == PI_LITERAL:
                    actions.append(Push(PI_REF))
                else:
                    raise UnalignableLiteral(tok)
        elif tok == "x":
            actions.append(Push(UNKNOWN_REF))
        elif tok == "=":
            actions.append(APPLY_EQUAL)
        else:
            actions.append(Apply(tok))
    return actions


# ---------------------------------------------------------------------------
# the stack virtual machine


def resolve_operand(ref: OperandRef, constants: Sequence[Fraction]) -> Expr:
    index = operand_index(ref, len(constants))
    return UNKNOWN if ref == UNKNOWN_REF else Const((*constants, ONE_VALUE, PI_VALUE)[index])


def symbolic_step(stack: list[Expr], equations: list[tuple[Expr, Expr]],
                  action: StackAction, constants: Sequence[Fraction]) -> None:
    """Apply one action to a symbolic stack in place.

    This is the one symbolic transition: greedy decoding steps it beside
    the decoder's semantic stack, and a decode replays through it.
    """
    if isinstance(action, GenVar):
        return
    if isinstance(action, Push):
        stack.append(resolve_operand(action.ref, constants))
        return
    if len(stack) < 2:
        raise StackUnderflow(f"{action} needs two stack elements, have {len(stack)}")
    top = stack.pop()
    second = stack.pop()
    if isinstance(action, Apply):
        stack.append(BinOp(action.op, second, top))
    else:
        equations.append((second, top))


def is_legal(kind: int, depth: int, has_unknown: bool) -> bool:
    """Whether the action at index ``kind`` may run on a stack of ``depth``
    entries: the unknown is generated once, push is always legal, and every
    action after push pops two entries."""
    if kind == GENVAR:
        return not has_unknown
    return kind == PUSH or depth >= 2


def check_target(target: Sequence[StackAction], n_constants: int) -> None:
    """Raise ``IllegalAction`` unless ``target`` generates the unknown first,
    every step is legal at its stack depth, and every push names an operand
    of a problem with ``n_constants`` constants (x only once generated)."""
    if not target or not isinstance(target[0], GenVar):
        raise IllegalAction("the target does not start with genvar")
    depth = 0
    for step, action in enumerate(target[1:], 1):  # x exists from here on
        kind = action_index(action)
        if not is_legal(kind, depth, True):
            raise IllegalAction("the target generates the unknown twice" if kind == GENVAR
                                else f"the target underflows the stack at step {step}")
        if kind == PUSH and isinstance(action.ref, ConstRef) \
                and not 0 <= action.ref.index < n_constants:
            raise IllegalAction(f"the target pushes {operand_name(action.ref)} "
                                f"of {n_constants} values")
        depth += 1 if kind == PUSH else -2 if kind == EQUAL else -1


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

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


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
