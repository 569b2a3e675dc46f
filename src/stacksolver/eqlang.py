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
from typing import Sequence, Union

OPS = ("+", "-", "*", "/")

# numeric stand-ins for the two external operands
ONE_VALUE = Fraction(1)
PI_VALUE = Fraction(3.141592653589793)
# the portable equation-side spelling of pi; maps to the external operand
PI_LITERAL = Fraction("3.14")

MAX_TREE_DEPTH = 64


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


class StackUnderflow(EqLangError):
    pass


class NonAffine(EqLangError):
    pass


class NoUnknown(EqLangError):
    pass


class DivisionByZero(EqLangError):
    pass


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
            raise ValueError("division by a structurally zero constant")


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


def operand_name(ref: OperandRef) -> str:
    """Short name of an operand: ``c{i}`` for the i-th constant, ``1``, ``pi``, ``x``."""
    if isinstance(ref, ConstRef):
        return f"c{ref.index}"
    if isinstance(ref, OneRef):
        return "1"
    if isinstance(ref, PiRef):
        return "pi"
    return "x"


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
# number lexing shared with the corpus module


_FRACTION_RE = re.compile(r"(\d+)/(\d+)(?![\d.])")
_DECIMAL_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")


def parse_rational(text: str) -> Fraction | None:
    """Exact value of one numeric literal: int, decimal, a/b fraction, p%.

    Returns None when the text is not a single literal. A bare ``a/b``
    between two integers is one rational; ``5.`` tolerates a trailing dot.
    """
    s = text.strip()
    percent = False
    if s.endswith("%"):
        percent = True
        s = s[:-1]
    m = _FRACTION_RE.fullmatch(s)
    if m:
        den = int(m.group(2))
        if den == 0:
            return None
        value = Fraction(int(m.group(1)), den)
    else:
        if not _DECIMAL_RE.fullmatch(s):
            return None
        if s.endswith("."):
            s = s[:-1]
        if not s:
            return None
        value = Fraction(s)
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


@dataclass(frozen=True)
class _Token:
    kind: str  # num | x | pi | op | lparen | rparen | eq
    pos: int
    value: Fraction | str | None = None


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _FRACTION_RE.match(text, i)
            if m:
                if int(m.group(2)) == 0:
                    raise EquationSyntaxError("fraction with zero denominator", i)
                value = Fraction(int(m.group(1)), int(m.group(2)))
            else:
                m = _DECIMAL_RE.match(text, i)
                lit = m.group(0).rstrip(".") or "0"
                value = Fraction(lit)
            j = m.end()
            if j < n and text[j] == "%":
                value /= 100
                j += 1
            tokens.append(_Token("num", i, value))
            i = j
            continue
        if ch in "xX":
            tokens.append(_Token("x", i))
            i += 1
            continue
        if ch == "π" or text[i:i + 2] in ("pi", "PI"):
            tokens.append(_Token("num", i, PI_LITERAL))
            i += 1 if ch == "π" else 2
            continue
        if ch in "+-*/":
            tokens.append(_Token("op", i, ch))
            i += 1
            continue
        if ch == "×":
            tokens.append(_Token("op", i, "*"))
            i += 1
            continue
        if ch == "÷":
            tokens.append(_Token("op", i, "/"))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", i))
            i += 1
            continue
        if ch == "=":
            tokens.append(_Token("eq", i))
            i += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


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

    def expr(self, depth: int) -> Expr:
        node = self.term(depth)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.value not in "+-":
                return node
            self.next()
            rhs = self.term(depth)
            node = BinOp(str(tok.value), node, rhs)

    def term(self, depth: int) -> Expr:
        node = self.factor(depth)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.value not in "*/":
                return node
            self.next()
            rhs = self.factor(depth)
            try:
                node = BinOp(str(tok.value), node, rhs)
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


def resolve_operand(ref: OperandRef, constants: Sequence[Fraction],
                    one: Fraction = ONE_VALUE, pi: Fraction = PI_VALUE) -> Expr:
    if isinstance(ref, ConstRef):
        if ref.index >= len(constants):
            raise IndexError(f"constant index {ref.index} out of range")
        return Const(constants[ref.index])
    if isinstance(ref, OneRef):
        return Const(one)
    if isinstance(ref, PiRef):
        return Const(pi)
    return UNKNOWN


def symbolic_step(stack: list[Expr], equations: list[tuple[Expr, Expr]],
                  action: StackAction, constants: Sequence[Fraction],
                  one: Fraction = ONE_VALUE, pi: Fraction = PI_VALUE) -> None:
    """Apply one action to a symbolic stack in place.

    This is the single source of truth for the symbolic transition; the
    neural decoder mirrors its semantic stack through the same function.
    """
    if isinstance(action, GenVar):
        return
    if isinstance(action, Push):
        stack.append(resolve_operand(action.ref, constants, one, pi))
        return
    if len(stack) < 2:
        raise StackUnderflow(f"{action} needs two stack elements, have {len(stack)}")
    top = stack.pop()
    second = stack.pop()
    if isinstance(action, Apply):
        stack.append(BinOp(action.op, second, top))
    else:
        equations.append((second, top))


@dataclass
class ExecutionOutcome:
    equations: list[tuple[Expr, Expr]]
    stack: list[Expr]
    stack_history: list[tuple[Expr, ...]]


def execute(actions: Sequence[StackAction], constants: Sequence[Fraction], *,
            one: Fraction = ONE_VALUE, pi: Fraction = PI_VALUE,
            max_steps: int = 40) -> ExecutionOutcome:
    """Run an action sequence through the symbolic VM, keeping each step's stack."""
    if len(actions) > max_steps:
        raise ValueError(f"{len(actions)} actions exceed the {max_steps}-step budget")
    stack: list[Expr] = []
    equations: list[tuple[Expr, Expr]] = []
    history: list[tuple[Expr, ...]] = []
    for action in actions:
        symbolic_step(stack, equations, action, constants, one, pi)
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


def answers_equal(a, b, rel_tol: float = 1e-4) -> bool:
    """True when a matches the gold answer b within relative tolerance."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    a = float(a)
    b = float(b)
    return abs(a - b) <= rel_tol * max(1.0, abs(b))


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
