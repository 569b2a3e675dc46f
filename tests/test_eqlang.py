"""Symbolic world: parsing, postfix, linearization, the stack VM, the solver."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stacksolver import eqlang
from stacksolver.decoder import legal_action_mask
from stacksolver.eqlang import (
    APPLY_EQUAL,
    Apply,
    BinOp,
    Const,
    ConstRef,
    GEN_VAR,
    ONE_REF,
    PI_REF,
    Push,
    UNKNOWN,
    UNKNOWN_REF,
)

F = Fraction


def C(x) -> Const:
    return Const(F(x))


# ---------------------------------------------------------------------------
# parsing


def test_parse_fig1_structure():
    lhs, rhs = eqlang.parse_equation("x=(10-1*5)/0.5")
    assert lhs == UNKNOWN
    assert rhs == BinOp("/", BinOp("-", C(10), BinOp("*", C(1), C(5))), C("0.5"))


def test_parse_single_constant():
    assert eqlang.parse_equation("x=10") == (UNKNOWN, C(10))


def test_parse_unbalanced_paren_position():
    with pytest.raises(eqlang.EquationSyntaxError) as exc:
        eqlang.parse_equation("x=((")
    assert exc.value.position == 3


def test_parse_unicode_operators():
    lhs, rhs = eqlang.parse_equation("x=(10-1×5)÷0.5")
    assert rhs == BinOp("/", BinOp("-", C(10), BinOp("*", C(1), C(5))), C("0.5"))


def test_parse_percent_literal():
    _, rhs = eqlang.parse_equation("x=15%")
    assert rhs == C(F(3, 20))


def test_parse_bare_fraction_is_one_rational():
    _, rhs = eqlang.parse_equation("x=1/6+2")
    assert rhs == BinOp("+", C(F(1, 6)), C(2))


def test_parse_fraction_needs_bare_integers():
    # decimal denominator: this is division, not a fraction literal
    _, rhs = eqlang.parse_equation("x=1/0.5")
    assert rhs == BinOp("/", C(1), C("0.5"))
    # spaced: also division
    _, rhs = eqlang.parse_equation("x=10 / 2")
    assert rhs == BinOp("/", C(10), C(2))


def test_parse_pi_spellings():
    for text in ("x=pi*2", "x=π*2"):
        _, rhs = eqlang.parse_equation(text)
        assert rhs == BinOp("*", C(eqlang.PI_LITERAL), C(2))


def test_parse_zero_denominator_rejected():
    with pytest.raises(eqlang.EquationSyntaxError):
        eqlang.parse_equation("x=5/0")


def test_structural_zero_divisor_rejected():
    with pytest.raises(ValueError):
        BinOp("/", C(1), C(0))
    # a non-structural zero parses fine and only fails at evaluation
    _, rhs = eqlang.parse_equation("x=5/(3-3)")
    with pytest.raises(eqlang.DivisionByZero):
        eqlang.evaluate(rhs)


def test_parse_requires_single_equals():
    with pytest.raises(eqlang.EquationSyntaxError):
        eqlang.parse_equation("x+1")
    with pytest.raises(eqlang.EquationSyntaxError):
        eqlang.parse_equation("x=1=2")


def test_parse_x_on_both_sides_is_fine():
    lhs, rhs = eqlang.parse_equation("x*x=4")
    assert eqlang.has_unknown(lhs) and not eqlang.has_unknown(rhs)


@pytest.mark.parametrize("text, expected", [
    ("x = 5 ", C(5)),
    ("x=٣+３", BinOp("+", C(3), C(3))),  # any decimal digit, not only ASCII
    ("x=5.+.5", BinOp("+", C(5), C("0.5"))),
    ("x=1/6%", C(F(1, 600))),
    ("x=Pi", ("unexpected character 'P'", 2)),
    ("x=2²", ("unexpected character '²'", 3)),
    ("x=3a", ("unexpected character 'a'", 3)),
    ("x=1/0", ("fraction with zero denominator", 2)),
])
def test_lexer_edge_cases(text, expected):
    if isinstance(expected, tuple):
        message, position = expected
        with pytest.raises(eqlang.EquationSyntaxError) as exc:
            eqlang.parse_equation(text)
        assert str(exc.value) == f"{message} (offset {position})"
        assert exc.value.position == position
    else:
        assert eqlang.parse_equation(text) == (UNKNOWN, expected)


def test_parse_depth_limit():
    deep = "x=" + "(" * 70 + "1" + ")" * 70
    with pytest.raises(eqlang.EquationSyntaxError):
        eqlang.parse_equation(deep)


# ---------------------------------------------------------------------------
# postfix: shunting-yard oracle


def shunting_yard(text: str):
    """Independent postfix oracle over the lexed token stream."""
    tokens = eqlang._lex(text)
    prec = {"+": 1, "-": 1, "*": 2, "/": 2}
    out, ops = [], []
    for tok in tokens:
        if tok.kind == "num":
            out.append(tok.value)
        elif tok.kind == "x":
            out.append("x")
        elif tok.kind == "op":
            while ops and ops[-1] in prec and prec[ops[-1]] >= prec[tok.value]:
                out.append(ops.pop())
            ops.append(tok.value)
        elif tok.kind == "lparen":
            ops.append("(")
        elif tok.kind == "rparen":
            while ops[-1] != "(":
                out.append(ops.pop())
            ops.pop()
        elif tok.kind == "eq":
            while ops:
                out.append(ops.pop())
    while ops:
        out.append(ops.pop())
    out.append("=")
    return out


@pytest.mark.parametrize("text", [
    "x=(10-1*5)/0.5",
    "x=5+7",
    "x=10",
    "x=1+2*3-4/5",
    "x=(1+2)*(3-4)",
    "x=((2+3)*4-5)/(6+7)",
])
def test_postfix_matches_shunting_yard(text):
    lhs, rhs = eqlang.parse_equation(text)
    assert eqlang.to_postfix(lhs, rhs) == shunting_yard(text)


def test_postfix_fig1_tokens():
    lhs, rhs = eqlang.parse_equation("x=(10-1*5)/0.5")
    assert eqlang.to_postfix(lhs, rhs) == [
        "x", F(10), F(1), F(5), "*", "-", F(1, 2), "/", "="]


def test_postfix_trivial_cases():
    lhs, rhs = eqlang.parse_equation("x=5+7")
    assert eqlang.to_postfix(lhs, rhs) == ["x", F(5), F(7), "+", "="]
    lhs, rhs = eqlang.parse_equation("x=10")
    assert eqlang.to_postfix(lhs, rhs) == ["x", F(10), "="]


# ---------------------------------------------------------------------------
# random expression machinery shared with the acceptance suite


POOL = [F(2), F(3), F(5), F(7), F(10), F(1, 2), F(1, 3), F(3, 2), F(1)]


def random_expr(rng, depth, pool=POOL):
    """Random tree whose division right sides never evaluate to zero."""
    if depth <= 0 or rng.random() < 0.3:
        return Const(pool[int(rng.integers(len(pool)))])
    op = "+-*/"[int(rng.integers(4))]
    left = random_expr(rng, depth - 1, pool)
    for _ in range(50):
        right = random_expr(rng, depth - 1, pool)
        if op != "/" or eqlang.evaluate(right) != 0:
            return BinOp(op, left, right)
    return BinOp("+", left, Const(pool[0]))


def roundtrip_once(rng, depth=6, pool=POOL):
    """parse -> postfix -> linearize -> execute == direct evaluation, exactly."""
    rhs = random_expr(rng, depth, pool)
    text = "x = " + eqlang.expr_to_infix(rhs)
    lhs2, rhs2 = eqlang.parse_equation(text)
    postfix = eqlang.to_postfix(lhs2, rhs2)
    actions = eqlang.linearize(postfix, pool)
    outcome = eqlang.execute(actions, pool, max_steps=max(40, len(actions)))
    assert len(outcome.equations) == 1
    got_lhs, got_rhs = outcome.equations[0]
    assert got_lhs == UNKNOWN
    assert eqlang.evaluate(got_rhs) == eqlang.evaluate(rhs)


def test_roundtrip_sample():
    rng = np.random.default_rng(7)
    for _ in range(100):
        roundtrip_once(rng)


def test_renderer_reparses_to_same_value():
    # minimal parenthesization may reassociate +/* chains; values are exact
    rng = np.random.default_rng(8)
    for _ in range(200):
        rhs = random_expr(rng, 5)
        lhs2, rhs2 = eqlang.parse_equation("x = " + eqlang.expr_to_infix(rhs))
        assert lhs2 == UNKNOWN
        assert eqlang.evaluate(rhs2) == eqlang.evaluate(rhs)


def test_renderer_minimal_parens():
    assert eqlang.expr_to_infix(BinOp("-", C(10), BinOp("*", C(1), C(5)))) == "10 - 1 * 5"
    assert eqlang.expr_to_infix(
        BinOp("/", BinOp("-", C(10), C(5)), C("0.5"))) == "(10 - 5) / 0.5"
    assert eqlang.expr_to_infix(
        BinOp("-", C(10), BinOp("-", C(5), C(2)))) == "10 - (5 - 2)"


# ---------------------------------------------------------------------------
# linearize


def test_linearize_fig1_mapping():
    postfix = ["x", F(10), F(1), F(5), "*", "-", F(1, 2), "/", "="]
    constants = [F(1, 2), F(1), F(10), F(5)]
    assert eqlang.linearize(postfix, constants) == [
        GEN_VAR, Push(UNKNOWN_REF), Push(ConstRef(2)), Push(ConstRef(1)),
        Push(ConstRef(3)), Apply("*"), Apply("-"), Push(ConstRef(0)),
        Apply("/"), APPLY_EQUAL]


def test_linearize_external_one_fallback():
    actions = eqlang.linearize(["x", F(1), F(7), "+", "="], [F(7)])
    assert actions[1] == Push(UNKNOWN_REF)
    assert actions[2] == Push(ONE_REF)


def test_linearize_pi_fallback():
    actions = eqlang.linearize(["x", eqlang.PI_LITERAL, "="], [F(2)])
    assert actions[1:] == [Push(UNKNOWN_REF), Push(eqlang.PI_REF), APPLY_EQUAL]


def test_linearize_unalignable():
    with pytest.raises(eqlang.UnalignableLiteral) as exc:
        eqlang.linearize(["x", F("7.3"), "="], [F(2)])
    assert exc.value.value == F("7.3")


def test_linearize_first_occurrence_wins():
    actions = eqlang.linearize(["x", F(5), "="], [F(5), F(5)])
    assert actions[2] == Push(ConstRef(0))


# ---------------------------------------------------------------------------
# execution


def test_execute_fig1_records_equation():
    constants = [F(1, 2), F(1), F(10), F(5)]
    postfix = ["x", F(10), F(1), F(5), "*", "-", F(1, 2), "/", "="]
    outcome = eqlang.execute(eqlang.linearize(postfix, constants), constants)
    assert len(outcome.equations) == 1
    assert eqlang.solve(outcome.equations) == 10


def test_execute_minimal_equation():
    actions = [GEN_VAR, Push(UNKNOWN_REF), Push(ConstRef(0)), APPLY_EQUAL]
    outcome = eqlang.execute(actions, [F(4)])
    assert outcome.equations == [(UNKNOWN, C(4))]
    assert eqlang.solve(outcome.equations) == 4


def test_execute_underflow():
    with pytest.raises(eqlang.StackUnderflow):
        eqlang.execute([Apply("+")], [])
    with pytest.raises(eqlang.StackUnderflow):
        eqlang.execute([GEN_VAR, Push(UNKNOWN_REF), APPLY_EQUAL], [])


def test_execute_budget():
    actions = [GEN_VAR] + [Push(ConstRef(0))] * 5
    with pytest.raises(ValueError):
        eqlang.execute(actions, [F(1)], max_steps=3)


def test_depth_law_random_sequences():
    # depth after step t == pushes - applies - 2*equals, and never underflows
    rng = np.random.default_rng(3)
    for _ in range(200):
        actions = [GEN_VAR]
        depth = 0
        counts = {"push": 0, "apply": 0, "equal": 0}
        for _ in range(int(rng.integers(1, 25))):
            choices = ["push"] if depth < 2 else ["push", "apply", "equal"]
            kind = choices[int(rng.integers(len(choices)))]
            if kind == "push":
                actions.append(Push(ConstRef(0)))
                depth += 1
            elif kind == "apply":
                actions.append(Apply("+"))
                depth -= 1
            else:
                actions.append(APPLY_EQUAL)
                depth -= 2
            counts[kind] += 1
        outcome = eqlang.execute(actions, [F(3)], max_steps=len(actions))
        depths = [len(stack) for stack in outcome.stack_history]
        assert depths[-1] == counts["push"] - counts["apply"] - 2 * counts["equal"]
        assert min(depths) >= 0
        assert len(outcome.equations) == counts["equal"]


def obeys_the_rules(target, n_constants) -> bool:
    """The stack rules spelled out one by one: genvar first, every step
    allowed by the decoder's mask at the running depth and unknown flag, and
    every push naming an available operand (x only once generated)."""
    if not target or target[0] != GEN_VAR:
        return False
    depth, has_unknown = 0, False
    for action in target:
        kind = eqlang.action_index(action)
        if not legal_action_mask(depth, has_unknown)[kind]:
            return False
        if kind == eqlang.GENVAR:
            has_unknown = True
        elif kind == eqlang.PUSH:
            ref = action.ref
            if isinstance(ref, ConstRef) and ref.index >= n_constants:
                return False
            if ref == UNKNOWN_REF and not has_unknown:
                return False
            depth += 1
        else:
            depth -= 2 if kind == eqlang.EQUAL else 1
    return True


PUSHES = st.sampled_from(
    [Push(ref) for ref in (ONE_REF, PI_REF, UNKNOWN_REF, *map(ConstRef, range(4)))])
# every action, two thirds of them pushes, so that many sequences are legal
ANY_ACTION = st.one_of(PUSHES, PUSHES,
                       st.sampled_from([GEN_VAR, APPLY_EQUAL, *map(Apply, eqlang.OPS)]))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([[], [GEN_VAR]]), st.lists(ANY_ACTION, max_size=10),
       st.integers(0, 4))
def test_check_target_accepts_exactly_the_sequences_that_obey_the_rules(
        prefix, body, n_constants):
    target = prefix + body
    try:
        eqlang.check_target(target, n_constants)
    except eqlang.IllegalAction:
        accepted = False
    else:
        accepted = True
    assert accepted == obeys_the_rules(target, n_constants)
    if accepted:  # never underflows the VM
        constants = [F(k + 2) for k in range(n_constants)]
        eqlang.execute(target, constants, max_steps=len(target))


def test_illegal_prefix_underflows():
    # legality: a sequence executes iff depth >= 2 right before each apply/equal
    actions = [GEN_VAR, Push(ConstRef(0)), Apply("*")]
    with pytest.raises(eqlang.StackUnderflow):
        eqlang.execute(actions, [F(3)])


# ---------------------------------------------------------------------------
# solver


def test_solve_direct_rhs():
    lhs, rhs = eqlang.parse_equation("x=(10-1*5)/0.5")
    assert eqlang.solve([(lhs, rhs)]) == 10


def test_solve_affine_root():
    assert eqlang.solve([eqlang.parse_equation("x-3=7")]) == 10


def test_solve_nonaffine():
    with pytest.raises(eqlang.NonAffine):
        eqlang.solve([eqlang.parse_equation("x*x=4")])


def test_solve_no_unknown():
    with pytest.raises(eqlang.NoUnknown):
        eqlang.solve([eqlang.parse_equation("5=5")])


def test_solve_unknown_cancels():
    with pytest.raises(eqlang.NonAffine):
        eqlang.solve([eqlang.parse_equation("x-x=7")])


def test_solve_retries_shifted_probes():
    # removable pole at x=1 defeats the base probes but not the retry
    assert eqlang.solve([eqlang.parse_equation("x*(x-1)/(x-1)=7")]) == 7


def test_solve_agrees_with_evaluate():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rhs = random_expr(rng, 4)
        assert eqlang.solve([(UNKNOWN, rhs)]) == eqlang.evaluate(rhs)


def test_answers_equal():
    assert eqlang.answers_equal(10.0, 10.0)
    assert eqlang.answers_equal(33.3333, F(100, 3))
    assert not eqlang.answers_equal(12, 13)
    assert eqlang.answers_equal(F(1, 3), 0.33335)
    assert not eqlang.answers_equal(F(1, 3), 0.3335)
    # beyond float range on either side: compared exactly, not overflowed
    assert not eqlang.answers_equal(F(10**400), 1)
    assert eqlang.answers_equal(F(10**400) + 1, F(10**400))


# ---------------------------------------------------------------------------
# number formatting


@pytest.mark.parametrize("value,expected", [
    (F(5), "5"),
    (F(1, 2), "0.5"),
    (F(3, 20), "0.15"),
    (F(100, 3), "100/3"),
    (F(-7, 2), "-3.5"),
    (eqlang.PI_VALUE, "pi"),
])
def test_format_rational(value, expected):
    assert eqlang.format_rational(value) == expected


@pytest.mark.parametrize("text,expected", [
    ("58", F(58)),
    ("0.5", F(1, 2)),
    ("1/6", F(1, 6)),
    ("15%", F(3, 20)),
    ("5.", F(5)),
    (".25", F(1, 4)),
    ("1.5%", F(3, 200)),
])
def test_parse_rational(text, expected):
    assert eqlang.parse_rational(text) == expected


def test_action_and_operand_tables():
    # trace names and wire strings are file formats: they must not move
    assert eqlang.ACTION_NAMES == ("genvar", "push", "apply+", "apply-", "apply*",
                                   "apply/", "equal")
    for i in range(len(eqlang.ACTIONS)):
        action = eqlang.action_at(i, ONE_REF)
        assert eqlang.action_index(action) == i
        assert eqlang.action_from_wire(eqlang.action_to_wire(action)) == action
    refs = [ConstRef(0), ConstRef(1), ONE_REF, eqlang.PI_REF, UNKNOWN_REF]
    assert [eqlang.operand_index(ref, 2) for ref in refs] == [0, 1, 2, 3, 4]
    assert [eqlang.operand_at(i, 2) for i in range(5)] == refs
    assert [eqlang.operand_name(ref) for ref in refs] == ["c0", "c1", "1", "pi", "x"]
    with pytest.raises(IndexError):
        eqlang.operand_index(ConstRef(2), 2)
    for bad in ("push", "push:", "push:c-1", "push:y", "apply:^", "genvar:x"):
        with pytest.raises(ValueError):
            eqlang.action_from_wire(bad)


def test_parse_rational_caps_digits():
    limit = eqlang.MAX_LITERAL_DIGITS
    assert eqlang.parse_rational("9" * limit) == int("9" * limit)
    for text in ("9" * (limit + 1), "1/" + "3" * limit, "0." + "5" * limit + "%"):
        with pytest.raises(eqlang.LiteralTooLong):
            eqlang.parse_rational(text)
    with pytest.raises(eqlang.LiteralTooLong):
        eqlang.parse_equation("x=" + "9" * (limit + 1))


def test_parse_rational_rejects_junk():
    assert eqlang.parse_rational("abc") is None
    assert eqlang.parse_rational("1/0") is None
    assert eqlang.parse_rational("") is None
