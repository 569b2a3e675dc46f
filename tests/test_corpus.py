"""Dataset loading, tokenization, constants, preparation, folds, synthesis."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stacksolver import corpus, eqlang
from stacksolver.decoder import DecoderConfig
from stacksolver.eqlang import push

F = Fraction


# ---------------------------------------------------------------------------
# loading


def test_load_jsonl(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({
        "id": "1", "segmented_text": "tom has 10 pens",
        "equation": "x=(10-1*5)/0.5", "ans": "10"}) + "\n", encoding="utf-8")
    problems = corpus.load_dataset(path)
    assert len(problems) == 1
    assert problems[0].equation == "x=(10-1*5)/0.5"


def test_load_array(tmp_path):
    path = tmp_path / "data.json"
    records = [
        {"id": "a", "original_text": "tom has 3 pens", "equation": "x=3", "ans": "3"},
        {"id": "b", "original_text": "sam has 4 pens", "equation": "x=4", "ans": "4"},
    ]
    path.write_text(json.dumps(records), encoding="utf-8")
    problems = corpus.load_dataset(path)
    assert [p.id for p in problems] == ["a", "b"]


def test_load_preserves_order_and_prefers_segmented(tmp_path):
    path = tmp_path / "data.jsonl"
    rec = {"id": "1", "segmented_text": "seg words", "original_text": "orig",
           "equation": "x=1", "ans": "1"}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert corpus.load_dataset(path)[0].text == "seg words"


def test_load_truncated_is_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": "1", "equation": "x=1"', encoding="utf-8")
    with pytest.raises(corpus.FormatError):
        corpus.load_dataset(path)


@pytest.mark.parametrize("text", ["[{\"ans\": " + "1" * 5000 + "}]",
                                  "{\"ans\": " + "1" * 5000 + "}\n"])
def test_load_integer_past_digit_limit_is_format_error(tmp_path, text):
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(corpus.FormatError, match="digits"):
        corpus.load_dataset(path)


def test_load_missing_field_reports_index(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "1", "segmented_text": "t", "ans": "2"}) + "\n",
                    encoding="utf-8")
    with pytest.raises(corpus.FormatError) as exc:
        corpus.load_dataset(path)
    assert exc.value.index == 0


def test_write_then_load_roundtrip(tmp_path):
    problems = corpus.synth_generate(5, seed=2, difficulty=2)
    path = tmp_path / "synth.jsonl"
    corpus.write_dataset(path, problems)
    loaded = corpus.load_dataset(path)
    assert [(p.id, p.text, p.equation, p.answer) for p in loaded] == \
           [(p.id, p.text, p.equation, p.answer) for p in problems]


# ---------------------------------------------------------------------------
# tokenization


def test_tokenize_word_mode():
    assert corpus.tokenize("tom has $10") == ["tom", "has", "$10"]


def test_tokenize_char_mode_number_spans():
    assert corpus.tokenize("有58个", "char") == ["有", "58", "个"]
    assert corpus.tokenize("1/6", "char") == ["1/6"]
    assert corpus.tokenize("到15%折", "char") == ["到", "15%", "折"]


def test_tokenize_char_mode_plain_words():
    assert corpus.tokenize("ab 3c", "char") == ["a", "b", "3", "c"]


@settings(max_examples=60, deadline=None)
@given(
    left=st.text(alphabet="abc有个$", max_size=4),
    num=st.one_of(
        st.integers(0, 9999).map(str),
        st.integers(1, 99).map(lambda n: f"{n}.{n}"),
        st.tuples(st.integers(1, 99), st.integers(1, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.integers(1, 999).map(lambda n: f"{n}%"),
    ),
    right=st.text(alphabet="xyz元", max_size=4),
)
def test_char_mode_never_splits_numbers(left, num, right):
    tokens = corpus.tokenize(left + num + right, "char")
    assert num in tokens


# ---------------------------------------------------------------------------
# constants


def test_extract_constants_fig1(fig1_prepared):
    assert fig1_prepared.constant_values == [F(1, 2), F(1), F(10), F(5)]
    for pos, val in zip(fig1_prepared.constant_positions,
                        fig1_prepared.constant_values):
        token = fig1_prepared.tokens[pos]
        assert eqlang.format_rational(val) in token or str(val) in token


def test_extract_constants_fraction_and_percent():
    positions, values = corpus.extract_constants(["more", "by", "1/6", "than"])
    assert positions == [2] and values == [F(1, 6)]
    positions, values = corpus.extract_constants(["save", "15%", "of", "it"])
    assert values == [F(3, 20)]


def test_extract_constants_decimal_exact():
    _, values = corpus.extract_constants(["0.5"])
    assert values == [F(1, 2)]


def test_extract_constants_embedded_span():
    positions, values = corpus.extract_constants(["$10", "and", "(1/6)"])
    assert positions == [0, 2]
    assert values == [F(10), F(1, 6)]


def test_extract_constants_none_is_legal():
    assert corpus.extract_constants(["no", "numbers", "here"]) == ([], [])


# ---------------------------------------------------------------------------
# answers


@pytest.mark.parametrize("text,expected", [
    ("10", F(10)),
    ("78.5", F(157, 2)),
    ("1/3", F(1, 3)),
    ("33又1/3", F(100, 3)),
    ("33(1/3)", F(100, 3)),
    ("40%", F(2, 5)),
    ("-5/2", F(-5, 2)),
])
def test_parse_answer(text, expected):
    assert corpus.parse_answer(text) == expected


@pytest.mark.parametrize("text, message", [
    ("elephants", "cannot parse answer"),
    ("3(1/0)", "zero denominator in answer"),  # a mixed numeral over 0
])
def test_parse_answer_rejects_junk(text, message):
    with pytest.raises(corpus.AnswerFormatError, match=message):
        corpus.parse_answer(text)


def test_parse_answer_many_leading_minus_signs():
    # one pass over the signs, not one call per sign
    assert corpus.parse_answer("-" * 5000 + "5") == 5
    assert corpus.parse_answer("-" * 5001 + "5") == -5
    assert corpus.parse_answer("- -  - 7") == -7
    with pytest.raises(corpus.AnswerFormatError):
        corpus.parse_answer("-" * 5000)


# ---------------------------------------------------------------------------
# prepare


def test_prepare_fig1_target(fig1_prepared):
    wire = fig1_prepared.target
    assert wire[0] == eqlang.GEN_VAR
    assert wire[1] == push("x")
    # indices follow text order: 0.5 -> 0, 1 -> 1, 10 -> 2, 5 -> 3
    assert wire[2:5] == [push("c2"), push("c1"), push("c3")]
    assert wire[7] == push("c0")
    assert fig1_prepared.gold_answer == 10


def test_prepare_unalignable_rejection():
    raw = corpus.RawProblem(id="r", text="tom has 2 pens", equation="x=7.3", answer="7.3")
    with pytest.raises(eqlang.UnalignableLiteral):
        corpus.prepare(raw)


def test_prepare_nonaffine_rejection():
    raw = corpus.RawProblem(id="r", text="a 4 b", equation="x*x=4", answer="2")
    with pytest.raises(eqlang.NonAffine):
        corpus.prepare(raw)


def test_prepare_bad_equation_rejection():
    raw = corpus.RawProblem(id="r", text="a 4 b", equation="x=((", answer="2")
    with pytest.raises(eqlang.EquationSyntaxError):
        corpus.prepare(raw)


def test_longest_target_fits_the_largest_decode_budget():
    """An equation of MAX_ACTIONS - 1 tokens gives a target of MAX_ACTIONS
    actions, which a decode budget may still cover; one more token is a
    syntax error."""
    def sum_of_ones(n):  # x = 1 + ... + 1: 2n + 1 tokens
        return corpus.RawProblem(id="r", text="tom has 1 pen", answer=str(n),
                                 equation="x=" + "+".join(["1"] * n))
    longest = corpus.prepare(sum_of_ones((eqlang.MAX_ACTIONS - 2) // 2))
    assert len(longest.target) == eqlang.MAX_ACTIONS
    DecoderConfig(max_steps=len(longest.target))
    _, report = corpus.prepare_dataset([sum_of_ones(eqlang.MAX_ACTIONS // 2)])
    assert report.counts["syntax_error"] == 1
    assert f"more than {eqlang.MAX_ACTIONS - 1} tokens" in report.rejected[0]["detail"]


def test_prepare_dataset_reports_counts():
    raws = [
        corpus.RawProblem(id="good", text="tom has 4 pens", equation="x=4", answer="4"),
        corpus.RawProblem(id="bad", text="tom has 2 pens", equation="x=9.9", answer="9.9"),
    ]
    prepared, report = corpus.prepare_dataset(raws)
    assert len(prepared) == 1
    assert report.counts["prepared"] == 1
    assert report.counts["unalignable"] == 1
    assert report.rejected[0]["id"] == "bad"


def test_prepared_target_reproduces_gold(synth_prepared):
    for p in synth_prepared:
        outcome = eqlang.execute(p.target, p.constant_values)
        answer = eqlang.solve(outcome.equations)
        assert eqlang.answers_equal(answer, p.gold_answer)


# ---------------------------------------------------------------------------
# folds


def test_make_folds_sizes():
    split = corpus.make_folds([str(i) for i in range(10)], k=5, seed=1)
    sizes = [len(split.fold_ids(f)) for f in range(5)]
    assert sizes == [2, 2, 2, 2, 2]


def test_make_folds_order_independent():
    ids = [f"p{i}" for i in range(13)]
    a = corpus.make_folds(ids, k=5, seed=9)
    b = corpus.make_folds(list(reversed(ids)), k=5, seed=9)
    assert a.assignments == b.assignments


def test_make_folds_size_balance():
    split = corpus.make_folds([str(i) for i in range(13)], k=5, seed=0)
    sizes = sorted(len(split.fold_ids(f)) for f in range(5))
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 13


def test_make_folds_k1_rejected():
    with pytest.raises(ValueError):
        corpus.make_folds(["a", "b"], k=1, seed=0)


# ---------------------------------------------------------------------------
# synthesis


def test_synth_deterministic():
    a = corpus.synth_generate(64, seed=5, difficulty=2)
    b = corpus.synth_generate(64, seed=5, difficulty=2)
    assert [(p.text, p.equation) for p in a] == [(p.text, p.equation) for p in b]


def test_synth_zero_rejections():
    for difficulty in (1, 2, 3):
        raws = corpus.synth_generate(120, seed=31 + difficulty, difficulty=difficulty)
        prepared, report = corpus.prepare_dataset(raws)
        assert len(prepared) == 120
        assert report.total_rejected == 0


def test_synth_answers_solve():
    for raw in corpus.synth_generate(40, seed=17, difficulty=3):
        lhs, rhs = eqlang.parse_equation(raw.equation)
        assert eqlang.answers_equal(eqlang.solve([(lhs, rhs)]),
                                    corpus.parse_answer(raw.answer))


def test_synth_difficulty3_uses_external_one():
    raws = corpus.synth_generate(60, seed=23, difficulty=3)
    prepared, _ = corpus.prepare_dataset(raws)
    assert any(push("1") in p.target for p in prepared)


def test_synth_unique():
    raws = corpus.synth_generate(200, seed=3, difficulty=2)
    keys = {(p.text, p.equation) for p in raws}
    assert len(keys) == 200


def test_synth_validates_args():
    with pytest.raises(ValueError):
        corpus.synth_generate(0, seed=1)
    with pytest.raises(ValueError):
        corpus.synth_generate(1, seed=1, difficulty=9)
