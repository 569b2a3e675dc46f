"""Loaders fed mutated bytes raise their typed error and nothing else.

Each case starts from a small valid input (a file, an equation's text, or a
synthetic problem's text, equation and answer), applies a few byte or
character flips, cuts, insertions and deletions, and loads the result; train
flags and ``solve --text`` get drawn values instead. Hypothesis runs
derandomized with a bounded number of examples, so the suite stays
deterministic.
"""
import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stacksolver import cli, corpus, encoder, eqlang, numerics as nm, trainer

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutations(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "cut", "insert", "delete"]))
        at = draw(st.integers(0, len(out)))
        if kind == "flip" and at < len(out):
            out[at] ^= draw(st.integers(1, 255))
        elif kind == "cut":
            del out[at:]
        elif kind == "insert":
            out[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del out[at:at + draw(st.integers(1, 8))]
    return bytes(out)


def seed_registry() -> nm.ParamRegistry:
    rng = np.random.default_rng(3)
    registry = nm.ParamRegistry({"enc.w": (3, 2), "dec.b": (4,)})
    registry.flat[...] = rng.standard_normal(registry.flat.size)
    return registry


def registry_state(registry):
    return registry.shapes, registry.flat.tobytes()


RAWS = corpus.synth_generate(3, seed=4, difficulty=2)
DATASET = "".join(json.dumps({"id": p.id, "segmented_text": p.text,
                              "equation": p.equation, "ans": p.answer}) + "\n"
                  for p in RAWS).encode("utf-8")
PROBLEMS, _ = corpus.prepare_dataset(corpus.synth_generate(3, seed=5, difficulty=2))
PREPARED = "".join(json.dumps(cli.prepared_to_record(p)) + "\n"
                   for p in PROBLEMS).encode("utf-8")


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "seed.bin"
    nm.save_checkpoint(path, seed_registry())
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_checkpoint_loader_on_mutated_bytes(tmp_path, checkpoint_bytes, data):
    mutated = data.draw(mutations(checkpoint_bytes))
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(mutated)
    if mutated != checkpoint_bytes:
        with pytest.raises(nm.CheckpointError):
            nm.load_checkpoint(path)
    else:
        assert registry_state(nm.load_checkpoint(path)) == registry_state(seed_registry())


@pytest.mark.parametrize("original, load, expected", [
    (DATASET, corpus.load_dataset, RAWS),
    (PREPARED, cli.load_prepared, PROBLEMS),
], ids=["load_dataset", "load_prepared"])
@FUZZ
@given(data=st.data())
def test_data_loaders_on_mutated_bytes(tmp_path, original, load, expected, data):
    mutated = data.draw(mutations(original))
    path = tmp_path / "data.jsonl"
    path.write_bytes(mutated)
    try:
        loaded = load(path)
    except corpus.FormatError:
        assert mutated != original
        return
    if mutated == original:
        assert loaded == expected


EQUATION = "x = (12 + 3/4) * 2 - 5 / (1 - 0.25)".encode("utf-8")


@FUZZ
@given(data=st.data())
def test_parse_equation_on_mutated_text(data):
    text = data.draw(mutations(EQUATION)).decode("latin-1")
    try:
        lhs, rhs = eqlang.parse_equation(text)
    except eqlang.EqLangError:
        return
    # a parsed equation renders to text that parses back to it
    assert eqlang.parse_equation(eqlang.equation_to_infix(lhs, rhs)) == (lhs, rhs)


@st.composite
def text_mutations(draw, text: str) -> str:
    """``mutations`` over characters, inserting any unicode text."""
    out = list(text)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "cut", "insert", "delete"]))
        at = draw(st.integers(0, len(out)))
        if kind == "replace" and at < len(out):
            out[at] = draw(st.characters())
        elif kind == "cut":
            del out[at:]
        elif kind == "insert":
            out[at:at] = draw(st.text(min_size=1, max_size=8))
        elif kind == "delete":
            del out[at:at + draw(st.integers(1, 8))]
    return "".join(out)


PREPARE_RAWS = corpus.synth_generate(6, seed=6, difficulty=3)


@FUZZ
@given(data=st.data())
def test_prepare_on_mutated_problems(data):
    raw = data.draw(st.sampled_from(PREPARE_RAWS))
    fields = {name: getattr(raw, name) for name in ("text", "equation", "answer")}
    for name in data.draw(st.sets(st.sampled_from(sorted(fields)), min_size=1)):
        fields[name] = data.draw(text_mutations(fields[name]))
    if not fields["text"] or not fields["equation"]:
        return  # RawProblem itself refuses these
    mode = data.draw(st.sampled_from(["word", "char"]))
    start = time.perf_counter()
    try:
        prepared = corpus.prepare(corpus.RawProblem(raw.id, **fields), mode)
    except corpus._REJECTION_CLASSES:
        prepared = None
    assert time.perf_counter() - start < 1.0
    if prepared is not None:
        # what prepare gives, a prepared file holds and reads back unchanged
        record = json.loads(json.dumps(cli.prepared_to_record(prepared)))
        assert cli.prepared_from_record(record) == prepared


CONFIG = b"""# a small training run
epochs = 3
batch-size = 4
seed = 7
lr = 0.01
clip = 2.5
mode = word
embed_dim = 8
hidden = 8
dropout = 0.2
max_steps = 30
patience = 2
eval_every = 1
heldout_frac = 0.25
transformer = mlp
constant_mode = direct
no_gate = false
"""


def usable(config: trainer.TrainConfig, heldout_frac: float) -> bool:
    """Every field in the range that training reads it in."""
    dec, opt = config.decoder, config.optimizer
    return (min(config.epochs, config.batch_size, config.embed_dim,
                config.hidden_per_direction, config.patience, config.eval_every,
                dec.max_steps) >= 1
            and max(config.embed_dim, config.hidden_per_direction) <= encoder.MAX_WIDTH
            and config.seed >= 0 and 0 <= config.dropout_p < 1 and 0 <= heldout_frac < 1
            and config.mode in ("word", "char")
            and config.constant_mode in ("direct", "self_attention", "fixed")
            and dec.transformer_mode in ("mlp", "embedding")
            and np.isfinite(opt.learning_rate) and opt.learning_rate > 0
            and opt.gradient_clip_norm > 0)


def assert_usable_or_config_error(argv, capsys):
    """``argv`` gives a usable config, or ``train`` prints one ``config
    error:`` line and exits 2 (before reading the absent data file)."""
    try:
        config, heldout_frac = cli.build_train_config(cli.build_parser().parse_args(argv))
    except ValueError:
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        return
    assert usable(config, heldout_frac)


def train_argv(tmp_path, *options):
    return ["train", "--data", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "out"),
            *options]


@FUZZ
@given(data=st.data())
def test_config_file_on_mutated_bytes(tmp_path, capsys, data):
    mutated = data.draw(mutations(CONFIG))
    path = tmp_path / "train.cfg"
    path.write_bytes(mutated)
    assert_usable_or_config_error(train_argv(tmp_path, "--config", str(path)), capsys)


# option text: numbers around every bound, the words that some field takes,
# and any short text
OPTION_TEXT = st.one_of(
    st.integers(-2, encoder.MAX_WIDTH + 2).map(str),
    st.integers(-10 ** 13, 10 ** 13).map(str),
    st.floats().map(repr),
    st.sampled_from(["word", "char", "direct", "self_attention", "mlp", "embedding",
                     "semantic", "fixed", "true", "no"]),
    st.text(max_size=6),
)


@FUZZ
@given(data=st.data())
def test_train_flags_with_drawn_values(tmp_path, capsys, data):
    options = []
    for key in cli.TRAIN_OPTIONS:
        flag = "--" + key.replace("_", "-")
        if not data.draw(st.booleans()):
            continue
        options.append(flag if key.startswith("no_") else f"{flag}={data.draw(OPTION_TEXT)}")
    assert_usable_or_config_error(train_argv(tmp_path, *options), capsys)


# problem text for ``solve --text``: numbers in every form that the tokenizer
# reads (digits, decimals, fractions, percents), words, and any unicode text
NUMBER = st.one_of(
    st.integers(0, 10 ** 12).map(str),
    st.builds("{}.{}".format, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    st.builds("{}/{}".format, st.integers(0, 999), st.integers(0, 999)),
    st.builds("{}%".format, st.integers(0, 500)),
    st.builds("{}.{}%".format, st.integers(0, 99), st.integers(0, 99)),
)
WORD = st.one_of(st.sampled_from(["tom", "has", "apples", "and", "pens", "how", "many",
                                  "in", "total", "?", ".", "$", "each", "-", "+"]),
                 st.text(min_size=1, max_size=6))
SOLVE_TEXT = st.one_of(
    st.lists(st.one_of(NUMBER, WORD), max_size=30).map(" ".join),
    st.sampled_from(["", " ", "\t\n"]),
    st.lists(NUMBER, min_size=encoder.FIXED_SLOT_LIMIT + 1, max_size=24).map(" ".join),
    st.text(max_size=40),
)


@pytest.fixture(scope="module")
def solve_models(tmp_path_factory):
    """A tiny untrained model of each constant mode, saved as ``train`` saves
    one; its parameters are scaled 25x, as the decode fuzz scales them, so
    decodes end solved, unsolvable or out of budget."""
    vocab = encoder.build_vocab(p.tokens for p in PROBLEMS)
    models = {}
    for mode in ("direct", "self_attention", "fixed"):
        config = trainer.TrainConfig(embed_dim=8, hidden_per_direction=8, constant_mode=mode)
        model = trainer.build_model(vocab, config, np.random.default_rng(1))
        model.registry.flat[...] *= 25.0
        models[mode] = tmp_path_factory.mktemp(mode) / "model"
        trainer.save_model(models[mode], model)
    return models


@pytest.mark.parametrize("mode", ["direct", "self_attention", "fixed"])
@FUZZ
@given(text=SOLVE_TEXT)
def test_solve_on_drawn_text(capsys, solve_models, mode, text):
    """Any text solves (exit 0), runs out of budget (exit 3) or is refused
    with one ``error:`` line (exit 2); nothing raises."""
    capsys.readouterr()
    code = cli.main(["solve", "--checkpoint", str(solve_models[mode]), f"--text={text}"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
