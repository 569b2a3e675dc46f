"""CLI commands end to end: files in, artifacts out, exit codes."""
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from stacksolver import cli, corpus, eqlang, numerics as nm, trainer
from stacksolver.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    assert run_cli("synth", path, "--count", 16, "--seed", 9, "--difficulty", 2) == 0
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_file):
    out = tmp_path_factory.mktemp("run") / "model"
    code = run_cli("train", "--data", synth_file, "--out", out,
                   "--epochs", 2, "--batch-size", 8, "--seed", 4,
                   "--embed-dim", 8, "--hidden", 8, "--eval-every", 2)
    assert code == 0
    return out


def test_synth_writes_interchange_format(synth_file):
    problems = corpus.load_dataset(synth_file)
    assert len(problems) == 16
    assert (synth_file.parent / "manifest.json").exists()


def test_preprocess_counts_and_determinism(tmp_path, synth_file):
    out = tmp_path / "prepared.jsonl"
    assert run_cli("preprocess", synth_file, out) == 0
    first = out.read_bytes()
    rejects = json.loads((tmp_path / "prepared.jsonl.rejects.json").read_text())
    assert rejects["counts"]["prepared"] == 16
    assert rejects["counts"]["unalignable"] == 0
    assert run_cli("preprocess", synth_file, out) == 0
    assert out.read_bytes() == first  # byte-identical re-run


def test_preprocess_reports_bad_record(tmp_path):
    bad = corpus.RawProblem(id="weird", text="tom has 2 pens",
                            equation="x=9.51", answer="9.51")
    good = corpus.RawProblem(id="fine", text="tom has 2 pens", equation="x=2",
                             answer="2")
    data = tmp_path / "mixed.jsonl"
    corpus.write_dataset(data, [good, bad])
    out = tmp_path / "prepared.jsonl"
    assert run_cli("preprocess", data, out) == 0
    rejects = json.loads((tmp_path / "prepared.jsonl.rejects.json").read_text())
    assert rejects["counts"]["unalignable"] == 1
    assert rejects["rejected"][0]["id"] == "weird"


def test_preprocess_format_error_exit_code(tmp_path):
    data = tmp_path / "broken.jsonl"
    data.write_text('{"id": "1"\n', encoding="utf-8")
    assert run_cli("preprocess", data, tmp_path / "out.jsonl") == 2


def test_preprocess_rejects_a_text_with_no_tokens(tmp_path, capsys):
    """A text of whitespace is a missing one: no problem with no tokens is
    ever prepared, so no training or evaluation meets one."""
    data = tmp_path / "blank.jsonl"
    corpus.write_dataset(data, [corpus.RawProblem(id="fine", text="tom has 2 pens",
                                                  equation="x=2", answer="2"),
                                corpus.RawProblem(id="blank", text=" \t ",
                                                  equation="x=1", answer="1")])
    assert run_cli("preprocess", data, tmp_path / "out.jsonl") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "missing segmented_text/original_text" in err


LONG_NUMBER = "7" * 5000


@pytest.mark.parametrize("field", ["text", "equation", "answer"])
def test_preprocess_rejects_an_over_long_literal(tmp_path, capsys, field):
    record = {"text": "tom has 2 pens", "equation": "x=2", "answer": "2"}
    record[field] = {"text": f"tom has 2 pens and {LONG_NUMBER} pins",
                     "equation": f"x=2+{LONG_NUMBER}", "answer": LONG_NUMBER}[field]
    data = tmp_path / "long.jsonl"
    corpus.write_dataset(data, [corpus.RawProblem(id="long", **record)])
    out = tmp_path / "prepared.jsonl"
    assert run_cli("preprocess", data, out) == 0
    assert "syntax_error=1" in capsys.readouterr().out
    rejects = json.loads((tmp_path / "prepared.jsonl.rejects.json").read_text())
    assert rejects["rejected"][0]["detail"] == (
        f"numeric literal of 5000 digits exceeds the {eqlang.MAX_LITERAL_DIGITS}-digit limit")


def test_solve_over_long_literal_exits_2(capsys, trained_dir):
    assert run_cli("solve", "--checkpoint", trained_dir, "--text",
                   f"tom has {LONG_NUMBER} pens") == 2
    assert_one_error_line(capsys)


def test_prepared_file_roundtrip(tmp_path, synth_file):
    out = tmp_path / "prepared.jsonl"
    run_cli("preprocess", synth_file, out)
    prepared = cli.load_prepared(out)
    raws = corpus.load_dataset(synth_file)
    direct, _ = corpus.prepare_dataset(raws)
    assert [p.target for p in prepared] == [p.target for p in direct]
    assert [p.constant_values for p in prepared] == [p.constant_values for p in direct]


def test_action_wire_roundtrip(fig1_prepared):
    wires = [eqlang.action_to_wire(a) for a in fig1_prepared.target]
    assert wires == ["genvar", "push:x", "push:c2", "push:c1", "push:c3", "apply:*",
                     "apply:-", "push:c0", "apply:/", "equal"]
    assert [eqlang.action_from_wire(w) for w in wires] == fig1_prepared.target
    with pytest.raises(ValueError):
        eqlang.action_from_wire("launch:missiles")


def test_train_artifacts(trained_dir):
    assert (trained_dir / "checkpoint.bin").exists()
    assert (trained_dir / "meta.json").exists()
    assert (trained_dir / "history.jsonl").exists()
    metrics = (trained_dir / "metrics.txt").read_text()
    assert "answer_accuracy=" in metrics
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["dataset_hash"].startswith("sha256:")
    assert manifest["version"].startswith("stacksolver-")
    assert manifest["config"]["epochs"] == 2


def test_manifest_records_the_numerics_a_rerun_needs(trained_dir):
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    assert set(manifest["blas"]) == {"name", "version", "openblas configuration"}
    assert manifest["blas_threads"] == {var: os.environ.get(var)
                                        for var in cli.BLAS_THREAD_VARS}


def test_manifest_records_the_decoder_the_model_uses(tmp_path, synth_file, trained_dir):
    # meta.json states each setting once, with the value the run's config holds
    meta = json.loads((trained_dir / "meta.json").read_text())
    config = json.loads((trained_dir / "manifest.json").read_text())["config"]
    assert config["decoder"] == meta["decoder"]
    assert meta["encoder"] == {key: config[key] for key in
                               ("embed_dim", "hidden_per_direction", "constant_mode",
                                "dropout_p")}
    assert not meta["encoder"].keys() & meta["decoder"].keys()
    # fixed constants decode with the embedding transformer, whatever was asked
    out = tmp_path / "cv"
    assert run_cli("cv", "--data", synth_file, "--folds", 2, "--out", out, "--epochs", 1,
                   "--embed-dim", 8, "--hidden", 5, "--dropout", 0.25,
                   "--constant-mode", "fixed", "--transformer", "mlp") == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["dropout_p"], config["constant_mode"]) == (0.25, "fixed")
    assert config["decoder"]["transformer_mode"] == "embedding"


def test_train_accepts_prepared_input(tmp_path, synth_file):
    prepared_path = tmp_path / "prepared.jsonl"
    run_cli("preprocess", synth_file, prepared_path)
    out = tmp_path / "model"
    code = run_cli("train", "--data", prepared_path, "--out", out,
                   "--epochs", 1, "--batch-size", 8, "--seed", 4,
                   "--embed-dim", 8, "--hidden", 8)
    assert code == 0


@pytest.mark.parametrize("n, frac", [(16, 0.25), (10, 0.3), (7, 0.01), (5, 0.99)])
def test_heldout_split_is_a_seeded_partition(n, frac):
    problems = list(range(n))  # the split reads nothing of a problem
    train_part, held_part = cli._split_heldout(problems, frac, seed=3)
    assert len(held_part) == max(1, int(n * frac))
    assert not set(train_part) & set(held_part)
    assert sorted(train_part + held_part) == problems
    assert cli._split_heldout(problems, frac, seed=3) == (train_part, held_part)
    assert cli._split_heldout(problems, 0.0, seed=3) == (problems, None)


def test_train_heldout_frac_scores_the_heldout_part(tmp_path, synth_file):
    out = tmp_path / "model"
    assert run_cli("train", "--data", synth_file, "--out", out, "--epochs", 1,
                   "--batch-size", 8, "--seed", 4, "--embed-dim", 8, "--hidden", 8,
                   "--heldout-frac", 0.25) == 0
    metrics = dict(line.split("=") for line in (out / "metrics.txt").read_text().splitlines())
    assert int(metrics["n_total"]) == 4  # a quarter of the 16 problems


def test_config_file_with_flag_override(tmp_path, synth_file):
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 1\nhidden = 8\nembed-dim = 8\n# comment\n",
                      encoding="utf-8")
    out = tmp_path / "model"
    code = run_cli("train", "--data", synth_file, "--out", out,
                   "--config", config, "--batch-size", 8)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1
    assert manifest["config"]["hidden_per_direction"] == 8
    assert manifest["config"]["batch_size"] == 8


def test_default_hyperparameters():
    args = cli.build_parser().parse_args(
        ["train", "--data", "x", "--out", "y"])
    config, heldout_frac = cli.build_train_config(args)
    # with nothing set, the defaults are the config dataclasses' own
    assert config == trainer.TrainConfig()
    assert 2 * config.hidden_per_direction == 256
    assert config.optimizer.learning_rate == 0.001
    assert config.dropout_p == 0.1
    assert config.embed_dim == 128
    assert config.decoder.max_steps == 40
    assert heldout_frac == 0.0


# a value other than the default for every option of the table
OPTION_SAMPLES = {
    "epochs": "3", "batch_size": "4", "seed": "7", "lr": "0.01", "clip": "2.5",
    "mode": "char", "embed_dim": "8", "hidden": "6", "dropout": "0.2", "max_steps": "30",
    "patience": "2", "eval_every": "3", "heldout_frac": "0.25", "transformer": "embedding",
    "constant_mode": "self_attention", "no_gate": "true",
    "no_attention": "true", "no_stack": "true",
}


def train_config_of(*argv):
    args = cli.build_parser().parse_args(["train", "--data", "x", "--out", "y", *map(str, argv)])
    return cli.build_train_config(args)


def test_option_samples_cover_the_table():
    assert OPTION_SAMPLES.keys() == cli.TRAIN_OPTIONS.keys()


@pytest.mark.parametrize("key", sorted(OPTION_SAMPLES))
def test_flag_and_config_line_set_the_same_field(tmp_path, key):
    text = OPTION_SAMPLES[key]
    flag = "--" + key.replace("_", "-")
    from_flag = train_config_of(*([flag] if key.startswith("no_") else [flag, text]))
    config = tmp_path / "train.cfg"
    config.write_text(f"{key} = {text}\n", encoding="utf-8")
    from_file = train_config_of("--config", config)
    assert from_flag == from_file
    assert from_flag != (trainer.TrainConfig(), 0.0)


def test_a_flag_cannot_switch_a_config_file_setting_back_on(tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("no_gate = true\n", encoding="utf-8")
    train_config, _ = train_config_of("--config", config)
    assert train_config.decoder.use_gate is False
    config.write_text("no_gate = false\n", encoding="utf-8")
    train_config, _ = train_config_of("--config", config, "--no-gate")
    assert train_config.decoder.use_gate is False


@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_falsy_value_still_reaches_validation(tmp_path, source):
    config = tmp_path / "train.cfg"
    config.write_text("hidden = 0\n", encoding="utf-8")
    argv = ["--hidden", "0"] if source == "flag" else ["--config", config]
    with pytest.raises(ValueError, match="encoder dimensions must be positive"):
        train_config_of(*argv)


def test_bad_config_key_exits_2(tmp_path, synth_file):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_drive = on\n", encoding="utf-8")
    assert run_cli("train", "--data", synth_file, "--out", tmp_path / "m",
                   "--config", config) == 2


def test_constant_repr_is_not_an_option(tmp_path, capsys, synth_file):
    """Fixed constants are ``constant_mode = fixed``; the old second setting
    for them is refused as a flag and as a config line."""
    argv = ["train", "--data", synth_file, "--out", tmp_path / "m"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--constant-repr", "fixed")
    assert exc.value.code == 2
    assert "unrecognized arguments: --constant-repr" in capsys.readouterr().err
    config = tmp_path / "old.cfg"
    config.write_text("constant_repr = fixed\n", encoding="utf-8")
    assert run_cli(*argv, "--config", config) == 2
    assert "unknown config key 'constant_repr'" in capsys.readouterr().err


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["train", "eval", "cv"])
def test_missing_data_file_exits_2(tmp_path, capsys, trained_dir, command):
    argv = [command, "--data", tmp_path / "missing.jsonl"]
    if command == "train":
        argv += ["--out", tmp_path / "model"]
    if command == "eval":
        argv += ["--checkpoint", trained_dir]
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys)


def prepared_line(**fields) -> str:
    """A well-formed prepared record (x = 4 + 2) with ``fields`` replaced."""
    record = {"id": "a", "tokens": ["x", "is", "4", "and", "2"], "positions": [2, 4],
              "values": ["4", "2"], "answer": "6",
              "target": ["genvar", "push:x", "push:c0", "push:c1", "apply:+", "equal"]}
    return json.dumps({**record, **fields})


def test_prepared_line_helper_is_well_formed():
    problem = cli.prepared_from_record(json.loads(prepared_line()))
    assert problem.n_constants == 2 and len(problem.target) == 6


@pytest.mark.parametrize("bad_line, error", [
    ('{"target": ["genvar"], "id": "a"', "JSONDecodeError"),
    ('{"target": ["genvar"], "id": "a"}', "KeyError: 'tokens'"),
    ('{"target": [1], "id": "a", "tokens": [], "positions": [], "values": []}',
     "AttributeError"),
    ('{"target": [], "id": "a", "tokens": [], "positions": [1e400], "values": []}',
     "a position is not an integer"),
    ('{"target": [], "id": "a", "tokens": [], "positions": [], "values": [],'
     ' "answer": "1e1000000"}', "ValueError: bad number '1e1000000'"),
    (prepared_line(target=["push:c0", "genvar", "push:x", "equal"]),
     "does not start with genvar"),
    (prepared_line(target=[]), "does not start with genvar"),
    (prepared_line(target=["genvar", "push:x", "genvar", "push:c0", "equal"]),
     "generates the unknown twice"),
    (prepared_line(target=["genvar", "push:x", "push:c2", "equal"]),
     "pushes c2 of 2 values"),
    (prepared_line(target=["genvar", "push:x", "equal"]), "underflows the stack"),
    (prepared_line(positions=[2]), "1 positions for 2 values"),
    (prepared_line(positions=[2, 5]), "outside the 5 tokens"),
    (prepared_line(positions=[2.9, 4]), "a position is not an integer"),
    (prepared_line(positions=[2, True]), "a position is not an integer"),
    (prepared_line(positions=["2", "4"]), "a position is not an integer"),
    (prepared_line(tokens=[], positions=[], values=[], answer="1",
                   target=["genvar", "push:x", "push:1", "equal"]), "no tokens"),
    (prepared_line(tokens="x is 4 and 2"), "tokens is not a list"),
    (prepared_line(values="42"), "values is not a list"),
    (prepared_line(tokens=["x", "is", 4, "and", 2]), "a token is not a string"),
    (prepared_line(id=5), "id is not a string"),
])
def test_malformed_prepared_line_exits_2(tmp_path, capsys, trained_dir, fig1_prepared,
                                         bad_line, error):
    data = tmp_path / "prepared.jsonl"
    good = json.dumps(cli.prepared_to_record(fig1_prepared))
    data.write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
    assert run_cli("eval", "--checkpoint", trained_dir, "--data", data) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{data}:2:" in err and error in err


def test_non_utf8_data_file_exits_2(tmp_path, capsys, trained_dir, synth_file):
    data = tmp_path / "utf16.jsonl"
    data.write_bytes(b"\xff\xfe" + synth_file.read_bytes())
    assert run_cli("eval", "--checkpoint", trained_dir, "--data", data) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{data}: not UTF-8 text" in err
    for load in (corpus.load_dataset, cli.load_prepared):
        with pytest.raises(corpus.FormatError, match="not UTF-8 text"):
            load(data)


def test_data_path_that_is_a_directory_exits_2(tmp_path, capsys, trained_dir):
    assert run_cli("eval", "--checkpoint", trained_dir, "--data", tmp_path) == 2
    assert_one_error_line(capsys)


def copy_model(trained_dir, tmp_path):
    out = tmp_path / "model"
    out.mkdir()
    for name in ("meta.json", "checkpoint.bin"):
        (out / name).write_bytes((trained_dir / name).read_bytes())
    return out


def test_truncated_checkpoint_exits_2(tmp_path, capsys, trained_dir, synth_file):
    model = copy_model(trained_dir, tmp_path)
    ckpt = model / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    assert run_cli("eval", "--checkpoint", model, "--data", synth_file) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err and err.count("\n") == 1


def test_checkpoint_not_matching_meta_exits_2(tmp_path, capsys, trained_dir, synth_file):
    model = copy_model(trained_dir, tmp_path)
    meta = json.loads((model / "meta.json").read_text())
    meta["decoder"]["use_gate"] = False  # registers no gate parameters
    (model / "meta.json").write_text(json.dumps(meta))
    assert run_cli("eval", "--checkpoint", model, "--data", synth_file) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not match meta.json" in err
    assert "dec.gate_opd.b" in err and err.count("\n") == 1


def test_checkpoint_of_another_same_shaped_model_exits_2(tmp_path, capsys, trained_dir,
                                                         synth_file):
    model = copy_model(trained_dir, tmp_path)
    other = trainer.load_model(trained_dir)
    other.registry["dec.act.b2"][0] += 1.0
    nm.save_checkpoint(model / "checkpoint.bin", other.registry)
    assert run_cli("eval", "--checkpoint", model, "--data", synth_file) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "recorded for it" in err


def test_version_1_checkpoint_exits_2(tmp_path, capsys, trained_dir, synth_file):
    """And a version 2 one: a model saved in an earlier format must be retrained."""
    model = copy_model(trained_dir, tmp_path)
    ckpt = model / "checkpoint.bin"
    data = ckpt.read_bytes()
    for version in (1, 2):
        ckpt.write_bytes(data[:4] + bytes([version]) + data[5:])
        assert run_cli("eval", "--checkpoint", model, "--data", synth_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"unsupported checkpoint version {version}" in err


def set_meta(section, key, value):
    def rewrite(text):
        meta = json.loads(text)
        meta[section][key] = value
        return json.dumps(meta)
    return rewrite


def float_widths(text):
    """The saved width as a float of the same value: a shape table that
    compared it to the checkpoint's would see no difference."""
    meta = json.loads(text)
    meta["encoder"]["hidden_per_direction"] = float(meta["encoder"]["hidden_per_direction"])
    return json.dumps(meta)


def parent_format(section, key):
    """The meta.json of an older version, which also stated ``key`` in
    ``section``: a copy of the encoder's width, vocab size or dropout rate,
    or the decoder's second setting for fixed constants."""
    def rewrite(text):
        meta = json.loads(text)
        meta[section][key] = {"dim": 2 * meta["encoder"]["hidden_per_direction"],
                              "constant_repr": "semantic",
                              "vocab_size": len(meta["vocab"])}[key]
        return json.dumps(meta)
    return rewrite


def set_last_vocab_id(value):
    def rewrite(text):
        meta = json.loads(text)
        meta["vocab"][list(meta["vocab"])[-1]] = value
        return json.dumps(meta)
    return rewrite


@pytest.mark.parametrize("rewrite, error", [
    (lambda text: '{"vocab": {', "JSONDecodeError"),
    (set_meta("decoder", "max_steps", 0), "max_steps must be at least 1"),
    # a model saved before each setting was stated once must be retrained
    (parent_format("decoder", "dim"), "unexpected keyword argument 'dim'"),
    (parent_format("decoder", "constant_repr"), "unexpected keyword argument 'constant_repr'"),
    (parent_format("encoder", "vocab_size"), "unexpected keyword argument 'vocab_size'"),
    # a size that would otherwise be allocated before the checkpoint is compared
    (set_meta("encoder", "hidden_per_direction", 10 ** 6), "at most 512"),
    (set_meta("decoder", "max_steps", 40.5), "max_steps must be an integer, got 40.5"),
    # a budget whose vector buffer could not be allocated
    (set_meta("decoder", "max_steps", 10 ** 9), "max_steps must be at most 1000"),
    (float_widths, "hidden_per_direction must be an integer, got 8.0"),
    (set_meta("encoder", "embed_dim", True), "embed_dim must be an integer, got True"),
    # ids that would index past the embedding, or wrap round to its last row
    (set_last_vocab_id(999), "vocab ids must be 0.."),
    (set_last_vocab_id(-1), "with <unk> at 0"),
    (lambda text: json.dumps({**json.loads(text), "mode": "xyz"}), "unknown mode 'xyz'"),
])
def test_malformed_meta_exits_2(tmp_path, capsys, trained_dir, synth_file, rewrite, error):
    model = copy_model(trained_dir, tmp_path)
    meta = model / "meta.json"
    meta.write_text(rewrite(meta.read_text()))
    assert run_cli("eval", "--checkpoint", model, "--data", synth_file) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{meta}: not a model description" in err and error in err


@pytest.mark.parametrize("where, command", [
    ("array", "eval"), ("line", "eval"), ("line", "preprocess"), ("prepared", "eval"),
    ("meta", "solve")])
def test_deeply_nested_json_exits_2(tmp_path, capsys, trained_dir, where, command):
    """JSON nested past the recursion limit, where ``json.loads`` raises
    ``RecursionError`` rather than ``ValueError``: a data file that is one
    array, a raw or a prepared line, or the vocab of a ``meta.json``."""
    depth = 10 * sys.getrecursionlimit()
    deep = "[" * depth + "]" * depth
    data = tmp_path / "data.jsonl"
    data.write_text({"array": deep, "line": f'{{"a": {deep}}}',
                     "prepared": f'{{"target": {deep}}}', "meta": ""}[where] + "\n")
    model = copy_model(trained_dir, tmp_path)
    if where == "meta":
        meta = json.loads((model / "meta.json").read_text())
        (model / "meta.json").write_text(
            json.dumps({**meta, "vocab": "VOCAB"}).replace('"VOCAB"', deep))
    argv = {"eval": ["eval", "--checkpoint", model, "--data", data],
            "preprocess": ["preprocess", data, tmp_path / "prepared.jsonl"],
            "solve": ["solve", "--checkpoint", model, "--text", "tom has 3 apples and 4 pens"]}
    assert run_cli(*argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "maximum recursion depth exceeded" in err


@pytest.mark.parametrize("command, flags, error", [
    ("train", ["--hidden", 0], "encoder dimensions must be positive"),
    ("train", ["--embed-dim", 0], "encoder dimensions must be positive"),
    ("train", ["--dropout", 1.0], "dropout rate must be in [0, 1)"),
    ("train", ["--lr", "nan"], "learning_rate must be positive and finite"),
    ("train", ["--lr", "inf"], "learning_rate must be positive and finite"),
    ("train", ["--heldout-frac", 1.5], "heldout_frac must be in [0, 1)"),
    ("cv", ["--folds", 1], "cross-validation needs at least 2 folds"),
    ("train", ["--seed", -1], "seed must be >= 0"),
    ("train", ["--eval-every", 0], "eval_every"),
    ("cv", ["--patience", 0], "patience"),
    ("train", ["--max-steps", 0], "max_steps"),
    ("train", ["--max-steps", 10 ** 9], "max_steps must be at most 1000, got 1000000000"),
    ("train", ["--hidden", 10 ** 12], "at most 512"),
    ("train", ["--embed-dim", 513], "at most 512"),
    ("train", ["--epochs", "3.5"], "epochs: invalid literal"),
    ("train", ["--mode", "wrd"], "unknown mode"),
])
def test_invalid_config_exits_2_before_reading_data(tmp_path, capsys, command, flags,
                                                    error):
    # the data file does not exist, so reading it first would print "error:"
    out = ["--out", tmp_path / "m"] if command == "train" else []
    assert run_cli(command, "--data", tmp_path / "missing.jsonl", *out, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert error in err


@pytest.mark.parametrize("flags, error", [
    (["--count", 0], "count must be at least 1, got 0"),
    (["--count", -3], "count must be at least 1, got -3"),
    (["--seed", -1], "seed must be >= 0, got -1"),
])
def test_invalid_synth_flag_exits_2_before_writing(tmp_path, capsys, flags, error):
    out = tmp_path / "out" / "data.jsonl"
    assert run_cli("synth", out, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert error in err
    assert not out.parent.exists()  # no dataset, no manifest


@pytest.mark.parametrize("line", [
    "mode = wrd", "constant_mode = dirct", "seed = -1", "eval_every = 0", "patience = 0",
    "max_steps = 0", "max_steps = 1000000000", "no_gate = maybe", "epochs = 1e3", "lr = nan",
    "heldout_frac = nan",
])
def test_invalid_config_file_value_exits_2(tmp_path, capsys, line):
    config = tmp_path / "train.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    assert run_cli("train", "--data", tmp_path / "missing.jsonl", "--out", tmp_path / "m",
                   "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_clip_zero_is_a_config_error(tmp_path, capsys, synth_file):
    assert run_cli("train", "--data", synth_file, "--out", tmp_path / "m",
                   "--clip", 0) == 2
    assert "gradient_clip_norm" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_nan_loss_exits_2_without_checkpoint(tmp_path, capsys, monkeypatch, synth_file):
    monkeypatch.setattr(trainer, "batch_loss",
                        lambda *args, **kwargs: nm.constant(np.nan))
    out = tmp_path / "model"
    assert run_cli("train", "--data", synth_file, "--out", out,
                   "--epochs", 1, "--embed-dim", 8, "--hidden", 8) == 2
    assert_one_error_line(capsys)
    assert not (out / "checkpoint.bin").exists()


def test_eval_prints_accuracies(capsys, trained_dir, synth_file):
    assert run_cli("eval", "--checkpoint", trained_dir, "--data", synth_file) == 0
    out = capsys.readouterr().out
    assert "answer_accuracy=" in out
    assert "equation_accuracy=" in out


def test_eval_missing_checkpoint(tmp_path, synth_file):
    assert run_cli("eval", "--checkpoint", tmp_path / "nope",
                   "--data", synth_file) == 2


def test_cv_smoke(tmp_path, synth_file, capsys):
    out = tmp_path / "cv"
    code = run_cli("cv", "--data", synth_file, "--folds", 2, "--out", out,
                   "--epochs", 1, "--batch-size", 8,
                   "--embed-dim", 8, "--hidden", 8)
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_answer_accuracy=" in printed
    report = json.loads((out / "cv.json").read_text())
    assert len(report["folds"]) == 2


def test_cv_with_more_folds_than_problems_exits_2_before_training(tmp_path, capsys,
                                                                  monkeypatch, synth_file):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a fold")
    monkeypatch.setattr(trainer, "train", no_training)
    one_id = tmp_path / "one_id.jsonl"
    one_id.write_text("".join(json.dumps({**json.loads(line), "id": "a"}) + "\n"
                              for line in synth_file.read_text().splitlines()))
    for data, folds, distinct in ((synth_file, 20, 16), (one_id, 2, 1)):
        assert run_cli("cv", "--data", data, "--folds", folds) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (f"{folds} folds need at least {folds} problems with distinct ids, "
                f"got {distinct}") in err


def test_solve_missing_checkpoint(tmp_path, capsys):
    assert run_cli("solve", "--checkpoint", tmp_path / "ghost",
                   "--text", "tom has 2 pens") == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("budget", [0, -5])
def test_solve_budget_below_one_exits_2_before_reading_the_checkpoint(tmp_path, capsys,
                                                                      budget):
    # the checkpoint does not exist, so reading it first would print "error:"
    assert run_cli("solve", "--checkpoint", tmp_path / "ghost", "--text", "tom has 2 pens",
                   "--max-steps", budget) == 2
    err = capsys.readouterr().err
    assert err == f"config error: max_steps must be at least 1, got {budget}\n"


def test_solve_budget_above_the_cap_exits_2_before_reading_the_checkpoint(tmp_path, capsys):
    # a decode would allocate a vector row per step of its budget
    assert run_cli("solve", "--checkpoint", tmp_path / "ghost", "--text", "tom has 2 pens",
                   "--max-steps", 10 ** 9) == 2
    err = capsys.readouterr().err
    assert err == "config error: max_steps must be at most 1000, got 1000000000\n"


def test_solve_largest_budget_decodes(capsys, trained_dir):
    """The cap itself is a budget that decodes: exit 0 (solved) or 3 (out of budget)."""
    assert run_cli("solve", "--checkpoint", trained_dir, "--text", "tom has 2 pens",
                   "--max-steps", 1000) in (0, 3)
    assert "answer: " in capsys.readouterr().out


def test_solve_empty_text_exits_2(capsys, trained_dir):
    assert run_cli("solve", "--checkpoint", trained_dir, "--text", "  ") == 2
    assert_one_error_line(capsys)


def test_solve_more_numbers_than_fixed_slots_exits_2(tmp_path, capsys, synth_file):
    model = tmp_path / "fixed"
    assert run_cli("train", "--data", synth_file, "--out", model, "--epochs", 1,
                   "--batch-size", 8, "--embed-dim", 8, "--hidden", 8,
                   "--constant-mode", "fixed") == 0
    capsys.readouterr()
    text = " ".join(map(str, range(2, 19))) + " done"  # 17 numbers, 15 slots
    assert run_cli("solve", "--checkpoint", model, "--text", text) == 2
    assert_one_error_line(capsys)


def test_solve_with_a_nan_parameter_exits_2(tmp_path, capsys, trained_dir):
    model = trainer.load_model(trained_dir)
    model.registry["dec.lstm.wx"][0, 0] = np.nan
    broken = tmp_path / "nan-model"
    trainer.save_model(broken, model)
    assert run_cli("solve", "--checkpoint", broken,
                   "--text", "tom has 3 apples and 4 pens . how many in total ?") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "decode step 1: the chosen action logit is nan" in err


def assert_trace_matches_decode(record):
    """Each step record agrees with the decoded actions and the VM replay."""
    actions = [eqlang.action_from_wire(w) for w in record["actions"]]
    constants = [Fraction(c) for c in record["problem"]["constants"]]
    replay = eqlang.execute(actions, constants, max_steps=len(actions))
    assert len(record["steps"]) == len(actions) > 0
    for i, (step, action, stack) in enumerate(
            zip(record["steps"], actions, replay.stack_history)):
        assert step["step"] == i + 1
        assert step["action"] == eqlang.ACTION_NAMES[action.kind]
        if action.kind == eqlang.PUSH:
            assert eqlang.action_to_wire(action) == f"push:{step['operand']}"
        else:
            assert step["operand"] is None
        assert step["stack"] == [eqlang.expr_to_infix(e) for e in stack]
        assert step["stack_depth"] == len(stack)


def test_solve_trace_values_match_the_decode(tmp_path, trained_dir):
    trace = tmp_path / "trace.json"
    run_cli("solve", "--checkpoint", trained_dir,
            "--text", "tom has 3 apples and 4 pens . how many in total ?",
            "--trace", trace)
    assert_trace_matches_decode(json.loads(trace.read_text()))


def test_solve_budget_exit_code(tmp_path, trained_dir):
    trace = tmp_path / "trace.json"
    code = run_cli("solve", "--checkpoint", trained_dir,
                   "--text", "tom has 3 apples and 4 pens . how many in total ?",
                   "--max-steps", 1, "--trace", trace)
    assert code == 3
    record = json.loads(trace.read_text())
    assert record["status"] == "budget_exceeded"
    assert len(record["steps"]) == 1  # partial trace still written


def test_solve_overfit_model_prints_equation(tmp_path, capsys, overfit_one):
    result, problem = overfit_one
    model_dir = tmp_path / "overfit"
    trainer.save_model(model_dir, result.model)
    trace = tmp_path / "trace.json"
    text = " ".join(problem.tokens)
    code = run_cli("solve", "--checkpoint", model_dir, "--text", text,
                   "--trace", trace)
    assert code == 0
    printed = capsys.readouterr().out
    assert "equation: x =" in printed
    gold = eqlang.format_rational(problem.gold_answer)
    assert f"answer: {gold}" in printed
    record = json.loads(trace.read_text())
    assert_trace_matches_decode(record)
    for step in record["steps"]:
        assert set(step) == {"step", "action", "operand", "action_probs",
                             "operand_probs", "attention", "gate_action",
                             "gate_operand", "stack_depth", "stack"}
        if step["attention"] is not None:
            assert abs(sum(step["attention"]) - 1.0) < 1e-9


def test_ablation_flags_reach_decoder(tmp_path, synth_file):
    out = tmp_path / "ablated"
    code = run_cli("train", "--data", synth_file, "--out", out,
                   "--epochs", 1, "--batch-size", 8, "--embed-dim", 8,
                   "--hidden", 8, "--no-gate", "--no-attention", "--no-stack",
                   "--transformer", "embedding")
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["decoder"]["use_gate"] is False
    assert meta["decoder"]["use_attention"] is False
    assert meta["decoder"]["use_stack_feature"] is False
    assert meta["decoder"]["transformer_mode"] == "embedding"
    loaded = trainer.load_model(out)
    assert "dec.gate_sa.w" not in loaded.registry.shapes
    assert "dec.qattn.w" not in loaded.registry.shapes
    assert "dec.tf.+.vec" in loaded.registry.shapes
