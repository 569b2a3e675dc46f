"""CLI commands end to end: files in, artifacts out, exit codes."""
import json
from fractions import Fraction

import numpy as np
import pytest

from stacksolver import cli, corpus, eqlang, numerics as nm, trainer
from stacksolver.cli import main
from stacksolver.decoder import ACTION_NAMES, action_to_index


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


def test_prepared_file_roundtrip(tmp_path, synth_file):
    out = tmp_path / "prepared.jsonl"
    run_cli("preprocess", synth_file, out)
    prepared = cli.load_prepared(out)
    raws = corpus.load_dataset(synth_file)
    direct, _ = corpus.prepare_dataset(raws)
    assert [p.target for p in prepared] == [p.target for p in direct]
    assert [p.constant_values for p in prepared] == [p.constant_values for p in direct]


def test_action_wire_roundtrip(fig1_prepared):
    wires = [cli.action_to_wire(a) for a in fig1_prepared.target]
    assert wires[0] == "genvar"
    assert [cli.action_from_wire(w) for w in wires] == fig1_prepared.target
    with pytest.raises(ValueError):
        cli.action_from_wire("launch:missiles")


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


def test_train_accepts_prepared_input(tmp_path, synth_file):
    prepared_path = tmp_path / "prepared.jsonl"
    run_cli("preprocess", synth_file, prepared_path)
    out = tmp_path / "model"
    code = run_cli("train", "--data", prepared_path, "--out", out,
                   "--epochs", 1, "--batch-size", 8, "--seed", 4,
                   "--embed-dim", 8, "--hidden", 8)
    assert code == 0


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
    assert 2 * config.hidden_per_direction == 256
    assert config.optimizer.learning_rate == 0.001
    assert config.dropout_p == 0.1
    assert config.embed_dim == 128
    assert config.decoder.max_steps == 40
    assert heldout_frac == 0.0


def test_bad_config_key_exits_2(tmp_path, synth_file):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_drive = on\n", encoding="utf-8")
    assert run_cli("train", "--data", synth_file, "--out", tmp_path / "m",
                   "--config", config) == 2


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


def test_clip_zero_is_a_config_error(tmp_path, capsys, synth_file):
    assert run_cli("train", "--data", synth_file, "--out", tmp_path / "m",
                   "--clip", 0) == 2
    assert "gradient_clip_norm" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_nan_loss_exits_2_without_checkpoint(tmp_path, capsys, monkeypatch, synth_file):
    monkeypatch.setattr(trainer, "problem_loss",
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


def test_solve_missing_checkpoint(tmp_path):
    assert run_cli("solve", "--checkpoint", tmp_path / "ghost",
                   "--text", "tom has 2 pens") == 2


def test_solve_empty_text_exits_2(capsys, trained_dir):
    assert run_cli("solve", "--checkpoint", trained_dir, "--text", "  ") == 2
    assert_one_error_line(capsys)


def assert_trace_matches_decode(record):
    """Each step record agrees with the decoded actions and the VM replay."""
    actions = [cli.action_from_wire(w) for w in record["actions"]]
    constants = [Fraction(c) for c in record["problem"]["constants"]]
    replay = eqlang.execute(actions, constants, max_steps=len(actions))
    assert len(record["steps"]) == len(actions) > 0
    for i, (step, action, stack) in enumerate(
            zip(record["steps"], actions, replay.stack_history)):
        assert step["step"] == i + 1
        assert step["action"] == ACTION_NAMES[action_to_index(action)]
        if isinstance(action, eqlang.Push):
            ref = action.ref
            expected = {eqlang.ONE_REF: "1", eqlang.PI_REF: "pi",
                        eqlang.UNKNOWN_REF: "x"}.get(ref) or f"c{ref.index}"
            assert step["operand"] == expected
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
    assert "dec.gate_sa.w" not in loaded.registry
    assert "dec.qattn.w" not in loaded.registry
    assert "dec.tf.+.vec" in loaded.registry
