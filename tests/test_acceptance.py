"""Acceptance criteria, one test per criterion, each printing a verdict line.

Heavy runs (the overfit and generalization trainings, the decode fuzz) are
module-scoped fixtures so later criteria can reuse their outputs. Criterion 1
is the stated non-goal of reproducing full-scale benchmark accuracy; it runs
a non-gating smoke train only when a real dataset is supplied via the
STACKSOLVER_MATH23K environment variable.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stacksolver import corpus, decoder, encoder, eqlang, numerics as nm, trainer
from stacksolver.decoder import DecoderConfig

from test_decoder import expected_param_count
from test_eqlang import roundtrip_once


def report(capsys, ok: bool, criterion: int, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance] criterion {criterion}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def prepare_synth(count, seed, difficulty):
    raws = corpus.synth_generate(count, seed=seed, difficulty=difficulty)
    prepared, rejections = corpus.prepare_dataset(raws)
    assert rejections.total_rejected == 0
    return prepared


# ---------------------------------------------------------------------------
# shared heavy runs


OVERFIT_CONFIG = dict(
    epochs=300, batch_size=8, seed=20240, embed_dim=32, hidden_per_direction=32,
    eval_every=5, patience=300, target_accuracy=0.95)


@pytest.fixture(scope="module")
def overfit_run():
    prepared = prepare_synth(64, seed=1234, difficulty=2)
    config = trainer.TrainConfig(**OVERFIT_CONFIG)
    start = time.perf_counter()
    result = trainer.train(prepared, config)
    elapsed = time.perf_counter() - start
    return result, prepared, elapsed


@pytest.fixture(scope="module")
def generalize_run():
    prepared = prepare_synth(640, seed=4321, difficulty=2)
    train_part, held_part = prepared[:512], prepared[512:]
    config = trainer.TrainConfig(
        epochs=150, batch_size=16, seed=77, embed_dim=32, hidden_per_direction=32,
        eval_every=5, patience=150, target_accuracy=0.95)
    start = time.perf_counter()
    result = trainer.train(train_part, config, heldout=held_part)
    elapsed = time.perf_counter() - start
    return result, train_part, held_part, elapsed


@pytest.fixture(scope="module")
def fuzz_run():
    """10,000 greedy decodes under randomly initialized parameters."""
    prepared = prepare_synth(100, seed=555, difficulty=3)
    vocab = encoder.build_vocab(p.tokens for p in prepared)
    base_config = trainer.TrainConfig(epochs=1, batch_size=1, embed_dim=8,
                                      hidden_per_direction=8)
    underflows = 0
    malformed = 0
    mirror_failures = 0
    decodes = 0
    equations_seen = 0
    start = time.perf_counter()
    for model_seed in range(100):
        rng = np.random.default_rng(model_seed)
        model = trainer.build_model(vocab, base_config, rng)
        # spread the parameter scale so decode behavior varies: some runs
        # complete equations, others exhaust the budget
        scale = rng.uniform(1.0, 30.0)
        for name in model.registry.names():
            model.registry[name][...] *= scale
        for problem in prepared:
            encoded = encoder.encode(problem, model.vocab, model.registry,
                                     model.enc_config)
            result = decoder.greedy_decode(encoded, problem, model.registry,
                                           model.dec_config)
            decodes += 1
            try:
                outcome = eqlang.execute(result.actions, problem.constant_values,
                                         max_steps=model.dec_config.max_steps)
            except eqlang.StackUnderflow:
                underflows += 1
                continue
            if (outcome.stack_history != result.stack_history
                    or outcome.equations != result.equations):
                mirror_failures += 1
            for lhs, rhs in result.equations:
                equations_seen += 1
                text = eqlang.equation_to_infix(lhs, rhs)
                try:
                    eqlang.parse_equation(text)
                except eqlang.EquationSyntaxError:
                    malformed += 1
    elapsed = time.perf_counter() - start
    return dict(decodes=decodes, underflows=underflows, malformed=malformed,
                mirror_failures=mirror_failures, equations=equations_seen,
                elapsed=elapsed)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_full_scale_disclaimer(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    stated = "65.8" in readme and "65.3" in readme and "Math23K" in readme
    assert stated, "README must state that full-scale accuracy is out of scope"
    dataset = os.environ.get("STACKSOLVER_MATH23K")
    if dataset:
        raws = corpus.load_dataset(dataset)
        prepared, rejections = corpus.prepare_dataset(raws, mode="char")
        split = corpus.make_folds([p.id for p in prepared], k=5, seed=1)
        held = set(split.fold_ids(0))
        train_part = [p for p in prepared if p.id not in held][:2000]
        held_part = [p for p in prepared if p.id in held]
        config = trainer.TrainConfig(epochs=20, batch_size=32, seed=1,
                                     eval_every=5, patience=20, mode="char")
        result = trainer.train(train_part, config, heldout=held_part)
        metrics = result.best_metrics
        detail = (f"smoke run on {len(train_part)} problems: answer accuracy "
                  f"{metrics.answer_accuracy:.3f}, rejected {rejections.total_rejected}")
    else:
        detail = ("disclaimer stated in README; no dataset supplied, "
                  "smoke run skipped (set STACKSOLVER_MATH23K to enable)")
    report(capsys, True, 1, detail)


def test_criterion_2_symbolic_roundtrip(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        roundtrip_once(rng, depth=6)
    elapsed = time.perf_counter() - start
    report(capsys, elapsed < 10.0, 2,
           f"1000 random equations round-tripped exactly in {elapsed:.2f}s")


def test_criterion_3_gradient_correctness(capsys):
    prepared = prepare_synth(5, seed=999, difficulty=2)
    config = trainer.TrainConfig(epochs=1, batch_size=1, seed=0, embed_dim=8,
                                 hidden_per_direction=8)
    vocab = encoder.build_vocab(p.tokens for p in prepared)
    model = trainer.build_model(vocab, config, np.random.default_rng(12))
    start = time.perf_counter()
    worst = 0.0
    for k, problem in enumerate(prepared):
        def loss_fn(tape, problem=problem):
            return trainer.problem_loss(problem, model, tape=tape,
                                        rng=np.random.default_rng(404))
        err = nm.grad_check(loss_fn, model.registry, probe_count=200,
                            rng=np.random.default_rng(k))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(capsys, worst < 1e-4 and elapsed < 120.0, 3,
           f"5 problems x 200 probes, max rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_legality_fuzz(capsys, fuzz_run):
    ok = (fuzz_run["decodes"] == 10_000 and fuzz_run["underflows"] == 0
          and fuzz_run["malformed"] == 0 and fuzz_run["equations"] > 0
          and fuzz_run["elapsed"] < 300.0)
    report(capsys, ok, 4,
           f"{fuzz_run['decodes']} random-parameter decodes, "
           f"{fuzz_run['underflows']} underflows, {fuzz_run['malformed']} of "
           f"{fuzz_run['equations']} recorded equations malformed, "
           f"in {fuzz_run['elapsed']:.1f}s")


def test_criterion_5_overfit_64(capsys, overfit_run):
    result, _, elapsed = overfit_run
    accuracy = result.best_metrics.answer_accuracy
    epochs_used = result.history[-1].epoch
    ok = accuracy >= 0.95 and epochs_used <= 300 and elapsed < 900.0
    report(capsys, ok, 5,
           f"train answer accuracy {accuracy:.3f} after {epochs_used} epochs "
           f"in {elapsed:.1f}s")


def test_overfit_loss_decreases_early(overfit_run):
    # 2-epoch smoothed training loss strictly decreases over the first 10 epochs
    result, _, _ = overfit_run
    losses = [stats.mean_loss for stats in result.history[:11]]
    smoothed = [(a + b) / 2 for a, b in zip(losses, losses[1:])]
    assert all(x > y for x, y in zip(smoothed, smoothed[1:]))
    assert all(stats.mean_loss >= 0 for stats in result.history)


def test_criterion_6_generalize_synthetic(capsys, generalize_run):
    result, _, held_part, elapsed = generalize_run
    metrics = trainer.evaluate(result.model, held_part)
    ok = metrics.answer_accuracy >= 0.80 and elapsed < 2700.0
    report(capsys, ok, 6,
           f"held-out answer accuracy {metrics.answer_accuracy:.3f} on "
           f"{len(held_part)} problems, trained in {elapsed:.1f}s")


def test_criterion_7_ablation_plumbing(capsys):
    problems = prepare_synth(4, seed=31, difficulty=1)
    vocab = encoder.build_vocab(p.tokens for p in problems)
    variants = {
        "baseline": trainer.TrainConfig(),
        "-gate": trainer.TrainConfig(decoder=DecoderConfig(use_gate=False)),
        "-attention": trainer.TrainConfig(decoder=DecoderConfig(use_attention=False)),
        "-stack": trainer.TrainConfig(decoder=DecoderConfig(use_stack_feature=False)),
        "-transformer": trainer.TrainConfig(
            decoder=DecoderConfig(transformer_mode="embedding")),
        "-semantics": trainer.TrainConfig(constant_mode="fixed"),
        "stripped": trainer.TrainConfig(decoder=DecoderConfig(
            use_gate=False, use_attention=False, use_stack_feature=False)),
    }
    for name, config in variants.items():
        model = trainer.build_model(vocab, config, np.random.default_rng(1))
        expected = expected_param_count(len(vocab), model.enc_config, model.dec_config)
        assert model.registry.flat.size == expected, name
    # fully stripped features are bitwise the recurrent state
    config = trainer.TrainConfig(
        embed_dim=16, hidden_per_direction=16,
        decoder=DecoderConfig(use_gate=False, use_attention=False,
                              use_stack_feature=False))
    model = trainer.build_model(vocab, config, np.random.default_rng(2))
    encoded = encoder.encode(problems[0], model.vocab, model.registry,
                             model.enc_config)
    run = decoder.DecoderRun(encoded, [problems[0]], model.registry,
                             model.dec_config)
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    assert feats.action_feats is state.h
    report(capsys, True, 7,
           "7 flag settings match predicted parameter counts exactly; "
           "stripped features equal the recurrent state bitwise")


def test_criterion_8_mirror_invariant(capsys, fuzz_run, overfit_run,
                                      generalize_run):
    failures = fuzz_run["mirror_failures"]
    checked = fuzz_run["decodes"]
    for result, problems in ((overfit_run[0], overfit_run[1]),
                             (generalize_run[0], generalize_run[2])):
        for problem in problems:
            decode = trainer.decode_problem(result.model, problem)
            outcome = eqlang.execute(decode.actions, problem.constant_values,
                                     max_steps=result.model.dec_config.max_steps)
            checked += 1
            if (outcome.stack_history != decode.stack_history
                    or outcome.equations != decode.equations):
                failures += 1
    report(capsys, failures == 0, 8,
           f"{checked} decodes mirrored the symbolic VM step for step, "
           f"{failures} mismatches")


def test_criterion_9_determinism(capsys, overfit_run):
    result, prepared, _ = overfit_run
    rerun = trainer.train(prepared, trainer.TrainConfig(**OVERFIT_CONFIG))
    first = result.final_loss
    second = rerun.final_loss
    ok = (first == second) and len(result.history) == len(rerun.history)
    report(capsys, ok, 9,
           f"rerun final loss {second!r} == first run {first!r} (bit-identical)")
