"""Training loop, loss assembly, evaluation metrics, cross-validation."""
import math

import numpy as np
import pytest

from stacksolver import corpus, decoder, eqlang, numerics as nm, trainer
from stacksolver.decoder import DecodeResult, legal_action_mask
from stacksolver.eqlang import Push

from conftest import tiny_model, tiny_train_config, zeroed


def expected_uniform_loss(problem):
    """Closed-form loss of an all-zero model: sum of ln(legal set sizes)."""
    total = 0.0
    depth = 0
    has_unknown = False
    candidates = problem.n_constants + 3
    for action in problem.target:
        legal = int(legal_action_mask(depth, has_unknown).sum())
        total += math.log(legal)
        if isinstance(action, eqlang.GenVar):
            has_unknown = True
        elif isinstance(action, Push):
            total += math.log(candidates)
            depth += 1
        elif isinstance(action, eqlang.Apply):
            depth -= 1
        else:
            depth -= 2
    return total


def test_problem_loss_uniform_closed_form(synth_prepared):
    model, _ = tiny_model(synth_prepared)
    zeroed(model)
    for problem in synth_prepared[:6]:
        loss = trainer.problem_loss(problem, model, tape=None, training=False)
        assert np.isclose(float(loss.value), expected_uniform_loss(problem),
                          rtol=0, atol=1e-12)


def test_problem_loss_gradcheck(synth_prepared):
    model, _ = tiny_model(synth_prepared)

    def loss_fn(tape):
        return trainer.problem_loss(synth_prepared[0], model, tape=tape,
                                    training=True, rng=np.random.default_rng(9))

    err = nm.grad_check(loss_fn, model.registry, 40, np.random.default_rng(1))
    assert err < 1e-4


@pytest.mark.parametrize("overrides", [
    dict(constant_mode="self_attention"),
    dict(decoder=decoder.DecoderConfig(use_gate=False)),
    dict(decoder=decoder.DecoderConfig(use_attention=False)),
    dict(decoder=decoder.DecoderConfig(use_stack_feature=False)),
    dict(decoder=decoder.DecoderConfig(transformer_mode="embedding")),
    dict(decoder=decoder.DecoderConfig(constant_repr="fixed")),
])
def test_problem_loss_gradcheck_config_variants(synth_prepared, overrides):
    model, _ = tiny_model(synth_prepared, seed=6, **overrides)

    def loss_fn(tape):
        return trainer.problem_loss(synth_prepared[1], model, tape=tape,
                                    training=True, rng=np.random.default_rng(8))

    err = nm.grad_check(loss_fn, model.registry, 30, np.random.default_rng(2))
    assert err < 1e-4


def test_char_mode_end_to_end():
    raw = corpus.RawProblem(
        id="zh", text="红花 有 60 朵 ， 黄花 比"
                      " 红花 多 1/6 朵",
        equation="x=60+60*1/6", answer="70")
    problem = corpus.prepare(raw, mode="char")
    assert "60" in problem.tokens and "1/6" in problem.tokens
    assert problem.constant_values == [eqlang.Fraction(60), eqlang.Fraction(1, 6)]
    # the duplicated 60 maps to its first occurrence both times
    pushes = [a.ref for a in problem.target if isinstance(a, Push)]
    assert pushes.count(eqlang.ConstRef(0)) == 2
    model, _ = tiny_model([problem], seed=3)
    loss = trainer.problem_loss(problem, model, tape=None, training=False)
    assert float(loss.value) > 0
    outcome = eqlang.execute(problem.target, problem.constant_values)
    assert eqlang.answers_equal(eqlang.solve(outcome.equations), problem.gold_answer)


def test_teacher_forcing_mirrors_vm(synth_prepared):
    model, _ = tiny_model(synth_prepared, seed=2)
    for problem in synth_prepared[:5]:
        _, state = trainer.teacher_force(problem, model, tape=None, training=False)
        outcome = eqlang.execute(problem.target, problem.constant_values)
        assert list(state.equations) == outcome.equations
        assert list(state.sym_stack) == outcome.stack


def test_problem_loss_rejects_malformed_target(synth_prepared):
    model, _ = tiny_model(synth_prepared)
    bad = corpus.PreparedProblem(
        id="bad", tokens=["a", "3"], constant_positions=[1],
        constant_values=[eqlang.Fraction(3)],
        target=[Push(eqlang.ConstRef(0))], gold_answer=None)
    with pytest.raises(decoder.IllegalAction):
        trainer.problem_loss(bad, model, tape=None, training=False)


def test_train_empty_dataset():
    with pytest.raises(trainer.EmptyDataset):
        trainer.train([], tiny_train_config())


def test_nan_loss_stops_training_before_any_update(monkeypatch, synth_prepared):
    steps = []
    monkeypatch.setattr(trainer, "problem_loss",
                        lambda *args, **kwargs: nm.constant(np.nan))
    monkeypatch.setattr(nm, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(nm.NonFiniteValue, match="epoch 1, batch 1: loss is nan"):
        trainer.train(synth_prepared[:8], tiny_train_config())
    assert steps == []


def test_nan_gradient_stops_training(monkeypatch, synth_prepared):
    original = trainer.problem_loss

    def poisoned_loss(problem, model, *, tape, training, rng):
        leaf = nm.param(tape, model.registry, "enc.one")

        def poison():  # recorded first, so it runs last in the backward sweep
            leaf.grad = np.full_like(leaf.value, np.nan)
        tape.record(poison)
        return original(problem, model, tape=tape, training=training, rng=rng)

    monkeypatch.setattr(trainer, "problem_loss", poisoned_loss)
    with pytest.raises(nm.NonFiniteValue, match="epoch 1, batch 1: gradient norm is nan"):
        trainer.train(synth_prepared[:8], tiny_train_config())


def test_train_smoke_and_determinism(synth_prepared):
    subset = synth_prepared[:8]
    config = tiny_train_config(epochs=3, batch_size=4, seed=17, eval_every=3)
    r1 = trainer.train(subset, config)
    r2 = trainer.train(subset, config)
    losses1 = [st.mean_loss for st in r1.history]
    losses2 = [st.mean_loss for st in r2.history]
    assert losses1 == losses2  # bit-identical, not merely close
    assert len(losses1) == 3
    assert r1.best_metrics is not None


def test_train_loss_decreases_early(synth_prepared):
    subset = synth_prepared[:8]
    config = tiny_train_config(epochs=6, batch_size=4, seed=23, eval_every=6)
    result = trainer.train(subset, config)
    losses = [st.mean_loss for st in result.history]
    assert losses[-1] < losses[0]


def oracle_decode(model, problem):
    """Replays the gold target, the upper-bound 'model' for the metrics."""
    outcome = eqlang.execute(problem.target, problem.constant_values)
    answer = eqlang.solve(outcome.equations)
    return DecodeResult(actions=list(problem.target), equations=outcome.equations,
                        answer=answer, status="solved", trace=[],
                        stack_history=outcome.stack_history)


def timeout_decode(model, problem):
    return DecodeResult(actions=[], equations=[], answer=None,
                        status="budget_exceeded", trace=[])


def test_evaluate_oracle_is_perfect(synth_prepared):
    model, _ = tiny_model(synth_prepared)
    metrics = trainer.evaluate(model, synth_prepared, decode_fn=oracle_decode)
    assert metrics.answer_accuracy == 1.0
    assert metrics.equation_accuracy == 1.0


def test_evaluate_timeouts_score_zero(synth_prepared):
    model, _ = tiny_model(synth_prepared)
    metrics = trainer.evaluate(model, synth_prepared, decode_fn=timeout_decode)
    assert metrics.answer_accuracy == 0.0


def test_evaluate_rejections_in_denominator(synth_prepared):
    model, _ = tiny_model(synth_prepared)
    metrics = trainer.evaluate(model, synth_prepared[:3], rejected=1,
                               decode_fn=oracle_decode)
    assert metrics.n_total == 4
    assert metrics.answer_accuracy == 0.75


def test_checkpoint_roundtrip_metrics_identical(tmp_path, synth_prepared):
    subset = synth_prepared[:6]
    config = tiny_train_config(epochs=2, batch_size=3, seed=31, eval_every=2)
    result = trainer.train(subset, config)
    before = trainer.evaluate(result.model, subset)
    trainer.save_model(tmp_path / "model", result.model)
    loaded = trainer.load_model(tmp_path / "model")
    after = trainer.evaluate(loaded, subset)
    assert before == after
    for name in result.model.registry.names():
        assert np.array_equal(result.model.registry[name], loaded.registry[name])


def test_cross_validate_smoke(synth_prepared):
    subset = synth_prepared[:8]
    config = tiny_train_config(epochs=2, batch_size=4, seed=3, eval_every=2)
    fold_metrics, mean_acc = trainer.cross_validate(subset, config, k=2)
    assert len(fold_metrics) == 2
    assert mean_acc == pytest.approx(
        np.mean([m.answer_accuracy for m in fold_metrics]))
    # folds partition the data
    split = corpus.make_folds([p.id for p in subset], k=2, seed=config.seed)
    ids0, ids1 = set(split.fold_ids(0)), set(split.fold_ids(1))
    assert ids0.isdisjoint(ids1)
    assert ids0 | ids1 == {p.id for p in subset}


def test_cross_validate_needs_two_folds(synth_prepared):
    with pytest.raises(ValueError):
        trainer.cross_validate(synth_prepared[:4], tiny_train_config(), k=1)


def test_overfit_one_decodes_target(overfit_one):
    result, problem = overfit_one
    assert result.best_metrics.answer_accuracy == 1.0
    decode = trainer.decode_problem(result.model, problem)
    assert decode.actions == problem.target
    assert decode.status == "solved"
    assert eqlang.answers_equal(decode.answer, problem.gold_answer)


def test_fixed_repr_training_filters_large_problems(synth_prepared):
    text = " ".join(str(n) for n in range(2, 19)) + " things"
    raw = corpus.RawProblem(id="wide", text=text, equation="x=2", answer="2")
    wide = corpus.prepare(raw)
    config = tiny_train_config(
        epochs=1, batch_size=2, eval_every=1,
        decoder=decoder.DecoderConfig(constant_repr="fixed"))
    result = trainer.train(synth_prepared[:4] + [wide], config)
    metrics = trainer.evaluate(result.model, synth_prepared[:4] + [wide])
    assert metrics.n_rejected == 1
    assert metrics.n_total == 5
