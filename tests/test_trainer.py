"""Training loop, loss assembly, evaluation metrics, cross-validation."""
import math
import os

import numpy as np
import pytest

from stacksolver import corpus, decoder, encoder, eqlang, numerics as nm, trainer
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
        loss = trainer.problem_loss(problem, model, tape=None)
        assert np.isclose(float(loss.value), expected_uniform_loss(problem),
                          rtol=0, atol=1e-12)


def test_problem_loss_gradcheck(synth_prepared):
    model, _ = tiny_model(synth_prepared)

    def loss_fn(tape):
        return trainer.problem_loss(synth_prepared[0], model, tape=tape,
                                    rng=np.random.default_rng(9))

    err = nm.grad_check(loss_fn, model.registry, 40, np.random.default_rng(1))
    assert err < 1e-4


CONFIG_VARIANTS = [
    dict(constant_mode="self_attention"),
    dict(decoder=decoder.DecoderConfig(use_gate=False)),
    dict(decoder=decoder.DecoderConfig(use_attention=False)),
    dict(decoder=decoder.DecoderConfig(use_stack_feature=False)),
    dict(decoder=decoder.DecoderConfig(transformer_mode="embedding")),
    dict(constant_mode="fixed"),
]


@pytest.mark.parametrize("overrides", CONFIG_VARIANTS)
def test_problem_loss_gradcheck_config_variants(synth_prepared, overrides):
    model, _ = tiny_model(synth_prepared, seed=6, **overrides)

    def loss_fn(tape):
        return trainer.problem_loss(synth_prepared[1], model, tape=tape,
                                    rng=np.random.default_rng(8))

    err = nm.grad_check(loss_fn, model.registry, 30, np.random.default_rng(2))
    assert err < 1e-4


def mixed_batch(problems, size):
    """Problems that all push x, with differing token counts, target lengths
    and constant counts, so every padded and narrowed path is exercised."""
    batch = [p for p in problems if Push(eqlang.UNKNOWN_REF) in p.target][:size]
    assert len(batch) == size
    for feature in (lambda p: len(p.tokens), lambda p: len(p.target),
                    lambda p: p.n_constants):
        assert len({feature(p) for p in batch}) > 1
    return batch


def loss_and_grads(registry, loss_of):
    """The value of ``loss_of(tape)`` and a copy of each parameter's gradient."""
    registry.zero_grads()
    tape = nm.Tape()
    loss = loss_of(tape)
    tape.backward(loss)
    return float(loss.value), {n: registry.grads[n].copy() for n in registry.names()}


@pytest.mark.parametrize("overrides", [{}] + CONFIG_VARIANTS)
def test_batch_loss_is_the_sum_of_problem_losses(synth_prepared, overrides):
    model, _ = tiny_model(synth_prepared, seed=6, **overrides)
    registry = model.registry
    batch = mixed_batch(synth_prepared, 6)

    # dropout is off without an rng, so the two paths do the same arithmetic
    batch_value, batch_grads = loss_and_grads(
        registry, lambda tape: trainer.batch_loss(batch, model, tape=tape))
    singles = [loss_and_grads(registry, lambda tape, p=p: trainer.problem_loss(
        p, model, tape=tape)) for p in batch]
    assert batch_value == pytest.approx(sum(v for v, _ in singles), rel=1e-10, abs=0)
    for name in registry.names():
        summed = sum(grads[name] for _, grads in singles)
        assert np.abs(batch_grads[name] - summed).max() <= 1e-10 * np.abs(summed).max(), name


def stepwise_loss(problems, model, *, tape):
    """The teacher-forced loss with the heads run at every step of the
    lockstep loop, on that step's rows: one pass, without dropout."""
    rows = sorted(problems, key=lambda p: -len(p.target))
    lengths = np.array([len(p.target) for p in rows])
    encoded = encoder.encode_batch(rows, model.vocab, model.registry, model.enc_config,
                                   tape=tape)
    run = decoder.DecoderRun(encoded, rows, model.registry, model.dec_config, tape=tape)
    state = run.initial_state()
    terms = []
    for step in range(lengths[0]):
        active = int((lengths > step).sum())
        if active < state.rows:  # the rows whose targets have not ended
            keep = slice(0, active)
            state = decoder.DecoderState(
                nm.gather(tape, state.h, keep), nm.gather(tape, state.c, keep),
                state.last[keep], state.unknown[keep], state.vec_stacks[keep])
        state = run.advance(state)
        gold = [p.target[step] for p in rows[:active]]
        kinds = np.array([eqlang.action_index(a) for a in gold])
        feats = run.state_features(state)
        terms.append(run.action_loss(run.select_action(feats, state), kinds))
        pushes = np.flatnonzero(kinds == eqlang.PUSH)
        if pushes.size:
            operands = np.array([eqlang.operand_index(gold[r].ref, rows[r].n_constants)
                                 for r in pushes])
            # the step's rows as a tall state's: select_operand takes rows of those alone
            tall = decoder.TallState(state.h, state.top_two, state.depth, state.has_unknown,
                                     np.arange(state.rows))
            terms.append(run.operand_loss(run.select_operand(feats, tall, pushes),
                                          operands))
        state = run.apply_action(state, gold)
    return nm.add_n(tape, terms)


@pytest.mark.parametrize("size", [1, 6])
@pytest.mark.parametrize("overrides", [{}] + CONFIG_VARIANTS)
def test_two_pass_loss_matches_the_heads_run_step_by_step(synth_prepared, overrides, size):
    model, _ = tiny_model(synth_prepared, seed=6, **overrides)
    registry = model.registry
    batch = mixed_batch(synth_prepared, 6)[:size]
    value, grads = loss_and_grads(
        registry, lambda tape: trainer.batch_loss(batch, model, tape=tape))
    want_value, want_grads = loss_and_grads(
        registry, lambda tape: stepwise_loss(batch, model, tape=tape))
    assert value == pytest.approx(want_value, rel=1e-12, abs=0)
    for name in registry.names():
        want = want_grads[name]
        assert np.abs(grads[name] - want).max() <= 1e-10 * np.abs(want).max(), name


def test_batch_loss_gradcheck_with_dropout(synth_prepared):
    model, _ = tiny_model(synth_prepared, seed=7)
    batch = mixed_batch(synth_prepared, 3)

    def loss_fn(tape):
        return trainer.batch_loss(batch, model, tape=tape, rng=np.random.default_rng(11))

    err = nm.grad_check(loss_fn, model.registry, 60, np.random.default_rng(3))
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
    loss = trainer.problem_loss(problem, model, tape=None)
    assert float(loss.value) > 0
    outcome = eqlang.execute(problem.target, problem.constant_values)
    assert eqlang.answers_equal(eqlang.solve(outcome.equations), problem.gold_answer)


def test_teacher_forcing_mirrors_vm(monkeypatch, synth_prepared):
    """At every lockstep step of ``batch_loss`` on a mixed batch, each row's
    pointer stack is as deep as the VM's stack after the same gold actions."""
    model, _ = tiny_model(synth_prepared, seed=2)
    batch = mixed_batch(synth_prepared, 6)
    run_apply = decoder.DecoderRun.apply_action
    steps = []

    def apply_action(run, state, actions):
        state = run_apply(run, state, actions)
        steps.append([(problem, len(stack))
                      for problem, stack in zip(run.problems, state.vec_stacks)])
        return state

    monkeypatch.setattr(decoder.DecoderRun, "apply_action", apply_action)
    trainer.batch_loss(batch, model, tape=nm.Tape())
    assert len(steps) == max(len(p.target) for p in batch)
    seen = 0
    for step, rows in enumerate(steps):
        assert [len(p.target) > step for p, _ in rows] == [True] * len(rows)
        for problem, depth in rows:
            history = eqlang.execute(problem.target, problem.constant_values).stack_history
            assert depth == len(history[step])
        seen += len(rows)
    assert seen == sum(len(p.target) for p in batch)


@pytest.mark.parametrize("target", [
    [Push(eqlang.ConstRef(0))],                                      # no genvar first
    [eqlang.GEN_VAR, Push(eqlang.ConstRef(0)), eqlang.Apply("+")],   # apply at depth 1
    [eqlang.GEN_VAR, eqlang.GEN_VAR],                                # a second genvar
])
def test_problem_loss_rejects_malformed_target(synth_prepared, target):
    model, _ = tiny_model(synth_prepared)
    bad = corpus.PreparedProblem(
        id="bad", tokens=["a", "3"], constant_positions=[1],
        constant_values=[eqlang.Fraction(3)], target=target, gold_answer=None)
    with pytest.raises(decoder.IllegalAction):
        trainer.problem_loss(bad, model, tape=None)
    with pytest.raises(decoder.IllegalAction):  # and beside a legal target, on a tape
        trainer.batch_loss([synth_prepared[0], bad], model, tape=nm.Tape())


def test_train_empty_dataset():
    with pytest.raises(trainer.EmptyDataset):
        trainer.train([], tiny_train_config())


def test_nan_loss_stops_training_before_any_update(monkeypatch, synth_prepared):
    steps = []
    monkeypatch.setattr(trainer, "batch_loss",
                        lambda *args, **kwargs: nm.constant(np.nan))
    monkeypatch.setattr(nm, "adam_step", lambda *args: steps.append(args))
    with pytest.raises(nm.NonFiniteValue, match="epoch 1, batch 1: loss is nan"):
        trainer.train(synth_prepared[:8], tiny_train_config())
    assert steps == []


def test_nan_gradient_stops_training(monkeypatch, synth_prepared):
    original = trainer.batch_loss

    def poisoned_loss(problems, model, *, tape, rng):
        leaf = nm.param(tape, model.registry, "enc.one")

        def poison():  # recorded first, so it runs last in the backward sweep
            nm._acc(leaf, np.full_like(leaf.value, np.nan))
        tape.record(poison)
        return original(problems, model, tape=tape, rng=rng)

    monkeypatch.setattr(trainer, "batch_loss", poisoned_loss)
    with pytest.raises(nm.NonFiniteValue, match="epoch 1, batch 1: gradient norm is nan"):
        trainer.train(synth_prepared[:8], tiny_train_config())


def test_a_non_finite_parameter_is_never_kept_as_the_best(monkeypatch, synth_prepared):
    original = nm.adam_step

    def poisoned_step(registry, config):
        original(registry, config)
        # no problem has an unknown token and padding reads zeros, so neither
        # a loss nor a decode reads it
        registry["enc.embed"][encoder.UNK_ID] = np.nan

    monkeypatch.setattr(nm, "adam_step", poisoned_step)
    with pytest.raises(nm.NonFiniteValue, match="epoch 1: a parameter is not finite"):
        trainer.train(synth_prepared[:8], tiny_train_config(batch_size=4))


@pytest.mark.parametrize("eval_every, patience, last_epoch, best_epoch",
                         [(1, 2, 4, 2), (2, 3, 8, 4)])
def test_training_stops_after_patience_epochs_without_a_better_accuracy(
        monkeypatch, synth_prepared, eval_every, patience, last_epoch, best_epoch):
    accuracies = iter([0.25, 0.5, 0.25, 0.25, 1.0])  # the 1.0 is never reached
    snapshots = []

    def scripted_evaluate(model, problems, rejected=0):
        snapshots.append(model.registry.flat.copy())
        return trainer.Metrics(answer_accuracy=next(accuracies), equation_accuracy=0.0,
                               n_total=len(problems), n_correct_answer=0,
                               n_correct_equation=0, n_rejected=0)

    monkeypatch.setattr(trainer, "evaluate", scripted_evaluate)
    config = tiny_train_config(epochs=10, eval_every=eval_every, patience=patience)
    result = trainer.train(synth_prepared[:8], config)
    assert [stats.epoch for stats in result.history] == list(range(1, last_epoch + 1))
    assert result.best_epoch == best_epoch
    assert result.best_metrics.answer_accuracy == 0.5
    # the returned parameters are the best epoch's, not the last epoch's
    best = snapshots[best_epoch // eval_every - 1]
    assert np.array_equal(result.model.registry.flat, best)
    assert not np.array_equal(best, snapshots[-1])


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


def test_evaluate_oracle_is_perfect(monkeypatch, synth_prepared):
    model, _ = tiny_model(synth_prepared)
    monkeypatch.setattr(trainer, "decode_problem", oracle_decode)
    metrics = trainer.evaluate(model, synth_prepared)
    assert metrics.answer_accuracy == 1.0
    assert metrics.equation_accuracy == 1.0


def test_evaluate_timeouts_score_zero(monkeypatch, synth_prepared):
    model, _ = tiny_model(synth_prepared)
    monkeypatch.setattr(trainer, "decode_problem", timeout_decode)
    metrics = trainer.evaluate(model, synth_prepared)
    assert metrics.answer_accuracy == 0.0


def test_evaluate_counts_a_huge_answer_as_wrong(monkeypatch, synth_prepared):
    """A solved answer beyond float range is a wrong answer, not an OverflowError."""
    model, _ = tiny_model(synth_prepared)
    monkeypatch.setattr(trainer, "decode_problem", lambda model, problem: DecodeResult(
        actions=[], equations=[], answer=eqlang.Fraction(10**400), status="solved", trace=[]))
    metrics = trainer.evaluate(model, synth_prepared[:3])
    assert metrics.n_total == 3 and metrics.answer_accuracy == 0.0


def test_evaluate_rejections_in_denominator(monkeypatch, synth_prepared):
    model, _ = tiny_model(synth_prepared)
    monkeypatch.setattr(trainer, "decode_problem", oracle_decode)
    metrics = trainer.evaluate(model, synth_prepared[:3], rejected=1)
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


@pytest.mark.parametrize("failing_call", [0, 1, 2])
def test_a_save_that_fails_part_way_never_leaves_a_mixed_pair(
        tmp_path, monkeypatch, synth_prepared, failing_call):
    """A save that fails writing the checkpoint (call 0) or moving either
    file into place (calls 1 and 2) leaves a directory that loads the old
    model or raises ``CheckpointError``, and no temporary file."""
    old, _ = tiny_model(synth_prepared, seed=1)
    new, _ = tiny_model(synth_prepared, seed=2)
    trainer.save_model(tmp_path, old)
    calls = []

    def failing(real):
        def call(*args, **kwargs):
            calls.append(real)
            if len(calls) - 1 == failing_call:
                raise OSError("no space left on device")
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(nm, "save_checkpoint", failing(nm.save_checkpoint))
    monkeypatch.setattr(os, "replace", failing(os.replace))
    with pytest.raises(OSError, match="no space left"):
        trainer.save_model(tmp_path, new)
    monkeypatch.undo()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["checkpoint.bin", "meta.json"]
    try:
        loaded = trainer.load_model(tmp_path)
    except nm.CheckpointError as exc:
        assert failing_call == 2 and "recorded for it" in str(exc)
    else:
        assert np.array_equal(loaded.registry.flat, old.registry.flat)


@pytest.mark.parametrize("overrides", [{}] + CONFIG_VARIANTS)
def test_load_model_expects_the_shapes_that_build_model_registers(synth_prepared, overrides):
    model, _ = tiny_model(synth_prepared, **overrides)
    want = trainer.param_shapes(model.enc_config, model.dec_config, len(model.vocab))
    assert list(want.items()) == list(model.registry.shapes.items())


def test_load_model_draws_no_values(tmp_path, monkeypatch, synth_prepared):
    model, _ = tiny_model(synth_prepared)
    trainer.save_model(tmp_path, model)

    def no_draw(rng, out):
        raise AssertionError(f"load_model drew values of shape {out.shape}")

    monkeypatch.setattr(nm, "uniform_init", no_draw)
    loaded = trainer.load_model(tmp_path)
    assert loaded.registry.flat.tobytes() == model.registry.flat.tobytes()


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
        epochs=1, batch_size=2, eval_every=1, constant_mode="fixed")
    result = trainer.train(synth_prepared[:4] + [wide], config)
    metrics = trainer.evaluate(result.model, synth_prepared[:4] + [wide])
    assert metrics.n_rejected == 1
    assert metrics.n_total == 5
