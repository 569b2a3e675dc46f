"""Decoder: legality masks, selectors, transformers, the dual-stack mirror."""
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from stacksolver import corpus, decoder, encoder, eqlang, numerics as nm, trainer
from stacksolver.decoder import (
    DecoderConfig,
    DecoderRun,
    greedy_decode,
    legal_action_mask,
    semantic_transform,
)
from stacksolver.encoder import EncoderConfig
from stacksolver.eqlang import ACTIONS, GEN_VAR, GENVAR, PUSH, apply, push

from conftest import tiny_model, zeroed

F = Fraction


def make_run(problems, *, seed=0, zero=False, problem_index=0, **config_overrides):
    model, _ = tiny_model(problems, seed=seed, **config_overrides)
    if zero:
        zeroed(model)
    problem = problems[problem_index]
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    run = DecoderRun(encoded, [problem], model.registry, model.dec_config)
    return model, run


def probs(dist):
    """A distribution's probabilities; masked entries are exactly 0."""
    if isinstance(dist, decoder.ActionDistribution):
        return nm.masked_softmax(dist.logits.value, dist.legal)
    return nm.masked_softmax(dist.scores.value, dist.mask)


def simple_problem():
    raw = corpus.RawProblem(id="s", text="tom has 4 apples and 6 pens now .",
                            equation="x=4+6", answer="10")
    return corpus.prepare(raw)


# ---------------------------------------------------------------------------
# masks and distributions


def test_mask_rules():
    mask = legal_action_mask(stack_depth=0, has_unknown=False)
    assert mask[GENVAR] and mask[PUSH]
    assert not mask[2:].any()
    mask = legal_action_mask(stack_depth=2, has_unknown=True)
    assert not mask[GENVAR]
    assert mask[PUSH] and mask[2:].all()


def test_select_action_depth0_masks_applies():
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    dist = run.select_action(run.state_features(state), state)
    assert np.all(probs(dist)[0, 2:] == 0.0)
    assert abs(probs(dist)[0].sum() - 1.0) < 1e-12


def test_select_action_uniform_when_zero_params():
    problem = simple_problem()
    _, run = make_run([problem], zero=True)
    state = run.initial_state()
    state = run.advance(state)
    state = run.apply_action(state, [GEN_VAR])
    for ref in ("c0", "c1"):
        state = run.advance(state)
        state = run.apply_action(state, [push(ref)])
    state = run.advance(state)
    dist = run.select_action(run.state_features(state), state)
    # depth 2 with the unknown generated: six legal actions, uniform 1/6
    p = probs(dist)[0]
    legal = p[p > 0]
    assert len(legal) == 6
    assert np.allclose(legal, 1 / 6)
    assert p[GENVAR] == 0.0


def test_distributions_sum_to_one_random_params():
    problem = simple_problem()
    _, run = make_run([problem], seed=8)
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    dist = run.select_action(feats, state)
    assert abs(probs(dist)[0].sum() - 1.0) < 1e-12
    odist = run.select_operand(feats, state)
    assert abs(probs(odist)[0].sum() - 1.0) < 1e-12


def test_argmax_invariant_under_logit_scaling():
    problem = simple_problem()
    model, run = make_run([problem], seed=21)
    state = run.advance(run.initial_state())
    dist = run.select_action(run.state_features(state), state)
    # scaling the scorer output layer scales all logits by the same factor
    model.registry["dec.act.w2"][...] *= 3.0
    model.registry["dec.act.b2"][...] *= 3.0
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    run2 = DecoderRun(encoded, [problem], model.registry, model.dec_config)
    state2 = run2.advance(run2.initial_state())
    dist2 = run2.select_action(run2.state_features(state2), state2)
    assert int(np.argmax(probs(dist)[0])) == int(np.argmax(probs(dist2)[0]))


# ---------------------------------------------------------------------------
# operand selection


def test_operand_candidates_before_genvar():
    problem = corpus.PreparedProblem(id="n0", tokens=["no", "numbers"],
                                     constant_positions=[], constant_values=[],
                                     target=[], gold_answer=None)
    _, run = make_run([problem], seed=5)
    state = run.advance(run.initial_state())
    odist = run.select_operand(run.state_features(state), state)
    # only the two external constants: x is not yet available
    assert probs(odist).shape == (1, 2)


def test_operand_candidates_after_genvar():
    problem = simple_problem()
    _, run = make_run([problem], seed=5)
    state = run.advance(run.initial_state())
    state = run.apply_action(state, [GEN_VAR])
    state = run.advance(state)
    odist = run.select_operand(run.state_features(state), state)
    assert probs(odist).shape == (1, problem.n_constants + 3)


def test_operand_keys_are_projected_again_after_genvar():
    """Scoring a push before genvar leaves no trace in the scores after it:
    x's key is projected with the others, and the scores equal a run's that
    never scored before genvar."""
    problem = simple_problem()
    _, early = make_run([problem], seed=5)
    _, late = make_run([problem], seed=5)
    state = early.advance(early.initial_state())
    early.select_operand(early.state_features(state), state)
    scores = []
    for run, state in ((early, state), (late, late.advance(late.initial_state()))):
        state = run.advance(run.apply_action(state, [GEN_VAR]))
        scores.append(run.select_operand(run.state_features(state), state).scores.value)
    assert scores[0].shape == (1, problem.n_constants + 3)
    assert np.array_equal(scores[0], scores[1])


def test_operand_identical_vectors_get_equal_probability():
    problem = simple_problem()
    model, run = make_run([problem], seed=13)
    # forge two identical candidate vectors; content addressing cannot split them
    first, second = run._candidate_rows[0, :2]
    run.buffer.value[second] = run.buffer.value[first]
    state = run.advance(run.initial_state())
    odist = run.select_operand(run.state_features(state), state)
    assert np.isclose(probs(odist)[0, 0], probs(odist)[0, 1])


def test_operand_loss_gradient_matches_fd():
    problem = simple_problem()
    rng = np.random.default_rng(3)
    d = 6
    registry = nm.ParamRegistry({"cands": (1, 3, d), "query": (1, d), "v": (d,),
                                 "w": (d, 2 * d), "b": (d,)})
    for name, shape in registry.shapes.items():
        registry[name][...] = rng.standard_normal(shape) * 0.3

    def loss_fn(tape):
        scores = nm.attention_scores(tape, *(nm.param(tape, registry, name)
                                             for name in ("query", "cands", "v", "w", "b")),
                                     np.array([0]))
        return nm.softmax_cross_entropy(tape, scores, [1])

    err = nm.grad_check(loss_fn, registry, 60, np.random.default_rng(0))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# semantic transformer


def test_transform_zero_params_gives_zero():
    problem = simple_problem()
    model, run = make_run([problem], zero=True)
    d = model.enc_config.dim
    out = semantic_transform("+", nm.constant(np.ones(2 * d)), run._p, "mlp")
    assert np.array_equal(out.value, np.zeros(d))


def test_transform_embedding_mode_ignores_inputs():
    problem = simple_problem()
    model, run = make_run([problem], seed=6,
                          decoder=DecoderConfig(transformer_mode="embedding"))
    d = model.enc_config.dim
    rng = np.random.default_rng(0)
    a = semantic_transform("*", nm.constant(rng.standard_normal(2 * d)), run._p, "embedding")
    b = semantic_transform("*", nm.constant(rng.standard_normal(2 * d)), run._p, "embedding")
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.value, model.registry["dec.tf.*.vec"])


def test_transform_operators_differ():
    problem = simple_problem()
    model, run = make_run([problem], seed=14)
    d = model.enc_config.dim
    pair = nm.constant(np.concatenate([np.full(d, 0.3), np.full(d, -0.2)]))
    outputs = [semantic_transform(op, pair, run._p, "mlp").value
               for op in eqlang.OPS]
    for i in range(len(outputs)):
        for j in range(i + 1, len(outputs)):
            assert not np.allclose(outputs[i], outputs[j])


# ---------------------------------------------------------------------------
# gated features


def test_empty_stack_feature_is_zero_padded():
    problem = simple_problem()
    model, run = make_run([problem], seed=4, decoder=DecoderConfig(use_gate=False))
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    d = model.enc_config.dim
    # layout: [h; s; q] with s the zero-padded top-2 block
    assert np.array_equal(feats.action_feats.value[0, d:3 * d], np.zeros(2 * d))


def test_gate_values_in_unit_interval():
    problem = simple_problem()
    _, run = make_run([problem], seed=4)
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    for g in (feats.gate_action, feats.gate_operand):
        assert np.all(g > 0) and np.all(g < 1)
        assert g.shape == (1, 3)


def test_saturated_gates_match_ungated():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=16)
    model.registry["dec.gate_sa.w"][...] = 0.0
    model.registry["dec.gate_sa.b"][...] = 50.0
    model.registry["dec.gate_opd.w"][...] = 0.0
    model.registry["dec.gate_opd.b"][...] = 50.0

    def features(config):
        encoded = encoder.encode(problem, model.vocab, model.registry,
                                 model.enc_config)
        run = DecoderRun(encoded, [problem], model.registry, config)
        state = run.advance(run.initial_state())
        return run.state_features(state)

    gated = features(model.dec_config)
    ungated_config = replace(model.dec_config, use_gate=False)
    ungated = features(ungated_config)
    assert np.allclose(gated.action_feats.value, ungated.action_feats.value,
                       atol=1e-6)
    assert np.allclose(gated.operand_feats.value, ungated.operand_feats.value,
                       atol=1e-6)


def test_fully_stripped_features_are_h_bitwise():
    problem = simple_problem()
    config = DecoderConfig(use_gate=False, use_attention=False,
                           use_stack_feature=False)
    _, run = make_run([problem], seed=2, decoder=config)
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    assert feats.action_feats is state.h
    assert feats.operand_feats is state.h
    assert np.array_equal(feats.action_feats.value, state.h.value)
    assert feats.attention_weights is None


# ---------------------------------------------------------------------------
# apply_action and the mirror


def test_push_mirrors_symbolic_vm():
    """A push deepens the semantic stack as the VM deepens the symbolic one,
    with the vector of the constant that the VM pushes."""
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    actions = [GEN_VAR, push("c1")]
    state = run.initial_state()
    for action in actions:
        state = run.apply_action(run.advance(state), [action])
    outcome = eqlang.execute(actions, problem.constant_values)
    assert outcome.stack == [eqlang.Const(problem.constant_values[1])]
    assert state.depth.tolist() == [len(outcome.stack)]
    # the semantic stack points at constant 1's vector, the step's result too
    row = run._candidate_rows[0, 1]
    assert state.vec_stacks[0] == (row,) and state.last[0] == row
    assert np.array_equal(run.buffer.value[row], run.encoded.constants.value[1])


def test_genvar_on_some_rows_only_is_rejected():
    """Genvar is every row's step 0, the one step at which eqlang allows it,
    so a run generates x for all rows at once and refuses it for some."""
    problems = [simple_problem()] * 2
    model, _ = tiny_model(problems, seed=3)
    encoded = encoder.encode_batch(problems, model.vocab, model.registry, model.enc_config)
    run = DecoderRun(encoded, problems, model.registry, model.dec_config)
    state = run.advance(run.initial_state())
    with pytest.raises(ValueError, match="every row"):
        run.apply_action(state, [GEN_VAR, push("c0")])


def test_apply_action_takes_one_action_per_row():
    problems = [simple_problem()] * 2
    model, _ = tiny_model(problems, seed=3)
    encoded = encoder.encode_batch(problems, model.vocab, model.registry, model.enc_config)
    run = DecoderRun(encoded, problems, model.registry, model.dec_config)
    with pytest.raises(ValueError, match="1 actions for 2 rows"):
        run.apply_action(run.advance(run.initial_state()), [GEN_VAR])


def test_teacher_forcing_takes_rows_longest_target_first(fig1_prepared):
    """A run's rows still decoding at a step must be its first ones."""
    problems = [simple_problem(), fig1_prepared]  # 6 and 10 actions
    model, _ = tiny_model(problems, seed=3)
    encoded = encoder.encode_batch(problems, model.vocab, model.registry, model.enc_config)
    run = DecoderRun(encoded, problems, model.registry, model.dec_config)
    with pytest.raises(ValueError, match="longest first"):
        run.loss()


def test_teacher_forced_fig1_solves(fig1_prepared):
    """The gold target passes the target check, its semantic stack keeps the
    VM's depth at every step, and the VM's one equation solves to 10."""
    model, run = make_run([fig1_prepared], seed=19)
    eqlang.check_target(fig1_prepared.target, fig1_prepared.n_constants)
    outcome = eqlang.execute(fig1_prepared.target, fig1_prepared.constant_values)
    state = run.initial_state()
    for gold, stack in zip(fig1_prepared.target, outcome.stack_history, strict=True):
        state = run.apply_action(run.advance(state), [gold])
        assert state.depth.tolist() == [len(stack)]
    assert state.vec_stacks == ((),) and outcome.stack == []
    assert len(outcome.equations) == 1
    assert eqlang.solve(outcome.equations) == 10


def test_equal_on_two_element_stack_leaves_zero_result():
    problem = simple_problem()
    model, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    state = run.apply_action(state, [GEN_VAR])
    for ref in ("x", "c0"):
        state = run.advance(state)
        state = run.apply_action(state, [push(ref)])
    state = run.advance(state)
    state = run.apply_action(state, [eqlang.APPLY_EQUAL])
    assert state.depth[0] == 0
    assert np.array_equal(run.buffer.value[state.last[0]],
                          np.zeros(model.enc_config.dim))


def test_stack_step_moves_the_pointers():
    """Each action kind on a thin stack of rows 7, 8, 9 (top last): the stack
    after it and the step's result row."""
    step = decoder._stack_step
    stack = (7, 8, 9)
    assert step(stack, PUSH, 4) == ((7, 8, 9, 4), 4)
    assert step(stack, GENVAR, 12) == (stack, 12)
    assert step(stack, apply("-").kind, 12) == ((7, 12), 12)
    # equal pops two; the entry left on top is the result, the zero row on empty
    assert step(stack, eqlang.EQUAL, 0) == ((7,), 7)
    assert step((8, 9), eqlang.EQUAL, 0) == ((), decoder.ZERO_ROW)


def test_illegal_actions_raise():
    """An operator on a short stack and a second genvar are masked, and a
    target that takes either is rejected."""
    problem = simple_problem()
    assert not legal_action_mask(1, True)[apply("+").kind]
    assert not legal_action_mask(2, True)[GENVAR]
    for target in ([GEN_VAR, apply("+")], [GEN_VAR, push("c0"), apply("+")],
                   [GEN_VAR, GEN_VAR]):
        with pytest.raises(decoder.IllegalAction):
            eqlang.check_target(target, problem.n_constants)


def test_push_unknown_before_genvar_is_illegal():
    """Before genvar x is no push candidate, and a target that pushes it
    first is rejected."""
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    odist = run.select_operand(run.state_features(state), state)
    assert odist.count.tolist() == [problem.n_constants + 2]
    with pytest.raises(decoder.IllegalAction, match="does not start with genvar"):
        eqlang.check_target([push("x"), GEN_VAR], problem.n_constants)


# ---------------------------------------------------------------------------
# greedy decoding


def test_greedy_budget_one_step():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=3)
    config = replace(model.dec_config, max_steps=1)
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    result = greedy_decode(encoded, problem, model.registry, config, trace=True)
    assert result.status == "budget_exceeded"
    assert result.answer is None
    assert len(result.trace) == 1


def test_greedy_never_executes_masked_actions():
    problems = [simple_problem()]
    for seed in range(30):
        model, _ = tiny_model(problems, seed=seed)
        encoded = encoder.encode(problems[0], model.vocab, model.registry,
                                 model.enc_config)
        result = greedy_decode(encoded, problems[0], model.registry,
                               model.dec_config)
        # replaying through the symbolic VM raises on any illegal action
        outcome = eqlang.execute(result.actions, problems[0].constant_values,
                                 max_steps=model.dec_config.max_steps)
        assert outcome.equations == result.equations
        assert outcome.stack_history == result.stack_history
        genvars = [a for a in result.actions if a.kind == GENVAR]
        assert len(genvars) <= 1


def test_greedy_trace_records_every_step():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=23)
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    result = greedy_decode(encoded, problem, model.registry, model.dec_config, trace=True)
    assert len(result.trace) == len(result.actions) == len(result.stack_history)
    for action, step in zip(result.actions, result.trace):
        assert step.action_probs.shape == (len(ACTIONS),)
        assert abs(step.action_probs.sum() - 1.0) < 1e-9
        assert step.action_probs[action.kind] > 0
        assert (step.operand_probs is not None) == (action.kind == PUSH)
        if step.attention is not None:
            assert abs(step.attention.sum() - 1.0) < 1e-9
            assert step.attention.shape == (len(problem.tokens),)


def test_greedy_steps_take_the_argmax_and_track_depth(monkeypatch):
    """At every step of a greedy decode, the chosen action and operand are the
    argmax of the trace's probabilities, and the semantic stack is as deep
    as the symbolic stack recorded for that step. The semantic stack is the
    reference loop's ``DecoderRun``, which ``greedy_decode`` equals bit for
    bit (``test_greedy_decode_equals_the_run_loop_bitwise``)."""
    problems = [simple_problem()]
    run_apply = DecoderRun.apply_action
    depths = []

    def apply_action(run, state, actions):
        state = run_apply(run, state, actions)
        depths.append(state.depth.tolist())
        return state

    monkeypatch.setattr(DecoderRun, "apply_action", apply_action)
    for seed in range(12):
        model, _ = tiny_model(problems, seed=seed)
        for name in model.registry.names():  # sharper, more varied decodes
            model.registry[name][...] *= 1.0 + seed
        encoded = encoder.encode(problems[0], model.vocab, model.registry,
                                 model.enc_config)
        depths.clear()
        result = reference_greedy_decode(encoded, problems[0], model.registry,
                                         model.dec_config)
        assert len(depths) == len(result.actions)
        for action, step, depth, stack in zip(
                result.actions, result.trace, depths, result.stack_history):
            probs = step.action_probs
            assert int(np.argmax(probs)) == action.kind
            assert probs[action.kind] > 0
            if action.kind == PUSH:
                choice = eqlang.operand_index(action.ref, problems[0].n_constants)
                assert int(np.argmax(step.operand_probs)) == choice
            assert depth == [len(stack)]


def reference_greedy_decode(encoded, problem, registry, config):
    """Greedy decoding as a one-row ``DecoderRun``, step by step through its
    ops: the reference that ``greedy_decode`` must equal bit for bit."""
    run = DecoderRun(encoded, [problem], registry, config)
    state = run.initial_state()
    actions, trace, stack, equations, history = [], [], [], [], []
    status = "budget_exceeded"
    for step in range(1, config.max_steps + 1):
        state = run.advance(state)
        feats = run.state_features(state)
        dist = run.select_action(feats, state)
        logits, legal = dist.logits.value[0], dist.legal[0]
        idx = int(np.where(legal, logits, -np.inf).argmax())
        decoder._check_finite(logits[idx], "action logit", step)
        scores = ref = None
        if idx == PUSH:
            scores = run.select_operand(feats, state).scores.value[0]
            choice = int(scores.argmax())
            decoder._check_finite(scores[choice], "operand score", step)
            ref = eqlang.operand_at(choice, problem.n_constants)
        action = eqlang.StackAction(idx, ref)
        try:
            eqlang.symbolic_step(stack, equations, action, problem.constant_values)
        except eqlang.ZeroDivisor:
            status = "unsolvable"
            break
        state = run.apply_action(state, [action])
        actions.append(action)
        history.append(tuple(stack))
        trace.append(decoder.StepTrace(
            action_logits=logits, legal=legal, operand_scores=scores,
            attention=None if feats.attention_weights is None else feats.attention_weights[0],
            gate_action=None if feats.gate_action is None else feats.gate_action[0],
            gate_operand=None if feats.gate_operand is None else feats.gate_operand[0]))
        if idx == eqlang.EQUAL and any(map(eqlang.has_unknown, equations[-1])):
            status = "solved"
            break
    answer = None
    if status == "solved":
        try:
            answer = eqlang.solve(equations)
        except (eqlang.NonAffine, eqlang.NoUnknown, eqlang.DivisionByZero):
            status = "unsolvable"
    return decoder.DecodeResult(actions=actions, equations=equations, answer=answer,
                                status=status, trace=trace, stack_history=history)


TRACE_ARRAYS = ("action_logits", "legal", "operand_scores", "attention", "gate_action",
                "gate_operand")


def assert_same_decode(got, want):
    assert got.actions == want.actions
    assert got.equations == want.equations
    assert got.stack_history == want.stack_history
    assert (got.status, got.answer) == (want.status, want.answer)
    assert len(got.trace) == len(want.trace)
    for step, (mine, theirs) in enumerate(zip(got.trace, want.trace)):
        for name in TRACE_ARRAYS:
            a, b = getattr(mine, name), getattr(theirs, name)
            assert (a is None) == (b is None), (step, name)
            if a is not None:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                    (step, name)


@pytest.fixture(scope="module")
def fuzz_problems():
    raws = corpus.synth_generate(6, seed=17, difficulty=3)
    prepared, report = corpus.prepare_dataset(raws)
    assert report.total_rejected == 0
    return prepared + [simple_problem()]


# every decoder config, each constant mode and the decode fuzz benchmark's width
FUZZ_CONFIGS = pytest.mark.parametrize("flags", [
    {},
    {"decoder": DecoderConfig(use_gate=False)},
    {"decoder": DecoderConfig(use_attention=False)},
    {"decoder": DecoderConfig(use_stack_feature=False)},
    {"decoder": DecoderConfig(use_gate=False, use_attention=False, use_stack_feature=False)},
    {"decoder": DecoderConfig(transformer_mode="embedding")},
    {"constant_mode": "self_attention"},
    {"constant_mode": "fixed"},
    {"embed_dim": 32, "hidden_per_direction": 32},
], ids=["default", "no-gate", "no-attention", "no-stack", "stripped", "embedding",
        "self-attention", "fixed", "d64"])


def fuzz_models(fuzz_problems, flags):
    """Random models scaled 1-30x, as the decode fuzz scales them."""
    for seed in range(8):
        model, _ = tiny_model(fuzz_problems, seed=seed, **flags)
        model.registry.flat[...] *= 1.0 + 29.0 * seed / 7
        yield model


@FUZZ_CONFIGS
def test_greedy_decode_equals_the_run_loop_bitwise(flags, fuzz_problems):
    """Random models scaled 1-30x, as the decode fuzz scales them: every
    decode of the plain-array loop is the one-row run's, bit for bit, in
    its actions, stacks, equations, status, answer and every trace array."""
    kinds = set()
    for seed in range(8):
        model, _ = tiny_model(fuzz_problems, seed=seed, **flags)
        scale = 1.0 + 29.0 * seed / 7
        model.registry.flat[...] *= scale
        for problem in fuzz_problems:
            encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
            got = greedy_decode(encoded, problem, model.registry, model.dec_config, trace=True)
            want = reference_greedy_decode(encoded, problem, model.registry,
                                           model.dec_config)
            assert_same_decode(got, want)
            kinds |= {action.kind for action in got.actions}
    assert kinds == set(range(len(ACTIONS)))  # every step kind ran


@FUZZ_CONFIGS
def test_untraced_decode_is_the_traced_decode(flags, fuzz_problems):
    """A decode without traces takes the same steps to the same end, and
    holds no ``StepTrace``."""
    for model in fuzz_models(fuzz_problems, flags):
        for problem in fuzz_problems:
            encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
            traced, untraced = (greedy_decode(encoded, problem, model.registry,
                                              model.dec_config, trace=trace)
                                for trace in (True, False))
            assert len(traced.trace) == len(traced.actions) and untraced.trace == []
            assert_same_decode(untraced, replace(traced, trace=[]))


@FUZZ_CONFIGS
def test_step_traces_own_their_arrays(flags, fuzz_problems):
    """No two arrays of a decode's traces share memory, so none is a view of
    the decode's workspace, and a later decode leaves a trace's bytes as they were."""
    model = next(fuzz_models(fuzz_problems, flags))
    traces = []
    for problem in fuzz_problems:
        encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
        result = greedy_decode(encoded, problem, model.registry, model.dec_config, trace=True)
        arrays = [getattr(step, name) for step in result.trace for name in TRACE_ARRAYS
                  if getattr(step, name) is not None]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        traces.append((arrays, [a.tobytes() for a in arrays]))
    for arrays, saved in traces:
        assert [a.tobytes() for a in arrays] == saved


@pytest.mark.parametrize("name, index", [
    ("dec.lstm.wx", (0, 0)), ("dec.act.b2", (GENVAR,)), ("dec.opd.v", (0,)),
    ("dec.tf.+.w", (0, 0)), ("dec.genvar.w", (0, 0)),
])
def test_greedy_decode_raises_where_the_run_loop_does(name, index, fuzz_problems):
    """A NaN parameter raises ``NonFiniteValue`` at the same step, with the
    same message, in the plain-array loop and the one-row run."""
    raised = []
    for seed in range(8):
        model, _ = tiny_model(fuzz_problems, seed=seed)
        model.registry.flat[...] *= 1.0 + 3.0 * seed
        model.registry[name][index] = np.nan
        for problem in fuzz_problems:
            encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
            outcomes = []
            for decode in (partial(greedy_decode, trace=True), reference_greedy_decode):
                try:
                    outcomes.append(decode(encoded, problem, model.registry, model.dec_config))
                except nm.NonFiniteValue as exc:
                    outcomes.append(str(exc))
            if isinstance(outcomes[1], str):
                assert outcomes[0] == outcomes[1]
                raised.append(outcomes[1])
            else:
                assert_same_decode(*outcomes)
    assert raised


def test_dividing_by_a_zero_constant_ends_the_decode_unsolvable():
    """With every decoder weight 0 the logits are the output bias and every
    operand scores alike: the decode pushes the constant 0 twice and then
    takes a division, which the mask allows but no expression holds. The
    decode ends unsolvable before it, as the one-row run's does."""
    problem = corpus.PreparedProblem(id="z", tokens=["tom", "has", "0", "pens"],
                                     constant_positions=[2], constant_values=[F(0)],
                                     target=[], gold_answer=None)
    model, _ = tiny_model([problem], seed=3)
    for name in model.registry.names():
        if name.startswith("dec."):
            model.registry[name][...] = 0.0
    bias = model.registry["dec.act.b2"]
    bias[PUSH], bias[GENVAR], bias[apply("/").kind] = 3.0, 1.0, 5.0
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    result = greedy_decode(encoded, problem, model.registry, model.dec_config, trace=True)
    assert result.actions == [push("c0")] * 2
    assert (result.status, result.answer, result.equations) == ("unsolvable", None, [])
    assert_same_decode(result, reference_greedy_decode(encoded, problem, model.registry,
                                                       model.dec_config))


def test_greedy_takes_no_illegal_action_when_every_legal_logit_is_minus_inf():
    """After genvar only a push is legal here, and its logit is -inf while
    genvar's is 0: the decode raises ``NonFiniteValue`` on the chosen -inf
    rather than take a second genvar."""
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=3)
    for name in model.registry.names():
        if name.startswith("dec."):
            model.registry[name][...] = 0.0
    bias = model.registry["dec.act.b2"]
    bias[...] = -np.inf
    bias[GENVAR] = 0.0
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    with pytest.raises(nm.NonFiniteValue, match="decode step 2: the chosen action logit is -inf"):
        greedy_decode(encoded, problem, model.registry, model.dec_config)


@pytest.mark.parametrize("name, index", [
    ("dec.lstm.wx", (0, 0)), ("dec.act.b2", (GENVAR,)), ("dec.opd.v", (0,)),
])
def test_greedy_raises_on_a_nan_parameter(name, index):
    """A NaN logit or score never becomes an action, legal or not."""
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=3)
    model.registry[name][index] = np.nan
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    with pytest.raises(nm.NonFiniteValue, match="is nan"):
        greedy_decode(encoded, problem, model.registry, model.dec_config)


# ---------------------------------------------------------------------------
# parameter accounting


def expected_param_count(vocab_size, enc_config: EncoderConfig,
                         config: DecoderConfig) -> int:
    """Independent arithmetic for the registry size under any flag setting."""
    embed_dim, hidden = enc_config.embed_dim, enc_config.hidden_per_direction
    d = 2 * hidden
    blocks = 1 + int(config.use_stack_feature) + int(config.use_attention)
    f_dim = d * (1 + 2 * int(config.use_stack_feature) + int(config.use_attention))
    total = vocab_size * embed_dim                      # embeddings
    total += 2 * (4 * hidden * embed_dim + 4 * hidden * hidden + 4 * hidden)
    total += 2 * (d * d + d)                            # decoder init projections
    total += 2 * d                                      # external constants
    if enc_config.constant_mode == "self_attention":
        total += d + d * 2 * d + d
    if enc_config.constant_mode == "fixed":
        total += encoder.FIXED_SLOT_LIMIT * d
    total += 4 * d * d + 4 * d * d + 4 * d              # decoder LSTM
    if config.use_attention:
        total += d + d * 2 * d + d                      # problem attention
    total += d + d * 2 * d + d                          # unknown generation
    if config.use_gate:
        total += 2 * (blocks * f_dim + blocks)
    total += d * f_dim + d + 7 * d + 7                  # action scorer
    total += d + d * (f_dim + d) + d                    # operand scorer
    if config.transformer_mode == "mlp":
        total += 4 * (d * 2 * d + d + d * d + d)
    else:
        total += 4 * d
    return total


@pytest.mark.parametrize("flags", [
    {},
    {"decoder": DecoderConfig(use_gate=False)},
    {"decoder": DecoderConfig(use_attention=False)},
    {"decoder": DecoderConfig(use_stack_feature=False)},
    {"decoder": DecoderConfig(use_gate=False, use_attention=False, use_stack_feature=False)},
    {"decoder": DecoderConfig(transformer_mode="embedding")},
    {"constant_mode": "fixed"},
    {"constant_mode": "self_attention"},
])
def test_param_counts_match_formula(flags):
    problem = simple_problem()
    model, _ = tiny_model([problem], **flags)
    expected = expected_param_count(len(model.vocab), model.enc_config, model.dec_config)
    assert model.registry.flat.size == expected


def test_ablation_deltas_are_exact():
    problem = simple_problem()
    base_model, _ = tiny_model([problem])
    base = base_model.registry.flat.size
    d = base_model.enc_config.dim
    f_dim = 4 * d  # the state, the two stack tops and the attention context

    gateless, _ = tiny_model([problem], decoder=DecoderConfig(use_gate=False))
    assert base - gateless.registry.flat.size == 2 * (3 * f_dim + 3)

    embed_tf, _ = tiny_model([problem],
                             decoder=DecoderConfig(transformer_mode="embedding"))
    assert base - embed_tf.registry.flat.size == 4 * (2 * d * d + d + d * d + d) - 4 * d

    attending, _ = tiny_model([problem], constant_mode="self_attention")
    assert attending.registry.flat.size - base == d + 2 * d * d + d

    fixed, _ = tiny_model([problem], constant_mode="fixed")
    # pairs the embedding transformer with added per-slot vectors, and
    # registers no self-attention that nothing would read
    expected_delta = (4 * (2 * d * d + d + d * d + d) - 4 * d
                      - encoder.FIXED_SLOT_LIMIT * d)
    assert base - fixed.registry.flat.size == expected_delta
    assert not [name for name in fixed.registry.names() if name.startswith("enc.selfattn.")]


def test_config_fixed_forces_embedding_transformer():
    config = trainer.TrainConfig(constant_mode="fixed", decoder=DecoderConfig())
    assert config.decoder.transformer_mode == "embedding"
    with pytest.raises(ValueError):
        DecoderConfig(transformer_mode="telekinesis")
