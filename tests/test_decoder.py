"""Decoder: legality masks, selectors, transformers, the dual-stack mirror."""
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from stacksolver import corpus, decoder, encoder, eqlang, numerics as nm
from stacksolver.decoder import (
    DecoderConfig,
    DecoderRun,
    GENVAR_IDX,
    N_ACTIONS,
    PUSH_IDX,
    action_to_index,
    greedy_decode,
    legal_action_mask,
    semantic_transform,
)
from stacksolver.eqlang import Apply, ConstRef, GEN_VAR, Push, UNKNOWN_REF

from conftest import tiny_model, zeroed

F = Fraction


def make_run(problems, *, seed=0, zero=False, problem_index=0, training=False,
             rng=None, tape=None, **config_overrides):
    model, _ = tiny_model(problems, seed=seed, **config_overrides)
    if zero:
        zeroed(model)
    problem = problems[problem_index]
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config,
                             constant_repr=model.dec_config.constant_repr,
                             tape=tape, training=training, rng=rng)
    run = DecoderRun(encoded, problem, model.registry, model.dec_config,
                     tape=tape, training=training, rng=rng)
    return model, run


def simple_problem():
    raw = corpus.RawProblem(id="s", text="tom has 4 apples and 6 pens now .",
                            equation="x=4+6", answer="10")
    return corpus.prepare(raw)


# ---------------------------------------------------------------------------
# masks and distributions


def test_mask_rules():
    mask = legal_action_mask(stack_depth=0, has_unknown=False)
    assert mask[GENVAR_IDX] and mask[PUSH_IDX]
    assert not mask[2:].any()
    mask = legal_action_mask(stack_depth=2, has_unknown=True)
    assert not mask[GENVAR_IDX]
    assert mask[PUSH_IDX] and mask[2:].all()


def test_select_action_depth0_masks_applies():
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    dist = run.select_action(run.state_features(state), state)
    assert np.all(dist.probs[2:] == 0.0)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_select_action_uniform_when_zero_params():
    problem = simple_problem()
    _, run = make_run([problem], zero=True)
    state = run.initial_state()
    state = run.advance(state)
    state = run.apply_action(state, GEN_VAR)
    for ref in (ConstRef(0), ConstRef(1)):
        state = run.advance(state)
        state = run.apply_action(state, Push(ref), ref)
    state = run.advance(state)
    dist = run.select_action(run.state_features(state), state)
    # depth 2 with the unknown generated: six legal actions, uniform 1/6
    legal = dist.probs[dist.probs > 0]
    assert len(legal) == 6
    assert np.allclose(legal, 1 / 6)
    assert dist.probs[GENVAR_IDX] == 0.0


def test_distributions_sum_to_one_random_params():
    problem = simple_problem()
    _, run = make_run([problem], seed=8)
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    dist = run.select_action(feats, state)
    assert abs(dist.probs.sum() - 1.0) < 1e-12
    odist = run.select_operand(feats, state)
    assert abs(odist.probs.sum() - 1.0) < 1e-12


def test_argmax_invariant_under_logit_scaling():
    problem = simple_problem()
    model, run = make_run([problem], seed=21)
    state = run.advance(run.initial_state())
    dist = run.select_action(run.state_features(state), state)
    # scaling the scorer output layer scales all logits by the same factor
    model.registry["dec.act.w2"][...] *= 3.0
    model.registry["dec.act.b2"][...] *= 3.0
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    run2 = DecoderRun(encoded, problem, model.registry, model.dec_config)
    state2 = run2.advance(run2.initial_state())
    dist2 = run2.select_action(run2.state_features(state2), state2)
    assert int(np.argmax(dist.probs)) == int(np.argmax(dist2.probs))


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
    assert odist.probs.shape == (2,)


def test_operand_candidates_after_genvar():
    problem = simple_problem()
    _, run = make_run([problem], seed=5)
    state = run.advance(run.initial_state())
    state = run.apply_action(state, GEN_VAR)
    state = run.advance(state)
    odist = run.select_operand(run.state_features(state), state)
    assert odist.probs.shape == (problem.n_constants + 3,)


def test_operand_identical_vectors_get_equal_probability():
    problem = simple_problem()
    model, run = make_run([problem], seed=13)
    # forge two identical candidate vectors; content addressing cannot split them
    run.base_candidates = [run.base_candidates[0], run.base_candidates[0],
                           run.encoded.one_vector]
    state = run.advance(run.initial_state())
    odist = run.select_operand(run.state_features(state), state)
    assert np.isclose(odist.probs[0], odist.probs[1])


def test_operand_loss_gradient_matches_fd():
    problem = simple_problem()
    registry = nm.ParamRegistry()
    rng = np.random.default_rng(3)
    d = 6
    for i in range(3):
        registry.add(f"cand{i}", rng.standard_normal(d) * 0.3)
    registry.add("query", rng.standard_normal(d) * 0.3)
    registry.add("v", rng.standard_normal(d) * 0.3)
    registry.add("w", rng.standard_normal((d, 2 * d)) * 0.3)
    registry.add("b", rng.standard_normal(d) * 0.3)

    def loss_fn(tape):
        cands = [nm.param(tape, registry, f"cand{i}") for i in range(3)]
        scores = nm.attention_scores(tape, nm.param(tape, registry, "query"),
                                     cands, nm.param(tape, registry, "v"),
                                     nm.param(tape, registry, "w"),
                                     nm.param(tape, registry, "b"))
        loss, _ = nm.softmax_cross_entropy(tape, scores, 1)
        return loss

    err = nm.grad_check(loss_fn, registry, 60, np.random.default_rng(0))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# semantic transformer


def test_transform_zero_params_gives_zero():
    problem = simple_problem()
    model, run = make_run([problem], zero=True)
    d = model.dec_config.dim
    out = semantic_transform("+", nm.constant(np.ones(d)), nm.constant(np.ones(d)),
                             model.registry, "mlp")
    assert np.array_equal(out.value, np.zeros(d))


def test_transform_embedding_mode_ignores_inputs():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=6,
                          decoder=DecoderConfig(transformer_mode="embedding"))
    d = model.dec_config.dim
    rng = np.random.default_rng(0)
    a = semantic_transform("*", nm.constant(rng.standard_normal(d)),
                           nm.constant(rng.standard_normal(d)),
                           model.registry, "embedding")
    b = semantic_transform("*", nm.constant(rng.standard_normal(d)),
                           nm.constant(rng.standard_normal(d)),
                           model.registry, "embedding")
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.value, model.registry["dec.tf.*.vec"])


def test_transform_operators_differ():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=14)
    d = model.dec_config.dim
    e1 = nm.constant(np.full(d, 0.3))
    e2 = nm.constant(np.full(d, -0.2))
    outputs = [semantic_transform(op, e1, e2, model.registry, "mlp").value
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
    d = model.dec_config.dim
    # layout: [h; s; q] with s the zero-padded top-2 block
    assert np.array_equal(feats.action_feats.value[d:3 * d], np.zeros(2 * d))


def test_gate_values_in_unit_interval():
    problem = simple_problem()
    _, run = make_run([problem], seed=4)
    state = run.advance(run.initial_state())
    feats = run.state_features(state)
    for g in (feats.gate_action, feats.gate_operand):
        assert np.all(g > 0) and np.all(g < 1)
        assert g.shape == (3,)


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
        run = DecoderRun(encoded, problem, model.registry, config)
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
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    state = run.apply_action(state, GEN_VAR)
    state = run.advance(state)
    state = run.apply_action(state, Push(ConstRef(1)), ConstRef(1))
    assert state.stack_depth == 1
    assert state.sym_stack[0] == eqlang.Const(problem.constant_values[1])
    assert state.vec_stack[0] is run.encoded.constant_vectors[1]
    assert state.last_result is run.encoded.constant_vectors[1]


def test_teacher_forced_fig1_solves(fig1_prepared):
    model, run = make_run([fig1_prepared], seed=19)
    state = run.initial_state()
    for gold in fig1_prepared.target:
        state = run.advance(state)
        ref = gold.ref if isinstance(gold, Push) else None
        state = run.apply_action(state, gold, ref)
    assert len(state.equations) == 1
    assert eqlang.solve(list(state.equations)) == 10
    # step-for-step symbolic mirror against the standalone VM
    outcome = eqlang.execute(fig1_prepared.target, fig1_prepared.constant_values)
    assert list(state.equations) == outcome.equations
    assert list(state.sym_stack) == outcome.stack


def test_equal_on_two_element_stack_leaves_zero_result():
    problem = simple_problem()
    model, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    state = run.apply_action(state, GEN_VAR)
    for ref in (UNKNOWN_REF, ConstRef(0)):
        state = run.advance(state)
        state = run.apply_action(state, Push(ref), ref)
    state = run.advance(state)
    state = run.apply_action(state, eqlang.APPLY_EQUAL)
    assert state.stack_depth == 0
    assert np.array_equal(state.last_result.value,
                          np.zeros(model.dec_config.dim))


def test_illegal_actions_raise():
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    with pytest.raises(decoder.IllegalAction):
        run.apply_action(state, Apply("+"))
    state = run.apply_action(state, GEN_VAR)
    with pytest.raises(decoder.IllegalAction):
        run.apply_action(state, GEN_VAR)


def test_push_unknown_before_genvar_is_illegal():
    problem = simple_problem()
    _, run = make_run([problem], seed=3)
    state = run.advance(run.initial_state())
    with pytest.raises(decoder.IllegalAction):
        run.apply_action(state, Push(UNKNOWN_REF), UNKNOWN_REF)


# ---------------------------------------------------------------------------
# greedy decoding


def test_greedy_budget_one_step():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=3)
    config = replace(model.dec_config, max_steps=1)
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    result = greedy_decode(encoded, problem, model.registry, config)
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
        genvars = [a for a in result.actions if isinstance(a, eqlang.GenVar)]
        assert len(genvars) <= 1


def test_greedy_trace_records_every_step():
    problem = simple_problem()
    model, _ = tiny_model([problem], seed=23)
    encoded = encoder.encode(problem, model.vocab, model.registry, model.enc_config)
    result = greedy_decode(encoded, problem, model.registry, model.dec_config)
    assert len(result.trace) == len(result.actions) == len(result.stack_history)
    for action, step in zip(result.actions, result.trace):
        assert step.action_probs.shape == (N_ACTIONS,)
        assert abs(step.action_probs.sum() - 1.0) < 1e-9
        assert step.action_probs[action_to_index(action)] > 0
        assert (step.operand_probs is not None) == isinstance(action, Push)
        if step.attention is not None:
            assert abs(step.attention.sum() - 1.0) < 1e-9
            assert step.attention.shape == (len(problem.tokens),)


# ---------------------------------------------------------------------------
# parameter accounting


def expected_param_count(vocab_size, embed_dim, hidden, config: DecoderConfig,
                         constant_mode="direct") -> int:
    """Independent arithmetic for the registry size under any flag setting."""
    d = 2 * hidden
    blocks = 1 + int(config.use_stack_feature) + int(config.use_attention)
    f_dim = d * (1 + 2 * int(config.use_stack_feature) + int(config.use_attention))
    total = vocab_size * embed_dim                      # embeddings
    total += 2 * (4 * hidden * embed_dim + 4 * hidden * hidden + 4 * hidden)
    total += 2 * (d * d + d)                            # decoder init projections
    total += 2 * d                                      # external constants
    if constant_mode == "self_attention":
        total += d + d * 2 * d + d
    if config.constant_repr == "fixed":
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
    {"use_gate": False},
    {"use_attention": False},
    {"use_stack_feature": False},
    {"use_gate": False, "use_attention": False, "use_stack_feature": False},
    {"transformer_mode": "embedding"},
    {"constant_repr": "fixed"},
])
def test_param_counts_match_formula(flags):
    problem = simple_problem()
    config = DecoderConfig(**flags)
    model, _ = tiny_model([problem], decoder=config)
    expected = expected_param_count(len(model.vocab), 8, 8, model.dec_config)
    assert model.registry.size() == expected


def test_ablation_deltas_are_exact():
    problem = simple_problem()
    base_model, _ = tiny_model([problem])
    base = base_model.registry.size()
    d = base_model.dec_config.dim
    f_dim = base_model.dec_config.feature_dim

    gateless, _ = tiny_model([problem], decoder=DecoderConfig(use_gate=False))
    assert base - gateless.registry.size() == 2 * (3 * f_dim + 3)

    embed_tf, _ = tiny_model([problem],
                             decoder=DecoderConfig(transformer_mode="embedding"))
    assert base - embed_tf.registry.size() == 4 * (2 * d * d + d + d * d + d) - 4 * d

    fixed, _ = tiny_model([problem], decoder=DecoderConfig(constant_repr="fixed"))
    # pairs the embedding transformer with added per-slot vectors
    expected_delta = (4 * (2 * d * d + d + d * d + d) - 4 * d
                      - encoder.FIXED_SLOT_LIMIT * d)
    assert base - fixed.registry.size() == expected_delta


def test_config_fixed_forces_embedding_transformer():
    config = DecoderConfig(constant_repr="fixed")
    assert config.transformer_mode == "embedding"
    with pytest.raises(ValueError):
        DecoderConfig(transformer_mode="telekinesis")
