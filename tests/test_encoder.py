"""Encoder: recurrence, constant vector extraction, external operand vectors."""
import numpy as np
import pytest

from stacksolver import corpus, encoder, numerics as nm, trainer
from stacksolver.encoder import EncoderConfig

from conftest import tiny_model, zeroed


def small_problem(text="tom has 3 apples and 5 pens now ."):
    raw = corpus.RawProblem(id="t", text=text, equation="x=3+5", answer="8")
    return corpus.prepare(raw)


def encode_with(model, problem, **kw):
    return encoder.encode(problem, model.vocab, model.registry, model.enc_config, **kw)


def test_config_dim_is_twice_hidden():
    config = EncoderConfig(vocab_size=10, hidden_per_direction=32)
    assert config.dim == 64
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, embed_dim=0)
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, constant_mode="telepathy")


def test_zero_params_give_zero_vectors():
    problem = small_problem()
    model, _ = tiny_model([problem])
    zeroed(model)
    encoded = encode_with(model, problem)
    assert np.array_equal(encoded.token_matrix.value,
                          np.zeros((len(problem.tokens), model.enc_config.dim)))
    for vec in encoded.constant_vectors:
        assert np.array_equal(vec.value, np.zeros(model.enc_config.dim))
    assert np.array_equal(encoded.final_h.value, np.zeros(model.enc_config.dim))


def test_direct_mode_is_row_selection():
    problem = small_problem()
    model, _ = tiny_model([problem], seed=4)
    encoded = encode_with(model, problem)
    assert encoded.n_constants == 2
    for vec, pos in zip(encoded.constant_vectors, problem.constant_positions):
        # bitwise: the constant vector is the recurrent state at that position
        assert np.array_equal(vec.value, encoded.token_matrix.value[pos])


def test_empty_problem_rejected():
    problem = small_problem()
    empty = corpus.PreparedProblem(id="e", tokens=[], constant_positions=[],
                                   constant_values=[], target=[], gold_answer=None)
    model, _ = tiny_model([problem])
    with pytest.raises(encoder.EmptyProblem):
        encode_with(model, empty)


def test_permutation_sensitivity():
    problem = corpus.PreparedProblem(
        id="f", tokens=["alpha", "beta", "gamma"], constant_positions=[],
        constant_values=[], target=[], gold_answer=None)
    reversed_problem = corpus.PreparedProblem(
        id="r", tokens=list(reversed(problem.tokens)), constant_positions=[],
        constant_values=[], target=[], gold_answer=None)
    model, _ = tiny_model([problem], seed=9)
    fwd = encode_with(model, problem)
    rev = encode_with(model, reversed_problem)
    assert np.linalg.norm(fwd.token_matrix.value - rev.token_matrix.value) > 0


def test_oov_tokens_hit_unk_row():
    problem = small_problem()
    model, _ = tiny_model([problem], seed=2)
    unseen = corpus.PreparedProblem(id="u", tokens=["martian", "words"],
                                    constant_positions=[], constant_values=[],
                                    target=[], gold_answer=None)
    encoded = encode_with(model, unseen)
    assert encoded.token_matrix.value.shape[0] == 2


def test_self_attention_rows_are_distributions():
    problem = small_problem()
    model, _ = tiny_model([problem], seed=7, constant_mode="self_attention")
    encoded = encode_with(model, problem)
    assert encoded.self_attention_maps is not None
    for row in encoded.self_attention_maps:
        assert abs(row.sum() - 1.0) < 1e-12
        assert np.all(row >= 0)


def test_self_attention_uniform_gives_mean():
    problem = small_problem()
    model, _ = tiny_model([problem], constant_mode="self_attention")
    zeroed(model)
    # zero scores -> uniform weights -> each constant vector is the mean state
    encoded = encode_with(model, problem)
    mean_state = encoded.token_matrix.value.mean(axis=0)
    for vec in encoded.constant_vectors:
        assert np.allclose(vec.value, mean_state, atol=1e-15)


def test_fixed_repr_ignores_text():
    p1 = small_problem("tom has 3 apples and 5 pens now .")
    p2 = small_problem("jane buys 3 books for 5 dollars each .")
    model, _ = tiny_model([p1, p2], seed=5,
                          decoder=trainer.DecoderConfig(constant_repr="fixed"))
    e1 = encode_with(model, p1, constant_repr="fixed")
    e2 = encode_with(model, p2, constant_repr="fixed")
    for a, b in zip(e1.constant_vectors, e2.constant_vectors):
        assert np.array_equal(a.value, b.value)


def test_fixed_repr_slot_limit():
    text = " ".join(str(n) for n in range(2, 19)) + " done"
    raw = corpus.RawProblem(id="many", text=text, equation="x=2", answer="2")
    problem = corpus.prepare(raw)
    assert problem.n_constants > encoder.FIXED_SLOT_LIMIT
    model, _ = tiny_model([problem], decoder=trainer.DecoderConfig(constant_repr="fixed"))
    with pytest.raises(encoder.TooManyConstants):
        encode_with(model, problem, constant_repr="fixed")


def test_external_vectors_deterministic_and_sized():
    problem = small_problem()
    m1, _ = tiny_model([problem], seed=11)
    m2, _ = tiny_model([problem], seed=11)
    one1, pi1 = encoder.external_constant_vectors(m1.registry)
    one2, pi2 = encoder.external_constant_vectors(m2.registry)
    assert np.array_equal(one1.value, one2.value)
    assert np.array_equal(pi1.value, pi2.value)
    assert one1.value.shape == (m1.enc_config.dim,)
    assert not np.array_equal(one1.value, pi1.value)


def test_external_vectors_update_independently():
    problem = small_problem()
    model, _ = tiny_model([problem], seed=12)
    registry = model.registry
    before_one = registry["enc.one"].copy()
    before_pi = registry["enc.pi"].copy()
    grads = {name: np.zeros_like(registry[name]) for name in registry.names()}
    grads["enc.one"][...] = 1.0
    nm.adam_step(registry, grads, nm.OptimizerConfig())
    assert not np.array_equal(registry["enc.one"], before_one)
    assert np.array_equal(registry["enc.pi"], before_pi)


def test_build_vocab_reserves_unk():
    vocab = encoder.build_vocab([["b", "a"], ["a", "c"]])
    assert vocab[encoder.UNK_TOKEN] == encoder.UNK_ID == 0
    assert list(vocab) == [encoder.UNK_TOKEN, "b", "a", "c"]

