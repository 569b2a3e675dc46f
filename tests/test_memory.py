"""What building, loading, saving and decoding a model allocate.

A model that only decodes holds its parameters and nothing else: the
gradient buffer and the Adam moments are made when training first needs
them. A checkpoint holds the parameters alone, and streams between the file
and the arena, so a loaded model and the best model that training returns
hold one buffer each. ``tracemalloc`` counts numpy's buffers, so every bound
is in A, the size of one float64 buffer over all the parameters, at d=128
(about 0.6M parameters).
"""
import struct
import tracemalloc

import numpy as np
import pytest

from stacksolver import corpus, decoder, encoder, numerics as nm, trainer

MiB = 2 ** 20


def traced(fn):
    """``fn()``, and the peak and the retained bytes that it allocated."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before, current - before


@pytest.fixture(scope="module")
def problems():
    prepared, _ = corpus.prepare_dataset(corpus.synth_generate(30, seed=2, difficulty=3))
    return prepared


def build(problems):
    config = trainer.TrainConfig(embed_dim=64, hidden_per_direction=64)
    vocab = encoder.build_vocab(p.tokens for p in problems)
    return trainer.build_model(vocab, config, np.random.default_rng(0))


def training_buffers(registry):
    return [b for b in ("flat_grads", "flat_m", "flat_v") if b in vars(registry)]


def test_build_model_holds_only_the_parameters(problems):
    model, peak, resident = traced(lambda: build(problems))
    arena = model.registry.flat.nbytes
    assert arena > 4 * MiB
    assert peak <= 1.2 * arena
    assert resident <= 1.05 * arena
    assert training_buffers(model.registry) == []


def test_load_model_peaks_at_the_stored_parameters(tmp_path, problems):
    trainer.save_model(tmp_path, build(problems))
    model, peak, _ = traced(lambda: trainer.load_model(tmp_path))
    assert peak <= 1.1 * model.registry.flat.nbytes
    assert training_buffers(model.registry) == []
    assert model.registry.adam_t == 0


def test_trained_model_holds_only_the_parameters(problems):
    config = trainer.TrainConfig(embed_dim=8, hidden_per_direction=8, epochs=1,
                                 batch_size=8)
    registry = trainer.train(problems[:8], config).model.registry
    assert training_buffers(registry) == []


def test_adam_step_peaks_at_two_arenas(problems):
    """Once the moments exist, an Adam step allocates its two arena-sized
    scratch rows and nothing else: with the parameters, the gradient and
    both moments, training peaks at six arenas (see ``encoder.MAX_WIDTH``)."""
    registry = build(problems).registry
    arena = registry.flat.nbytes
    registry.flat_grads[...] = 1.0  # a norm that clips, so both rows are used
    config = nm.OptimizerConfig()
    nm.adam_step(registry, config)  # makes the moments
    _, peak, resident = traced(lambda: nm.adam_step(registry, config))
    assert 2 * arena <= peak <= 2.1 * arena
    assert resident <= 0.01 * arena


def test_save_checkpoint_streams_the_arena(tmp_path, problems):
    registry = build(problems).registry
    arena = registry.flat.nbytes
    _, without_moments, _ = traced(lambda: nm.save_checkpoint(tmp_path / "a.bin", registry))
    registry.flat_m[...] = 0.5
    registry.flat_v[...] = 0.25
    _, with_moments, _ = traced(lambda: nm.save_checkpoint(tmp_path / "b.bin", registry))
    assert max(without_moments, with_moments) <= 0.1 * arena


def test_decoding_makes_no_training_buffer(tmp_path, problems):
    built = build(problems)
    trainer.save_model(tmp_path, built)
    loaded = trainer.load_model(tmp_path)
    for model in (built, loaded):
        def decode_all():
            for problem in problems[:3]:
                encoded = encoder.encode(problem, model.vocab, model.registry,
                                         model.enc_config)
                decoder.greedy_decode(encoded, problem, model.registry, model.dec_config)
        _, peak, _ = traced(decode_all)
        assert peak < model.registry.flat.nbytes
        assert training_buffers(model.registry) == []


@pytest.mark.parametrize("shape", [(10 ** 8,), (2 ** 32 - 1, 2 ** 32 - 1)])
def test_forged_size_is_rejected_before_any_allocation(tmp_path, shape):
    """A header that declares more parameters than the file holds."""
    path = tmp_path / "forged.bin"
    path.write_bytes(b"SSCK" + struct.pack(f"<BIH1sB{len(shape)}I", 3, 1, 1, b"w",
                                           len(shape), *shape) + bytes(64))
    def load():
        with pytest.raises(nm.CheckpointError, match=r"truncated: needs \d+ bytes, has \d+"):
            nm.load_checkpoint(path)
    _, peak, _ = traced(load)
    assert peak < MiB
