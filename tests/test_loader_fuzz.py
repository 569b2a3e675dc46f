"""Loaders fed mutated bytes raise their typed error and nothing else.

Each case starts from a small valid file, applies a few byte flips, cuts,
insertions and deletions, and loads the result. Hypothesis runs derandomized
with a bounded number of examples, so the suite stays deterministic.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stacksolver import cli, corpus, numerics as nm

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
    registry = nm.ParamRegistry([("enc.w", rng.standard_normal((3, 2))),
                                 ("dec.b", rng.standard_normal(4))])
    registry.flat_m[...] = rng.standard_normal(registry.size())
    registry.flat_v[...] = rng.random(registry.size())
    registry.adam_t = 9
    return registry


def registry_state(registry):
    return (registry.shapes, registry.adam_t, registry.flat.tobytes(),
            registry.flat_m.tobytes(), registry.flat_v.tobytes())


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
