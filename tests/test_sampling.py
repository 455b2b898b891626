"""Seeded streams: one per (seed, key), one generator per call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclelab as sl
import soclelab.classify as classify
import soclelab.functionals as functionals
import soclelab.rank as rank
import soclelab.riesz as riesz
from soclelab.errors import ShapeMismatchError
from soclelab.sampling import (
    FUNCTIONALS,
    IDEAL,
    PROBE,
    SPOT_CHECK,
    complex_gaussian,
    random_element,
    random_element_stack,
    rng_for,
)

SEEDS = st.integers(0, 2**70)


def first_draws(rng):
    return rng.standard_normal(4).tobytes()


class TestStreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, index=st.integers(0, 2**32 - 1))
    def test_keys_that_collided_before_draw_differently(self, seed, index):
        # seed ^ index was the old per-probe seed
        assert first_draws(rng_for(seed, index)) != first_draws(rng_for(seed ^ index))
        # short keys are not zero-padded into longer ones
        assert first_draws(rng_for(seed, index)) != first_draws(rng_for(seed, index, 0))
        # a seed of 2**32 or more does not spill into the key
        low, high = seed % 2**32, seed >> 32
        assert first_draws(rng_for(seed, index)) != first_draws(rng_for(low, high, index))

    def test_list_form_collision_is_avoided(self):
        assert first_draws(rng_for(2**40, 5)) != first_draws(rng_for(0, 256, 5))

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS)
    def test_no_key_is_default_rng(self, seed):
        assert first_draws(rng_for(seed)) == first_draws(np.random.default_rng(seed))

    def test_negative_seed_raises(self, spec23):
        a = random_element(spec23, rng_for(3))
        calls = [
            lambda: sl.spectral_rank(a, seed=-1),
            lambda: sl.spectral_trace(a, seed=-1),
            lambda: sl.characterize(sl.trace_functional(spec23), seed=-1),
            lambda: sl.is_socle_minimal_ideal(spec23, seed=-1),
            lambda: sl.verify_theorems(spec23, trials=1, seed=-1),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()


class TestOneDrawPerCall:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        count=st.integers(1, 8),
        extra=st.integers(1, 8),
        seed=st.integers(0, 2**32),
    )
    def test_stack_rows_do_not_depend_on_the_count(self, sizes, count, extra, seed):
        spec = sl.AlgebraSpec(tuple(sizes))
        small = random_element_stack(spec, rng_for(seed, PROBE), count)
        large = random_element_stack(spec, rng_for(seed, PROBE), count + extra)
        rng = rng_for(seed, PROBE)
        one_at_a_time = [random_element(spec, rng) for _ in range(count)]
        for k, (s, l) in enumerate(zip(small, large)):
            assert s.tobytes() == l[:count].tobytes()
            assert s.tobytes() == np.stack([x.blocks[k] for x in one_at_a_time]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        count=st.integers(1, 8),
        seed=st.integers(0, 2**32),
    )
    def test_stack_is_successive_per_block_draws(self, sizes, count, seed):
        # the reference: element after element, block after block, one
        # complex_gaussian draw each, from the same stream
        spec = sl.AlgebraSpec(tuple(sizes))
        stack = random_element_stack(spec, rng_for(seed, PROBE), count)
        rng = rng_for(seed, PROBE)
        draws = [[complex_gaussian(rng, (n, n)) for n in sizes] for _ in range(count)]
        for k, block in enumerate(stack):
            assert block.tobytes() == np.stack([d[k] for d in draws]).tobytes()

    def test_a_stack_numpy_cannot_allocate_names_its_count(self, spec23):
        class OutOfMemory:
            def standard_normal(self, shape):
                raise MemoryError(f"cannot allocate {shape}")

        with pytest.raises(ShapeMismatchError, match=r"stack of 1000000000 random elements"):
            random_element_stack(spec23, OutOfMemory(), 10**9)

    def test_spectral_rank_reads_a_prefix_of_one_stream(self, spec23, monkeypatch):
        a = random_element(spec23, rng_for(5, 1 << 40))
        keys, stacks = [], []
        real_rng, real_stack = rank.rng_for, rank.random_element_stack
        monkeypatch.setattr(rank, "rng_for", lambda *k: keys.append(k) or real_rng(*k))
        monkeypatch.setattr(
            rank,
            "random_element_stack",
            lambda *args: stacks.append(real_stack(*args)) or stacks[-1],
        )
        sl.spectral_rank(a, probes=5, seed=9)
        sl.spectral_rank(a, probes=64, seed=9)
        assert keys == [(9, PROBE), (9, PROBE)]
        for few, many in zip(*stacks):
            assert few.tobytes() == many[:5].tobytes()

    def test_multiplicity_probes_build_one_generator(self, monkeypatch):
        a = sl.Element(sl.AlgebraSpec((3,)), [np.diag([1.0, 2.0, 3.0])])
        keys = []
        real = riesz.rng_for
        monkeypatch.setattr(riesz, "rng_for", lambda *k: keys.append(k) or real(*k))
        sl.spectral_trace(a, seed=4)
        assert keys == [(4, sl.sampling.MULTIPLICITY_PROBE)]


def test_each_family_of_verify_theorems_reads_its_own_streams(spec22, monkeypatch):
    keys = {"classify": [], "functionals": []}
    for name, module in (("classify", classify), ("functionals", functionals)):
        real = module.rng_for

        def record(seed, *key, log=keys[name], real=real):
            log.append((seed, key))
            return real(seed, *key)

        monkeypatch.setattr(module, "rng_for", record)
    trials = 4
    sl.verify_theorems(spec22, trials=trials, seed=13)
    expected = [(IDEAL,)]
    for t in range(trials):
        expected += [(FUNCTIONALS, t)]
    assert keys["classify"] == [(13, k) for k in expected]
    # the spot check of every tracial functional reads the one spot-check stream
    assert keys["functionals"] and set(keys["functionals"]) == {(13, (SPOT_CHECK,))}
    streams = {first_draws(rng_for(13, *k)) for k in expected + [(SPOT_CHECK,)]}
    assert len(streams) == len(expected) + 1
