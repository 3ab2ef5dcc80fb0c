"""Seed-plumbing and exception-hierarchy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro._rng import as_generator, derive_seed, scalar_draws, spawn

from tests.graphs.test_generators_oracle import BIT_GENERATORS, plain_state


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_reproducible(self):
        a = as_generator(7).integers(0, 1000, size=5)
        b = as_generator(7).integers(0, 1000, size=5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        a = as_generator(ss).integers(0, 1000, size=3)
        b = as_generator(np.random.SeedSequence(5)).integers(0, 1000, size=3)
        assert (a == b).all()


#: edge bounds of the 32-bit path: no draw, the smallest real draw, a
#: power of two (Lemire rejects nothing), a bound where it rejects about
#: half the draws, the largest bound it handles, and a raw 32-bit word
EDGE_HIGHS = (1, 2, 2**31, 2**31 + 1, 2**32 - 1, 2**32)


class TestScalarDraws:
    """``scalar_draws`` against numpy's own scalar calls on one stream."""

    @settings(max_examples=200, deadline=None)
    @given(bit_generator=st.sampled_from(BIT_GENERATORS),
           entropy=st.integers(0, 2**32), skip=st.integers(0, 3),
           calls=st.lists(st.one_of(
               st.none(),
               st.sampled_from(EDGE_HIGHS),
               st.integers(1, 2**32)), max_size=60))
    def test_matches_numpy_scalar_calls(self, bit_generator, entropy, skip, calls):
        # ``None`` is a random() call, an int the bound of integers(0, high)
        want_rng, got_rng = (np.random.Generator(bit_generator(entropy))
                             for _ in range(2))
        for rng in (want_rng, got_rng):
            rng.integers(0, 2**32, size=skip)  # fill the uint32 buffer or not
        random, integers = scalar_draws(got_rng)
        for high in calls:
            if high is None:
                want, got = float(want_rng.random()), random()
            else:
                want, got = int(want_rng.integers(0, high)), integers(high)
            assert type(got) is type(want) and got == want, high
        assert plain_state(got_rng) == plain_state(want_rng)

    def test_lemire_rejections_keep_the_stream(self):
        # at 2**31 + 1 about half the 32-bit words are rejected: 400 draws
        # take ~800 words, and both paths must take the same ones
        want_rng, got_rng, words = (np.random.default_rng(11) for _ in range(3))
        want = want_rng.integers(0, 2**31 + 1, size=400).tolist()
        _, integers = scalar_draws(got_rng)
        assert [integers(2**31 + 1) for _ in range(400)] == want
        assert plain_state(got_rng) == plain_state(want_rng)
        used = 0
        while plain_state(words) != plain_state(want_rng):
            words.integers(0, 2**32)
            used += 1
        assert 650 < used < 950

    @pytest.mark.parametrize("high", [2**32 + 1, 2**40, 0, -3])
    def test_rejects_bounds_off_the_32_bit_path(self, high):
        rng = np.random.default_rng(3)
        before = plain_state(rng)
        _, integers = scalar_draws(rng)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            integers(high)
        assert plain_state(rng) == before

    def test_pair_keeps_its_bit_generator_alive(self):
        # the C calls read the bit generator's state through a raw pointer:
        # were the generator freed, the generators below would reuse it
        want = np.random.default_rng(5)
        random, integers = scalar_draws(np.random.default_rng(5))
        others = [np.random.default_rng(6) for _ in range(64)]
        assert [random(), integers(1000)] == [want.random(), want.integers(0, 1000)]
        assert len(others) == 64


class TestSpawn:
    def test_children_independent_and_reproducible(self):
        a = spawn(3, 4)
        b = spawn(3, 4)
        assert len(a) == 4
        for ga, gb in zip(a, b):
            assert (ga.integers(0, 10**6, 10) == gb.integers(0, 10**6, 10)).all()
        draws = {tuple(g.integers(0, 10**6, 5)) for g in spawn(3, 4)}
        assert len(draws) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(0, -1)

    def test_spawn_from_generator(self):
        gens = spawn(np.random.default_rng(1), 3)
        assert len(gens) == 3


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)

    def test_tags_matter(self):
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)
        assert derive_seed(5, "a") != derive_seed(5, "b")

    def test_master_matters(self):
        assert derive_seed(5, "x") != derive_seed(6, "x")

    def test_string_hash_stable(self):
        # FNV-1a, not the salted built-in hash: stable across processes
        assert derive_seed(0, "workload=grid") == derive_seed(0, "workload=grid")

    def test_none_master(self):
        assert isinstance(derive_seed(None, "t"), int)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.GraphError,
        errors.FlowError,
        errors.InfeasibleNetworkError,
        errors.SpecError,
        errors.SimulationError,
        errors.ExperimentError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")

    def test_single_catch_point(self):
        """The documented pattern: one except clause covers the library."""
        from repro.graphs import MultiGraph

        try:
            MultiGraph(-1)
        except errors.ReproError as e:
            assert "non-negative" in str(e)
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")
