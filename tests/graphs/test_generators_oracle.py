"""The bulk-drawing generators against their per-draw oracles.

``tests/graphs/generators_reference.py`` holds the loops that made one
numpy call per draw.  Each production generator must build the same
graph — node count, edge ids, endpoint orientation, slot count — and
leave a Generator passed as ``seed`` in the state its oracle leaves it
in.  Seeds are ints, ``SeedSequence``s and Generators on each of numpy's
four bit generators; a Generator has first made an odd number of 32-bit
draws, so the bit generator holds half a 64-bit word in its buffer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graphs import generators as gen
from repro.graphs.multigraph import MultiGraph
from repro.sweep.points import FAMILIES, random_instance_spec

from tests.graphs.generators_reference import (
    barabasi_albert_reference,
    connect_components_reference,
    random_gnp_reference,
    random_instance_spec_reference,
    random_multigraph_reference,
    watts_strogatz_reference,
)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)


def plain_state(rng: np.random.Generator):
    """``rng.bit_generator.state`` with arrays as lists, so ``==`` works."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


@st.composite
def twin_seeds(draw):
    """Two equal seeds, one for production and one for the oracle."""
    entropy = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(("int", "sequence") + BIT_GENERATORS))
    if kind == "int":
        return entropy, entropy
    if kind == "sequence":
        return np.random.SeedSequence(entropy), np.random.SeedSequence(entropy)
    odd = 2 * draw(st.integers(0, 3)) + 1
    twins = []
    for _ in range(2):
        rng = np.random.Generator(kind(entropy))
        rng.integers(0, 2**32, size=odd)  # one next_uint32 each
        assert rng.bit_generator.state.get("has_uint32", 1) == 1
        twins.append(rng)
    return tuple(twins)


def store(g: MultiGraph):
    k = g.num_edge_slots
    return g.n, k, g._eu[:k].tolist(), g._ev[:k].tolist(), g._alive[:k].tolist()


def assert_same(got: MultiGraph, want: MultiGraph, seeds) -> None:
    assert store(got) == store(want)
    if isinstance(seeds[0], np.random.Generator):
        assert plain_state(seeds[0]) == plain_state(seeds[1])


class TestAgainstPerDrawOracles:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), seeds=twin_seeds())
    def test_barabasi_albert(self, data, seeds):
        m_attach = data.draw(st.integers(1, 4))
        n = data.draw(st.one_of(st.just(m_attach + 1),
                                st.integers(m_attach + 1, m_attach + 40)))
        assert_same(gen.barabasi_albert(n, m_attach, seeds[0]),
                    barabasi_albert_reference(n, m_attach, seeds[1]), seeds)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seeds=twin_seeds())
    def test_watts_strogatz(self, data, seeds):
        n = data.draw(st.integers(3, 40))
        # every even k < n; k = n - 1 when n is odd
        k = data.draw(st.one_of(st.just(n - 1 - (n - 1) % 2),
                                st.integers(1, (n - 1) // 2).map(lambda h: 2 * h)))
        beta = data.draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                   st.floats(0.0, 1.0)))
        assert_same(gen.watts_strogatz(n, k, beta, seeds[0]),
                    watts_strogatz_reference(n, k, beta, seeds[1]), seeds)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seeds=twin_seeds())
    def test_connect_components(self, data, seeds):
        n = data.draw(st.integers(1, 30))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]), max_size=n)) if n > 1 else []
        g = MultiGraph.from_edges(n, pairs)
        if pairs and data.draw(st.booleans()):
            g.remove_edge(0)  # a tombstone keeps its slot
        got = gen.connect_components(g.copy(), seeds[0])
        assert got.is_connected()
        assert_same(got, connect_components_reference(g.copy(), seeds[1]), seeds)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), seeds=twin_seeds())
    def test_random_multigraph(self, data, seeds):
        n = data.draw(st.integers(2, 20))
        m = data.draw(st.integers(0, 40))
        assert_same(gen.random_multigraph(n, m, seeds[0]),
                    random_multigraph_reference(n, m, seeds[1]), seeds)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seeds=twin_seeds())
    def test_random_gnp(self, data, seeds):
        n = data.draw(st.integers(1, 40))
        p = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        connected = data.draw(st.booleans())
        assert_same(gen.random_gnp(n, p, seeds[0], ensure_connected=connected),
                    random_gnp_reference(n, p, seeds[1], ensure_connected=connected),
                    seeds)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**31))
    def test_random_instance_spec_rates(self, data, seed):
        params = {
            "family": data.draw(st.sampled_from(FAMILIES)),
            "n": data.draw(st.integers(2, 24)),
            "sources": data.draw(st.integers(1, 4)),
            "sinks": data.draw(st.integers(-1, 4)),
            "in_rate": data.draw(st.sampled_from([1, 2, 7, 2**31 + 1, 2**40])),
            "out_rate": data.draw(st.integers(1, 9)),
        }

        def outcome(make):
            try:
                spec = make(params, seed)
            except ReproError as exc:
                return repr(exc)
            return store(spec.graph), spec.in_rates, spec.out_rates

        assert outcome(random_instance_spec) == outcome(random_instance_spec_reference)
