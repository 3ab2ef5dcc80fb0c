"""Micro-batcher differential guarantees.

The load-bearing property: any response produced through a coalesced
ensemble batch is **bit-identical** to the scalar oracle
(:func:`direct_simulate`) for the same (spec, horizon, seed, loss_p) —
batching changes scheduling, never results.
"""

import asyncio

import pytest

from repro.errors import ServeError
from repro.serve import MicroBatcher, direct_simulate, parse_spec
from repro.serve.workers import ThreadTier


PATH_SPEC = parse_spec({"topology": "path", "n": 6, "in_rate": 1, "out_rate": 2})
GRID_SPEC = parse_spec({"topology": "grid", "rows": 3, "cols": 3,
                        "in_rate": 1, "out_rate": 2})


@pytest.fixture
def tier():
    """The in-process compute tier a ``workers=0`` server batches on."""
    tier = ThreadTier(2)
    yield tier
    tier.close()


def _strip(response):
    """Drop the transport-only batch metadata before comparing payloads."""
    return {k: v for k, v in response.items() if k != "batch"}


class TestDifferential:
    def test_coalesced_batch_is_bit_identical_to_scalar_runs(self, tier):
        """N concurrent same-config requests: one ensemble batch, every
        member equal to its own scalar Simulator run."""
        seeds = [3, 11, 7, 0, 42, 11, 9, 5]  # duplicates allowed

        async def scenario():
            batcher = MicroBatcher(tier, window=0.05, max_batch=64)
            return await asyncio.gather(*[
                batcher.simulate(PATH_SPEC, 300, s) for s in seeds
            ])

        results = asyncio.run(scenario())
        # exactly one ensemble run
        assert len({r["batch"]["seq"] for r in results}) == 1
        for seed, response in zip(seeds, results):
            assert _strip(response) == direct_simulate(PATH_SPEC, 300, seed)
        sizes = {r["batch"]["size"] for r in results}
        assert sizes == {len(seeds)}
        assert sorted(r["batch"]["index"] for r in results) == list(range(8))

    def test_lossy_batch_matches_scalar_oracle(self, tier):
        async def scenario():
            batcher = MicroBatcher(tier, window=0.05)
            return await asyncio.gather(*[
                batcher.simulate(PATH_SPEC, 200, s, 0.2) for s in (1, 2, 3)
            ])

        for seed, response in zip((1, 2, 3), asyncio.run(scenario())):
            assert _strip(response) == direct_simulate(PATH_SPEC, 200, seed, 0.2)


class TestCoalescingKeys:
    def test_different_configs_never_share_a_batch(self, tier):
        async def scenario():
            batcher = MicroBatcher(tier, window=0.05)
            return await asyncio.gather(
                batcher.simulate(PATH_SPEC, 200, 1),
                batcher.simulate(PATH_SPEC, 300, 1),   # different horizon
                batcher.simulate(GRID_SPEC, 200, 1),   # different network
                batcher.simulate(PATH_SPEC, 200, 2),   # same config: coalesces
            )

        results = asyncio.run(scenario())
        sizes = {r["batch"]["seq"]: r["batch"]["size"] for r in results}
        assert len(sizes) == 3
        assert sorted(sizes.values()) == [1, 1, 2]
        assert results[0]["batch"]["seq"] == results[3]["batch"]["seq"]

    def test_fingerprint_ignores_seed_but_not_loss(self):
        a = MicroBatcher.fingerprint(PATH_SPEC, 200, 0.0)
        assert MicroBatcher.fingerprint(PATH_SPEC, 200, 0.0) == a
        assert MicroBatcher.fingerprint(PATH_SPEC, 200, 0.1) != a
        assert MicroBatcher.fingerprint(PATH_SPEC, 300, 0.0) != a
        assert MicroBatcher.fingerprint(GRID_SPEC, 200, 0.0) != a

    def test_fingerprint_is_edge_order_and_orientation_sensitive(self):
        """LGG tie-breaking is defined over edge ids/slots, so specs whose
        edge lists are permutations (or orientation flips) of each other
        must never share a batch — even though ``canonical_spec_key``
        deliberately unifies them for classification."""
        from repro.sweep.cache import canonical_spec_key

        base = {"nodes": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
                "in_rates": {"0": 2}, "out_rates": {"3": 1}}
        permuted = dict(base, edges=[[2, 3], [1, 3], [0, 2], [0, 1]])
        flipped = dict(base, edges=[[1, 0], [0, 2], [1, 3], [2, 3]])

        a = MicroBatcher.fingerprint(parse_spec(base), 200, 0.0)
        assert MicroBatcher.fingerprint(parse_spec(base), 200, 0.0) == a
        for variant in (permuted, flipped):
            spec = parse_spec(variant)
            # same canonical key (one flow computation) ...
            assert canonical_spec_key(spec) == canonical_spec_key(parse_spec(base))
            # ... but never the same batch
            assert MicroBatcher.fingerprint(spec, 200, 0.0) != a

    def test_fingerprint_computes_no_canonical_key(self, monkeypatch):
        """The batch key is a digest of the raw spec: the canonical keys
        (a sort of every edge) never run on the event loop for it."""
        import repro.sweep.cache as cache
        from repro.graphs.csr import CSRTopology

        def boom(*args, **kwargs):
            raise AssertionError("canonical key computed for a batch key")

        monkeypatch.setattr(cache, "canonical_spec_key", boom)
        monkeypatch.setattr(CSRTopology, "canonical_digest", boom)
        a = MicroBatcher.fingerprint(PATH_SPEC, 200, 0.0)
        assert MicroBatcher.fingerprint(PATH_SPEC, 200, 0.0) == a
        assert MicroBatcher.fingerprint(GRID_SPEC, 200, 0.0) != a

    def test_fingerprint_sees_node_count_and_every_rate(self):
        base = {"nodes": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
                "in_rates": {"0": 2}, "out_rates": {"3": 1}}
        a = MicroBatcher.fingerprint(parse_spec(base), 200, 0.0)
        variants = [
            dict(base, nodes=5),                    # one isolated node more
            dict(base, in_rates={"0": 1}),          # one rate changed
            dict(base, out_rates={"3": 2}),
            dict(base, in_rates={"0": 2, "1": 1}),  # one rate added
        ]
        keys = [MicroBatcher.fingerprint(parse_spec(v), 200, 0.0) for v in variants]
        assert a not in keys
        assert len(set(keys)) == len(keys)

    def test_permuted_edge_lists_in_one_window_do_not_coalesce(self, tier):
        """Two requests whose edge lists are permutations of each other,
        landing inside one coalescing window: each must be simulated on
        its *own* edge ordering and match its own scalar oracle."""
        base = parse_spec({"nodes": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
                           "in_rates": {"0": 2}, "out_rates": {"3": 1}})
        perm = parse_spec({"nodes": 4, "edges": [[2, 3], [1, 3], [0, 2], [0, 1]],
                           "in_rates": {"0": 2}, "out_rates": {"3": 1}})

        async def scenario():
            batcher = MicroBatcher(tier, window=0.05)
            return await asyncio.gather(
                batcher.simulate(base, 200, 3),
                batcher.simulate(perm, 200, 11),
            )

        r_base, r_perm = asyncio.run(scenario())
        assert r_base["batch"]["seq"] != r_perm["batch"]["seq"]
        assert r_base["batch"]["size"] == r_perm["batch"]["size"] == 1
        assert _strip(r_base) == direct_simulate(base, 200, 3)
        assert _strip(r_perm) == direct_simulate(perm, 200, 11)


class TestFlushTriggers:
    def test_max_batch_flushes_without_waiting_for_window(self, tier):
        async def scenario():
            batcher = MicroBatcher(tier, window=30.0, max_batch=2)  # window never fires
            return await asyncio.wait_for(asyncio.gather(
                batcher.simulate(PATH_SPEC, 150, 1),
                batcher.simulate(PATH_SPEC, 150, 2),
            ), timeout=10.0)

        results = asyncio.run(scenario())
        assert [r["batch"] for r in results] == [
            {"seq": 1, "size": 2, "index": 0}, {"seq": 1, "size": 2, "index": 1}]
        for seed, response in zip((1, 2), results):
            assert _strip(response) == direct_simulate(PATH_SPEC, 150, seed)

    def test_zero_window_runs_singleton_batches(self, tier):
        async def scenario():
            batcher = MicroBatcher(tier, window=0.0)
            return await asyncio.gather(
                batcher.simulate(PATH_SPEC, 150, 1),
                batcher.simulate(PATH_SPEC, 150, 2),
            )

        first, second = asyncio.run(scenario())
        assert first["batch"]["size"] == second["batch"]["size"] == 1
        assert first["batch"]["seq"] != second["batch"]["seq"]


class TestFailureDelivery:
    def test_batch_failure_reaches_every_member(self, monkeypatch, tier):
        import repro.serve.batching as batching

        def boom(*_args):
            raise RuntimeError("ensemble exploded")

        monkeypatch.setattr(batching, "_run_batch", boom)

        async def scenario():
            batcher = MicroBatcher(tier, window=0.02)
            return await asyncio.gather(
                batcher.simulate(PATH_SPEC, 150, 1),
                batcher.simulate(PATH_SPEC, 150, 2),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_close_fails_pending_requests_with_503(self, tier):
        async def scenario():
            batcher = MicroBatcher(tier, window=30.0)
            task = asyncio.ensure_future(batcher.simulate(PATH_SPEC, 150, 1))
            await asyncio.sleep(0)  # let the request enqueue
            batcher.close()
            return await asyncio.gather(task, return_exceptions=True)

        [result] = asyncio.run(scenario())
        assert isinstance(result, ServeError)
        assert result.status == 503

    def test_bad_config_rejected(self, tier):
        with pytest.raises(ServeError, match="window"):
            MicroBatcher(tier, window=-1.0)
        with pytest.raises(ServeError, match="max_batch"):
            MicroBatcher(tier, max_batch=0)
