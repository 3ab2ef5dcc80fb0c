"""Wire-format validation: every malformed payload is a structured 400."""

import json
import time
from fractions import Fraction

import pytest

from repro.errors import ServeError
from repro.flow import classify_network
from repro.serve import parse_simulate_request, parse_spec, report_to_json
from repro.serve.codec import RATE_DIGITS, parse_region_request


PATH_SPEC = {"topology": "path", "n": 6, "in_rate": 1, "out_rate": 2}


class TestParseSpecGenerated:
    def test_path(self):
        spec = parse_spec(PATH_SPEC)
        assert spec.n == 6
        assert spec.in_rates == {0: 1}
        assert spec.out_rates == {5: 2}

    def test_grid_defaults_sink_to_last_node(self):
        spec = parse_spec({"topology": "grid", "rows": 2, "cols": 3})
        assert spec.n == 6
        assert list(spec.out_rates) == [5]

    def test_gnp_is_seed_deterministic(self):
        a = parse_spec({"topology": "gnp", "n": 10, "p": 0.4, "seed": 3})
        b = parse_spec({"topology": "gnp", "n": 10, "p": 0.4, "seed": 3})
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_generalized_model(self):
        spec = parse_spec({**PATH_SPEC, "retention": 2, "revelation": "always_r"})
        assert spec.retention == 2

    @pytest.mark.parametrize("payload,fragment", [
        ({"topology": "torus"}, "topology"),
        ({"topology": "path", "n": 1}, "'n'"),
        ({"topology": "path", "n": "six"}, "'n'"),
        ({"topology": "path", "n": 6, "source": 9}, "source"),
        ({"topology": "gnp", "n": 6, "p": 1.5}, "'p'"),
        ({"topology": "path", "n": 6, "revelation": "zero"}, "retention"),
        ({"topology": "path", "n": 6, "revelation": "sideways"}, "revelation"),
        ({"topology": "complete", "n": 400}, "capped"),
        ({"topology": "grid", "rows": 100, "cols": 100}, "exceeds"),
        ("not-a-dict", "JSON object"),
        # an explicit null is not "absent" where the default is a number,
        # and a negative seed is not a seed
        ({"topology": "path", "n": None}, "'n'"),
        ({"topology": "path", "n": 6, "in_rate": None}, "'in_rate'"),
        ({"topology": "gnp", "n": 6, "seed": -1}, "'seed'"),
        ({"topology": "gnp", "n": 6, "seed": None}, "'seed'"),
        # ~8.4M expected edges: more than a 1 MiB explicit body can list
        ({"topology": "gnp", "n": 4096, "p": 1.0}, "edge limit"),
    ])
    def test_rejects_with_serve_error(self, payload, fragment):
        with pytest.raises(ServeError) as exc_info:
            parse_spec(payload)
        assert exc_info.value.status == 400
        assert fragment in str(exc_info.value)


class TestParseSpecExplicit:
    def test_multigraph_with_parallel_edges(self):
        spec = parse_spec({
            "nodes": 4, "edges": [[0, 1], [1, 2], [1, 2], [2, 3]],
            "in_rates": {"0": 1}, "out_rates": {"3": 2},
        })
        assert spec.graph.m == 4
        assert spec.in_rates == {0: 1}

    @pytest.mark.parametrize("payload,fragment", [
        ({"nodes": 4}, "edges"),
        ({"nodes": 4, "edges": [[0, 1, 2]]}, "pair"),
        ({"nodes": 4, "edges": [[0, 9]]}, "invalid network spec"),
        ({"nodes": 4, "edges": [[0, 1]], "in_rates": {"9": 1}}, "unknown node"),
        ({"nodes": 4, "edges": [[0, 1]], "in_rates": {"0": -1}}, "nonnegative"),
        ({"nodes": 4, "edges": [[0, 1]], "in_rates": [1]}, "mapping"),
        ({"nodes": 4, "edges": [[0, 2**70]]}, "unknown node"),
        ({"nodes": 4, "edges": [[-2**70, 1]]}, "unknown node"),
        ({"nodes": 4, "edges": [[0, 1], [2, 2]]}, "self-loop"),
        # past the int32 endpoint store, like the past-int64 cases above
        ({"nodes": 4, "edges": [[0, 2**31]]}, "unknown node"),
    ])
    def test_rejects(self, payload, fragment):
        with pytest.raises(ServeError) as exc_info:
            parse_spec(payload)
        assert exc_info.value.status == 400
        assert fragment in str(exc_info.value)


class TestParseSimulateRequest:
    def test_defaults(self):
        spec, horizon, seed, loss_p = parse_simulate_request({"spec": PATH_SPEC})
        assert (horizon, seed, loss_p) == (1000, 0, 0.0)
        assert spec.n == 6

    def test_horizon_cap_is_enforced(self):
        with pytest.raises(ServeError, match="horizon"):
            parse_simulate_request({"spec": PATH_SPEC, "horizon": 10**7})
        with pytest.raises(ServeError, match="horizon"):
            parse_simulate_request(
                {"spec": PATH_SPEC, "horizon": 999}, max_horizon=500
            )

    @pytest.mark.parametrize("payload", [
        {},                                  # no spec at all
        {"spec": PATH_SPEC, "loss_p": 2.0},
        {"spec": PATH_SPEC, "seed": "zero"},
        {"spec": PATH_SPEC, "horizon": True},
        {"spec": PATH_SPEC, "horizon": None},
        {"spec": PATH_SPEC, "seed": -5},
        {"spec": PATH_SPEC, "seed": None},
        {"spec": {"topology": "gnp", "n": 6, "seed": -1}},
    ])
    def test_rejects(self, payload):
        with pytest.raises(ServeError) as exc_info:
            parse_simulate_request(payload)
        assert exc_info.value.status == 400


class TestParseRegionRequest:
    def _direction(self, rate):
        return parse_region_request({"spec": PATH_SPEC, "direction": {"0": rate}})[1]

    @pytest.mark.parametrize("rate,want", [
        ("3/2", Fraction(3, 2)),
        (7, Fraction(7)),
        ("12/8", Fraction(3, 2)),
        ("9" * RATE_DIGITS + "/" + "7" * RATE_DIGITS,
         Fraction(int("9" * RATE_DIGITS), int("7" * RATE_DIGITS))),
    ])
    def test_parses(self, rate, want):
        assert self._direction(rate) == {0: want}

    def test_zero_parses_beside_a_positive_rate(self):
        spec = {"nodes": 3, "edges": [[0, 2], [1, 2]],
                "in_rates": {"0": 1, "1": 1}, "out_rates": {"2": 2}}
        _, direction = parse_region_request(
            {"spec": spec, "direction": {"0": "0", "1": 1}})
        assert direction == {0: 0, 1: 1}

    @pytest.mark.parametrize("rate", [
        "1e1000000",                      # Fraction would expand the exponent
        "1E5", "1_000", " 3", "3 ", "3/ 2", "3\n", "1.5", ".5",
        "-1", "+1", "-3/2",
        "1" * (RATE_DIGITS + 1), "1/" + "2" * (RATE_DIGITS + 1),
        "7" * 100_000,
        "", "/", "3/", "٣",               # empty halves, a non-ASCII digit
        "3/0",
        True, 1.5, None, [3], {"p": 3},
    ])
    def test_rejects_fast(self, rate):
        parse_spec(PATH_SPEC)  # warm the spec path off the clock
        t0 = time.perf_counter()
        with pytest.raises(ServeError) as exc_info:
            self._direction(rate)
        assert time.perf_counter() - t0 < 0.05
        assert exc_info.value.status == 400
        assert len(str(exc_info.value)) < 400  # an overlong string is cut


class TestResponses:
    def test_report_round_trips_through_json(self):
        report = classify_network(parse_spec(PATH_SPEC).extended())
        body = report_to_json(report)
        again = json.loads(json.dumps(body))
        assert again["network_class"] == report.network_class.value
        assert again["feasible"] is report.feasible
        # exact rationals cross the wire as strings, never floats
        assert isinstance(again["arrival_rate"], str)

    def test_simulation_response_is_json_able(self):
        from repro.serve.batching import direct_simulate

        body = direct_simulate(parse_spec(PATH_SPEC), 200, 1)
        again = json.loads(json.dumps(body))
        assert set(again) == {"verdict", "metrics", "final_queues",
                              "potentials_tail"}
        assert again["verdict"]["bounded"] is True
        assert len(again["potentials_tail"]) == 32
