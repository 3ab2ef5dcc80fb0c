"""Golden digests of the random generators behind ``random_instance_spec``.

Each digest is a sha256 over a graph's edge store ``(n, _eu, _ev,
_alive)``, its used slots as Python lists, and its spec's rate maps, so
it pins edge ids, endpoint orientation and every random draw.  The
digests were recorded before the generators assembled their edge lists
as arrays, and while the store was still three Python lists; they hold
both rewrites (``random_gnp``'s spanning-tree draws in one call
included) to the graphs of the per-edge construction, on whatever numpy
runs the suite.
"""

import hashlib
import json

import pytest

from repro.graphs import generators as gen
from repro.sweep.points import FAMILIES, random_instance_spec

#: the e2e ``region_map`` workload's knobs where they apply
KNOBS = {
    "gnp": {"n": 96, "p": 0.08},
    "geometric": {"n": 80, "radius": 0.2},
    "ba": {"n": 128},
    "ws": {"n": 128},
    "kronecker": {},
    "config": {"n": 128},
    "er_connected": {"n": 128},
}
TERMINALS = {"sources": 6, "sinks": 6, "in_rate": 4, "out_rate": 6}

SPEC_GOLDEN = {
    ("gnp", 0):
        "c1e5617881733abc56e96766e1e8dff548c28fd2d5635194f94d290e34848871",
    ("gnp", 1_000_010):
        "4034ade08328f8888ba65ed0b33e01ca6436ac54aa36d892fbadce01c7f65f37",
    ("geometric", 0):
        "5f7e8b28b44caad8960ba644375c46d2cef3e2cdac7bc1de5ba427de6819c87b",
    ("geometric", 1_000_010):
        "a301b7aab36f0aeebec40aac66013b57dbf16def186460c8be0bcd36ea1eaa6f",
    ("ba", 0):
        "a2641dbf877640d09d8c0fadbf067f33833950e43bfc3371bb99a6438da4cdf0",
    ("ba", 1_000_010):
        "9e861cbfc66652b883926979c970e6908ee1e10ab09b118a9ea13319c4fa8627",
    ("ws", 0):
        "b194ae7d9b393471d4976dbaf7c516fd2ce54a57b6e2ad69da6c100713a8fb72",
    ("ws", 1_000_010):
        "d3aa065cd93f22a03058482e0c5ea88595bc859142d8a41790ae02982a3e6d26",
    ("kronecker", 0):
        "85c815cf22e38a94ca67f040f8780e8d583353a2996d90ccdff0bed5f88cdf57",
    ("kronecker", 1_000_010):
        "5a731c094ed322bee0d9864a3d004ef03f335a168861df3889737679da41be11",
    ("config", 0):
        "eed0d39153b2bd5e8b9a705b2899e9b6f59c0475ca068331d9ca43418d1c16c9",
    ("config", 1_000_010):
        "f2ea53d73e29d819b860fc020246e9684702545e635a700a12eab5db5f3a937a",
    ("er_connected", 0):
        "de3ea81022417f77064508a3503bd74b9241685fb950dc74140a660e4125f567",
    ("er_connected", 1_000_010):
        "9ce4aa70192ac0a32342740fcd614fed0fe1e7da7bd462ae7daac0037fb4f735",
}

#: ``random_gnp(48, 0.15, seed, ensure_connected=True)``: serve's shape
SERVE_GNP_GOLDEN = {
    0: "bc8bfb247a371b837e5c4e7c3ae13441fe79cd9a688a8eb01f50c8f2c93e45f4",
    7: "83f005902bdd046a17ab8482d6df967bb40a97ae2e73fae4a21a63c6081e1fd4",
}

#: ``random_geometric(60, 0.08, seed, ensure_connected=True)``: sparse
#: enough that every seed here needs several bridging rounds
BRIDGED_GEOMETRIC_GOLDEN = {
    0: "a01c028645d4d87458f226a1053957bb7c9d84bce3ed11d0f8af5782343f9000",
    7: "e21c5b5e5364915df226510095e6762da3a6e6cbe200055eda1c431545712ac6",
}


def digest(graph, in_rates=None, out_rates=None) -> str:
    used = graph.num_edge_slots
    payload = [graph.n, graph._eu[:used].tolist(), graph._ev[:used].tolist(),
               graph._alive[:used].tolist(),
               sorted((in_rates or {}).items()),
               sorted((out_rates or {}).items())]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def test_every_family_is_covered():
    assert {family for family, _ in SPEC_GOLDEN} == set(FAMILIES)


@pytest.mark.parametrize("family,seed", sorted(SPEC_GOLDEN))
def test_random_instance_spec(family, seed):
    spec = random_instance_spec({"family": family, **KNOBS[family], **TERMINALS},
                                seed)
    got = digest(spec.graph, spec.in_rates, spec.out_rates)
    assert got == SPEC_GOLDEN[family, seed]


@pytest.mark.parametrize("seed", sorted(SERVE_GNP_GOLDEN))
def test_serve_gnp(seed):
    g = gen.random_gnp(48, 0.15, seed, ensure_connected=True)
    assert digest(g) == SERVE_GNP_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(BRIDGED_GEOMETRIC_GOLDEN))
def test_bridged_geometric(seed):
    raw = gen.random_geometric(60, 0.08, seed)
    assert len(raw.components()) > 2
    g = gen.random_geometric(60, 0.08, seed, ensure_connected=True)
    assert g.is_connected()
    assert digest(g) == BRIDGED_GEOMETRIC_GOLDEN[seed]
