"""Golden digests of the random generators behind ``random_instance_spec``.

Each digest is a sha256 over a graph's edge store ``(n, _eu, _ev,
_alive)``, its used slots as Python lists, and its spec's rate maps, so
it pins edge ids, endpoint orientation and every random draw.  The
digests were recorded before the generators assembled their edge lists
as arrays, and while the store was still three Python lists; they hold
both rewrites (``random_gnp``'s spanning-tree draws in one call
included) to the graphs of the per-edge construction, on whatever numpy
runs the suite.  ``KNOB_GOLDEN`` and ``MULTIGRAPH_GOLDEN`` pin the
non-default knobs of the Barabási–Albert and Watts–Strogatz families and
``random_multigraph``; they were recorded while those generators still
made one numpy call per draw.
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


#: non-default knobs of the per-draw families, with ``KNOBS``' node count
#: and ``TERMINALS``: (family, knob, value, seed) -> digest
KNOB_GOLDEN = {
    ("ba", "m_attach", 1, 0):
        "7a65a95c60233d8e958fd36132d1197a348002f42ab13679271d44f25b32667e",
    ("ba", "m_attach", 1, 1_000_010):
        "17cc5d84bcea578c8181b9dba67ec636b593bd422d7cbe477f88912be017f942",
    ("ba", "m_attach", 3, 0):
        "f8bea72c1606d1d60fd061be7ef87e602ba911c3cc53bc3e08487a6b9d4ac6ab",
    ("ba", "m_attach", 3, 1_000_010):
        "53a7318538d7528ace459ea518e53868af10ce09964397975e977162a9269cf6",
    ("ws", "k", 2, 0):
        "18896e3c8bcf39e8794b2a3385ccc6981c6af84b1b8f21f2ea75da836e777c04",
    ("ws", "k", 2, 1_000_010):
        "4a1fcd319d2b253f22b4b2e311866755126c9ed032df302d314f743f0cae2ab8",
    ("ws", "k", 6, 0):
        "f276d9b8709e28fa1b45130f020516ce1eac9284d00e69d12ba337cbbfe2cc47",
    ("ws", "k", 6, 1_000_010):
        "931f935ff3867ddbbbe14d73e93096befdf293160e9798a06d31119370a69745",
    ("ws", "beta", 0.0, 0):
        "8f4a0ebd93cddd21d0feb6d4604e2dcc4f07f0fbc0b09058e3790d056084316f",
    ("ws", "beta", 0.0, 1_000_010):
        "d0b3d53f8032f378cfa643fab8f63388727767988dda42cc16cde89a00567437",
    ("ws", "beta", 0.5, 0):
        "dab329902b1fc30ff54fbf8b158b1c598d019f1d3c791eab5601ca517e084121",
    ("ws", "beta", 0.5, 1_000_010):
        "45ba2ad885970e36ba5c3e3f424a0b35b24240c40e2afa76495fb30f2ed96ae7",
    ("ws", "beta", 1.0, 0):
        "dfcaa74ab7e9254b99fc52ec9fdab094546fba70808e1682c7485d950ae4b1eb",
    ("ws", "beta", 1.0, 1_000_010):
        "b8e0069f9a8f92d48406a54f9b25701ddc9a42a2df132462a800e9b513cb2605",
}

#: ``random_multigraph(20, 60, seed)``
MULTIGRAPH_GOLDEN = {
    0: "61f278ff307799fcf709eb7e977cfd8ebddc93d7d8070d657fcbf5fbab6eb5e9",
    7: "00340920eb42b4d7d1d9cfc33109fe1f946a08f24ccd2dfddcdef4bbe55fb4d6",
}


@pytest.mark.parametrize("family,knob,value,seed", sorted(KNOB_GOLDEN))
def test_non_default_knobs(family, knob, value, seed):
    params = {"family": family, **KNOBS[family], knob: value, **TERMINALS}
    spec = random_instance_spec(params, seed)
    got = digest(spec.graph, spec.in_rates, spec.out_rates)
    assert got == KNOB_GOLDEN[family, knob, value, seed]


@pytest.mark.parametrize("seed", sorted(MULTIGRAPH_GOLDEN))
def test_random_multigraph(seed):
    assert digest(gen.random_multigraph(20, 60, seed)) == MULTIGRAPH_GOLDEN[seed]
