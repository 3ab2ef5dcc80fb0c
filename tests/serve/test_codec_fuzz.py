"""Fuzzed request bodies: every parser returns or raises a structured 400.

Each example starts from a valid payload and deletes or replaces one or
two of its fields (spec fields, rate-map entries, the simulate/region
outer fields) with an arbitrary JSON value.  A region payload's
direction rate starts as a rational-looking string: digit runs up to
past the 64-digit limit, joined by slashes, points, exponents,
underscores, signs and spaces.  Whatever comes in, the
three parsers must either return or raise :class:`ServeError` with
status 400; any other exception would be a 500 at the server.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve.codec import parse_region_request, parse_simulate_request, parse_spec

SPECS = [
    {"topology": "gnp", "n": 8, "p": 0.4, "seed": 3, "source": 0, "sink": 7,
     "in_rate": 1, "out_rate": 2},
    {"topology": "grid", "rows": 3, "cols": 3, "in_rate": 1, "out_rate": 2,
     "retention": 1, "revelation": "always_r"},
    {"nodes": 5, "edges": [[0, 1], [1, 2], [1, 2], [2, 3], [3, 4]],
     "in_rates": {"0": 1}, "out_rates": {"4": 2}},
]
#: every field a spec parser reads, so absent ones get set too
SPEC_FIELDS = ("topology", "n", "p", "seed", "rows", "cols", "source", "sink",
               "in_rate", "out_rate", "nodes", "edges", "in_rates", "out_rates",
               "retention", "revelation")

# JSON as a body can carry it (Python's json also reads NaN and Infinity):
# null, bools, small, huge and negative ints, floats, strings, nesting
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 12),
    st.integers(min_value=2**31),
    st.integers(max_value=-1),
    st.floats(),
    st.text(max_size=6),
)
RATE_STRINGS = st.lists(
    st.one_of(st.text("0123456789", min_size=1, max_size=70),
              st.sampled_from(["/", ".", "e", "E", "e1000000", "_", "-", "+",
                               " ", "\n"])),
    min_size=1, max_size=4,
).map("".join)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def _paths(payload: dict, prefix: tuple = ()) -> set:
    """Every key path into ``payload``'s nested objects."""
    out = set()
    for key, value in payload.items():
        out.add(prefix + (key,))
        if isinstance(value, dict):
            out |= _paths(value, prefix + (key,))
    return out


@st.composite
def mutated(draw, base: dict, spec_prefix: tuple):
    """``base`` with one or two fields deleted or replaced."""
    payload = copy.deepcopy(base)
    paths = _paths(payload) | {spec_prefix + (f,) for f in SPEC_FIELDS}
    chosen = draw(st.lists(st.sampled_from(sorted(paths, key=repr)),
                           min_size=1, max_size=2, unique=True))
    for path in chosen:
        parent = payload
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue  # the other mutation replaced this field's parent
        if draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(VALUES)
    return payload


def _returns_or_400(parse, payload) -> None:
    try:
        parse(payload)
    except ServeError as exc:
        assert exc.status == 400, (exc, payload)


class TestFuzzedPayloads:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_spec(self, data):
        base = data.draw(st.sampled_from(SPECS))
        _returns_or_400(parse_spec, data.draw(mutated(base, ())))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_simulate_request(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        base = {"spec": spec, "horizon": 50, "seed": 1, "loss_p": 0.1}
        _returns_or_400(parse_simulate_request,
                        data.draw(mutated(base, ("spec",))))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_region_request(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        rate = data.draw(st.one_of(st.just("3/2"), RATE_STRINGS))
        base = {"spec": spec, "direction": {"0": rate}}
        _returns_or_400(parse_region_request,
                        data.draw(mutated(base, ("spec",))))
