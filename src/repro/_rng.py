"""Seeded random-number plumbing.

All stochastic components of the library (arrival processes, loss models,
tie-breakers, topology generators) draw from a single
:class:`numpy.random.Generator` funnelled through :func:`as_generator`, so
that any simulation is reproducible bit-for-bit from one integer seed.

The helpers also support *spawning* independent child generators from a
parent seed, which keeps sub-components decoupled: re-ordering draws inside
the loss model can never perturb the arrival process.

Scalar draws and the stream contract
------------------------------------
A loop that makes one draw at a time pays ~0.6 µs per ``rng.random()``
and ~1.8 µs per ``rng.integers(0, high)``, most of it numpy's call
overhead.  :func:`scalar_draws` returns the same values as Python
numbers at about the bit generator's own cost (~0.3–0.5 µs), and it is
exact in this sense:

* ``random()`` is ``rng.random()``: one call of the bit generator's
  ``next_double``.
* ``integers(high)`` is ``int(rng.integers(0, high))`` for every
  ``1 <= high <= 2**32``.  numpy draws such a bound from the bit
  generator's ``next_uint32`` with Lemire's multiply-and-reject method
  (arXiv 1805.10941), ``high == 1`` makes no draw and ``high == 2**32``
  returns one 32-bit word unchanged; the helper does the same.  Larger
  bounds use a 64-bit path and raise ``ValueError`` here.
* Both call the bit generator's own C functions (through its ``ctypes``
  interface), so its buffered half of a 64-bit word is used as numpy
  uses it, for PCG64, MT19937, Philox and SFC64 alike, and the
  generator ends in the state the scalar calls leave it in.

Where all the bounds of a run of draws are known up front, one
broadcast ``rng.integers(low, highs)`` makes the scalar calls' draws in
the same order.  The graph generators rely on both facts to draw the
stream their per-draw loops drew.  numpy documents no stream guarantee
across versions; if an upgrade changes the stream, these tests fail:
``tests/test_rng_and_errors.py::TestScalarDraws`` (the helper against
numpy's scalar calls), ``tests/graphs/test_generators_oracle.py`` (each
generator against its per-draw oracle in
``tests/graphs/generators_reference.py``) and the golden digests of
``tests/graphs/test_generators_golden.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh OS-entropy generator; an ``int`` or
    :class:`~numpy.random.SeedSequence` is fed to the PCG64 bit generator;
    an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def scalar_draws(rng: np.random.Generator
                 ) -> tuple[Callable[[], float], Callable[[int], int]]:
    """``(random, integers)`` drawing ``rng``'s own stream one value at a
    time, as Python numbers.

    ``random()`` equals ``rng.random()`` and ``integers(high)`` equals
    ``int(rng.integers(0, high))`` for a Python int ``1 <= high <=
    2**32``; interleaved in any order they leave ``rng`` in the state the
    numpy calls would (see the module docstring).  Neither takes the bit
    generator's lock, so keep the pair on one thread.
    """
    bits = rng.bit_generator
    iface = bits.ctypes
    state, next_uint32 = iface.state, iface.next_uint32

    def integers(high: int) -> int:
        if not 1 < high < 0x100000000:
            if high == 1:
                return 0  # a one-value range: numpy makes no draw
            if high == 0x100000000:
                return next_uint32(state)
            raise ValueError(f"integers(high) needs 1 <= high <= 2**32, got {high}")
        # Lemire: the top word of a 32x32-bit product is uniform on
        # [0, high) once low words under (2**32 - high) % high are rejected
        m = next_uint32(state) * high
        if m & 0xFFFFFFFF < high:
            threshold = (0x100000000 - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * high
        return m >> 32

    random = partial(iface.next_double, state)
    # ``state`` is a raw pointer into ``bits``: the pair keeps it alive
    random.bit_generator = integers.bit_generator = bits
    return random, integers


def spawn(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``seed``.

    When ``seed`` is already a generator, children are seeded from draws of
    the parent (the parent is advanced); otherwise a
    :class:`~numpy.random.SeedSequence` spawn tree is used, which is the
    preferred, collision-free derivation.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(n)]


def derive_seed(seed: SeedLike, *tags: Union[int, str]) -> int:
    """Deterministically derive an integer seed from ``seed`` and ``tags``.

    Used by experiments to give each (topology, arrival-rate, repeat) cell of
    a parameter sweep its own reproducible seed without manual bookkeeping.
    """
    base: Sequence[int]
    if isinstance(seed, np.random.Generator):
        base = [int(seed.integers(0, 2**31 - 1))]
    elif isinstance(seed, np.random.SeedSequence):
        base = list(seed.entropy if isinstance(seed.entropy, (list, tuple)) else [seed.entropy or 0])
    elif seed is None:
        base = [0]
    else:
        base = [int(seed)]
    mixed = list(base)
    for tag in tags:
        if isinstance(tag, str):
            # FNV-1a over the UTF-8 bytes: stable across runs and platforms,
            # unlike the salted built-in hash().
            h = 2166136261
            for b in tag.encode("utf-8"):
                h = ((h ^ b) * 16777619) & 0xFFFFFFFF
            mixed.append(h)
        else:
            mixed.append(int(tag) & 0xFFFFFFFF)
    ss = np.random.SeedSequence(mixed)
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
