"""Exact integer fast-path arithmetic for the hot numeric core.

The paper's verdicts (Definitions 3–4, the stability diagonal of
Theorem 1) are exact-equality tests, so the repository refuses to do hot
arithmetic in floats.  Historically that meant :class:`fractions.Fraction`
everywhere — exact but slow, since every add re-runs a gcd.  This package
is the middle path:

* :mod:`repro.numeric.exact` scales a batch of rationals to one common
  denominator and hands back plain Python integers.  Integer arithmetic is
  exact, gcd-free, and (below the magnitude guard) fits machine words, so
  hot loops run 10–50x faster while producing *bit-identical* results —
  ``Fraction(scaled_value, denominator)`` undoes the scaling exactly.
* :mod:`repro.numeric.counters` counts fast-path engagement
  (``repro_core_fastpath_steps_total``) and the checked fallbacks to
  ``Fraction`` (``repro_core_fraction_fallbacks_total``), so a silent
  full-fallback shows up in tests and metrics instead of just running
  slow.

Consumers: the parametric ladder behind classify and the breakpoint
envelope scales ``G*`` and the ray, and rescales each rung it forks
(:mod:`repro.flow.parametric`); the mobility timeline scales its link and
rate capacities (:mod:`repro.mobility.feasibility`); the LGG engine
advances whole horizons in the integer kernel
(:mod:`repro.core.fastpath`); and the analysis helpers
(:mod:`repro.core.bounds`, :mod:`repro.analysis.burstiness`) hoist their
loop-invariant ratios through :func:`exact.common_denominator`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".exact": ("INT_SCALE_LIMIT", "ScaledValues", "common_denominator", "scale_int",
               "try_scale", "unscale"),
    ".counters": ("fastpath_steps_total", "fraction_fallbacks_total",
                  "note_fastpath_steps", "note_fraction_fallback", "reset_counters"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
