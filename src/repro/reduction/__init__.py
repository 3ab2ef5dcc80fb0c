"""Section V-C induction machinery: splitting a saturated network along an
interior minimum cut into the ``B'`` and ``A'`` generalized networks."""

from repro._exports import lazy_exports

_EXPORTS = {
    ".cutsplit": ("CutSplit", "interior_min_cut", "build_b_prime", "build_a_prime",
                  "split_along_cut", "section_v_case"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
