"""Additivity of the faces of functions with jumps against the
plain-Fraction reference, on derandomized generated inputs.

A face of a discontinuous function is additive when every limit of Δπ at
its vertices from its relative interior vanishes, since Δπ is affine there
(``classify_additive`` carries the proof).  The reference also tests Δπ at
an interior point of each 2-D face, the first of several candidate samples
that avoids every breakpoint line; the report must be ``==`` to it.
"""

from hypothesis import given, settings

import complex2d_reference as ref
from groupcut import additivity_report, with_f_breakpoint
from jump_strategies import jump_functions


@given(jump_functions(max_cuts=2))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_report_matches_reference(fn):
    fn = with_f_breakpoint(fn)
    report, expected = additivity_report(fn), ref.additivity_report(fn)
    assert report.additive_faces == expected.additive_faces
    assert report.maximal_faces == expected.maximal_faces
    assert report.symmetry_faces == expected.symmetry_faces
    assert report.covered_intervals == expected.covered_intervals
