"""Batched field evaluation against the per-element loops it replaced.

``error_norms`` and ``inject`` evaluate fields per degree group of elements
on their stacked Gauss grids; the oracles evaluate one element or face at a
time, with one rule and one ``basis_matrix`` table each.  Injection must
agree bitwise, the error norms to roundoff in the order of summation, on the
octant and on the whole cube.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpdg.analysis import error_norms
from hpdg.hpspace import DiscreteField, build_space, constant_field, containing_map, inject
from hpdg.mesh import build_graded_mesh
from oracles import (error_norms_per_element, evaluate_in_element, full_cube_mesh,
                     project_per_element)


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([2, 3]), sigma=st.sampled_from([0.5, 0.3, 0.15]), ell=st.integers(1, 3),
       p0=st.integers(1, 3), slope=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       seed=st.integers(0, 2**16))
# Coarse degrees 3, 2, 1: three degree groups.
@example(d=2, sigma=0.5, ell=3, p0=1, slope=1.0, seed=0)
@example(d=3, sigma=0.15, ell=2, p0=1, slope=0.5, seed=1)
def test_batched_evaluation_matches_per_element_loops(d, sigma, ell, p0, slope, seed):
    if d == 3:
        ell, p0 = min(ell, 2), min(p0, 2)
    for build in (build_graded_mesh, full_cube_mesh):
        _check_against_loops(build_space(build(d, sigma, ell), p0, slope),
                             build_space(build(d, sigma, ell + 1), p0 + 1, slope), seed)


def _check_against_loops(coarse_space, fine_space, seed):
    rng = np.random.default_rng(seed)
    coarse = DiscreteField(coarse_space, rng.standard_normal(coarse_space.N))
    reference = DiscreteField(fine_space, rng.standard_normal(fine_space.N))
    norms = error_norms(coarse, reference)
    injected = inject(coarse, fine_space).coeffs

    want = error_norms_per_element(coarse, reference)
    for key, value in want.items():
        assert norms[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
    cmap = containing_map(coarse_space.mesh, fine_space.mesh)
    assert np.array_equal(injected, project_per_element(
        fine_space, lambda e, pts: evaluate_in_element(coarse, cmap[e], pts)))


@pytest.mark.parametrize("call", [error_norms, lambda field, other: inject(field, other.space)],
                         ids=["error_norms", "inject"])
def test_meshes_of_different_dimension_are_named(call):
    two = constant_field(build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0))
    three = constant_field(build_space(build_graded_mesh(3, 0.5, 1), 1, 0.0))
    with pytest.raises(ValueError, match="cannot nest a 3D mesh in a 2D mesh"):
        call(two, three)
    with pytest.raises(ValueError, match="cannot nest a 2D mesh in a 3D mesh"):
        call(three, two)
