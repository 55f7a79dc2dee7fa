"""Batched field evaluation against the per-element loops it replaced.

``error_norms`` and ``inject`` evaluate fields per degree group of elements
on their stacked Gauss grids; the oracles evaluate one element or face at a
time, with one rule and one ``basis_matrix`` table each.  Injection must
agree bitwise, the error norms to roundoff in the order of summation, on the
octant and on the whole cube.  ``error_norms`` of a list of coarse fields
measures them in one pass that evaluates the reference once, and each
field's norms are bitwise those of a call with that field alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpdg import analysis
from hpdg.analysis import error_norms
from hpdg.hpspace import (DiscreteField, MeshNestingError, build_space, constant_field,
                          containing_map, inject)
from hpdg.mesh import build_graded_mesh
from oracles import (error_norms_level_by_level, error_norms_per_element, evaluate_in_element,
                     full_cube_mesh, project_per_element)


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


def _random_field(space, rng):
    return DiscreteField(space, rng.standard_normal(space.N))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("build", [build_graded_mesh, full_cube_mesh])
def test_one_pass_over_levels_equals_a_call_per_level(d, build):
    """A chain of three coarse levels measured in one pass: each level's
    norms are bitwise those of its own call, and of the pass that measured
    one level at a time.  The middle level's degree exceeds the reference's
    on some elements, so the levels' grids differ."""
    rng = np.random.default_rng(d)
    slope = 0.5 if d == 2 else 0.0
    reference = _random_field(build_space(build(d, 0.5, 3), 2, slope), rng)
    fields = [_random_field(build_space(build(d, 0.5, ell), p0, slope), rng)
              for ell, p0 in [(1, 1), (2, 3), (3, 1)]]
    cmap = containing_map(fields[1].space.mesh, reference.space.mesh)
    assert (fields[1].space.degrees[cmap] > reference.space.degrees).any()
    norms = error_norms(fields, reference)
    assert isinstance(norms, list) and len(norms) == len(fields)
    for field, got in zip(fields, norms):
        assert got == error_norms(field, reference) == error_norms_level_by_level(field, reference)
    assert error_norms(fields[1:2], reference) == [norms[1]]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("build", [build_graded_mesh, full_cube_mesh])
def test_the_reference_is_evaluated_once_for_all_levels(d, build, monkeypatch):
    """With every coarse degree at most the reference's, the grids are the
    reference's: four coarse fields evaluate it as often, and in as many
    elements and faces, as one does."""
    rng = np.random.default_rng(d)
    reference = _random_field(build_space(build(d, 0.5, 5), 2, 0.25), rng)
    fields = [_random_field(build_space(build(d, 0.5, ell), 1, 0.25), rng)
              for ell in (1, 2, 3, 4)]
    calls = []

    def counting(field, eids, *args, **kwargs):
        if field is reference:
            calls.append(len(eids))
        return evaluate_grid(field, eids, *args, **kwargs)

    evaluate_grid = analysis.evaluate_grid
    monkeypatch.setattr(analysis, "evaluate_grid", counting)
    counts = []
    for coarse in (fields[:1], fields):
        calls.clear()
        error_norms(coarse, reference)
        counts.append((len(calls), sum(calls)))
    assert counts[0] == counts[1] and counts[0][0] > 0


def test_bad_coarse_lists_are_named():
    reference = constant_field(build_space(build_graded_mesh(2, 0.5, 2), 2, 0.0))
    nested = [constant_field(build_space(build_graded_mesh(2, 0.5, ell), 1, 0.0))
              for ell in (0, 1)]
    finer = constant_field(build_space(build_graded_mesh(2, 0.5, 3), 1, 0.0))
    three = constant_field(build_space(build_graded_mesh(3, 0.5, 1), 1, 0.0))
    with pytest.raises(ValueError, match="coarse"):
        error_norms([], reference)
    with pytest.raises(MeshNestingError, match=r"^coarse\[2\]: fine element \d+ is not contained"):
        error_norms(nested + [finer], reference)
    with pytest.raises(ValueError, match=r"^coarse\[1\]: cannot nest a 2D mesh in a 3D mesh"):
        error_norms([nested[0], three], reference)
