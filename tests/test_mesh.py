from dataclasses import fields

import numpy as np
import pytest

from hpdg.mesh import MeshError, build_faces, build_graded_mesh
from oracles import enumerate_faces_of, full_cube_mesh


def _both(*args):
    """The octant mesh and the oracle's whole-cube mesh of the same parameters."""
    return build_graded_mesh(*args), full_cube_mesh(*args)


def _covered(m):
    """Total face measure per element, summed over the faces it owns."""
    f = m.faces
    t = np.arange(m.d) != f.axis[:, None]
    measure = np.prod(np.where(t, f.lengths, 1.0), axis=1)
    own = f.owners.ravel()
    return np.bincount(own[own >= 0], np.repeat(measure, 2)[own >= 0], minlength=m.n_elements)


def _faced(m):
    """Total measure per element of its faces that are not on a mirror plane."""
    mirror = m.lo.min(axis=0) == 0
    return sum((2 - (mirror[ax] & (m.lo[:, ax] == 0)))
               * np.prod(np.delete(m.lengths, ax, axis=1), axis=1) for ax in range(m.d))


@pytest.mark.parametrize("d", [2, 3])
def test_copies_count_the_mirror_images(d):
    assert build_graded_mesh(d, 0.5, 2).copies == 2**d
    assert full_cube_mesh(d, 0.5, 2).copies == 1


def test_initial_split_2d():
    for m, n_elements in zip(_both(2, 0.5, 0), (1, 4)):
        assert m.n_elements == n_elements
        assert np.all(m.layer == 0)
        assert np.all(m.corner)


def test_hand_counted_refinements():
    assert build_graded_mesh(2, 0.5, 2).n_elements == 7  # 1 + 3 per step
    assert build_graded_mesh(3, 0.5, 1).n_elements == 8  # 1 + 7 per step
    assert full_cube_mesh(2, 0.5, 2).n_elements == 28  # 4 + 12 per step
    assert full_cube_mesh(3, 0.5, 1).n_elements == 64  # 8 + 56 per step


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ell", range(0, 11))
def test_count_law_and_tiling(d, ell):
    for m in _both(d, 0.5, ell):
        assert m.n_elements * m.copies == 2**d + (4**d - 2**d) * ell
        assert abs(np.prod(m.lengths, axis=1).sum() * m.copies - 1.0) < 1e-13
        # pairwise-disjoint interiors, checked by brute-force box intersection
        los, his = m.lo, m.hi
        overlap = np.minimum(his[:, None, :], his[None, :, :]) - np.maximum(
            los[:, None, :], los[None, :, :]
        )
        inter = np.prod(np.maximum(overlap, 0.0), axis=2)
        inter[np.arange(len(inter)), np.arange(len(inter))] = 0.0
        assert np.max(inter) < 1e-14


@pytest.mark.parametrize("d,ell", [(2, 0), (2, 1), (2, 4), (3, 2)])
def test_touching_elements(d, ell):
    for m in _both(d, 0.5, ell):
        touching = np.flatnonzero(m.corner)
        assert len(touching) * m.copies == 2**d
        assert np.all(m.layer[touching] == ell)
        for e in touching:
            assert np.min(np.abs(np.concatenate([m.lo[e], m.hi[e]]))) < 1e-15


@pytest.mark.parametrize("ell", [1, 3, 6, 10])
def test_sizes_and_grading_constants(ell):
    m = build_graded_mesh(2, 0.5, ell)
    h = m.lengths.max(axis=1)
    for e in range(m.n_elements):
        assert h[e] == pytest.approx(0.5**(m.layer[e] + 1), abs=0)
        if not m.corner[e]:
            dist = np.linalg.norm(np.maximum(np.maximum(m.lo[e], -m.hi[e]), 0.0))
            assert 0.5 * h[e] <= dist <= 2.0 * h[e]


def test_layer_widths_decrease_geometrically():
    m = build_graded_mesh(2, 0.5, 5)
    widths = [np.max(m.lengths[m.layer == j]) for j in range(1, 6)]
    for a, b in zip(widths, widths[1:]):
        assert b == pytest.approx(0.5 * a, abs=0)


def test_face_counts_ell0():
    for m, interior, boundary in zip(_both(2, 0.5, 0), (0, 4), (2, 8)):
        assert np.count_nonzero(m.faces.interior) == interior
        assert np.count_nonzero(~m.faces.interior) == boundary
        assert np.all(m.faces.owners[~m.faces.interior, 1] == -1)
        bnd = m.faces[~m.faces.interior]
        assert np.all(np.abs(bnd.lo[np.arange(len(bnd)), bnd.axis]) == 0.5)  # none on a mirror


def test_conforming_face_h_e():
    m = full_cube_mesh(2, 0.5, 0)
    inner = m.faces[m.faces.interior]
    assert np.all(inner.h_e == 0.5)
    assert not inner.is_subface.any()


def test_hanging_faces_across_level_jump():
    m = build_graded_mesh(2, 0.5, 2)
    inner = m.faces[m.faces.interior]
    layers = m.layer[inner.owners]
    jumps = np.flatnonzero(np.abs(layers[:, 0] - layers[:, 1]) == 1)
    assert jumps.size, "expected level-jump interfaces on a graded mesh"
    for f in jumps:
        fine = inner.owners[f, np.argmax(layers[f])]
        assert inner.is_subface[f]
        assert inner.h_e[f] == pytest.approx(m.lengths[fine].max(), abs=0)
        # the face piece is an entire face of the finer element
        t = np.arange(2) != inner.axis[f]
        assert inner.lo[f, t] == pytest.approx(m.lo[fine, t], abs=1e-15)
        assert inner.lengths[f, t] == pytest.approx(m.lengths[fine, t], abs=1e-15)


@pytest.mark.parametrize("d,ell", [(2, 3), (3, 2)])
def test_face_partition_covers_element_boundaries(d, ell):
    """Union of face extents per element face equals it exactly (no slivers),
    except on the mirror planes, which carry no faces."""
    for m in _both(d, 0.5, ell):
        assert _covered(m) == pytest.approx(_faced(m), rel=1e-14)


def test_rejects_bad_parameters():
    with pytest.raises(MeshError):
        build_graded_mesh(4, 0.5, 1)
    with pytest.raises(MeshError):
        build_graded_mesh(2, 0.6, 1)
    with pytest.raises(MeshError):
        build_graded_mesh(2, 0.0, 1)
    for ell in (-1, float("inf"), float("nan"), "2", None, True):
        with pytest.raises(MeshError, match="ell"):
            build_graded_mesh(2, 0.5, ell)
    for sigma in ("0.5", None, True):
        with pytest.raises(MeshError, match="sigma"):
            build_graded_mesh(2, sigma, 1)


def test_integral_d_is_taken_as_int():
    """d is treated like ell: an integral value is taken as an int, and
    anything else is refused by name before the tiling is built."""
    want = build_graded_mesh(2, 0.5, 1)
    for d in (2.0, np.float64(2.0), np.int64(2)):
        mesh = build_graded_mesh(d, 0.5, 1)
        assert type(mesh.d) is int and mesh.d == 2
        assert np.array_equal(mesh.lo, want.lo) and np.array_equal(mesh.hi, want.hi)
    for bad in (2.5, "2", None):
        with pytest.raises(MeshError, match="d must be"):
            build_graded_mesh(bad, 0.5, 1)


def test_irregularity_violation_detected():
    # the unit square tiled by a left column cut at y = 1/4 and a right column
    # cut at y = 0: the interface piece on x = 0 between y = 0 and y = 1/4 is
    # an entire face of neither neighbour
    lo = np.array([[-0.5, -0.5], [-0.5, 0.25], [0.0, -0.5], [0.0, 0.0]])
    hi = np.array([[0.0, 0.25], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
    with pytest.raises(MeshError, match="entire face of neither"):
        build_faces(lo, hi)


def test_uncovered_element_face_detected():
    # the right half of the square is missing: the left element's face on
    # x = 0 has no neighbour and does not lie on the boundary
    with pytest.raises(MeshError, match="not fully matched"):
        build_faces(np.array([[-0.5, -0.5]]), np.array([[0.0, 0.5]]))


def test_uncovered_tiny_element_face_detected():
    # one innermost element is missing; those are 2^-47 ~ 7e-15 wide, so their
    # faces have measure ~1e-14 and an absolute coverage check would pass them
    for m in _both(2, 0.5, 46):
        with pytest.raises(MeshError, match="not fully matched"):
            build_faces(m.lo[:-1], m.hi[:-1])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("missing", [0, 1, -2])
def test_octant_missing_an_element_is_not_fully_matched(d, missing):
    """The mirror planes excuse only the faces on x_m = 0: a gap anywhere
    else in an octant tiling is still an unmatched face."""
    m = build_graded_mesh(d, 0.5, 2)
    keep = np.delete(np.arange(m.n_elements), missing)
    with pytest.raises(MeshError, match="not fully matched"):
        build_faces(m.lo[keep], m.hi[keep])


@pytest.mark.parametrize("sigma", [0.5, 0.4, 0.3])
@pytest.mark.parametrize("d,ell", [(d, ell) for d in (2, 3) for ell in range(7)])
def test_faces_match_pairwise_oracle(d, ell, sigma):
    """The numpy enumeration equals the pairwise loop field by field, bitwise
    and in the same order (the assembly order, and so every fingerprint,
    follows the face order), on the octant and on the whole cube."""
    for m in _both(d, sigma, ell):
        want = enumerate_faces_of(m.lo, m.hi)
        for field in fields(want):
            got, ref = getattr(m.faces, field.name), getattr(want, field.name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, field.name
            assert got.tobytes() == ref.tobytes(), field.name


@pytest.mark.parametrize("sigma", [0.4, 0.3])
def test_generic_sigma_mesh(sigma):
    """For sigma < 1/2 each shell is tiled by boxes of aspect (1-sigma)/sigma."""
    for m in _both(2, sigma, 3):
        assert m.n_elements * m.copies == 4 + 12 * 3
        assert abs(np.prod(m.lengths, axis=1).sum() * m.copies - 1.0) < 1e-13
        for e in range(m.n_elements):
            if m.corner[e]:
                assert np.max(m.lengths[e]) == pytest.approx(0.5 * sigma**3, rel=1e-14)
            else:
                aspect = np.max(m.lengths[e]) / np.min(m.lengths[e])
                assert aspect <= (1 - sigma) / sigma + 1e-12
                dist = np.linalg.norm(np.maximum(np.maximum(m.lo[e], -m.hi[e]), 0.0))
                assert dist >= sigma / (1 - sigma) * np.max(m.lengths[e]) - 1e-14
        assert _covered(m) == pytest.approx(_faced(m), rel=1e-12)


def test_zero_size_elements_are_refused():
    # 0.5 * (1e-200)^2 underflows to 0: the innermost boxes would have no extent
    with pytest.raises(MeshError, match=r"sigma=1e-200 and ell=2 give elements of zero size"):
        build_graded_mesh(2, 1e-200, 2)


@pytest.mark.parametrize("sigma,ell", [(0.15, 17), (0.5, 46)])
def test_deep_meshes_keep_their_planes_apart(sigma, ell):
    """Innermost elements 0.5 * sigma^ell < 1e-14 wide: still one corner
    element per octant, every element boundary off the mirror planes covered
    by its faces, the faces those of the pairwise loop."""
    for m in _both(2, sigma, ell):
        assert np.count_nonzero(m.corner) * m.copies == 4
        assert np.all(m.layer[m.corner] == ell)
        expect = _faced(m)
        assert np.all(np.abs(_covered(m) - expect) <= 1e-12 * expect)
        want = enumerate_faces_of(m.lo, m.hi)
        for field in fields(want):
            assert getattr(m.faces, field.name).tobytes() == getattr(want, field.name).tobytes()

