import functools

import numpy as np
import pytest

from hpdg import quadrature
from hpdg.mesh import build_graded_mesh
from hpdg.quadrature import element_rule, face_rules, singular_rule, volume_rule
from oracles import checked_integral, full_cube_mesh, radial_power, singular_rule_per_box


def unit_element(d=2):
    """(lo, lengths) of the unit cube [0, 1]^d."""
    return np.zeros(d), np.ones(d)


def test_two_point_rule_on_unit_square():
    r = element_rule(*unit_element(), 2)
    assert len(r.weights) == 4
    assert r.weights == pytest.approx([0.25] * 4, abs=1e-15)


def test_integrates_constant_to_measure():
    m = build_graded_mesh(2, 0.5, 2)
    for lo, lengths in zip(m.lo, m.lengths):
        r = element_rule(lo, lengths, 3)
        assert r.weights.sum() == pytest.approx(np.prod(lengths), rel=1e-14)
    # face rules: boundary faces, full interior faces and hanging sub-faces,
    # n = 2..4 Gauss points per tangential axis, exact for degree 2n - 1
    for d in (2, 3):
        seen = set()
        faces = build_graded_mesh(d, 0.5, 2).faces
        n = 2 + np.arange(len(faces)) % 3
        for idx, axes, w in face_rules(faces, n):
            nf, axis = int(n[idx[0]]), int(faces.axis[idx[0]])
            assert np.all(n[idx] == nf) and np.all(faces.axis[idx] == axis)
            tang = np.arange(d) != axis
            lo, hi = faces.lo[idx][:, tang], (faces.lo + faces.lengths)[idx][:, tang]
            assert [x.shape for x in axes] == [(len(idx), 1 if m == axis else nf)
                                               for m in range(d)]
            assert w.shape == (len(idx), nf ** (d - 1))
            assert np.all(axes[axis] == faces.lo[idx][:, axis, None])
            inner = [x for m, x in enumerate(axes) if m != axis]
            for x, a, b in zip(inner, lo.T, hi.T):
                assert np.all((x > a[:, None]) & (x < b[:, None]))
            assert w.sum(axis=1) == pytest.approx(np.prod(hi - lo, axis=1), rel=1e-14)
            k = 2 * nf - 1
            exact = np.prod((hi ** (k + 1) - lo ** (k + 1)) / (k + 1), axis=1)
            # prod_m x_m^k on the grid, first axis slowest
            grid = functools.reduce(lambda a, x: (a[:, :, None] * x[:, None, :] ** k)
                                    .reshape(len(idx), -1), inner, np.ones((len(idx), 1)))
            got = np.einsum("eq,eq->e", w, grid)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-16)
            seen.update(zip(faces.interior[idx].tolist(), faces.is_subface[idx].tolist()))
        assert seen == {(False, False), (True, False), (True, True)}


def test_element_rule_points_are_the_expanded_grid():
    """element_rule's grid is _box_grid's, and its points are bitwise the
    per-axis coordinates expanded first axis slowest, box by box; for one box
    and for a stack of boxes."""
    m = build_graded_mesh(3, 0.3, 2)
    for n in (1, 2, 5):
        axes, w = quadrature._box_grid(m.lo, m.lengths, n)
        stacked = element_rule(m.lo, m.lengths, n)
        assert _same_bytes(stacked.grid_weights, w) and _same_bytes(stacked.weights, w.ravel())
        assert all(_same_bytes(a, x) for a, x in zip(stacked.axes, axes))
        for e, (lo, lengths) in enumerate(zip(m.lo, m.lengths)):
            grid = np.meshgrid(*[x[e] for x in axes], indexing="ij")
            want = np.stack([g.ravel() for g in grid], axis=1)
            one = element_rule(lo, lengths, n)
            one_axes, one_w = quadrature._box_grid(lo, lengths, n)
            assert _same_bytes(stacked.points.reshape(len(m.lo), -1, 3)[e], want)
            assert _same_bytes(one.points, want)
            assert all(_same_bytes(a, x[e]) for a, x in zip(one_axes, axes))
            assert _same_bytes(one.weights, one_w) and _same_bytes(one_w, w[e])


def test_integrates_x_squared():
    r = element_rule(*unit_element(), 2)
    assert r.weights @ r.points[:, 0] ** 2 == pytest.approx(1 / 3, abs=1e-14)


def test_composite_1d_harness():
    """The 1D analogue of the composite scheme on integrands x^-1/2.

    The innermost box is included with its own Gauss panel, so the leftover
    error decays like 2^(-depth/2); depth 40 clears 1e-6.
    """
    from hpdg.quadrature import gauss_rule

    def composite_1d(depth, n):
        g = gauss_rule(n)
        total = 0.0
        edges = [(0.5**k, 0.5 ** (k - 1)) for k in range(1, depth + 1)]
        edges.append((0.0, 0.5**depth))
        for a, b in edges:
            x = a + (g.points + 1) * (b - a) / 2
            total += (g.weights * (b - a) / 2) @ x**-0.5
        return total

    assert abs(composite_1d(40, 8) - 2.0) < 1e-6
    assert abs(composite_1d(60, 8) - 2.0) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_composite_matches_adaptive_oracle(d, alpha):
    r = singular_rule(*unit_element(d), 10, 60)
    got = r.weights @ radial_power(alpha)(r.points)
    want = checked_integral(radial_power(alpha), [0.0] * d, [1.0] * d)
    assert got == pytest.approx(want, rel=1e-8)


def test_singular_rule_on_negative_quadrant_element():
    r = singular_rule(np.array([-0.25, -0.25]), np.array([0.25, 0.25]), 8, 60)
    want = checked_integral(radial_power(1.0), [0.0, 0.0], [0.25, 0.25])
    assert r.weights @ radial_power(1.0)(r.points) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_singular_rule_on_every_corner_element(d):
    """The rule is reflected per axis toward the corner at the origin, so
    every one of the 2^d corner elements of the whole cube sees the same
    integral of r^-1."""
    m = full_cube_mesh(d, 0.5, 2)
    corners = [(m.lo[e], m.lengths[e]) for e in np.flatnonzero(m.corner)]
    assert len(corners) == 2**d
    f = radial_power(1.0)
    want = next(singular_rule(lo, lengths, 5, 60) for lo, lengths in corners if np.all(lo == 0))
    want = want.weights @ f(want.points)
    for lo, lengths in corners:
        r = singular_rule(lo, lengths, 5, 60)
        assert np.all(r.points > lo) and np.all(r.points < lo + lengths), lo
        assert r.weights.sum() == pytest.approx(np.prod(lengths), rel=1e-13)
        assert r.weights @ f(r.points) == pytest.approx(want, rel=1e-13), lo


def test_singular_rule_is_built_once_per_key(monkeypatch):
    calls = []
    box_grid = quadrature._box_grid
    monkeypatch.setattr(quadrature, "_box_grid",
                        lambda *args: calls.append(1) or box_grid(*args))
    quadrature._unit_singular_rule.cache_clear()
    e = unit_element(3)
    first = singular_rule(*e, 3, 7)
    built = len(calls)
    assert built == 1  # one stacked grid over the 7 * (2^3 - 1) + 1 boxes
    pts, w = first.points.copy(), first.weights.copy()
    first.points[:] = 0.0
    first.weights[:] = 0.0
    again = singular_rule(*e, 3, 7)
    assert len(calls) == built
    assert np.array_equal(again.points, pts) and np.array_equal(again.weights, w)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("depth", [1, 7, 60])
def test_unit_singular_rule_equals_per_box_loop(d, depth):
    """The stacked build is bitwise the loop of one tensor Gauss rule per box."""
    for n in range(1, 8):
        got = quadrature._unit_singular_rule(d, n, depth)
        pts, w = singular_rule_per_box(d, n, depth)
        assert _same_bytes(got.points, pts) and _same_bytes(got.weights, w), n


@pytest.mark.parametrize("d", [2, 3])
def test_singular_rule_is_the_reflected_unit_rule(d):
    """On every corner element of the whole cube, singular_rule's points are
    bitwise the per-box loop's unit-cube points reflected onto the element
    (lo + f * lengths on an axis where lo is 0, hi - f * lengths where hi is),
    its weights the unit weights times the volume, and its grid holds one
    (n,) row of coordinates per axis and box."""
    m = full_cube_mesh(d, 0.5, 2)
    f, w = singular_rule_per_box(d, 4, 7)
    for lo, lengths in zip(m.lo[m.corner], m.lengths[m.corner]):
        r = singular_rule(lo, lengths, 4, 7)
        want = np.where(lo == 0, lo + f * lengths, (lo + lengths) - f * lengths)
        assert _same_bytes(r.points, want), lo
        assert _same_bytes(r.weights, w * float(np.prod(lengths))), lo
        assert [x.shape for x in r.axes] == [(7 * (2**d - 1) + 1, 4)] * d
        assert r.grid_weights.shape == (7 * (2**d - 1) + 1, 4**d)


def test_singular_rule_requires_corner_at_origin():
    with pytest.raises(ValueError):
        singular_rule(np.array([0.5, 0.5]), np.array([0.25, 0.25]), 4, 10)


def test_all_weights_positive_and_sum_to_measure():
    r = singular_rule(*unit_element(3), 5, 30)
    assert np.all(r.weights > 0)
    assert r.weights.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.min(np.linalg.norm(r.points, axis=1)) > 0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_cauchy_in_depth(alpha):
    """|I(depth) - I(depth+4)| <= 1e-9 |I(depth+4)| once the leftover box is
    small enough; for the worst case d - alpha = 1/2 this needs depth ~ 60."""
    f = radial_power(alpha)
    vals = {}
    for depth in (60, 64):
        r = singular_rule(*unit_element(2), 8, depth)
        vals[depth] = r.weights @ f(r.points)
    assert abs(vals[60] - vals[64]) <= 1e-9 * abs(vals[64])


def test_smooth_fallback_accuracy():
    """Plain n = p + 4 rules handle the potential away from the singularity.

    On the non-touching elements nearest the singular point the Gauss
    convergence factor gives ~3e-10 relative at p = 2 and clears 1e-10 from
    p = 3 on; both levels are asserted at their measured calibration.
    """
    m = build_graded_mesh(2, 0.5, 3)
    f = radial_power(1.0)
    for e in np.flatnonzero(~m.corner):
        want = checked_integral(f, m.lo[e], m.hi[e])
        for p, rel in ((2, 5e-10), (3, 1e-10)):
            r = element_rule(m.lo[e], m.lengths[e], p + 4)
            got = r.weights @ f(r.points)
            assert got == pytest.approx(want, rel=rel), (e, p)


def test_volume_rule_dispatch():
    """volume_rule is the corner rule: plain_order(p) points per axis, depth 60."""
    for d in (2, 3):
        m = build_graded_mesh(d, 0.5, 1)
        for lo, lengths in zip(m.lo[m.corner], m.lengths[m.corner]):
            r, want = volume_rule(lo, lengths, 2), singular_rule(lo, lengths, 2 + 4, 60)
            assert _same_bytes(r.points, want.points) and _same_bytes(r.weights, want.weights)
