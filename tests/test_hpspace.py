import numpy as np
import pytest

from hpdg.hpspace import (DiscreteField, MeshNestingError, build_space, constant_field,
                          evaluate, evaluate_in_element, inject, load_field, locate_point,
                          project, save_field)
from hpdg.mesh import build_graded_mesh
from hpdg.quadrature import element_rule


def test_degree_formula_with_slope():
    # p_K = p0 + round(s * (ell - j)), round half up
    mesh = build_graded_mesh(2, 0.5, 4)
    space = build_space(mesh, 2, 0.5)
    for e, layer in enumerate(mesh.layer):
        assert space.degrees[e] == 2 + int(np.floor(0.5 * (4 - layer) + 0.5))
    # an (ell=4, s=1/2) layer-0 element would get p0 + 2; layer 1 does here
    assert space.degrees[np.flatnonzero(mesh.layer == 1)[0]] == 2 + 2


def test_zero_slope_is_uniform():
    mesh = build_graded_mesh(2, 0.5, 3)
    space = build_space(mesh, 3, 0.0)
    assert np.all(space.degrees == 3)


def test_dof_count_ell0():
    mesh = build_graded_mesh(2, 0.5, 0)
    space = build_space(mesh, 1, 0.0)
    assert space.N == 4 * (1 + 1) ** 2


def test_degree_monotonicity():
    mesh = build_graded_mesh(2, 0.5, 6)
    for slope in (0.0, 0.125, 0.25, 0.5):
        space = build_space(mesh, 2, slope)
        degs = [space.degrees[mesh.layer == j].max() for j in np.unique(mesh.layer)]
        assert all(a >= b for a, b in zip(degs, degs[1:]))


def test_mode_tables_are_shared_and_read_only():
    """Every space of one degree and dimension shares one mode table; a
    caller that tries to write to it fails instead of corrupting later spaces."""
    space = build_space(build_graded_mesh(3, 0.5, 1), 2, 0.0)
    modes = space.modes(0)
    assert modes is space.modes(1) is build_space(build_graded_mesh(3, 0.5, 0), 2, 0.0).modes(0)
    assert modes.shape == (27, 3) and modes[5].tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="read-only"):
        modes[0, 0] = 1


def test_face_degree_is_the_larger_owner_degree():
    space = build_space(build_graded_mesh(2, 0.5, 3), 1, 1.0)
    owners = space.mesh.faces.owners
    for f, p_e in enumerate(space.face_degree):
        assert p_e == max(space.degrees[o] for o in owners[f] if o >= 0)
    assert len(set(space.face_degree.tolist())) > 1


def test_build_space_validation():
    mesh = build_graded_mesh(2, 0.5, 1)
    with pytest.raises(ValueError):
        build_space(mesh, 0, 0.0)
    with pytest.raises(ValueError):
        build_space(mesh, 2, -0.5)
    for slope in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="slope"):
            build_space(mesh, 2, slope)


def test_locate_quadrant():
    mesh = build_graded_mesh(2, 0.5, 0)
    eid = locate_point(mesh, [0.3, 0.3])
    assert np.all(mesh.lo[eid] >= 0) and np.all(mesh.hi[eid] > 0)


def test_locate_singular_point_tie_break():
    mesh = build_graded_mesh(2, 0.5, 2)
    eid = locate_point(mesh, [0.0, 0.0])
    containing = np.flatnonzero(np.all(mesh.lo <= 0, axis=1) & np.all(mesh.hi >= 0, axis=1))
    assert eid == min(containing)


def test_locate_boundary_corner():
    mesh = build_graded_mesh(2, 0.5, 1)
    eid = locate_point(mesh, [0.5, 0.5])
    assert np.all(np.abs(mesh.hi[eid] - 0.5) < 1e-15)


def test_locate_outside_raises():
    mesh = build_graded_mesh(2, 0.5, 1)
    with pytest.raises(ValueError):
        locate_point(mesh, [0.7, 0.0])


def test_evaluate_constant_field():
    mesh = build_graded_mesh(2, 0.5, 2)
    space = build_space(mesh, 2, 0.5)
    one = constant_field(space, 1.0)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.5, 0.5, size=(20, 2)):
        assert evaluate(one, x) == pytest.approx(1.0, abs=1e-14)


def test_single_mode_vanishes_at_center():
    mesh = build_graded_mesh(2, 0.5, 0)
    space = build_space(mesh, 1, 0.0)
    c = np.zeros(space.N)
    # mode (1, 0) of element 0: P_1 in x, P_0 in y
    c[space.offsets[0] + 2] = 1.0  # C-order modes: (0,0),(0,1),(1,0),(1,1)
    f = DiscreteField(space, c)
    assert evaluate(f, mesh.lo[0] + 0.5 * mesh.lengths[0]) == pytest.approx(0.0, abs=1e-15)


def test_field_minus_itself():
    mesh = build_graded_mesh(2, 0.5, 1)
    space = build_space(mesh, 2, 0.0)
    rng = np.random.default_rng(3)
    f = DiscreteField(space, rng.standard_normal(space.N))
    g = DiscreteField(space, f.coeffs - f.coeffs)
    for x in rng.uniform(-0.5, 0.5, size=(10, 2)):
        assert evaluate(g, x) == 0.0


def test_round_trip_locate_gauss_points():
    mesh = build_graded_mesh(2, 0.5, 2)
    for lo, lengths in zip(mesh.lo, mesh.lengths):
        rule = element_rule(lo, lengths, 3)
        for x in rule.points:
            located = locate_point(mesh, x)
            assert np.all(mesh.lo[located] <= x + 1e-14) and np.all(x <= mesh.hi[located] + 1e-14)


def test_projection_reproduces_polynomials():
    mesh = build_graded_mesh(2, 0.5, 3)
    space = build_space(mesh, 2, 0.0)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((3, 3))

    def q(pts):
        x, y = pts[:, 0], pts[:, 1]
        return sum(coef[i, j] * x**i * y**j for i in range(3) for j in range(3))

    f = project(space, q)
    pts = rng.uniform(-0.5, 0.5, size=(100, 2))
    for x in pts:
        assert evaluate(f, x) == pytest.approx(float(q(x[None, :])[0]), abs=1e-11)


def test_injection_is_exact_on_chain():
    coarse_space = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.25)
    fine_space = build_space(build_graded_mesh(2, 0.5, 3), 2, 0.25)
    rng = np.random.default_rng(5)
    f = DiscreteField(coarse_space, rng.standard_normal(coarse_space.N))
    g = inject(f, fine_space)
    for x in rng.uniform(-0.49, 0.49, size=(50, 2)):
        # compare one-sided element evaluations: pick the fine element first
        eid = locate_point(fine_space.mesh, x)
        fine = fine_space.mesh
        cid = locate_point(coarse_space.mesh, fine.lo[eid] + 0.5 * fine.lengths[eid])
        got = evaluate_in_element(g, eid, x[None, :])[0]
        want = evaluate_in_element(f, cid, x[None, :])[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_inject_rejects_meshes_that_do_not_nest():
    coarse = project(build_space(build_graded_mesh(2, 0.5, 2), 2, 0.0), lambda p: p[:, 0])
    fine_space = build_space(build_graded_mesh(2, 0.3, 3), 2, 0.0)
    with pytest.raises(MeshNestingError):
        inject(coarse, fine_space)


def test_field_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "field.txt"
    spaces = [build_space(build_graded_mesh(2, 0.5, 2), 2, 0.125),
              build_space(build_graded_mesh(2, 0.5, 3), 2, 0.25)]
    for space in spaces:
        f = DiscreteField(space, rng.standard_normal(space.N))
        save_field(f, path)
        g = load_field(path)
        assert g.space.N == space.N
        assert g.space.p0 == space.p0 and g.space.mesh.ell == space.mesh.ell
        assert np.array_equal(g.space.degrees, space.degrees)
        assert np.array_equal(g.coeffs, f.coeffs)
    # a bad format version or space parameter is rejected by the file's path
    # and the header field's name
    head, *body = path.read_text().splitlines(keepends=True)
    tag, version, d, sigma, ell, p0, slope = head.split()
    for bad, name in ((f"99 {d} {sigma} {ell} {p0} {slope}", "version"),
                      (f"{version} x {sigma} {ell} {p0} {slope}", "'d' is 'x'"),
                      (f"{version} {d} 0.7 {ell} {p0} {slope}", "sigma must"),
                      (f"{version} {d} {sigma} {ell} 0 {slope}", "p0 must"),
                      (f"{version} {d} {sigma} {ell} {p0} nan", "slope must")):
        path.write_text(f"{tag} {bad}\n" + "".join(body))
        with pytest.raises(ValueError, match=name) as err:
            load_field(path)
        assert str(path) in str(err.value)


def test_version_2_field_file_is_rejected(tmp_path):
    """A version-2 file (its header ends in a rounding mode) is refused by
    the version check, which names the file."""
    space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
    path = tmp_path / "old.txt"
    path.write_text("hpdg-field 2 2 0.5 1 1 0.0 half_up\n" + "0.0\n" * space.N)
    with pytest.raises(ValueError, match="'version' is '2'") as err:
        load_field(path)
    assert str(path) in str(err.value)


def test_coefficient_length_checked():
    space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
    with pytest.raises(ValueError):
        DiscreteField(space, np.zeros(space.N + 1))


@pytest.mark.parametrize("edit,match", [
    (lambda lines: lines[:4] + ["abc\n"] + lines[5:], r"line 5 .*'abc'"),
    (lambda lines: lines[:-1], r"63 coefficient lines, the space has N=64"),
    (lambda lines: lines[:4] + ["nan\n"] + lines[5:], r"line 5 .*'nan'"),
], ids=["unparsable", "short", "non-finite"])
def test_load_field_names_bad_input(tmp_path, edit, match):
    """An unparsable, missing or non-finite coefficient is reported with the
    path and the line number or the counts."""
    space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
    assert space.N == 64
    path = tmp_path / "field.txt"
    save_field(DiscreteField(space, np.arange(space.N, dtype=float)), path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    with pytest.raises(ValueError, match=match) as err:
        load_field(path)
    assert str(path) in str(err.value)
