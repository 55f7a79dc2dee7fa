import numpy as np
import pytest

from hpdg._kernels import legendre_l2_norms_sq
from hpdg.hpspace import (DiscreteField, MeshNestingError, _axis_table, _local_mass_diag, _modes,
                          basis_matrices, build_space, constant_field, containing_map,
                          evaluate_grid, inject)
from hpdg.mesh import build_graded_mesh
from oracles import evaluate_in_element, full_cube_mesh, projected, same_bytes


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
    assert build_space(build_graded_mesh(2, 0.5, 0), 1, 0.0).N == (1 + 1) ** 2
    assert build_space(full_cube_mesh(2, 0.5, 0), 1, 0.0).N == 4 * (1 + 1) ** 2


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
    other = build_space(build_graded_mesh(3, 0.5, 0), 2, 0.0)
    modes = _modes(int(space.degrees[0]), space.mesh.d)
    assert modes is _modes(int(space.degrees[1]), space.mesh.d) \
        is _modes(int(other.degrees[0]), other.mesh.d)
    assert modes.shape == (27, 3) and modes[5].tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="read-only"):
        modes[0, 0] = 1


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 4])
def test_mass_diagonal_is_the_product_over_the_modes(d, p):
    """Bitwise the product over the modes of norms * L_m / 2, axis by axis,
    on a stack of boxes and on one box."""
    lengths = np.random.default_rng(10 * d + p).uniform(0.01, 2.0, (5, d))
    norms, want = legendre_l2_norms_sq(p), np.ones((5, (p + 1) ** d))
    for m, k in enumerate(_modes(p, d).T):
        want *= norms[k] * (lengths[:, m, None] / 2.0)
    assert same_bytes(_local_mass_diag(lengths, p), want)
    assert same_bytes(_local_mass_diag(lengths[2], p), want[2])


@pytest.mark.parametrize("p", [0, 1, 3, 7])
def test_axis_table_is_the_one_dimensional_basis(p):
    """Values and derivatives bitwise those of ``basis_matrices`` in 1D, and
    no derivatives unless asked."""
    lo, length = np.array([0.3]), np.array([0.125])
    x = lo + length * np.linspace(0.0, 1.0, 9)
    phi, (dphi,) = basis_matrices(lo, length, p, x[:, None])
    v, dv = _axis_table(lo, length, p, x, True)
    assert same_bytes(v, phi) and same_bytes(dv, dphi)
    assert _axis_table(lo, length, p, x)[1] is None


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
    for slope in (float("nan"), float("inf"), "0.1", None, True):
        with pytest.raises(ValueError, match="slope"):
            build_space(mesh, 2, slope)
    for p0 in (2.5, 1.5, float("nan"), float("inf"), "2", None, True):
        with pytest.raises(ValueError, match="p0"):
            build_space(mesh, p0, 1 / 8)


def test_integral_float_p0_gives_integer_degrees():
    from hpdg.assembly import PenaltyConfig, Potential
    from hpdg.scf import ScfConfig, solve_ground_state

    mesh = build_graded_mesh(2, 0.5, 1)
    space, want = build_space(mesh, 2.0, 1 / 8), build_space(mesh, 2, 1 / 8)
    assert space.degrees.dtype == want.degrees.dtype
    assert np.array_equal(space.degrees, want.degrees) and space.N == want.N
    assert type(space.p0) is int
    solve_ground_state(space, Potential(None), PenaltyConfig(), ScfConfig(delta=None))


def _random_grids(mesh, rng, n):
    """n uniform random coordinates per axis in every element, the per-axis
    coordinates (E, n) of the tensor grids of :func:`evaluate_grid`."""
    e, d = mesh.lo.shape
    return list(np.swapaxes(mesh.lo[:, :, None]
                            + rng.uniform(size=(e, d, n)) * mesh.lengths[:, :, None], 0, 1))


def _points(axes):
    """The points (E, nq, d) of per-element grids, first axis slowest."""
    return np.stack([np.stack(np.meshgrid(*x, indexing="ij"), axis=-1).reshape(-1, len(x))
                     for x in zip(*axes)])


def _values(field, axes):
    """``field`` on every element's grid, (E, nq)."""
    return evaluate_grid(field, np.arange(field.space.mesh.n_elements), axes)[0]


def test_evaluate_constant_field():
    mesh = build_graded_mesh(2, 0.5, 2)
    space = build_space(mesh, 2, 0.5)
    one = constant_field(space, 1.0)
    rng = np.random.default_rng(7)
    vals = _values(one, _random_grids(mesh, rng, 3))
    assert vals == pytest.approx(np.ones_like(vals), abs=1e-14)


def test_single_mode_vanishes_at_center():
    mesh = build_graded_mesh(2, 0.5, 0)
    space = build_space(mesh, 1, 0.0)
    c = np.zeros(space.N)
    # mode (1, 0) of element 0: P_1 in x, P_0 in y
    c[space.offsets[0] + 2] = 1.0  # C-order modes: (0,0),(0,1),(1,0),(1,1)
    f = DiscreteField(space, c)
    center = mesh.lo[0] + 0.5 * mesh.lengths[0]
    vals, _ = evaluate_grid(f, [0], list(center[:, None, None]))
    assert vals[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_field_minus_itself():
    mesh = build_graded_mesh(2, 0.5, 1)
    space = build_space(mesh, 2, 0.0)
    rng = np.random.default_rng(3)
    f = DiscreteField(space, rng.standard_normal(space.N))
    g = DiscreteField(space, f.coeffs - f.coeffs)
    assert np.all(_values(g, _random_grids(mesh, rng, 3)) == 0.0)


def test_projection_reproduces_polynomials():
    mesh = build_graded_mesh(2, 0.5, 3)
    space = build_space(mesh, 2, 0.0)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((3, 3))

    def q(pts):
        x, y = pts[..., 0], pts[..., 1]
        return sum(coef[i, j] * x**i * y**j for i in range(3) for j in range(3))

    f = projected(space, q)
    axes = _random_grids(mesh, rng, 3)
    assert _values(f, axes) == pytest.approx(q(_points(axes)), abs=1e-11)


def test_injection_is_exact_on_chain():
    coarse_space = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.25)
    fine_space = build_space(build_graded_mesh(2, 0.5, 3), 2, 0.25)
    rng = np.random.default_rng(5)
    f = DiscreteField(coarse_space, rng.standard_normal(coarse_space.N))
    g = inject(f, fine_space)
    # compare one-sided element evaluations: each fine element against the
    # coarse element that contains it, at the same points
    axes = _random_grids(fine_space.mesh, rng, 3)
    cmap = containing_map(coarse_space.mesh, fine_space.mesh)
    want = [evaluate_in_element(f, cid, x) for cid, x in zip(cmap, _points(axes))]
    assert _values(g, axes) == pytest.approx(np.array(want), abs=1e-12)


def test_inject_rejects_meshes_that_do_not_nest():
    coarse = projected(build_space(build_graded_mesh(2, 0.5, 2), 2, 0.0), lambda p: p[:, 0])
    fine_space = build_space(build_graded_mesh(2, 0.3, 3), 2, 0.0)
    with pytest.raises(MeshNestingError):
        inject(coarse, fine_space)


def test_coefficient_length_checked():
    space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
    with pytest.raises(ValueError):
        DiscreteField(space, np.zeros(space.N + 1))


@pytest.mark.parametrize("d", [2, 3])
def test_containing_map_on_deep_meshes(d):
    """Elements below 1e-13 wide land in the coarse box that contains them."""
    coarse, fine = build_graded_mesh(d, 0.15, 15), build_graded_mesh(d, 0.15, 17)
    cmap = containing_map(coarse, fine)
    assert np.all((coarse.lo[cmap] <= fine.lo) & (fine.hi <= coarse.hi[cmap]))
