import numpy as np
import pytest
import scipy.linalg as dla

from hpdg.assembly import (PenaltyConfig, Potential,
                           assemble_mass, assemble_nonlinear_mass,
                           assemble_sip)
from hpdg.hpspace import build_space, constant_field, project
from hpdg.mesh import build_graded_mesh


def bubble(pts):
    return (0.25 - pts[:, 0] ** 2) * (0.25 - pts[:, 1] ** 2)


def make(ell, p0=2, slope=0.0, alpha=None, sign=-1, alpha0=10.0, d=2):
    space = build_space(build_graded_mesh(d, 0.5, ell), p0, slope)
    a = assemble_sip(space, Potential(alpha, sign), PenaltyConfig(alpha0))
    return space, a


@pytest.mark.parametrize("ell", [0, 2, 4])
def test_patch_energy_of_bubble(ell):
    """v = (1/4-x^2)(1/4-y^2) gives v^T A v = integral |grad v|^2 = 1/45."""
    space, a = make(ell)
    v = project(space, bubble)
    q = float(v.coeffs @ (a @ v.coeffs))
    assert q == pytest.approx(1.0 / 45.0, abs=1e-10)


def test_symmetry():
    space, a = make(2, alpha=1.0)
    asym = abs(a - a.T).max()
    assert asym <= 1e-12 * abs(a).max()


def test_zero_vector_quadratic_form():
    space, a = make(1)
    z = np.zeros(space.N)
    assert z @ (a @ z) == 0.0


def test_rejects_strong_singularity():
    with pytest.raises(ValueError):
        Potential(2.0, -1)


def test_sparsity_is_face_local():
    space, a = make(2)
    mesh = space.mesh
    neighbors = {e.id: {e.id} for e in mesh.elements}
    for f in mesh.interior_faces():
        neighbors[f.owners[0]].add(f.owners[1])
        neighbors[f.owners[1]].add(f.owners[0])
    coo = a.tocoo()
    dof_el = np.empty(space.N, dtype=int)
    for e in mesh.elements:
        dof_el[space.local_slice(e.id)] = e.id
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if v != 0.0:
            assert dof_el[j] in neighbors[dof_el[i]]


def test_mass_of_constant_is_domain_measure():
    space = build_space(build_graded_mesh(2, 0.5, 3), 2, 0.5)
    m = assemble_mass(space)
    e = constant_field(space, 1.0)
    assert float(e.coeffs @ (m @ e.coeffs)) == pytest.approx(1.0, abs=1e-13)


def test_mass_positive_definite_and_diagonal():
    space = build_space(build_graded_mesh(2, 0.5, 2), 3, 0.25)
    m = assemble_mass(space)
    assert m.nnz == space.N
    assert np.min(m.diagonal()) > 0


def test_mass_has_no_cross_element_coupling():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    m = assemble_mass(space).tocoo()
    dof_el = np.empty(space.N, dtype=int)
    for e in space.mesh.elements:
        dof_el[space.local_slice(e.id)] = e.id
    assert np.all(dof_el[m.row] == dof_el[m.col])


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_nonlinear_mass_of_unit_state(delta):
    space = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.0)
    m = assemble_mass(space)
    n = assemble_nonlinear_mass(space, constant_field(space, 1.0), delta)
    assert abs(n - m).max() <= 1e-12 * abs(m).max()


def test_nonlinear_mass_scales_like_coefficient():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    m = assemble_mass(space)
    n = assemble_nonlinear_mass(space, constant_field(space, 2.0), 3)
    assert abs(n - 4.0 * m).max() <= 1e-12 * abs(m).max()


def test_nonlinear_mass_of_zero_state():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    n = assemble_nonlinear_mass(space, constant_field(space, 0.0), 3)
    assert abs(n).max() == 0.0


def test_nonlinear_mass_rejects_bad_delta():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    with pytest.raises(ValueError):
        assemble_nonlinear_mass(space, constant_field(space, 1.0), 5)


@pytest.mark.parametrize("ell,p0,slope", [(0, 2, 0.0), (2, 3, 0.5), (4, 2, 0.25), (6, 3, 0.5)])
def test_sip_coercivity_with_zero_potential(ell, p0, slope):
    space, a = make(ell, p0=p0, slope=slope)
    m = assemble_mass(space)
    vals = dla.eigh(a.toarray(), m.toarray(), eigvals_only=True, subset_by_index=[0, 0])
    assert vals[0] > 0


def test_consistency_terms_vanish_for_continuous_fields():
    """Face terms contribute nothing to v^T A v when v is continuous, zero on
    the boundary: compare against the volume-only gradient energy."""
    space, a = make(3)
    v = project(space, bubble).coeffs
    from hpdg.hpspace import basis_matrices
    from hpdg.quadrature import element_rule

    vol = 0.0
    for e in space.mesh.elements:
        p = int(space.degrees[e.id])
        rule = element_rule(e, p + 4)
        _, grads = basis_matrices(e, p, rule.points)
        loc = v[space.local_slice(e.id)]
        vol += sum(float(rule.weights @ (g @ loc) ** 2) for g in grads)
    assert float(v @ (a @ v)) - vol == pytest.approx(0.0, abs=1e-11)


def test_refining_keeps_energy_of_continuous_field():
    """Hanging faces appear between ell=1 and ell=2; the energy of an exactly
    representable continuous field must not change."""
    qs = []
    for ell in (1, 2):
        space, a = make(ell)
        v = project(space, bubble)
        qs.append(float(v.coeffs @ (a @ v.coeffs)))
    assert qs[0] == pytest.approx(qs[1], abs=1e-10)


def test_assembly_deterministic_under_face_order_and_rerun():
    """Contributions are accumulated in a fixed global ordering, so the result
    is bitwise identical across reruns and across storage order of the face
    list (elements are visited by id, faces sorted by id)."""
    space, a = make(2, alpha=1.0)
    mesh = space.mesh
    shuffled = list(mesh.faces)
    rng = np.random.default_rng(0)
    rng.shuffle(shuffled)
    mesh.faces = shuffled
    try:
        b = assemble_sip(space, Potential(1.0, -1), PenaltyConfig(10.0))
    finally:
        mesh.faces = sorted(shuffled, key=lambda f: f.id)
    assert a.data.tobytes() == b.data.tobytes()
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)
    c = assemble_sip(space, Potential(1.0, -1), PenaltyConfig(10.0))
    assert a.data.tobytes() == c.data.tobytes()


def test_laplace_dimer_smallest_eigenvalue():
    from hpdg.eigsolve import smallest_eigenpair

    space, a = make(3, p0=3)
    m = assemble_mass(space)
    res = smallest_eigenpair(a, m)
    assert res.lam == pytest.approx(2 * np.pi**2, rel=1e-6)


@pytest.mark.parametrize("ell", [0, 1])
def test_patch_energy_of_bubble_3d(ell):
    """The 3D bubble (1/4-x^2)(1/4-y^2)(1/4-z^2) has gradient energy 1/900."""
    space, a = make(ell, p0=2, d=3)
    v = project(space, lambda p: (0.25 - p[:, 0] ** 2) * (0.25 - p[:, 1] ** 2)
                * (0.25 - p[:, 2] ** 2))
    q = float(v.coeffs @ (a @ v.coeffs))
    assert q == pytest.approx(1.0 / 900.0, abs=1e-11)


def test_generic_sigma_laplace_eigenvalue():
    from hpdg.eigsolve import smallest_eigenpair

    space = build_space(build_graded_mesh(2, 0.4, 3), 2, 0.0)
    a = assemble_sip(space, Potential(None), PenaltyConfig(10.0))
    m = assemble_mass(space)
    res = smallest_eigenpair(a, m)
    assert res.lam == pytest.approx(2 * np.pi**2, rel=2e-3)
