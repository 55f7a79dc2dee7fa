import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpdg import hpspace, quadrature
from hpdg._kernels import weighted_gram
from hpdg.assembly import (PenaltyConfig, Potential, SipAssembler, _corner_gram, _sym,
                           assemble_mass)
from hpdg.cli import StudyConfig, run_study
from hpdg.hpspace import (DiscreteField, _modes, basis_matrices, basis_matrix, build_space,
                          constant_field)
from hpdg.mesh import build_graded_mesh
from hpdg.quadrature import element_rule, plain_order, volume_rule
from oracles import (dense_lambda, element_dofs, full_cube_mesh, plane_rule, projected,
                     sip_blocks)


def bubble(pts):
    return (0.25 - pts[:, 0] ** 2) * (0.25 - pts[:, 1] ** 2)


def make(ell, p0=2, slope=0.0, alpha=None, sign=-1, alpha0=10.0, d=2):
    space = build_space(build_graded_mesh(d, 0.5, ell), p0, slope)
    a = SipAssembler(space, Potential(alpha, sign), PenaltyConfig(alpha0)).sip()
    return space, a


@pytest.mark.parametrize("ell", [0, 2, 4])
def test_patch_energy_of_bubble(ell):
    """v = (1/4-x^2)(1/4-y^2) gives v^T A v = integral |grad v|^2 = 1/45."""
    space, a = make(ell)
    v = projected(space, bubble)
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


@pytest.mark.parametrize("alpha,sign,name", [(np.nan, -1.0, "alpha"), (-np.inf, -1.0, "alpha"),
                                             (1.0, np.nan, "sign"), (None, np.inf, "sign")])
def test_rejects_non_finite_potential(alpha, sign, name):
    with pytest.raises(ValueError, match=name):
        Potential(alpha, sign)
    assert np.array_equal(Potential(None)(np.ones((3, 2))), np.zeros(3))


@pytest.mark.parametrize("kwargs,name", [({"alpha": True}, "alpha"), ({"alpha": "1"}, "alpha"),
                                         ({"alpha": 1.0, "sign": True}, "sign"),
                                         ({"sign": "-1"}, "sign"), ({"sign": None}, "sign")])
def test_potential_refuses_a_non_number_by_name(kwargs, name):
    with pytest.raises(ValueError, match=name):
        Potential(**kwargs)


@pytest.mark.parametrize("bad", [True, "10", None, 0.0, -1.0, np.nan, np.inf])
def test_penalty_refuses_a_bad_constant_by_name(bad):
    with pytest.raises(ValueError, match="alpha0"):
        PenaltyConfig(bad)
    assert PenaltyConfig(np.float64(5.0)).alpha0 == 5.0


def test_sparsity_is_face_local():
    space, a = make(2)
    mesh = space.mesh
    neighbors = {e: {e} for e in range(mesh.n_elements)}
    for a_, b_ in mesh.faces.owners[mesh.faces.interior]:
        neighbors[a_].add(b_)
        neighbors[b_].add(a_)
    coo = a.tocoo()
    dof_el = np.empty(space.N, dtype=int)
    for e in range(mesh.n_elements):
        dof_el[element_dofs(space, e)] = e
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
    dof_el = np.repeat(np.arange(space.mesh.n_elements), space.ndofs_el)
    assert np.all(dof_el[m.row] == dof_el[m.col])


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_nonlinear_mass_of_unit_state(delta):
    space = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.0)
    m = assemble_mass(space)
    n = SipAssembler(space, Potential(None), PenaltyConfig()).nonlinear_mass(
        constant_field(space, 1.0), delta)
    assert abs(n - m).max() <= 1e-12 * abs(m).max()


def test_nonlinear_mass_scales_like_coefficient():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    m = assemble_mass(space)
    n = SipAssembler(space, Potential(None), PenaltyConfig()).nonlinear_mass(
        constant_field(space, 2.0), 3)
    assert abs(n - 4.0 * m).max() <= 1e-12 * abs(m).max()


def test_nonlinear_mass_of_zero_state():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    n = SipAssembler(space, Potential(None), PenaltyConfig()).nonlinear_mass(
        constant_field(space, 0.0), 3)
    assert abs(n).max() == 0.0


def test_nonlinear_mass_rejects_bad_delta():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    with pytest.raises(ValueError):
        SipAssembler(space, Potential(None), PenaltyConfig()).nonlinear_mass(
            constant_field(space, 1.0), 5)


def test_nonlinear_mass_rejects_non_finite_state():
    space = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    u = constant_field(space, 1.0)
    u.coeffs[space.offsets[1]] = np.nan
    with pytest.raises(ValueError, match="nonlinear mass matrix"):
        SipAssembler(space, Potential(None), PenaltyConfig()).nonlinear_mass(u, 3)


@pytest.mark.parametrize("ell,p0,slope", [(0, 2, 0.0), (2, 3, 0.5), (4, 2, 0.25), (6, 3, 0.5)])
def test_sip_coercivity_with_zero_potential(ell, p0, slope):
    space, a = make(ell, p0=p0, slope=slope)
    m = assemble_mass(space)
    assert dense_lambda(a, m) > 0


@pytest.mark.parametrize("d,ell,p0,slope", [(2, 3, 2, 0.5), (3, 2, 1, 0.5)])
def test_zero_potential_integrates_no_potential_grams(d, ell, p0, slope):
    """Potential(None) skips the plain-rule and corner potential Grams, and
    A_sip is bitwise the one that integrates the zero potential 0 * r^-1
    through them."""
    space = build_space(build_graded_mesh(d, 0.5, ell), p0, slope)
    misses = _corner_gram.cache_info().misses
    a = SipAssembler(space, Potential(None), PenaltyConfig()).sip()
    assert _corner_gram.cache_info().misses == misses
    b = SipAssembler(space, Potential(1.0, sign=0.0), PenaltyConfig()).sip()
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_consistency_terms_vanish_for_continuous_fields():
    """Face terms contribute nothing to v^T A v when v is continuous, zero on
    the boundary: compare against the volume-only gradient energy, counted
    once per mirror image of the octant."""
    space, a = make(3)
    v = projected(space, bubble).coeffs
    from hpdg.hpspace import basis_matrices
    from hpdg.quadrature import element_rule

    vol = 0.0
    for e, (lo, lengths) in enumerate(zip(space.mesh.lo, space.mesh.lengths)):
        p = int(space.degrees[e])
        rule = element_rule(lo, lengths, p + 4)
        _, grads = basis_matrices(lo, lengths, p, rule.points)
        loc = v[element_dofs(space, e)]
        vol += sum(float(rule.weights @ (g @ loc) ** 2) for g in grads)
    assert float(v @ (a @ v)) - space.mesh.copies * vol == pytest.approx(0.0, abs=1e-11)


def test_refining_keeps_energy_of_continuous_field():
    """Hanging faces appear between ell=1 and ell=2; the energy of an exactly
    representable continuous field must not change."""
    qs = []
    for ell in (1, 2):
        space, a = make(ell)
        v = projected(space, bubble)
        qs.append(float(v.coeffs @ (a @ v.coeffs)))
    assert qs[0] == pytest.approx(qs[1], abs=1e-10)


def test_assembly_deterministic_under_face_order_and_rerun():
    """Contributions are accumulated in a fixed order (element blocks, then
    face groups, faces by id inside each), so the result is bitwise identical
    across reruns, and so is the hand-built CSR pattern."""
    for d in (2, 3):
        space, a = make(2, alpha=1.0, d=d)
        b = SipAssembler(space, Potential(1.0, -1), PenaltyConfig(10.0)).sip()
        assert a.data.tobytes() == b.data.tobytes()
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)
        assert b.has_canonical_format


@pytest.mark.parametrize("d,sigma,ell", [(2, 0.5, 3), (2, 0.3, 3), (3, 0.5, 2), (3, 0.3, 2)])
def test_sip_sums_blocks_in_element_then_face_order(d, sigma, ell):
    """Every entry of A_sip is 0 plus its element block, then its face blocks
    in the order ``sip()`` adds them (face groups in the order of
    ``_face_blocks()``, faces by id inside each), times the mesh's copies:
    bitwise the dense sum of ``sip_blocks`` in that order, on the octant and
    on the whole cube.  sigma < 1/2 gives non-cubic elements and their
    sub-faces, slope > 0 mixed degrees, alpha on the whole cube a corner block
    at each of its 2^d corners."""
    for mesh in (build_graded_mesh(d, sigma, ell), full_cube_mesh(d, sigma, ell)):
        space = build_space(mesh, 1, 0.5)
        asm = SipAssembler(space, Potential(1.0, -1), PenaltyConfig())
        elements, faces = sip_blocks(asm)
        owners = [[e] for e in range(mesh.n_elements)] + [mesh.faces.owners[f] for f, _ in faces]
        dense = np.zeros((space.N, space.N))
        for own, blk in zip(owners, elements + [b for _, b in faces]):
            dofs = np.concatenate([space.offsets[o] + np.arange(space.ndofs_el[o])
                                   for o in own if o >= 0])
            dense[np.ix_(dofs, dofs)] += blk
        a = asm.sip()
        assert len(set(space.degrees.tolist())) > 1
        assert np.array_equal(a.toarray(), mesh.copies * dense)
        _assert_canonical_csr(a)


def _assert_canonical_csr(a):
    assert a.format == "csr" and a.has_canonical_format
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    keys = rows.astype(np.int64) * a.shape[1] + a.indices
    assert np.all(np.diff(keys) > 0)  # sorted within rows, no duplicates


@pytest.mark.parametrize("d,ell,p0,slope", [(2, 3, 2, 0.25), (3, 2, 1, 0.5), (2, 5, 1, 0.5)])
def test_sip_and_nonlinear_mass_are_canonical_csr(d, ell, p0, slope):
    space = build_space(build_graded_mesh(d, 0.5, ell), p0, slope)
    asm = SipAssembler(space, Potential(1.0, -1), PenaltyConfig())
    a = asm.sip()
    n = asm.nonlinear_mass(projected(space, lambda p: np.cos(np.pi * p[:, 0])), 3)
    _assert_canonical_csr(a)
    _assert_canonical_csr(n)
    dof_el = np.repeat(np.arange(space.mesh.n_elements), space.ndofs_el)
    rows = np.repeat(np.arange(space.N), np.diff(n.indptr))
    assert np.array_equal(dof_el[rows], dof_el[n.indices])  # block diagonal only
    assert n.nnz == int(np.sum(space.ndofs_el**2))


# -- assembled and batched blocks against fresh integration --------------------

def _fresh_element_block(space, pot, e):
    p, lo, lengths = int(space.degrees[e]), space.mesh.lo[e], space.mesh.lengths[e]
    rule = element_rule(lo, lengths, p + 4)
    _, grads = basis_matrices(lo, lengths, p, rule.points)
    block = sum(weighted_gram(g, rule.weights) for g in grads)
    if space.mesh.corner[e]:
        rule = volume_rule(lo, lengths, p)
    return block + weighted_gram(basis_matrix(lo, lengths, p, rule.points),
                                 rule.weights * pot(rule.points))


def _fresh_face_block(space, f, alpha0):
    """Face block over the dofs of its owners, concatenated in owner order."""
    mesh, faces = space.mesh, space.mesh.faces
    p_e, axis = int(space.face_degree[f]), faces.axis[f]
    pts, w = plane_rule(faces.lo[f], faces.lengths[f], axis, p_e + 4)
    tabs = [basis_matrices(mesh.lo[o], mesh.lengths[o], int(space.degrees[o]), pts)
            for o in faces.owners[f] if o >= 0]
    if not faces.interior[f]:
        jmp, dn = tabs[0][0], faces.sign[f] * tabs[0][1][axis]
    else:
        jmp = np.hstack([tabs[0][0], -tabs[1][0]])
        dn = 0.5 * np.hstack([tabs[0][1][axis], tabs[1][1][axis]])
    c = (dn * w[:, None]).T @ jmp
    return -c - c.T + weighted_gram(jmp, alpha0 * p_e**2 / faces.h_e[f] * w)


def _close(got, want, rtol=1e-12):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rtol * scale


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([2, 3]), sigma=st.sampled_from([0.5, 0.3, 0.15]),
       ell=st.integers(1, 4), p0=st.integers(1, 3), slope=st.sampled_from([0.0, 0.25, 0.5]),
       alpha=st.sampled_from([None, 0.5, 1.0, 1.5]), seed=st.integers(0, 2**16))
@example(d=2, sigma=0.15, ell=10, p0=2, slope=0.5, alpha=1.5, seed=0)
@example(d=3, sigma=0.5, ell=2, p0=2, slope=0.25, alpha=None, seed=1)
def test_cached_blocks_equal_fresh_integration(d, sigma, ell, p0, slope, alpha, seed):
    """Each sampled element's diagonal block of A_sip equals its freshly
    integrated volume block plus the fresh blocks of its faces; each sampled
    interior face's off-diagonal block equals its fresh face block; the
    nonlinear mass blocks equal fresh |u|^2-weighted Grams; every block is
    counted once per copy of the mesh.  On the octant and on the whole cube,
    which has a corner element at each of its 2^d corners."""
    if d == 3:
        p0, ell = min(p0, 2), min(ell, 3)
    for mesh in (build_graded_mesh(d, sigma, ell), full_cube_mesh(d, sigma, ell)):
        _check_against_fresh_blocks(build_space(mesh, p0, slope), alpha, seed)


def _check_against_fresh_blocks(space, alpha, seed):
    mesh, pot, pen = space.mesh, Potential(alpha, -1.0), PenaltyConfig(10.0)
    c = mesh.copies
    asm = SipAssembler(space, pot, pen)
    a = asm.sip()
    u = projected(space, lambda x: np.cos(np.pi * x[:, 0]) * (1.0 + x[:, -1]))
    nl = asm.nonlinear_mass(u, 3)
    rng = np.random.default_rng(seed)
    owners = mesh.faces.owners
    for eid in {*rng.choice(mesh.n_elements, 3), *rng.choice(np.flatnonzero(mesh.corner), 2)}:
        sl = element_dofs(space, eid)
        want = _fresh_element_block(space, pot, eid)
        for f in np.flatnonzero(np.any(owners == eid, axis=1)):
            fb = _fresh_face_block(space, f, pen.alpha0)
            k = space.ndofs_el[eid]
            want = want + (fb[:k, :k] if owners[f, 0] == eid else fb[-k:, -k:])
        _close(a[sl, sl].toarray(), c * 0.5 * (want + want.T))
        lo, lengths, p = mesh.lo[eid], mesh.lengths[eid], int(space.degrees[eid])
        rule = element_rule(lo, lengths, p + 4)
        phi = basis_matrix(lo, lengths, p, rule.points)
        _close(nl[sl, sl].toarray(),
               c * weighted_gram(phi, rule.weights * (phi @ u.coeffs[sl]) ** 2))
    for f in rng.choice(np.flatnonzero(mesh.faces.interior), 4):
        fb = _fresh_face_block(space, f, pen.alpha0)
        k = space.ndofs_el[owners[f, 0]]
        _close(a[element_dofs(space, owners[f, 0]), element_dofs(space, owners[f, 1])].toarray(),
               c * 0.5 * (fb[:k, k:] + fb[k:, :k].T))


@pytest.mark.parametrize("d,sigma,ell,p0,slope", [(2, 0.15, 6, 2, 0.5), (2, 0.5, 4, 1, 1.0),
                                                  (3, 0.5, 2, 1, 0.5)])
def test_every_face_block_equals_fresh_integration(d, sigma, ell, p0, slope):
    """Every element's and every face's block equals its freshly integrated
    one (non-cubic elements, hanging sub-faces and degree jumps included), on
    the octant and on the whole cube (2^d corner elements).  A face block is
    a Kronecker product of symmetric factors on its diagonal quarters and
    (a, b), (a, b)^T off them, so it is bitwise symmetric as assembled."""
    pot, pen = Potential(1.0, -1.0), PenaltyConfig(10.0)
    for mesh in (full_cube_mesh(d, sigma, ell), build_graded_mesh(d, sigma, ell)):
        space = build_space(mesh, p0, slope)
        elements, faces = sip_blocks(SipAssembler(space, pot, pen))
        assert sorted(f for f, _ in faces) == list(range(len(mesh.faces)))
        for e, blk in enumerate(elements):
            _close(blk, _sym(_fresh_element_block(space, pot, e)))
        for f, blk in faces:
            _close(blk, _sym(_fresh_face_block(space, f, pen.alpha0)))
            assert np.array_equal(blk, blk.T)


@pytest.mark.parametrize("d,sigma,ell,slope", [(2, 0.5, 3, 0.5), (3, 0.5, 2, 0.5),
                                               (3, 0.3, 2, 0.0)])
def test_matched_face_intervals_give_exact_orthogonality(d, sigma, ell, slope):
    """On a tangential axis where the face's interval is both owners' own,
    the Legendre polynomials are orthogonal: every entry of the face block
    whose two modes differ on such an axis is exactly zero, and A_sip stores
    it.  Hanging faces are checked on their matched axes only."""
    mesh = build_graded_mesh(d, sigma, ell)
    space = build_space(mesh, 1, slope)
    asm = SipAssembler(space, Potential(1.0, -1.0), PenaltyConfig())
    faces, checked = mesh.faces, 0
    for f, blk in sip_blocks(asm)[1]:
        own = [o for o in faces.owners[f].tolist() if o >= 0]
        tang = [m for m in range(d) if m != faces.axis[f]
                and all(mesh.lo[o, m] == faces.lo[f, m]
                        and mesh.lengths[o, m] == faces.lengths[f, m] for o in own)]
        modes = np.vstack([_modes(int(space.degrees[o]), d) for o in own])
        differ = np.zeros(blk.shape, dtype=bool)
        for m in tang:
            differ |= modes[:, None, m] != modes[None, :, m]
        assert not blk[differ].any(), f
        checked += int(differ.sum())
    a = asm.sip()
    assert checked > 0 and a.nnz - np.count_nonzero(a.data) > 0


@pytest.mark.parametrize("d", [2, 3])
def test_corner_blocks_of_the_cube_are_reflections(d):
    """V is radial and P_i(-x) = (-1)^i P_i(x), so the potential block of the
    corner element reflected along the axes with s_m = -1 is D B D, B the
    block of the all-positive corner and D = diag(prod_m s_m^(i_m))."""
    mesh = full_cube_mesh(d, 0.5, 2)
    corners = np.flatnonzero(mesh.corner)
    signs = np.where(mesh.lo[corners] == 0, 1, -1)  # s_m = +1 where the element starts at 0
    assert len(corners) == 2**d and len({tuple(s) for s in signs.tolist()}) == 2**d
    for alpha in (0.5, 1.0, 1.5):
        asm = SipAssembler(build_space(mesh, 1, 0.0), Potential(alpha, -1.0), PenaltyConfig())
        for p in (1, 2, 3):
            blocks = [asm._corner_block(e, p) for e in corners.tolist()]
            b = blocks[int(np.flatnonzero(np.all(signs == 1, axis=1))[0])]
            for got, s in zip(blocks, signs):
                dd = np.prod(s ** _modes(p, d), axis=1)
                assert np.abs(got - dd[:, None] * b * dd).max() <= 1e-13 * np.abs(b).max()


def _expanded_corner_grams(lo, lengths, p, potentials, chunk=2**15):
    """The corner Gram of each potential from the rule expanded into points:
    volume_rule's points, basis_matrix on them and weighted_gram, summed over
    chunks of ``chunk`` points so that no table exceeds chunk * (p+1)^d."""
    rule = volume_rule(lo, lengths, p)
    pts, w = rule.points, rule.weights
    grams = [0.0] * len(potentials)
    for s in range(0, len(w), chunk):
        phi = basis_matrix(lo, lengths, p, pts[s:s + chunk])
        for i, pot in enumerate(potentials):
            grams[i] = grams[i] + weighted_gram(phi, w[s:s + chunk] * pot(pts[s:s + chunk]))
    return grams


@pytest.mark.parametrize("d,p,sigma,ell,alpha,sign", [
    (2, 1, 0.5, 3, None, -1.0), (2, 2, 0.3, 4, 0.5, 1.0), (2, 3, 0.15, 10, 1.5, -1.0),
    (2, 2, 0.15, 10, 1.0, 1.0), (3, 1, 0.5, 2, 1.0, -1.0), (3, 2, 0.15, 10, 0.5, -1.0),
    (3, 3, 0.3, 2, 1.5, 1.0), (3, 1, 0.3, 3, None, 1.0)])
def test_corner_block_equals_fresh_integration(d, p, sigma, ell, alpha, sign):
    """A corner element's potential block, h^(d - alpha) times the cached
    Gram of its box scaled by 1/h, equals the composite-rule integration on
    the element itself: on the octant's corner and on each of the whole
    cube's 2^d, down to h = 0.5 * 0.15^10, about 3e-9."""
    pot = Potential(alpha, sign)
    for mesh in (build_graded_mesh(d, sigma, ell), full_cube_mesh(d, sigma, ell)):
        asm = SipAssembler(build_space(mesh, p, 0.0), pot, PenaltyConfig())
        for e in np.flatnonzero(mesh.corner).tolist():
            [want] = _expanded_corner_grams(mesh.lo[e], mesh.lengths[e], p, [pot])
            assert np.abs(asm._corner_block(e, p) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sum_factorized_corner_block_equals_the_expanded_rule(d, p):
    """The sum-factorized corner block equals the Gram of the expanded
    composite rule to 1e-13 of its largest entry, on every corner element of
    the whole cube, for attractive and repulsive r^-alpha and for no
    potential (exact zeros).  V's sign flips each weight exactly, so the
    repulsive oracle is the attractive one negated."""
    mesh = full_cube_mesh(d, 0.5, 1)
    corners = np.flatnonzero(mesh.corner).tolist()
    assert len(corners) == 2**d
    alphas = (0.5, 1.0, 1.5, None)
    for e in corners:
        lo, lengths = mesh.lo[e], mesh.lengths[e]
        wants = _expanded_corner_grams(lo, lengths, p, [Potential(a, -1.0) for a in alphas])
        for alpha, want in zip(alphas, wants):
            for sign in (-1.0, 1.0):
                asm = SipAssembler(build_space(mesh, p, 0.0), Potential(alpha, sign),
                                   PenaltyConfig())
                got = asm._corner_block(e, p)
                if alpha is None:
                    assert not got.any()
                    continue
                want_s = -sign * want
                assert np.abs(got - want_s).max() <= 1e-13 * np.abs(want_s).max(), (e, alpha, sign)


def test_corner_gram_never_forms_the_point_table():
    """A cold corner Gram at d = 3, p = 3 peaks below a third of the
    (points x (p+1)^3) float64 basis table of its composite rule (about 74 MB),
    the table that the expanded rule needs."""
    lo, lengths, p = (0.0,) * 3, (1.0,) * 3, 3
    quadrature._unit_singular_rule.cache_clear()
    nq = volume_rule(np.array(lo), np.array(lengths), p).weights.size
    quadrature._unit_singular_rule.cache_clear()
    tracemalloc.start()
    try:
        _corner_gram.__wrapped__(lo, lengths, p, Potential(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nq * (p + 1) ** 3 * 8 / 3


def test_sip_peaks_below_three_times_its_data():
    """``sip()`` adds A_sip's blocks into its CSR as they are built and keeps
    no list of them: on the 3D octant (ell 5, p0 2, slope 1/2, alpha 1/2) a
    warm call's traced peak stays below 3 x the returned data, of which the
    CSR itself (float64 data, int32 indices) is 1.5 x.  A build that
    collects every block before adding them in peaks at 3.6 x."""
    space = build_space(build_graded_mesh(3, 0.5, 5), 2, 0.5)
    asm = SipAssembler(space, Potential(0.5, -1), PenaltyConfig())
    asm.sip()  # warms the reference tables and the corner Grams
    tracemalloc.start()
    try:
        a = asm.sip()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * a.data.nbytes


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p0", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, None])
def test_degree_group_grams_equal_the_expanded_rule(d, p0, alpha):
    """Each degree group's element blocks and N(u) blocks, degrees 1 to 4,
    equal the Grams of the plain rule expanded into points, to 1e-13 of each
    block's largest entry: ``basis_matrix`` and ``basis_matrices`` at the
    points of ``element_rule(lo, lengths, plain_order(p))``, then
    ``weighted_gram`` with w, w V and w |u|^(delta-1).  A corner element's
    potential Gram is the composite rule's, ``_corner_block``."""
    space = build_space(build_graded_mesh(d, 0.5, 3), p0, 1.0)
    mesh, pot = space.mesh, Potential(alpha, -1.0)
    asm = SipAssembler(space, pot, PenaltyConfig())
    u = DiscreteField(space, np.random.default_rng(7).standard_normal(space.N))
    assert [p for p, _, _ in asm._groups] == [p0, p0 + 1, p0 + 2]
    nonlinear = {delta: asm.nonlinear_blocks(u, delta) for delta in (2, 3, 4)}
    for g, ((p, ids, cols), blocks) in enumerate(zip(asm._groups, asm._element_blocks())):
        for k, e in enumerate(ids.tolist()):
            lo, lengths = mesh.lo[e], mesh.lengths[e]
            rule = element_rule(lo, lengths, plain_order(p))
            phi, grads = basis_matrices(lo, lengths, p, rule.points)
            want = sum(weighted_gram(t, rule.weights) for t in grads)
            if alpha is not None:
                want = want + (asm._corner_block(e, p) if mesh.corner[e] else
                               weighted_gram(phi, rule.weights * pot(rule.points)))
            _close(blocks[k], _sym(want), 1e-13)
            uq = np.abs(phi @ u.coeffs[cols[k]])
            for delta, got in nonlinear.items():
                want = mesh.copies * weighted_gram(phi, rule.weights * uq ** (delta - 1))
                _close(got[g][k], want, 1e-13)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_gradient_grams_are_exact_kronecker_products(d, p):
    """On the one-element octant without a potential, A_sip is the gradient
    Grams plus the boundary faces' blocks, each a Kronecker product with a
    diagonal factor on every axis but one, and both are formed exactly: every
    entry whose two modes differ on two or more axes is exactly 0.0.  Gauss
    integrated reference Grams left roundoff there."""
    space = build_space(build_graded_mesh(d, 0.5, 0), p, 0.0)
    a = SipAssembler(space, Potential(None), PenaltyConfig()).sip().toarray()
    modes = _modes(p, d)
    differ = np.sum(modes[:, None, :] != modes[None, :, :], axis=2) >= 2
    assert differ.any() and np.count_nonzero(a[differ]) == 0


def test_nonlinear_blocks_peak_below_three_times_their_bytes():
    """A warm ``nonlinear_blocks`` forms no weighted copy of a
    (points x (p+1)^d) table: on the 3D octant (ell 5, p0 2, slope 1/2,
    alpha 1/2) its traced peak stays below 3 x the bytes of the blocks it
    returns.  The Grams of the weighted table copies peaked at 4.2 x."""
    space = build_space(build_graded_mesh(3, 0.5, 5), 2, 0.5)
    asm = SipAssembler(space, Potential(0.5, -1), PenaltyConfig())
    u = DiscreteField(space, np.random.default_rng(5).standard_normal(space.N))
    asm.nonlinear_blocks(u, 3)  # warms the shared tables and the grids
    tracemalloc.start()
    try:
        blocks = asm.nonlinear_blocks(u, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(b.nbytes for b in blocks)


@pytest.mark.parametrize("d,p0", [(2, 2), (3, 1)])
def test_sip_forms_no_point_tables(monkeypatch, d, p0):
    """With the corner Grams cached, ``sip()`` integrates every block from
    per-axis tables: it calls neither ``hpspace._basis_tables``, the
    (points x (p+1)^d) basis table, nor ``quadrature._face_grid``, the
    stacked face grid, under any name an hpdg module binds them to."""
    space = build_space(build_graded_mesh(d, 0.5, 3), p0, 0.5)
    asm = SipAssembler(space, Potential(1.0, -1), PenaltyConfig())
    want = asm.sip()  # warms the corner Grams' cache
    for fn in (hpspace._basis_tables, quadrature._face_grid):
        def forbidden(*args, name=fn.__name__, **kwargs):
            raise AssertionError(f"sip() called {name}")
        for mod in [m for n, m in sys.modules.items() if n == "hpdg" or n.startswith("hpdg.")]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, forbidden)
    got = asm.sip()
    monkeypatch.undo()
    assert len(set(space.degrees.tolist())) > 1
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def test_corner_gram_is_cached_read_only():
    """The cached Gram cannot be written, and a returned block is a copy of
    it: writing to one block leaves the next one as it was."""
    mesh = build_graded_mesh(2, 0.5, 2)
    asm = SipAssembler(build_space(mesh, 2, 0.0), Potential(1.0), PenaltyConfig())
    e = int(np.flatnonzero(mesh.corner)[0])
    first = asm._corner_block(e, 2)
    want = first.copy()
    first[:] = np.nan
    assert np.array_equal(asm._corner_block(e, 2), want)
    gram = _corner_gram((0.0, 0.0), (1.0, 1.0), 2, Potential(1.0))
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 0.0


def _workload(name):
    """The StudyConfig keys of a studybench workload."""
    spec = importlib.util.spec_from_file_location(
        "studybench_run", Path(__file__).resolve().parents[1] / "studybench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS[name]


@pytest.mark.parametrize("workload,grams", [("smoke3d", 1), ("study2d", 2)])
def test_a_study_integrates_one_corner_gram_per_degree(tmp_path, workload, grams):
    """Every level of a study has its corner cube at the origin, so the study
    integrates one corner Gram per corner degree: smoke3d solves all its
    levels at p0 = 1, study2d its reference at p0 + 1."""
    _corner_gram.cache_clear()
    run_study(StudyConfig(**_workload(workload), out=str(tmp_path)))
    info = _corner_gram.cache_info()
    assert info.misses == info.currsize == grams and info.hits > 0


def test_laplace_dimer_smallest_eigenvalue():
    space, a = make(3, p0=3)
    assert dense_lambda(a, assemble_mass(space)) == pytest.approx(2 * np.pi**2, rel=1e-6)


@pytest.mark.parametrize("ell", [0, 1])
def test_patch_energy_of_bubble_3d(ell):
    """The 3D bubble (1/4-x^2)(1/4-y^2)(1/4-z^2) has gradient energy 1/900."""
    space, a = make(ell, p0=2, d=3)
    v = projected(space, lambda p: (0.25 - p[:, 0] ** 2) * (0.25 - p[:, 1] ** 2)
                  * (0.25 - p[:, 2] ** 2))
    q = float(v.coeffs @ (a @ v.coeffs))
    assert q == pytest.approx(1.0 / 900.0, abs=1e-11)


def test_generic_sigma_laplace_eigenvalue():
    space = build_space(build_graded_mesh(2, 0.4, 3), 2, 0.0)
    a = SipAssembler(space, Potential(None), PenaltyConfig(10.0)).sip()
    assert dense_lambda(a, assemble_mass(space)) == pytest.approx(2 * np.pi**2, rel=2e-3)
