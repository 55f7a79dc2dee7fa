"""Independent oracles used by the test suite.

The integration oracles deliberately avoid the library's own
quadrature/assembly code paths: the adaptive integrator refines boxes wherever
a coarse and a fine Gauss estimate disagree, and its results are accepted only
after a Richardson-style agreement check between two tolerance levels.  The
per-element oracles restate a batched library routine as one loop over
elements and faces, one rule and one basis table at a time;
:func:`evaluate_in_element` evaluates one element's expansion at given
points, the value that the batched evaluation must reproduce.  The face
oracle restates the numpy face enumeration as the pairwise loop it replaced,
:func:`full_cube_mesh` is the graded mesh of the whole cube that the solver's
octant mesh replaced, and :func:`singular_rule_per_box` the composite
singular rule as the loop of one tensor Gauss rule per box that its stacked
build replaced.  :func:`plane_rule` is one face's Gauss rule as points, the
reference for the face grids of the batched face blocks and error norms.
:func:`sip_blocks` gives the element and face blocks that ``sip()`` adds
into A_sip, each face's block composed whole from its quarters.
:func:`error_norms_level_by_level` is the error pass of one coarse field
as it ran once per study level before the levels shared one pass.
:func:`factor_input` forms the single-precision pencil A - tau M on A's
stored pattern and diagonal, the matrix the sparse LU must be given.
:func:`dense_lambda` is lambda_1 of a pencil from one LAPACK solve of the
generalized problem.
"""

import math
from itertools import product

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from hpdg._kernels import legendre_l2_norms_sq
from hpdg.hpspace import (DiscreteField, _modes, basis_matrices, basis_matrix, containing_map,
                          evaluate_grid)
from hpdg.mesh import Faces, GradedMesh, MeshError, build_faces, build_graded_mesh
from hpdg.quadrature import element_rule, element_rules, face_rules


def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


def box_gauss(f, lo, hi, n):
    """Plain tensor Gauss estimate of the integral of f over a box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    xg, wg = _gauss(n)
    axes = [lo[m] + (hi[m] - lo[m]) * (xg + 1) / 2 for m in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.ones(1)
    for m in range(d):
        w = np.multiply.outer(w, wg * (hi[m] - lo[m]) / 2).ravel()
    return float(np.asarray(f(pts)) @ w)


def adaptive_integral(f, lo, hi, tol=1e-13, n=8):
    """Adaptive-subdivision integral of f over the box [lo, hi].

    Splits any box whose n-point and (n+4)-point tensor Gauss estimates
    differ by more than the local tolerance.
    """
    total = 0.0
    stack = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))]
    d = len(lo)
    while stack:
        blo, bhi = stack.pop()
        coarse = box_gauss(f, blo, bhi, n)
        fine = box_gauss(f, blo, bhi, n + 4)
        if abs(coarse - fine) <= tol:
            total += fine
        else:
            mid = 0.5 * (blo + bhi)
            for s in product((0, 1), repeat=d):
                s = np.array(s, dtype=bool)
                stack.append((np.where(s, mid, blo), np.where(s, bhi, mid)))
    return total


def checked_integral(f, lo, hi, tol=1e-12):
    """Adaptive integral with a Richardson consistency check between levels."""
    coarse = adaptive_integral(f, lo, hi, tol=tol)
    fine = adaptive_integral(f, lo, hi, tol=tol / 10)
    if abs(coarse - fine) > 50 * tol * max(1.0, abs(fine)):
        raise AssertionError(
            f"adaptive oracle failed its Richardson check: {coarse} vs {fine}"
        )
    return fine


def radial_power(alpha):
    """The integrand r^-alpha as a vectorized callable."""

    def f(pts):
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return r ** (-alpha)

    return f


def element_dofs(space, eid: int) -> slice:
    """The global dofs of element ``eid``, contiguous from its offset."""
    off = int(space.offsets[eid])
    return slice(off, off + int(space.ndofs_el[eid]))


def evaluate_in_element(field: DiscreteField, eid: int, pts: np.ndarray) -> np.ndarray:
    """Evaluate the element-local expansion of ``field`` at physical points."""
    p = int(field.space.degrees[eid])
    mesh = field.space.mesh
    phi = basis_matrix(mesh.lo[eid], mesh.lengths[eid], p, np.atleast_2d(pts))
    return phi @ field.coeffs[element_dofs(field.space, eid)]


def _values_grads(field, eid, pts):
    mesh = field.space.mesh
    phi, grads = basis_matrices(mesh.lo[eid], mesh.lengths[eid], int(field.space.degrees[eid]), pts)
    c = field.coeffs[element_dofs(field.space, eid)]
    return phi @ c, [g @ c for g in grads]


def error_norms_per_element(coarse, reference):
    """``hpdg.analysis.error_norms`` as a loop over fine elements and faces."""
    ref_space = reference.space
    fine_mesh = ref_space.mesh
    cmap = containing_map(coarse.space.mesh, fine_mesh)

    def value_diff(cid, eid, pts):
        return _values_grads(coarse, cid, pts)[0] - _values_grads(reference, eid, pts)[0]

    l2_sq = h1_sq = jump_sq = linf = 0.0
    for e, (lo, lengths) in enumerate(zip(fine_mesh.lo, fine_mesh.lengths)):
        cid = int(cmap[e])
        n = max(int(ref_space.degrees[e]), int(coarse.space.degrees[cid])) + 2
        rule = element_rule(lo, lengths, n)
        pts, w = rule.points, rule.weights
        cv, cg = _values_grads(coarse, cid, pts)
        rv, rg = _values_grads(reference, e, pts)
        diff = cv - rv
        l2_sq += float(w @ (diff * diff))
        h1_sq += sum(float(w @ ((a - b) ** 2)) for a, b in zip(cg, rg))
        corners = lo + np.array(list(product((0, 1), repeat=fine_mesh.d))) * lengths
        linf = max(linf, float(np.max(np.abs(diff))),
                   float(np.max(np.abs(value_diff(cid, e, corners)))))
    faces = fine_mesh.faces
    for f in np.flatnonzero(faces.interior):
        ea, eb = faces.owners[f]
        degs = [int(ref_space.degrees[ea]), int(ref_space.degrees[eb]),
                int(coarse.space.degrees[cmap[ea]]), int(coarse.space.degrees[cmap[eb]])]
        pts, w = plane_rule(faces.lo[f], faces.lengths[f], faces.axis[f], max(degs) + 2)
        jump = value_diff(int(cmap[ea]), ea, pts) - value_diff(int(cmap[eb]), eb, pts)
        jump_sq += int(ref_space.face_degree[f]) ** 2 / faces.h_e[f] * float(w @ (jump * jump))
    c = fine_mesh.copies
    return {"l2": math.sqrt(c * l2_sq), "dg": math.sqrt(c * (l2_sq + h1_sq + jump_sq)),
            "linf": linf}


def error_norms_level_by_level(coarse, reference):
    """``hpdg.analysis.error_norms`` of one coarse field by the batched pass
    that measured each study level on its own: each field evaluated in its
    own batches, on each group's own rule."""
    space, mesh = reference.space, reference.space.mesh
    cmap = containing_map(coarse.space.mesh, mesh)
    p_c = coarse.space.degrees[cmap]

    def diff(eids, axes, grads=False):
        (cv, cg), (rv, rg) = (evaluate_grid(coarse, cmap[eids], axes, grads),
                              evaluate_grid(reference, eids, axes, grads))
        return cv - rv, (cg - rg if grads else None)

    l2_sq, h1_sq = np.zeros(mesh.n_elements), np.zeros(mesh.n_elements)
    corners = [np.column_stack([mesh.lo[:, m], mesh.hi[:, m]]) for m in range(mesh.d)]
    linf = float(np.max(np.abs(diff(np.arange(mesh.n_elements), corners)[0])))
    for ids, axes, weights in element_rules(mesh.lo, mesh.lengths,
                                            np.maximum(space.degrees, p_c) + 2):
        dv, dg = diff(ids, axes, grads=True)
        l2_sq[ids] = np.einsum("eq,eq->e", weights, dv * dv)
        h1_sq[ids] = np.einsum("eq,meq->e", weights, dg * dg)
        linf = max(linf, float(np.max(np.abs(dv))))
    faces = mesh.faces[mesh.faces.interior]
    a, b = faces.owners.T
    p_e = space.face_degree[mesh.faces.interior]
    jump_sq = np.zeros(len(faces))
    for idx, axes, weights in face_rules(faces, np.maximum(p_e, np.maximum(p_c[a], p_c[b])) + 2):
        jump = diff(a[idx], axes)[0] - diff(b[idx], axes)[0]
        jump_sq[idx] = np.einsum("eq,eq->e", weights, jump * jump)
    jump_sq *= p_e**2 / faces.h_e
    l2_sq, h1_sq, jump_sq = (mesh.copies * float(np.sum(x)) for x in (l2_sq, h1_sq, jump_sq))
    return {"l2": math.sqrt(l2_sq), "dg": math.sqrt(l2_sq + h1_sq + jump_sq), "linf": linf}


def plane_rule(lo, lengths, axis, n):
    """Points (n^(d-1), d) and weights of the tensor Gauss rule with n points
    per tangential axis on the face lo + [0, lengths] normal to ``axis``:
    ``element_rule`` on the tangential axes, lifted onto the face plane."""
    t = np.arange(len(lo)) != axis
    rule = element_rule(lo[t], lengths[t], n)
    return np.insert(rule.points, axis, lo[axis], axis=1), rule.weights


def sip_blocks(asm):
    """The symmetrized blocks of A_sip that ``asm.sip()`` adds up, times no
    copies: the element blocks as a list by element id, and the face blocks
    as ``(f, block)`` in the order ``sip()`` adds them (face groups in the
    order of ``SipAssembler._face_blocks``, faces by id inside each).  A face
    block spans the dofs of its owners, in owner order, and is composed from
    the quarters the generator yields: [[aa, ab], [ab^T, bb]], or aa alone
    on the boundary."""
    elements = [None] * asm.space.mesh.n_elements
    for (_, ids, *_), blocks in zip(asm._groups, asm._element_blocks()):
        for e, blk in zip(ids.tolist(), blocks):
            elements[e] = blk
    faces = [(f, aa[i] if ab is None else np.block([[aa[i], ab[i]], [ab[i].T, bb[i]]]))
             for fids, aa, ab, bb in asm._face_blocks() for i, f in enumerate(fids.tolist())]
    return elements, faces


def project_per_element(space, values):
    """Element-local L2 projection, one element at a time:
    ``values(e, pts)`` is the target at element e's rule points."""
    coeffs = np.zeros(space.N)
    for e, (lo, lengths) in enumerate(zip(space.mesh.lo, space.mesh.lengths)):
        p = int(space.degrees[e])
        rule = element_rule(lo, lengths, p + 4)
        phi = basis_matrix(lo, lengths, p, rule.points)
        mass = np.ones(phi.shape[1])
        for m, k in enumerate(_modes(p, space.mesh.d).T):
            mass *= legendre_l2_norms_sq(p)[k] * (lengths[m] / 2.0)
        coeffs[element_dofs(space, e)] = phi.T @ (rule.weights * values(e, rule.points)) / mass
    return coeffs


def projected(space, f):
    """:func:`project_per_element` of a callable f(points), as a field."""
    return DiscreteField(space, project_per_element(space, lambda e, pts: f(pts)))


def singular_rule_per_box(d, n, depth):
    """Points and weights of the composite rule on [0, 1]^d graded toward the
    origin, one :func:`hpdg.quadrature.element_rule` per box: shell k =
    1..depth, its 2^d - 1 boxes in ``product`` order, then the innermost box
    [0, 2^-depth]^d."""
    patterns = [np.array(s, dtype=bool) for s in product((0, 1), repeat=d) if any(s)]
    rules = []
    for k in range(1, depth + 1):
        fin, fout = 0.5**k, 0.5 ** (k - 1)
        for s in patterns:
            blo = np.where(s, fin, 0.0)
            rules.append(element_rule(blo, np.where(s, fout, fin) - blo, n))
    rules.append(element_rule(np.zeros(d), np.full(d, 0.5**depth), n))
    return np.vstack([r.points for r in rules]), np.concatenate([r.weights for r in rules])


def full_cube_mesh(d, sigma, ell):
    """The graded mesh of the whole cube (-1/2, 1/2)^d, ``copies`` 1: the
    octant mesh reflected into each quadrant.  Elements are numbered by layer,
    then quadrant, then extent pattern, and the 2^d innermost boxes come last.
    A box [a, b] of the octant becomes [-b, 0.0 - a] along a reflected axis,
    so the origin stays +0.0 and shared planes stay bitwise equal."""
    octant = build_graded_mesh(d, sigma, ell)
    quadrants = np.array(list(product((-1, 1), repeat=d)))[:, None, :]  # (Q, 1, d)
    shells = np.split(np.arange(octant.n_elements), (2**d - 1) * np.arange(1, ell + 1))
    a, b = ([x[s] for s in shells] for x in (octant.lo, octant.hi))
    lo = np.concatenate([np.where(quadrants > 0, x, -y).reshape(-1, d) for x, y in zip(a, b)])
    hi = np.concatenate([np.where(quadrants > 0, y, 0.0 - x).reshape(-1, d) for x, y in zip(a, b)])
    layer = np.concatenate([np.tile(octant.layer[s], len(quadrants)) for s in shells])
    return GradedMesh(d, octant.sigma, octant.ell, lo, hi, layer, build_faces(lo, hi))


def enumerate_faces_of(lo, hi):
    """``hpdg.mesh.build_faces`` as one pairwise loop: per axis, group the
    element faces by plane, then intersect every minus-side face with every
    plus-side face of the group, one pair at a time; a plane x_m = 0 where the
    tiling starts is a mirror plane and gets no faces.  Coordinates are compared
    exactly, as the mesh shares them bitwise between neighbours."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    lengths = hi - lo
    n_el, d = lo.shape
    h = [float(np.max(x)) for x in lengths]
    tdims = {m: [t for t in range(d) if t != m] for m in range(d)}
    raw = []  # (axis, plane, interior, owners, sign, lo, lengths, h_e, is_subface)
    for m in range(d):
        # side +1: the element lies on the plus side of the plane (its lower face)
        recs = sorted([(float(lo[e, m]), +1, e) for e in range(n_el)]
                      + [(float(hi[e, m]), -1, e) for e in range(n_el)])
        groups = []
        for plane, side, eid in recs:
            if groups and plane == groups[-1][0]:
                groups[-1][1].append((side, eid))
            else:
                groups.append((plane, [(side, eid)]))
        for plane, members in groups:
            minus = [eid for side, eid in members if side == -1]
            plus = [eid for side, eid in members if side == +1]
            if plane == 0 and min(lo[:, m]) == 0:
                continue  # a mirror plane: no faces
            if plane in (-0.5, 0.5):
                sign = -1 if plane == -0.5 else +1
                for eid in minus + plus:
                    flo, flen = lo[eid].copy(), lengths[eid].copy()
                    flo[m], flen[m] = plane, 0.0
                    raw.append((m, plane, False, (eid, -1), sign, flo, flen, h[eid], False))
                continue
            covered = {eid: 0.0 for eid in minus + plus}
            for a in minus:
                for b in plus:
                    flo, fhi, flen = np.zeros(d), np.zeros(d), np.zeros(d)
                    flo[m] = plane
                    area = 1.0
                    for t in tdims[m]:
                        c0 = max(lo[a, t], lo[b, t])
                        c1 = min(hi[a, t], hi[b, t])
                        if c1 <= c0:
                            area = 0.0
                            break
                        flo[t], fhi[t], flen[t] = c0, c1, c1 - c0
                        area *= c1 - c0
                    if area == 0.0:
                        continue
                    full = [all(flo[t] == lo[e, t] and fhi[t] == hi[e, t] for t in tdims[m])
                            for e in (a, b)]
                    if not any(full):
                        raise MeshError(f"interface at axis {m}, plane {plane} between elements "
                                        f"{a} and {b} is an entire face of neither")
                    raw.append((m, plane, True, (a, b), +1, flo, flen, min(h[a], h[b]),
                                full[0] != full[1]))
                    covered[a] += area
                    covered[b] += area
            for eid, area in covered.items():
                expect = np.prod([lengths[eid, t] for t in tdims[m]])
                if abs(area - expect) > 1e-12 * expect:
                    raise MeshError(f"element {eid} face on axis {m}, plane {plane} not fully "
                                    f"matched: covered {area} of {expect}")
    raw.sort(key=lambda r: (r[0], r[1], tuple(r[5]), r[2]))
    m, _, interior, owners, sign, flo, flen, h_e, sub = zip(*raw)
    return Faces(np.array(owners), np.array(m), np.array(sign), np.array(flo), np.array(flen),
                 np.array(h_e), np.array(interior), np.array(sub))


def factor_input(a, d, tau):
    """The float32 CSC of A - tau diag(d) that the LU factors, on A's own
    pattern: every entry A stores, explicit zeros included, and every
    diagonal entry, stored even where the shift cancels it; scaled by the
    power of two that puts its largest magnitude in [1/2, 1), then cast."""
    a = a.tocsr(copy=True)
    a.sum_duplicates()
    marks = a.copy()
    marks.data[:] = 1.0
    pattern = (marks + sp.identity(a.shape[0], format="csr")).tocsc()  # no entry cancels
    rows = pattern.indices
    cols = np.repeat(np.arange(a.shape[1]), np.diff(pattern.indptr))
    vals = np.asarray(a[rows, cols]).ravel()
    vals = np.where(rows == cols, vals - tau * d[rows], vals)
    exp = np.frexp(np.max(np.abs(vals), initial=0.0))[1]
    return sp.csc_matrix((np.ldexp(vals, -exp).astype(np.float32), pattern.indices,
                          pattern.indptr), shape=a.shape)


def dense_lambda(a, m):
    """lambda_1 of the pencil (A, M), M diagonal: the Rayleigh quotient of
    LAPACK's generalized eigenvector.  LAPACK's own eigenvalue loses accuracy
    where M's diagonal spans many decades; the quotient of its vector loses
    less, but the solve has a backward error of about
    eps * ||D^-1/2 A D^-1/2||, D = M, and on a graded hp mesh that norm grows
    like 4^ell.  Against LOBPCG at tol 1e-13, on 2D degree-1 linear pencils,
    the quotient is off by 1.6e-14 at ell 8, 2.5e-12 at ell 16 and 4.2e-8 at
    ell 20; on every pencil the suite compares it on (ell <= 6, tolerances
    of 1e-10 absolute or looser) by at most 2.7e-13."""
    v = dla.eigh(a.toarray(), m.toarray(), subset_by_index=[0, 0])[1][:, 0]
    return float(v @ (a @ v)) / float(v @ (m @ v))
