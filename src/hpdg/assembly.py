"""Assembly of the SIP dG operator, mass matrix and nonlinear mass matrix.

All matrices are scipy CSR in canonical format, symmetric by construction.
Contributions are accumulated in a fixed global ordering (elements by id, then
faces by id), so the assembled matrices are bitwise independent of the order
in which the mesh lists happen to be stored.

Volume terms use n = p + 4 Gauss points per dimension.  On elements touching
the singular point the potential term is integrated with the composite graded
rule of :func:`hpdg.quadrature.singular_rule`; gradient and mass terms are
polynomial and therefore already exact with the plain rule.  The nonlinear
coefficient |u|^(delta-1) is evaluated pointwise at the plain-rule points (a
controlled variational crime, see README).  Relative-geometry blocks are cached
per key and per-element Grams batched per degree (see :class:`SipAssembler`);
A_sip is scattered into its element-graph CSR, N(u) laid out as block-diagonal CSR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from ._kernels import weighted_gram
from .hpspace import (DiscreteField, HpSpace, _local_mass_diag, basis_matrices, basis_matrix,
                      reference_table)
from .mesh import BOUNDARY, INTERIOR
from .quadrature import element_rule, face_rule, volume_rule

NONLINEAR_EXPONENTS = (2, 3, 4)


@dataclass(frozen=True)
class Potential:
    """V(x) = sign * r^(-alpha) with r the distance to the origin.

    ``alpha=None`` disables the potential entirely.  The default sign is the
    attractive one.
    """

    alpha: float | None = None
    sign: float = -1.0

    def __post_init__(self):
        if self.alpha is not None and self.alpha >= 2:
            raise ValueError(
                f"potential exponent must satisfy alpha < 2, got {self.alpha}"
            )

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            return np.zeros(pts.shape[0])
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return self.sign * r ** (-self.alpha)


@dataclass(frozen=True)
class PenaltyConfig:
    """Uniform face penalty constant: the face weight is alpha0 * p_e^2 / h_e."""

    alpha0: float = 10.0

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError(f"penalty constant must be positive, got {self.alpha0}")


def _sym(b: np.ndarray) -> np.ndarray:
    return 0.5 * (b + np.swapaxes(b, -1, -2))


def _grams(phi: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """phi^T diag(wq[k]) phi for every row k of ``wq``, as one batched matmul."""
    return np.matmul(phi.T * wq[:, None, :], phi)


def _csr_from_blocks(space: HpSpace, blocks) -> sp.csr_matrix:
    """Add symmetrized element-local blocks, in the order they come, into an
    N x N CSR matrix whose rows of element a hold the dofs of a and of its
    face neighbours, in id order.  ``blocks`` yields ``(eids, block)``: the
    block couples the local dofs of the elements ``eids``, in that order.
    """
    nd, off = space.ndofs_el, space.offsets
    coupled = [{a} for a in range(space.mesh.n_elements)]
    for a, b in (f.owners for f in space.mesh.faces if f.kind == INTERIOR):
        coupled[a].add(b)
        coupled[b].add(a)
    coupled = [sorted(c) for c in coupled]
    indptr = np.concatenate([[0], np.cumsum(np.repeat([nd[c].sum() for c in coupled], nd))])
    itype = np.int32 if indptr[-1] < 2**31 else np.int64
    indices = np.empty(indptr[-1], dtype=itype)
    start = []  # start[a][b]: where element b's columns begin in a row of element a
    for a, c in enumerate(coupled):
        cols = np.concatenate([np.arange(off[b], off[b] + nd[b]) for b in c])
        indices[indptr[off[a]]:indptr[off[a] + nd[a]]] = np.tile(cols, nd[a])
        start.append(dict(zip(c, np.cumsum([0] + [nd[b] for b in c[:-1]]))))
    data = np.zeros(indptr[-1])
    for eids, block in blocks:
        pos = [indptr[off[a]:off[a] + nd[a], None]
               + np.concatenate([start[a][b] + np.arange(nd[b]) for b in eids]) for a in eids]
        data[np.concatenate(pos).ravel()] += _sym(block).ravel()
    if not np.isfinite(data).all():
        raise ValueError("assembled SIP matrix contains non-finite entries")
    return sp.csr_matrix((data, indices, indptr.astype(itype)), shape=(space.N, space.N))


class SipAssembler:
    """Builds A_sip once per space and N(u) per state from reference data.

    The basis lives on each element's reference cube, so ``sip()`` computes a
    block once per key of relative geometry: an element's gradient block per
    ``(p, lengths)``; a face block per kind, axis, sign, h_e and, per owner,
    degree, lengths and the face's offset and size divided by the owner's
    lengths (rounded there, never in absolute coordinates: elements near the
    singular point may be 1e-9 wide); the corner potential block B per
    ``(p, lengths)``, on the corner element moved to lo = 0.  V is radial and
    P_i(-x) = (-1)^i P_i(x), so the corner element reflected along the axes
    with s_m = -1 gets D B D, D = diag(prod_m s_m^{i_m}).  The other elements'
    potential and the |u|^(delta-1) Grams of ``nonlinear_mass()`` are one
    batched matmul per degree group on :func:`hpdg.hpspace.reference_table`.
    ``nonlinear_mass()`` writes its Grams straight into a block-diagonal CSR:
    element e's block, row-major, where the CSR row of its first dof starts.
    """

    def __init__(self, space: HpSpace, potential: Potential, penalty: PenaltyConfig):
        self.space = space
        self.potential = potential
        self.penalty = penalty
        self._mass = None
        self._sip = None
        self._groups = []  # per degree: p, element ids, plain-rule weights (k, nq), shared table
        for p in np.unique(space.degrees).tolist():
            ids = np.flatnonzero(space.degrees == p)
            _, ref_w, phi = reference_table(p, space.mesh.d)
            self._groups.append((p, ids, ref_w * np.prod(space.mesh.el_len[ids][:, None, :] / 2.0, axis=2), phi))

    def mass(self) -> sp.csr_matrix:
        if self._mass is None:
            sp_ = self.space
            self._mass = sp.diags(np.concatenate([
                _local_mass_diag(e.lengths, int(sp_.degrees[e.id])) for e in sp_.mesh.elements
            ]), format="csr")
        return self._mass

    def sip(self) -> sp.csr_matrix:
        if self._sip is None:
            self._sip = _csr_from_blocks(self.space, self._sip_blocks())
        return self._sip

    def _sip_blocks(self):
        """Element blocks by element id, then face blocks by face id."""
        space, pot = self.space, self.potential
        mesh = space.mesh
        cache = {}

        def cached(key, make, *args):
            if key not in cache:
                cache[key] = make(*args)
            return cache[key]

        pot_blocks = {}  # plain-rule potential Grams, batched per degree
        for p, ids, w, phi in self._groups if pot.alpha is not None else ():
            half = mesh.el_len[ids][:, None, :] / 2.0
            vq = pot((mesh.el_lo[ids][:, None, :] + (reference_table(p, mesh.d)[0] + 1.0) * half)
                     .reshape(-1, mesh.d)).reshape(w.shape)
            pot_blocks.update(zip(ids, _grams(phi, w * vq)))
        for e in mesh.elements:
            p = int(space.degrees[e.id])
            block = cached(("grad", p, *e.lengths), self._grad_block, e, p)
            if e.touches_c and pot.alpha is not None:
                b = cached(("corner", p, *e.lengths), self._corner_block, e, p)
                s = 1 - 2 * (space.modes(e.id)[:, np.abs(e.lo) > 1e-14].sum(axis=1) % 2)
                yield (e.id,), block + b * np.outer(s, s)
            else:
                yield (e.id,), block + pot_blocks.get(e.id, 0.0)

        for f in sorted(mesh.faces, key=lambda fc: fc.id):
            owners = tuple(o for o in f.owners if o is not None)
            key = (f.kind, f.axis, f.sign, f.h_e)
            for e in (mesh.elements[o] for o in owners):
                rel = np.concatenate([f.lo - e.lo, f.lengths]) / np.tile(e.lengths, 2)
                key += (int(space.degrees[e.id]), *e.lengths, *np.round(rel, 12))
            yield owners, cached(key, self._face_block, f, owners)

    def _grad_block(self, e, p: int) -> np.ndarray:
        rule = element_rule(e, p + 4)
        _, grads = basis_matrices(e, p, rule.points)
        return sum(weighted_gram(g, rule.weights) for g in grads)

    def _corner_block(self, e, p: int) -> np.ndarray:
        ref = replace(e, lo=np.zeros_like(e.lo))
        rule = volume_rule(ref, p, singular=True)
        phi = basis_matrix(ref, p, rule.points)
        return weighted_gram(phi, rule.weights * self.potential(rule.points))

    def _face_block(self, f, owners) -> np.ndarray:
        space = self.space
        p_e = space.face_degree(f)
        rule = face_rule(f, p_e + 4)
        tabs = [basis_matrices(space.mesh.elements[o], int(space.degrees[o]), rule.points)
                for o in owners]
        jumps, means = ([1.0], [f.sign]) if f.kind == BOUNDARY else ([1.0, -1.0], [0.5, 0.5])
        jmp = np.hstack([s * phi for s, (phi, _) in zip(jumps, tabs)])
        dn = np.hstack([s * grads[f.axis] for s, (_, grads) in zip(means, tabs)])
        c = (dn * rule.weights[:, None]).T @ jmp
        gamma = self.penalty.alpha0 * p_e**2 / f.h_e
        return -c - c.T + weighted_gram(jmp, gamma * rule.weights)

    def nonlinear_mass(self, u: DiscreteField, delta: int,
                       scale: float = 1.0) -> sp.csr_matrix:
        if delta not in NONLINEAR_EXPONENTS:
            raise ValueError(f"delta must be one of {NONLINEAR_EXPONENTS}, got {delta}")
        space = self.space
        if u.space is not space:
            raise ValueError("state field does not belong to the assembler's space")

        nd, off = space.ndofs_el, space.offsets
        indptr = np.concatenate([[0], np.cumsum(np.repeat(nd, nd))])
        itype = np.int32 if indptr[-1] < 2**31 else np.int64
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=itype)
        for _, ids, w, phi in self._groups:
            cols = off[ids][:, None] + np.arange(phi.shape[1])  # (k, n): each element's dofs
            g = _grams(phi, w * (scale * np.abs(u.coeffs[cols] @ phi.T) ** (delta - 1)))
            pos = indptr[cols][..., None] + np.arange(phi.shape[1])  # (k, n, n): row-major blocks
            data[pos], indices[pos] = _sym(g), cols[:, None, :]
        if not np.isfinite(data).all():
            raise ValueError("nonlinear mass matrix contains non-finite entries")
        return sp.csr_matrix((data, indices, indptr.astype(itype)), shape=(space.N, space.N))


def assemble_sip(space: HpSpace, potential: Potential,
                 penalty: PenaltyConfig) -> sp.csr_matrix:
    """SIP stiffness + potential matrix with weak Dirichlet boundary terms."""
    return SipAssembler(space, potential, penalty).sip()


def assemble_mass(space: HpSpace) -> sp.csr_matrix:
    """dG mass matrix (diagonal for the modal Legendre basis)."""
    return SipAssembler(space, Potential(None), PenaltyConfig()).mass()


def assemble_nonlinear_mass(space: HpSpace, u: DiscreteField,
                            delta: int) -> sp.csr_matrix:
    """Mass matrix weighted by |u(x)|^(delta-1) at the quadrature points."""
    return SipAssembler(space, Potential(None), PenaltyConfig()).nonlinear_mass(u, delta)
