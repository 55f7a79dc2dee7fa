"""Assembly of the SIP dG operator, mass matrix and nonlinear mass matrix.

All matrices are scipy CSR, symmetric by construction.  Contributions are
accumulated in a fixed global ordering (elements by id, then faces by id), so
the assembled matrices are bitwise independent of the order in which the mesh
lists happen to be stored.

Volume terms use n = p + 4 Gauss points per dimension.  On elements touching
the singular point the potential term is integrated with the composite graded
rule of :func:`hpdg.quadrature.singular_rule`; gradient and mass terms are
polynomial and therefore already exact with the plain rule.  The nonlinear
coefficient |u|^(delta-1) is evaluated pointwise at the plain-rule points (a
controlled variational crime, see README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import weighted_gram
from .hpspace import DiscreteField, HpSpace, _local_mass_diag, basis_matrices, basis_matrix
from .mesh import BOUNDARY
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
    return 0.5 * (b + b.T)


def _csr_from_blocks(space: HpSpace, blocks, what: str) -> sp.csr_matrix:
    """Scatter symmetrized element-local blocks into an N x N CSR matrix.

    ``blocks`` yields ``(eids, block)``: the block couples the local dofs of
    the elements ``eids``, concatenated in that order.  Duplicate entries are
    summed in the order the blocks come.
    """
    rows, cols, data = [], [], []
    for eids, block in blocks:
        gd = np.concatenate([space.offsets[e] + np.arange(space.ndofs_el[e]) for e in eids])
        rows.append(np.repeat(gd, len(gd)))
        cols.append(np.tile(gd, len(gd)))
        data.append(_sym(block).ravel())
    a = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.N, space.N),
    ).tocsr()
    if not np.isfinite(a.data).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


class SipAssembler:
    """Caches per-element tables so repeated nonlinear assemblies are cheap."""

    def __init__(self, space: HpSpace, potential: Potential, penalty: PenaltyConfig):
        self.space = space
        self.potential = potential
        self.penalty = penalty
        self._el_phi = {}  # eid -> (phi, weights) of the plain volume rule
        self._mass = None
        self._sip = None

    # -- volume tables -----------------------------------------------------

    def _plain_tables(self, eid: int):
        if eid not in self._el_phi:
            e = self.space.mesh.elements[eid]
            p = int(self.space.degrees[eid])
            rule = element_rule(e, p + 4)
            phi = basis_matrix(e, p, rule.points)
            self._el_phi[eid] = (phi, rule.weights)
        return self._el_phi[eid]

    # -- matrices ------------------------------------------------------------

    def mass(self) -> sp.csr_matrix:
        if self._mass is None:
            sp_ = self.space
            diag = np.empty(sp_.N)
            for e in sp_.mesh.elements:
                p = int(sp_.degrees[e.id])
                diag[sp_.local_slice(e.id)] = _local_mass_diag(e, p, sp_.mesh.d)
            self._mass = sp.diags(diag, format="csr")
        return self._mass

    def sip(self) -> sp.csr_matrix:
        if self._sip is None:
            self._sip = _csr_from_blocks(self.space, self._sip_blocks(),
                                         "assembled SIP matrix")
        return self._sip

    def _sip_blocks(self):
        """Element blocks by element id, then face blocks by face id."""
        space, pot, pen = self.space, self.potential, self.penalty
        mesh = space.mesh
        for eid in range(mesh.n_elements):
            e = mesh.elements[eid]
            p = int(space.degrees[eid])
            rule = element_rule(e, p + 4)
            phi, grads = basis_matrices(e, p, rule.points)
            self._el_phi.setdefault(eid, (phi, rule.weights))  # for the nonlinear mass
            block = np.zeros((phi.shape[1],) * 2)
            for g in grads:
                block += weighted_gram(g, rule.weights)
            if pot.alpha is not None:
                if e.touches_c:
                    rule = volume_rule(e, p, singular=True)
                    phi = basis_matrix(e, p, rule.points)
                block += weighted_gram(phi, rule.weights * pot(rule.points))
            yield (e.id,), block

        for f in sorted(mesh.faces, key=lambda fc: fc.id):
            p_e = space.face_degree(f)
            gamma = pen.alpha0 * p_e**2 / f.h_e
            rule = face_rule(f, p_e + 4)
            pts, w = rule.points, rule.weights
            if f.kind == BOUNDARY:
                eid = f.owners[0]
                e = mesh.elements[eid]
                phi, grads = basis_matrices(e, int(space.degrees[eid]), pts)
                dn = f.sign * grads[f.axis]
                c = (dn * w[:, None]).T @ phi
                yield (eid,), -c - c.T + weighted_gram(phi, gamma * w)
            else:
                ea, eb = (mesh.elements[i] for i in f.owners)
                phi_a, gr_a = basis_matrices(ea, int(space.degrees[ea.id]), pts)
                phi_b, gr_b = basis_matrices(eb, int(space.degrees[eb.id]), pts)
                jmp = np.hstack([phi_a, -phi_b])
                dn = 0.5 * np.hstack([gr_a[f.axis], gr_b[f.axis]])
                c = (dn * w[:, None]).T @ jmp
                yield (ea.id, eb.id), -c - c.T + weighted_gram(jmp, gamma * w)

    def nonlinear_mass(self, u: DiscreteField, delta: int,
                       scale: float = 1.0) -> sp.csr_matrix:
        if delta not in NONLINEAR_EXPONENTS:
            raise ValueError(f"delta must be one of {NONLINEAR_EXPONENTS}, got {delta}")
        space = self.space
        if u.space is not space:
            raise ValueError("state field does not belong to the assembler's space")

        def blocks():
            for eid in range(space.mesh.n_elements):
                phi, w = self._plain_tables(eid)
                coef = scale * np.abs(phi @ u.local(eid)) ** (delta - 1)
                yield (eid,), weighted_gram(phi, w * coef)

        return _csr_from_blocks(space, blocks(), "nonlinear mass matrix")


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


def dump_matrix(a: sp.spmatrix, stream) -> None:
    """Coordinate text dump of the symmetric lower triangle: 'i j value'."""
    low = sp.tril(a).tocoo()
    order = np.lexsort((low.col, low.row))
    for i, j, v in zip(low.row[order], low.col[order], low.data[order]):
        stream.write(f"{i} {j} {float(v)!r}\n")
