"""Assembly of the SIP dG operator, mass matrix and nonlinear mass matrix.

All matrices are scipy CSR in canonical format, symmetric by construction.
Contributions are accumulated in a fixed order (the element blocks, then the
face groups in a fixed order, faces by id inside each), so the assembled
matrices are bitwise reproducible.

The basis is a tensor product and every rule a union of tensor grids, so
every weighted Gram on an element is one kernel, :func:`_tensor_gram`, which
sums over the points one axis at a time (sum factorization).  Volume terms
use the plain rule, :func:`hpdg.quadrature.plain_order` Gauss points per
axis; the gradient Grams are exact Kronecker products, from no rule.  On the
elements touching the singular point the potential is integrated with the
composite graded rule of :func:`hpdg.quadrature.volume_rule`.  V = sign *
r^(-alpha) is homogeneous, so a corner element with longest edge h has the
potential block h^(d - alpha) G, G the Gram of its box scaled by 1/h, cached
read-only per (scaled box, degree, potential).  The nonlinear coefficient
|u|^(delta-1) is evaluated pointwise at the plain-rule points (a controlled
variational crime, see README).  Each face block is a Kronecker product of d
small matrices, one per axis (:meth:`SipAssembler._face_blocks`).  The
orthogonal entries of these Grams are exact zeros, and A_sip stores them: its
pattern is its element graph, filled as the blocks are built.  N(u) is
block-diagonal; its blocks come per degree group with the positions of the
matching blocks of A_sip's data, so A_sip + N(u) can be written in place.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import legendre_l2_norms_sq, legendre_table
from .hpspace import DiscreteField, HpSpace, _local_mass_diag, basis_matrix
from .quadrature import _box_grid, gauss_rule, plain_order, volume_rule

NONLINEAR_EXPONENTS = (2, 3, 4)


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number, a bool not counted as one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and np.isfinite(value)


@dataclass(frozen=True)
class Potential:
    """V(x) = sign * r^(-alpha) with r the distance to the origin.

    ``alpha=None`` disables the potential entirely.  The default sign is the
    attractive one.
    """

    alpha: float | None = None
    sign: float = -1.0

    def __post_init__(self):
        if self.alpha is not None and not _finite_real(self.alpha):
            raise ValueError(f"potential exponent alpha must be a finite number or None, "
                             f"got {self.alpha!r}")
        if not _finite_real(self.sign):
            raise ValueError(f"potential sign must be a finite number, got {self.sign!r}")
        if self.alpha is not None and self.alpha >= 2:
            raise ValueError(
                f"potential exponent must satisfy alpha < 2, got {self.alpha}"
            )

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.radial(np.sum(pts * pts, axis=1))

    def radial(self, r2: np.ndarray) -> np.ndarray:
        """V at the points of squared distance ``r2`` from the origin."""
        if self.alpha is None:
            return np.zeros(r2.shape)
        return self.sign * np.sqrt(r2) ** (-self.alpha)


def _on_grid(potential: Potential, axes) -> np.ndarray:
    """V on B tensor grids of per-axis coordinates ``axes[m]`` (B, n), as (B, n^d)."""
    nb, n = axes[0].shape
    r2 = axes[0] * axes[0]
    for m, x in enumerate(axes[1:], 1):
        r2 = r2[..., None] + (x * x).reshape(nb, *(1,) * m, n)
    return potential.radial(r2).reshape(nb, -1)


def _pairs(t: np.ndarray) -> np.ndarray:
    """The products t[..., q, i] t[..., q, j] of a (..., n, k) table, as (..., n, k^2)."""
    return (t[..., :, None] * t[..., None, :]).reshape(*t.shape[:-1], -1)


def _tensor_gram(pairs, w: np.ndarray, total: bool = False) -> np.ndarray:
    """The Grams G_b[I, J] = sum_q w[b, q] prod_m T_m[q_m, i_m] T_m[q_m, j_m]
    on B tensor grids of n points per axis, first axis slowest, summed one
    axis at a time (sum factorization), the last axis per grid first:
    ``pairs[m]`` is :func:`_pairs` of axis m's table, (B, n, k^2) or shared
    (n, k^2), and ``w`` (B, n^d) the weights times the integrand.  Returns
    the (B, k^d, k^d) Grams in the mode order of
    :func:`hpdg.hpspace.basis_matrix`, or with ``total`` (per-grid pairs)
    their sum, taken together with the sum over axis 0."""
    d, nb = len(pairs), len(w)
    n, kk = pairs[0].shape[-2:]
    g = w.reshape(nb, -1, n) @ pairs[-1]
    for m in range(d - 2, 0, -1):  # (B, n^(m+1), K) -> (B, n^m, k^2 K)
        g = np.matmul(np.swapaxes(pairs[m], -1, -2)[..., None, :, :],
                      g.reshape(nb, -1, n, g.shape[-1]))
        g = g.reshape(nb, n**m, -1)
    if total:
        g = pairs[0].reshape(-1, kk).T @ g.reshape(nb * n, -1)
    else:
        g = np.swapaxes(pairs[0], -1, -2) @ g.reshape(nb, n, -1)
    k = math.isqrt(kk)
    gram = g.reshape(-1, *(k, k) * d).transpose(0, *range(1, 2 * d, 2), *range(2, 2 * d + 1, 2))
    gram = gram.reshape(-1, k**d, k**d)
    return gram[0] if total else gram


@functools.lru_cache(maxsize=None)
def _corner_gram(lo: tuple, lengths: tuple, p: int, potential: Potential) -> np.ndarray:
    """The potential Gram of the degree-p basis on the corner box
    lo + [0, lengths]: :func:`_tensor_gram` summed over the B grids of
    :func:`hpdg.quadrature.volume_rule`, from one (B, n, p+1) table per
    axis; cached read-only."""
    lo, lengths = np.array(lo), np.array(lengths)
    rule = volume_rule(lo, lengths, p)
    nb, n = rule.axes[0].shape
    pairs = [_pairs(basis_matrix(lo[m:m + 1], lengths[m:m + 1], p, x.reshape(-1, 1))
                    .reshape(nb, n, p + 1)) for m, x in enumerate(rule.axes)]
    gram = _tensor_gram(pairs, rule.grid_weights * _on_grid(potential, rule.axes), total=True)
    gram.flags.writeable = False
    return gram


@functools.lru_cache(maxsize=None)
def _plain_tables(p: int, d: int):
    """What the degree-p elements in d dimensions share, read-only: the
    :func:`_pairs` (n, (p+1)^2) of the Legendre table at the n =
    plain_order(p) Gauss nodes; the basis there, (n^d, (p+1)^d) in the order
    of :func:`hpdg.hpspace.basis_matrix`; and the d gradient Grams on
    [-1, 1]^d, G_m the Kronecker product of the 1D stiffness
    int P_i' P_j' = min(i, j) (min(i, j) + 1) (i + j even, else 0) on axis m
    and the diagonal 1D mass on the others."""
    v = legendre_table(gauss_rule(plain_order(p)).points, p, False)[0]
    i = np.arange(p + 1)
    low = np.minimum.outer(i, i)
    stiff = np.where((i[:, None] + i) % 2 == 0, low * (low + 1), 0).astype(float)
    mass = np.diag(legendre_l2_norms_sq(p))
    grams = np.stack([functools.reduce(np.kron, [stiff if a == m else mass for a in range(d)])
                      for m in range(d)])
    tables = _pairs(v), functools.reduce(np.kron, [v] * d), grams
    for a in tables:
        a.flags.writeable = False
    return tables


@dataclass(frozen=True)
class PenaltyConfig:
    """Uniform face penalty constant: the face weight is alpha0 * p_e^2 / h_e."""

    alpha0: float = 10.0

    def __post_init__(self):
        if not (_finite_real(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"penalty constant alpha0 must be a finite positive number, "
                             f"got {self.alpha0!r}")


def _sym(b: np.ndarray) -> np.ndarray:
    return 0.5 * (b + np.swapaxes(b, -1, -2))


def _element_graph(space: HpSpace):
    """The N x N CSR of zeros on the element graph: the rows of element a
    hold the dofs of a and of its face neighbours, in id order.  Also returns,
    per coupled pair (a, b), the (nd[a], nd[b]) view of its data that holds
    the columns of b in a's rows, and per element a the column in a's rows
    where its diagonal block (a, a) begins."""
    mesh, nd, off = space.mesh, space.ndofs_el, space.offsets
    n_el = mesh.n_elements
    # Coupled pairs (a, b), sorted: a row of element a holds the dofs of its b in id order.
    inner = mesh.faces.owners[mesh.faces.interior]
    pairs = np.unique(np.vstack([np.repeat(np.arange(n_el), 2).reshape(-1, 2),
                                 inner, inner[:, ::-1]]), axis=0)
    cum = np.concatenate([[0], np.cumsum(nd[pairs[:, 1]])])
    bounds = np.searchsorted(pairs[:, 0], np.arange(n_el + 1))  # a's pairs: bounds[a]:bounds[a + 1]
    row_len = np.diff(cum[bounds])
    indptr = np.concatenate([[0], np.cumsum(np.repeat(row_len, nd))])
    itype = np.int32 if indptr[-1] < 2**31 else np.int64
    cols = np.repeat(off[pairs[:, 1]] - cum[:-1], np.diff(cum)) + np.arange(cum[-1])
    a = sp.csr_matrix((np.zeros(indptr[-1]), np.empty(indptr[-1], dtype=itype),
                       indptr.astype(itype)), shape=(space.N, space.N))
    rows = []  # element e's rows of data, (nd[e], row_len[e])
    for e in range(n_el):
        span = slice(indptr[off[e]], indptr[off[e] + nd[e]])
        a.indices[span].reshape(nd[e], -1)[:] = cols[cum[bounds[e]]:cum[bounds[e + 1]]]
        rows.append(a.data[span].reshape(nd[e], -1))
    col = cum[:-1] - cum[bounds[pairs[:, 0]]]  # where b begins in a row of a
    view = {(s, t): rows[s][:, c:c + nd[t]] for (s, t), c in zip(pairs.tolist(), col.tolist())}
    return a, view, col[pairs[:, 0] == pairs[:, 1]]


class SipAssembler:
    """Builds A_sip, M and N(u) from reference data, anew on every call; only
    the corner Grams and the tables of :func:`_plain_tables` are kept, in
    read-only caches shared by the process.

    An element of degree p with lengths L has the gradient block
    sum_m prod(L / 2) (2 / L_m)^2 G_m, G_m the exact reference gradient Grams
    of :func:`_plain_tables`: one ``einsum`` per degree group.  Its potential
    and |u|^(delta-1) Grams are one :func:`_tensor_gram` per degree group on
    the shared per-axis table, the weights those of the group's
    :func:`hpdg.quadrature._box_grid` times V or |u|^(delta-1) there; u at
    the points is one matmul with the shared value table.  A corner element's
    potential block is h^(d - alpha) times :func:`_corner_gram` of its box
    scaled by 1/h, keyed on (lo / h, lengths / h), the degree and the
    potential; on a graded mesh the corner is (0, h)^d at every level, so a
    study integrates it once per corner degree.  Every face gets its own
    block (:meth:`_face_blocks`).  ``sip()`` starts from the zero CSR of the
    element graph (:func:`_element_graph`) and fills it as the blocks are
    built: it records in ``slots`` where each element's diagonal block lies
    in the data, writes each degree group's element blocks there in one
    assignment, then adds each face group's quarters, face by face, into the
    (nd[a], nd[b]) views of the data of the coupled pairs (a, b).
    ``nonlinear_blocks()`` gives the blocks of N(u) per degree group, in the
    order of ``slots``, which the SCF loop adds into A_sip's own data;
    ``nonlinear_mass()`` writes them into a block-diagonal CSR of their own.
    ``sip()``, ``mass()`` and ``nonlinear_blocks()`` count each integral
    ``mesh.copies`` times, once per mirror image of the mesh in the cube.
    With no potential (``alpha=None``) no potential Gram is formed.
    """

    def __init__(self, space: HpSpace, potential: Potential, penalty: PenaltyConfig):
        self.space = space
        self.potential = potential
        self.penalty = penalty
        self._groups = []  # per degree: p, element ids, dofs (k, n)
        for p in np.unique(space.degrees).tolist():
            ids = np.flatnonzero(space.degrees == p)
            cols = space.offsets[ids][:, None] + np.arange((p + 1) ** space.mesh.d)
            self._groups.append((p, ids, cols))

    @functools.cached_property
    def _grids(self) -> list:  # per degree group, its elements' plain-rule grids
        lo, lengths = self.space.mesh.lo, self.space.mesh.lengths
        return [_box_grid(lo[ids], lengths[ids], plain_order(p)) for p, ids, _ in self._groups]

    def mass(self) -> sp.csr_matrix:
        diag = np.empty(self.space.N)
        for p, ids, cols in self._groups:
            diag[cols] = _local_mass_diag(self.space.mesh.lengths[ids], p)
        return sp.diags(self.space.mesh.copies * diag, format="csr")

    def sip(self) -> sp.csr_matrix:
        """A_sip; also sets ``slots``: per degree group, the (k, n, n)
        positions in A_sip's data of its elements' diagonal blocks, row-major,
        where N(u) adds its blocks.  Non-finite entries (elements too small
        for float64) raise one ValueError, not numpy warnings."""
        a, view, diag = _element_graph(self.space)
        owners = self.space.mesh.faces.owners
        self.slots = [a.indptr[cols][..., None] + diag[ids][:, None, None]
                      + np.arange(cols.shape[1]) for _, ids, cols in self._groups]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for slots, blocks in zip(self.slots, self._element_blocks()):
                a.data[slots] = blocks
            for f, aa, ab, bb in self._face_blocks():
                for i, (s, t) in enumerate(owners[f].tolist()):
                    view[s, s] += aa[i]
                    if t >= 0:
                        view[s, t] += ab[i]
                        view[t, s] += ab[i].T
                        view[t, t] += bb[i]
                del aa, ab, bb  # not held while the next group is built
        if not np.isfinite(a.data).all():
            raise ValueError("assembled SIP matrix contains non-finite entries")
        a.data *= self.space.mesh.copies
        return a

    def _element_blocks(self):
        """The symmetrized element blocks of A_sip, (k, n, n) per degree
        group, in the order of ``slots``."""
        mesh, pot = self.space.mesh, self.potential
        for (p, ids, _), (axes, w) in zip(self._groups, self._grids):
            pairs, _, grams = _plain_tables(p, mesh.d)
            half = mesh.lengths[ids] / 2.0
            grad = np.einsum("km,mij->kij", np.prod(half, axis=1)[:, None] / half**2, grams)
            block = grad
            if pot.alpha is not None:  # V = 0 adds nothing: no potential Grams
                block = grad + _tensor_gram([pairs] * mesh.d, w * _on_grid(pot, axes))
                for c in np.flatnonzero(mesh.corner[ids]).tolist():
                    block[c] = grad[c] + self._corner_block(ids[c], p)
            yield _sym(block)

    def _corner_block(self, e: int, p: int) -> np.ndarray:
        lo, lengths = self.space.mesh.lo[e], self.space.mesh.lengths[e]
        h = lengths.max()
        gram = _corner_gram(tuple((lo / h).tolist()), tuple((lengths / h).tolist()), p,
                            self.potential)
        return h ** (len(lo) - (self.potential.alpha or 0)) * gram

    def _face_blocks(self):
        """The quarters of the face blocks, batched per pair of owner degrees
        across all normal axes.  Yields ``(fids, aa, ab, bb)`` per group: the
        (a, a), (a, b) and (b, b) quarters of its faces with owners (a, b),
        (F, n_a, n_a), (F, n_a, n_b) and (F, n_b, n_b); ``ab`` and ``bb`` are
        None on the boundary, where a face has one owner.

        The (s, t) quarter of a face block, s and t its owners, is the
        Kronecker product of d matrices, one per axis, first axis slowest.
        On the normal axis it is the trace matrix
        gamma j_s j_t^T - (n_s j_t^T + j_s n_t^T): j the owner's Legendre
        values at the face plane, negated for the plus-side owner, n its
        normal derivatives, halved on an interior face and signed on a
        boundary one.  On each tangential axis it is the Gram of the two
        owners' Legendre polynomials on the face's interval: where that
        interval is both owners' own, compared exactly, the diagonal 1D mass
        matrix of :meth:`mass`; elsewhere integrated with the
        :func:`hpdg.quadrature.plain_order` Gauss rule of p_e.  The (b, a)
        quarter is the transpose of ``ab``, and the factors of the diagonal
        quarters are symmetric, so every face block is bitwise symmetric.
        """
        space, mesh = self.space, self.space.mesh
        faces, d = mesh.faces, mesh.d
        degs = np.where(faces.owners >= 0, space.degrees[faces.owners], -1)
        tangential = np.array([[m for m in range(d) if m != a] for a in range(d)])
        for key in np.unique(degs, axis=0):
            f = np.flatnonzero(np.all(degs == key, axis=1))
            ps = [p for p in key.tolist() if p >= 0]
            p_e, axis, rows = max(ps), faces.axis[f], np.arange(len(f))
            tang = tangential[axis]  # (F, d-1)
            flo, flen = faces.lo[f[:, None], tang], faces.lengths[f[:, None], tang]
            (x,), w = _box_grid(flo[..., None], flen[..., None], plain_order(p_e))
            scale = 0.5 if len(ps) == 2 else faces.sign[f][:, None]
            tabs = []  # per owner: j, n (F, k), tangential values (F, d-1, nq, k), own interval
            for s, (o, p) in enumerate(zip(faces.owners[f].T, ps)):
                lo, lengths = mesh.lo[o], mesh.lengths[o]
                h = lengths[rows, axis]
                j, dj = legendre_table(2.0 * (faces.lo[f, axis] - lo[rows, axis]) / h - 1.0, p)
                lo, lengths = lo[rows[:, None], tang], lengths[rows[:, None], tang]
                xi = 2.0 * (x - lo[..., None]) / lengths[..., None] - 1.0
                v = legendre_table(xi.ravel(), p, False)[0].reshape(*x.shape, p + 1)
                tabs.append(((-1) ** s * j, scale * dj * (2.0 / h)[:, None], v,
                             (lo == flo) & (lengths == flen)))
            gamma = (self.penalty.alpha0 * p_e**2 / faces.h_e[f])[:, None, None]
            mass_diag = _local_mass_diag(flen[..., None], p_e)  # (F, d-1, p_e+1)

            def quarter(s, t):
                (js, ns, vs, own_s), (jt, nt, vt, own_t) = tabs[s], tabs[t]
                factors = np.empty((len(f), d, js.shape[1], jt.shape[1]))
                factors[rows, axis] = gamma * (js[:, :, None] * jt[:, None, :]) - (
                    ns[:, :, None] * jt[:, None, :] + js[:, :, None] * nt[:, None, :])
                gram = np.matmul(np.swapaxes(vs * w[..., None], -1, -2), vt)
                gram = _sym(gram) if s == t else gram
                fm, am = np.nonzero(own_s & own_t)  # orthogonal: the diagonal 1D mass matrix
                i = np.arange(min(gram.shape[-2:]))
                gram[fm, am] = 0.0
                gram[fm[:, None], am[:, None], i, i] = mass_diag[fm, am, :len(i)]
                factors[rows[:, None], tang] = gram
                block = factors[:, 0]
                for m in range(1, d):
                    k = factors[:, m]
                    block = (block[:, :, None, :, None] * k[:, None, :, None, :]).reshape(
                        len(f), block.shape[1] * k.shape[1], block.shape[2] * k.shape[2])
                return block

            if len(ps) == 1:
                yield f, quarter(0, 0), None, None
            else:
                yield f, quarter(0, 0), quarter(0, 1), quarter(1, 1)

    def nonlinear_blocks(self, u: DiscreteField, delta: int, scale: float = 1.0) -> list:
        """Per degree group, the (k, n, n) diagonal blocks of N(u): the
        symmetrized Grams of scale * |u|^(delta-1) at the plain-rule points."""
        if delta not in NONLINEAR_EXPONENTS:
            raise ValueError(f"delta must be one of {NONLINEAR_EXPONENTS}, got {delta}")
        if u.space is not self.space:
            raise ValueError("state field does not belong to the assembler's space")
        scale, d = scale * self.space.mesh.copies, self.space.mesh.d
        blocks = []
        for (p, _, cols), (_, w) in zip(self._groups, self._grids):
            pairs, phi, _ = _plain_tables(p, d)
            uq = u.coeffs[cols] @ phi.T
            blocks.append(_sym(_tensor_gram([pairs] * d, w * (scale * np.abs(uq) ** (delta - 1)))))
        if not all(np.isfinite(b).all() for b in blocks):
            raise ValueError("nonlinear mass matrix contains non-finite entries")
        return blocks

    def nonlinear_mass(self, u: DiscreteField, delta: int,
                       scale: float = 1.0) -> sp.csr_matrix:
        """N(u) as a block-diagonal CSR of :meth:`nonlinear_blocks`."""
        space = self.space
        nd = space.ndofs_el
        indptr = np.concatenate([[0], np.cumsum(np.repeat(nd, nd))])
        itype = np.int32 if indptr[-1] < 2**31 else np.int64
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=itype)
        for (_, _, cols), g in zip(self._groups, self.nonlinear_blocks(u, delta, scale)):
            pos = indptr[cols][..., None] + np.arange(cols.shape[1])  # (k, n, n): row-major blocks
            data[pos], indices[pos] = g, cols[:, None, :]
        return sp.csr_matrix((data, indices, indptr.astype(itype)), shape=(space.N, space.N))


def assemble_mass(space: HpSpace) -> sp.csr_matrix:
    """dG mass matrix (diagonal for the modal Legendre basis)."""
    return SipAssembler(space, Potential(None), PenaltyConfig()).mass()
