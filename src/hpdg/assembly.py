"""Assembly of the SIP dG operator, mass matrix and nonlinear mass matrix.

All matrices are scipy CSR in canonical format, symmetric by construction.
Contributions are accumulated in a fixed order (the element blocks, then the
face groups in a fixed order, faces by id inside each), so the assembled
matrices are bitwise reproducible.

Volume and face terms use the plain rule, :func:`hpdg.quadrature.plain_order`
Gauss points per axis.  On elements touching the singular point the potential
term is integrated with the composite graded rule of
:func:`hpdg.quadrature.singular_rule`; gradient and mass terms are polynomial
and therefore already exact with the plain rule.  V = sign * r^(-alpha) is
homogeneous and the modal basis does not change with the element's size, so
a corner element with longest edge h has the potential block h^(d - alpha) G,
G the Gram of its box scaled by 1/h; G is integrated once per process and
per (scaled box, degree, potential), by sum factorization on the composite
rule's per-box tensor grids, and cached read-only.  The nonlinear
coefficient |u|^(delta-1) is evaluated pointwise at the plain-rule points (a
controlled variational crime, see README).  The mesh is arrays, so the
per-element blocks are batched per degree, the gradient blocks as scaled
reference Grams.  The face blocks are batched per pair of owner degrees, each
one a Kronecker product of d small matrices, one per axis: a trace matrix on
the normal axis and a 1D Gram of the owners' Legendre polynomials on each
tangential one, the diagonal 1D mass matrix where the face's interval is both
owners' own (see :meth:`SipAssembler._face_blocks`).  Those Grams' orthogonal
entries are exact zeros, and A_sip stores them: its pattern is its element
graph, whatever the values.  A_sip is that CSR, zero at first and filled
as the blocks are built: no list of blocks is kept.  N(u) is block-diagonal,
and its blocks are returned per degree group with the positions of the
matching blocks of A_sip's data, so A_sip + N(u) can be written in place;
:meth:`SipAssembler.nonlinear_mass` lays them out as a CSR of their own.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._kernels import legendre_table
from .hpspace import DiscreteField, HpSpace, _local_mass_diag, basis_matrix, reference_table
from .quadrature import _box_grid, plain_order, volume_rule

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


@functools.lru_cache(maxsize=None)
def _corner_gram(lo: tuple, lengths: tuple, p: int, potential: Potential) -> np.ndarray:
    """The potential Gram of the degree-p basis on the corner box
    lo + [0, lengths], integrated with :func:`hpdg.quadrature.volume_rule`
    by sum factorization; cached read-only, like
    :func:`hpdg.quadrature._unit_singular_rule`.

    The rule is B tensor grids of n points per axis, and the basis is a
    tensor product, so G[I, J] = sum_b sum_q w_bq V_bq prod_m T_m[b, q_m, i_m]
    T_m[b, q_m, j_m], T_m the (B, n, p+1) table of axis m.  The sum is taken
    axis by axis: the last axis per box first, then axis 0 together with the
    sum over the boxes, in (i_0 j_0, i_1 j_1, ...) order, and reordered to
    (I, J) at the end.  No (points, (p+1)^d) table is formed.
    """
    lo, lengths = np.array(lo), np.array(lengths)
    rule = volume_rule(lo, lengths, p)
    axes, d, k = rule.axes, len(lo), p + 1
    (nb, n), w = axes[0].shape, rule.grid_weights
    r2 = axes[0] * axes[0]
    pairs = []  # per axis, T_m[b, q, i] T_m[b, q, j] as (B, n, k^2)
    for m, x in enumerate(axes):
        if m:
            r2 = r2[..., None] + (x * x).reshape(nb, *(1,) * m, n)
        t = basis_matrix(lo[m:m + 1], lengths[m:m + 1], p, x.reshape(-1, 1)).reshape(nb, n, k)
        pairs.append((t[..., :, None] * t[..., None, :]).reshape(nb, n, k * k))
    g = (w * potential.radial(r2).reshape(nb, -1)).reshape(nb, -1, n) @ pairs[-1]
    for m in range(d - 2, 0, -1):  # (B, n^(m+1), K) -> (B, n^m, k^2 K)
        g = np.matmul(np.swapaxes(pairs[m], 1, 2)[:, None], g.reshape(nb, -1, n, g.shape[-1]))
        g = g.reshape(nb, n**m, -1)
    g = pairs[0].reshape(-1, k * k).T @ g.reshape(nb * n, -1)
    gram = g.reshape((k, k) * d).transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2))
    gram = gram.reshape(k**d, k**d)
    gram.flags.writeable = False
    return gram


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


def _grams(phi: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """phi^T diag(wq[k]) phi for every row k of ``wq``, as one batched matmul."""
    return np.matmul(phi.T * wq[:, None, :], phi)


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
    the unit-size corner Grams are kept, in a cache shared by the process.

    An element of degree p with lengths L has the gradient block
    sum_m prod(L / 2) (2 / L_m)^2 G_m, G_m the axis-m reference gradient Gram
    of :func:`hpdg.hpspace.reference_table`: one ``einsum`` per degree
    group.  Its potential and |u|^(delta-1) Grams are one batched matmul per
    degree group on the basis table there.  A corner element's potential
    block is h^(d - alpha) times :func:`_corner_gram` of its box scaled by
    1/h, h its longest edge: the Gram integrated on the tensor grids of the
    composite rule of :func:`hpdg.quadrature.volume_rule` by sum
    factorization, from one (boxes, points, p+1) table per axis, never a
    (points, (p+1)^d) one; the rule reflects the graded rule onto whichever
    of the box's vertices is the origin.  The Gram is keyed on the scaled
    box (lo / h, lengths / h), the degree and the potential.  On a graded mesh
    the corner is the cube (0, h)^d at every level, so a study integrates it
    once per corner degree.  Every face gets its own block, a Kronecker
    product of one small matrix per axis (:meth:`_face_blocks`); the faces
    are batched per pair of owner degrees across all normal axes, and no
    (points, (p+1)^d) table is formed.  ``sip()`` starts from the zero CSR
    of the element graph (:func:`_element_graph`) and fills it as the blocks
    are built: it records in ``slots`` where each element's diagonal block
    (a, a) lies in the data, writes each degree group's element blocks there
    in one assignment, then adds each face group's quarters, face by face,
    into the views of the data, one (nd[a], nd[b]) view per coupled pair of
    elements (a, b), the columns of b in a's rows.  The pattern is the
    element graph, so A_sip stores its exact zeros, the orthogonal entries
    of the face blocks among them.  ``nonlinear_blocks()`` gives the
    blocks of N(u) per degree group, in the order of ``slots``: N(u)'s pattern
    lies inside A_sip's, so the SCF loop adds them into A_sip's own data.
    ``nonlinear_mass()`` writes them into a block-diagonal CSR: element e's
    block, row-major, where the CSR row of its first dof starts.  ``sip()``,
    ``mass()`` and ``nonlinear_blocks()`` count each integral
    ``mesh.copies`` times, once per mirror image of the mesh in the cube.
    With no potential (``alpha=None``) no potential Gram is formed, on the
    plain rule or at the corner.
    """

    def __init__(self, space: HpSpace, potential: Potential, penalty: PenaltyConfig):
        self.space = space
        self.potential = potential
        self.penalty = penalty
        # per degree: p, element ids, plain-rule weights (k, nq), shared table, dofs (k, n)
        self._groups = []
        for p in np.unique(space.degrees).tolist():
            ids = np.flatnonzero(space.degrees == p)
            _, ref_w, phi, _ = reference_table(p, space.mesh.d)
            w = ref_w * np.prod(space.mesh.lengths[ids][:, None, :] / 2.0, axis=2)
            cols = space.offsets[ids][:, None] + np.arange(phi.shape[1])
            self._groups.append((p, ids, w, phi, cols))

    def mass(self) -> sp.csr_matrix:
        diag = np.empty(self.space.N)
        for p, ids, _, _, cols in self._groups:
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
                      + np.arange(cols.shape[1]) for _, ids, _, _, cols in self._groups]
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
        for p, ids, w, phi, _ in self._groups:
            pts, _, _, grams = reference_table(p, mesh.d)
            half = mesh.lengths[ids] / 2.0
            grad = np.einsum("km,mij->kij", np.prod(half, axis=1)[:, None] / half**2, grams)
            block = grad
            if pot.alpha is not None:  # V = 0 adds nothing: no potential Grams
                vq = pot((mesh.lo[ids][:, None, :] + pts * half[:, None, :])
                         .reshape(-1, mesh.d)).reshape(w.shape)
                block = grad + _grams(phi, w * vq)
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

        The basis is a tensor product and the face an axis-parallel box, so
        the (s, t) quarter of a face block, s and t its owners, is the
        Kronecker product of d matrices, one per axis, first axis slowest.
        On the normal axis it is the trace matrix
        gamma j_s j_t^T - (n_s j_t^T + j_s n_t^T): j the owner's Legendre
        values at the face plane, negated for the plus-side owner, n its
        normal derivatives, halved on an interior face and signed on a
        boundary one.  On each tangential axis it is the Gram of the two
        owners' Legendre polynomials on the face's interval.  Where that
        interval is both owners' own, compared exactly, the Legendre
        polynomials are orthogonal on it and the Gram is the diagonal 1D mass
        matrix, as :meth:`mass` computes it; elsewhere it is integrated with
        the :func:`hpdg.quadrature.plain_order` Gauss rule of p_e.  The
        (b, a) quarter is the transpose of ``ab``, and the factors of the
        diagonal quarters are symmetric, so every face block is bitwise
        symmetric.  No (points, (p+1)^d) table is formed.
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
        scale = scale * self.space.mesh.copies
        blocks = [_sym(_grams(phi, w * (scale * np.abs(u.coeffs[cols] @ phi.T) ** (delta - 1))))
                  for _, _, w, phi, cols in self._groups]
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
        for (_, _, _, phi, cols), g in zip(self._groups, self.nonlinear_blocks(u, delta, scale)):
            pos = indptr[cols][..., None] + np.arange(phi.shape[1])  # (k, n, n): row-major blocks
            data[pos], indices[pos] = g, cols[:, None, :]
        return sp.csr_matrix((data, indices, indptr.astype(itype)), shape=(space.N, space.N))


def assemble_mass(space: HpSpace) -> sp.csr_matrix:
    """dG mass matrix (diagonal for the modal Legendre basis)."""
    return SipAssembler(space, Potential(None), PenaltyConfig()).mass()
