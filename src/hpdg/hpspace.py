"""hp degree distribution, dG dof maps, and field evaluation on element grids.

Per-element degrees follow the linear slope rule
p_K = p0 + floor(s * (ell - j) + 1/2) for an element in layer j (rounded half
up), so the innermost layer carries p0 and degrees grow toward the boundary.
Local bases are tensor products of Legendre polynomials; dofs are laid out
contiguously per element, in element-id order.  Fields are evaluated and
injected on tensor grids of per-axis coordinates, the grouped rules of
:mod:`hpdg.quadrature`: one dense basis table per degree group, one batched
matmul, with every entry computed as :func:`basis_matrix` computes it at that
point.  The Grams of :mod:`hpdg.assembly` need no such table.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from ._kernels import legendre_l2_norms_sq, legendre_table
from .quadrature import element_rules, plain_order


@dataclass
class HpSpace:
    mesh: meshmod.GradedMesh
    p0: int
    slope: float
    degrees: np.ndarray  # (n_elements,)
    offsets: np.ndarray  # (n_elements,)
    ndofs_el: np.ndarray  # (n_elements,)
    N: int

    @property
    def face_degree(self) -> np.ndarray:
        """p_e = max of the adjacent element degrees, one entry per face."""
        owners = self.mesh.faces.owners
        return np.where(owners >= 0, self.degrees[owners], 0).max(axis=1)


@functools.lru_cache(maxsize=None)
def _modes(p: int, d: int) -> np.ndarray:
    """Tensor mode multi-indices of degree p, C-ordered, (n, d), shared and read-only."""
    modes = np.indices((p + 1,) * d).reshape(d, -1).T.copy()
    modes.flags.writeable = False
    return modes


def build_space(mesh: meshmod.GradedMesh, p0: int, slope: float) -> HpSpace:
    """Assign layer-based degrees and build the dG dof map."""
    if (isinstance(p0, bool) or not isinstance(p0, numbers.Real)
            or not (p0 >= 1 and float(p0).is_integer())):
        raise ValueError(f"p0 must be an integer >= 1, got {p0!r}")
    if isinstance(slope, bool) or not isinstance(slope, numbers.Real) or not (0 <= slope < np.inf):
        raise ValueError(f"slope must be finite and >= 0, got {slope!r}")
    degs = int(p0) + np.floor(slope * (mesh.ell - mesh.layer) + 0.5).astype(np.int64)
    ndofs = (degs + 1) ** mesh.d
    offsets = np.concatenate([[0], np.cumsum(ndofs)[:-1]])
    return HpSpace(mesh, int(p0), float(slope), degs, offsets, ndofs, int(ndofs.sum()))


@dataclass
class DiscreteField:
    space: HpSpace
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.space.N,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, space has N={self.space.N}"
            )


def constant_field(space: HpSpace, value: float = 1.0) -> DiscreteField:
    """The field identically equal to ``value`` (only P_0 modes active)."""
    c = np.zeros(space.N)
    c[space.offsets] = value
    return DiscreteField(space, c)


class MeshNestingError(ValueError):
    pass


def containing_map(coarse_mesh: meshmod.GradedMesh, fine_mesh: meshmod.GradedMesh) -> np.ndarray:
    """fine element id -> the coarse element id whose box contains it, its
    corners compared exactly; raises if the meshes do not nest."""
    if coarse_mesh.d != fine_mesh.d:
        raise ValueError(f"cannot nest a {fine_mesh.d}D mesh in a {coarse_mesh.d}D mesh")
    inside = np.all((coarse_mesh.lo <= fine_mesh.lo[:, None, :])
                    & (fine_mesh.hi[:, None, :] <= coarse_mesh.hi), axis=2)
    out = np.argmax(inside, axis=1)
    bad = ~inside.any(axis=1)
    if bad.any():
        raise MeshNestingError(f"fine element {np.argmax(bad)} is not contained in any coarse element")
    return out


def _basis_tables(lo, lengths, p: int, axes, derivs=()):
    """The (p+1)^d tensor-Legendre basis of the boxes lo + [0, lengths] (E, d)
    on the tensor grids of per-axis physical coordinates ``axes[m]`` (E, n_m),
    first axis slowest: values (E, nq, nd) and the physical-derivative tables
    along the axes ``derivs``, the only axes whose derivatives are computed.
    Every entry is the same product of per-axis Legendre values,
    (t_0 * t_1) * t_2, whatever the grid."""
    vals, ders = [], {}
    for m, x in enumerate(axes):
        v, dv = legendre_table((2.0 * (x - lo[:, m, None]) / lengths[:, m, None] - 1.0).ravel(), p,
                               m in derivs)
        vals.append(v.reshape(*x.shape, p + 1))
        if dv is not None:
            ders[m] = dv.reshape(*x.shape, p + 1) * (2.0 / lengths[:, m, None, None])

    def product(tabs):
        return functools.reduce(lambda a, t: (a[:, :, None, :, None] * t[:, None, :, None, :])
                                .reshape(len(t), -1, a.shape[2] * t.shape[2]), tabs)

    return product(vals), [product(vals[:m] + [ders[m]] + vals[m + 1:]) for m in derivs]


def basis_matrix(lo, lengths, p: int, pts: np.ndarray):
    """Values of the (p+1)^d tensor-Legendre basis of the box lo + [0, lengths]
    at physical points pts, each point a one-node grid of :func:`_basis_tables`."""
    return _basis_tables(lo[None], lengths[None], p, list(pts.T[:, :, None]))[0][:, 0]


def basis_matrices(lo, lengths, p: int, pts: np.ndarray):
    """Values and physical-gradient tables of the tensor basis of the box
    lo + [0, lengths] at pts.

    Returns (phi, grads) with phi of shape (npts, ndof) and grads a list of d
    arrays of the same shape (derivative along each physical axis).
    """
    phi, grads = _basis_tables(lo[None], lengths[None], p, list(pts.T[:, :, None]), range(len(lo)))
    return phi[:, 0], [g[:, 0] for g in grads]


def evaluate_grid(field: DiscreteField, eids, axes, grads=False):
    """``field`` in the elements ``eids`` on per-element tensor grids of
    per-axis coordinates ``axes[m]`` (E, n_m), first axis slowest: values
    (E, nq) and, with ``grads``, physical gradients (d, E, nq), else None.
    Each value is bitwise the element's :func:`basis_matrix` at that point
    times its coefficients: one :func:`_basis_tables` and one batched matmul
    per degree."""
    space = field.space
    return _evaluate(space.mesh.lo, space.mesh.lengths, space.degrees, space.offsets,
                     field.coeffs, eids, axes, grads)


def _evaluate(lo, lengths, degrees, offsets, coeffs, eids, axes, grads=False):
    """:func:`evaluate_grid` on the element arrays of a space and the
    coefficients of a field, or of several spaces and fields stacked, with
    each space's offsets shifted past the coefficients before it."""
    eids = np.asarray(eids)
    shape = (len(eids), math.prod(x.shape[1] for x in axes))
    vals = np.empty(shape)
    dvals = np.empty((len(axes),) + shape) if grads else None
    degs = degrees[eids]
    for p in np.unique(degs).tolist():
        rows = np.flatnonzero(degs == p)
        el = eids[rows]
        phi, dphi = _basis_tables(lo[el], lengths[el], p, [x[rows] for x in axes],
                                  range(len(axes)) if grads else ())
        c = coeffs[offsets[el][:, None] + np.arange(phi.shape[2])][..., None]
        vals[rows] = np.matmul(phi, c)[..., 0]
        for m, g in enumerate(dphi):
            dvals[m, rows] = np.matmul(g, c)[..., 0]
    return vals, dvals


def _local_mass_diag(lengths: np.ndarray, p: int) -> np.ndarray:
    """Diagonal of the modal tensor-Legendre mass matrix on the elements with
    edge lengths (d,) or (k, d)."""
    norms, modes = legendre_l2_norms_sq(p), _modes(p, lengths.shape[-1])
    diag = np.ones(lengths.shape[:-1] + modes.shape[:1])
    for m, k in enumerate(modes.T):
        diag *= norms[k] * (lengths[..., m, None] / 2.0)
    return diag


def inject(field: DiscreteField, fine_space: HpSpace) -> DiscreteField:
    """Represent a field on a finer nested space by element-local L2
    projection on the plain tensor Gauss rule.

    Exact whenever each fine element is contained in a coarse element of
    degree at most the fine one (the situation along a refinement chain).
    """
    mesh = fine_space.mesh
    cmap = containing_map(field.space.mesh, mesh)  # raises if they do not nest
    coeffs = np.zeros(fine_space.N)
    for ids, axes, weights in element_rules(mesh.lo, mesh.lengths,
                                             plain_order(fine_space.degrees)):
        p = int(fine_space.degrees[ids[0]])  # one degree per number of points
        wv = (weights * evaluate_grid(field, cmap[ids], axes)[0])[..., None]
        phi = _basis_tables(mesh.lo[ids], mesh.lengths[ids], p, axes)[0]
        cols = fine_space.offsets[ids][:, None] + np.arange(phi.shape[2])
        rhs = np.matmul(phi.transpose(0, 2, 1), wv)[..., 0]
        coeffs[cols] = rhs / _local_mass_diag(mesh.lengths[ids], p)
    return DiscreteField(fine_space, coeffs)
