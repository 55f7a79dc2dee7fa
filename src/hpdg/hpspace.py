"""hp degree distribution, dG dof maps, point location and field evaluation.

Per-element degrees follow the linear slope rule p_K = p0 + round(s * (ell - j))
for an element in layer j, so the innermost layer carries p0 and degrees grow
toward the boundary.  Local bases are tensor products of Legendre polynomials;
dofs are laid out contiguously per element, in element-id order.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh as meshmod
from ._kernels import legendre_table, tensor_rows
from .quadrature import element_rule
from .refelem import gauss_rule, legendre_l2_norms_sq

ROUNDINGS = ("half_up", "floor", "ceil")

# Field files start with this tag and format version; version 1 was an
# untagged header that did not record the rounding mode.
FIELD_TAG = "hpdg-field"
FIELD_VERSION = 2


def _round_degree(x: float, mode: str) -> int:
    if mode == "half_up":
        return int(math.floor(x + 0.5))
    if mode == "floor":
        return int(math.floor(x))
    if mode == "ceil":
        return int(math.ceil(x))
    raise ValueError(f"unknown rounding mode {mode!r}")


@dataclass
class HpSpace:
    mesh: meshmod.GradedMesh
    p0: int
    slope: float
    rounding: str  # one of ROUNDINGS
    degrees: np.ndarray  # (n_elements,)
    offsets: np.ndarray  # (n_elements,)
    ndofs_el: np.ndarray  # (n_elements,)
    N: int

    def modes(self, eid: int) -> np.ndarray:
        """Tensor mode multi-indices of element eid, C-ordered, shape (n, d)."""
        p = int(self.degrees[eid])
        return _modes(p, self.mesh.d)

    def face_degree(self, face: meshmod.Face) -> int:
        """p_e = max of the adjacent element degrees."""
        ps = [int(self.degrees[o]) for o in face.owners if o is not None]
        return max(ps)

    def local_slice(self, eid: int) -> slice:
        off = int(self.offsets[eid])
        return slice(off, off + int(self.ndofs_el[eid]))


_MODE_CACHE: dict = {}


def _modes(p: int, d: int) -> np.ndarray:
    key = (p, d)
    if key not in _MODE_CACHE:
        grids = np.indices((p + 1,) * d)
        _MODE_CACHE[key] = grids.reshape(d, -1).T.copy()
    return _MODE_CACHE[key]


def build_space(mesh: meshmod.GradedMesh, p0: int, slope: float,
                rounding: str = "half_up") -> HpSpace:
    """Assign layer-based degrees and build the dG dof map."""
    if p0 < 1:
        raise ValueError(f"p0 must be >= 1, got {p0}")
    if slope < 0:
        raise ValueError(f"slope must be >= 0, got {slope}")
    if rounding not in ROUNDINGS:
        raise ValueError(f"rounding must be one of {ROUNDINGS}")
    degs = np.array(
        [p0 + _round_degree(slope * (mesh.ell - e.layer), rounding) for e in mesh.elements],
        dtype=np.int64,
    )
    ndofs = (degs + 1) ** mesh.d
    offsets = np.concatenate([[0], np.cumsum(ndofs)[:-1]])
    return HpSpace(mesh, int(p0), float(slope), rounding, degs, offsets, ndofs,
                   int(ndofs.sum()))


@dataclass
class DiscreteField:
    space: HpSpace
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.space.N,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, space has N={self.space.N}"
            )

    def local(self, eid: int) -> np.ndarray:
        return self.coeffs[self.space.local_slice(eid)]


def constant_field(space: HpSpace, value: float = 1.0) -> DiscreteField:
    """The field identically equal to ``value`` (only P_0 modes active)."""
    c = np.zeros(space.N)
    c[space.offsets] = value
    return DiscreteField(space, c)


def locate_point(mesh: meshmod.GradedMesh, x) -> int:
    """Element whose closed box contains x; ties go to the smaller id."""
    x = np.asarray(x, dtype=float)
    inside = np.all((mesh.el_lo - meshmod.GEOM_TOL <= x) & (x <= mesh.el_hi + meshmod.GEOM_TOL), axis=1)
    ids = np.nonzero(inside)[0]
    if ids.size == 0:
        raise ValueError(f"point {x} lies outside the mesh domain")
    return int(ids[0])


class MeshNestingError(ValueError):
    pass


def containing_map(coarse_mesh: meshmod.GradedMesh, fine_mesh: meshmod.GradedMesh) -> np.ndarray:
    """fine element id -> coarse element id; raises if the meshes do not nest."""
    out = np.empty(fine_mesh.n_elements, dtype=np.int64)
    for e in fine_mesh.elements:
        cid = locate_point(coarse_mesh, e.center)
        c = coarse_mesh.elements[cid]
        if np.any(e.lo < c.lo - 1e-12) or np.any(e.hi > c.hi + 1e-12):
            raise MeshNestingError(f"fine element {e.id} is not contained in any coarse element")
        out[e.id] = cid
    return out


def ref_coords(element: meshmod.Element, pts: np.ndarray) -> np.ndarray:
    """Map physical points into the element's [-1,1]^d reference coordinates."""
    return 2.0 * (pts - element.lo) / element.lengths - 1.0


def basis_matrix(element: meshmod.Element, p: int, pts: np.ndarray):
    """Values of the (p+1)^d tensor-Legendre basis at physical points pts."""
    xi = ref_coords(element, pts)
    tabs = [legendre_table(np.ascontiguousarray(xi[:, m]), p)[0] for m in range(xi.shape[1])]
    return tensor_rows(tabs)


def basis_matrices(element: meshmod.Element, p: int, pts: np.ndarray):
    """Values and physical-gradient tables of the tensor basis at pts.

    Returns (phi, grads) with phi of shape (npts, ndof) and grads a list of d
    arrays of the same shape (derivative along each physical axis).
    """
    xi = ref_coords(element, pts)
    d = xi.shape[1]
    vals, ders = [], []
    for m in range(d):
        v, dv = legendre_table(np.ascontiguousarray(xi[:, m]), p)
        vals.append(v)
        ders.append(dv)
    phi = tensor_rows(vals)
    grads = []
    for m in range(d):
        tabs = [ders[k] * (2.0 / element.lengths[k]) if k == m else vals[k] for k in range(d)]
        grads.append(tensor_rows(tabs))
    return phi, grads


@functools.lru_cache(maxsize=None)
def reference_table(p: int, d: int):
    """Points (nq, d), weights (nq,) and basis values (nq, (p+1)^d) of the
    n = p + 4 tensor Gauss rule on [-1, 1]^d, in the order of ``element_rule``
    and :func:`basis_matrix`: the basis of every element of degree p at its
    plain-rule points, shared and read-only."""
    g = gauss_rule(p + 4)
    pts = np.stack([x.ravel() for x in np.meshgrid(*[g.points] * d, indexing="ij")], axis=1)
    tables = (pts, functools.reduce(np.multiply.outer, [g.weights] * d).ravel(),
              functools.reduce(np.kron, [legendre_table(g.points, p)[0]] * d))
    for a in tables:
        a.flags.writeable = False
    return tables


def evaluate_in_element(field: DiscreteField, eid: int, pts: np.ndarray) -> np.ndarray:
    """Evaluate the element-local expansion of ``field`` at physical points."""
    p = int(field.space.degrees[eid])
    phi = basis_matrix(field.space.mesh.elements[eid], p, np.atleast_2d(pts))
    return phi @ field.local(eid)


def evaluate(field: DiscreteField, x) -> float:
    """Point value of the field; on faces, the smaller-id element's trace."""
    x = np.asarray(x, dtype=float)
    eid = locate_point(field.space.mesh, x)
    return float(evaluate_in_element(field, eid, x[None, :])[0])


def _l2_project(space: HpSpace, values) -> DiscreteField:
    """Element-local L2 projection; ``values(element, pts)`` gives the target
    at the points of the element's n = p + 4 tensor Gauss rule."""
    coeffs = np.zeros(space.N)
    for e in space.mesh.elements:
        p = int(space.degrees[e.id])
        rule = element_rule(e, p + 4)
        phi = basis_matrix(e, p, rule.points)
        rhs = phi.T @ (rule.weights * values(e, rule.points))
        coeffs[space.local_slice(e.id)] = rhs / _local_mass_diag(e, p, space.mesh.d)
    return DiscreteField(space, coeffs)


def project(space: HpSpace, f) -> DiscreteField:
    """Element-local L2 projection of a callable f(points) -> values."""
    return _l2_project(space, lambda e, pts: np.asarray(f(pts)))


def _local_mass_diag(element: meshmod.Element, p: int, d: int) -> np.ndarray:
    """Diagonal of the modal tensor-Legendre mass matrix on one element."""
    norms = legendre_l2_norms_sq(p)
    modes = _modes(p, d)
    diag = np.ones(modes.shape[0])
    for m in range(d):
        diag *= norms[modes[:, m]] * (element.lengths[m] / 2.0)
    return diag


def inject(field: DiscreteField, fine_space: HpSpace) -> DiscreteField:
    """Represent a field on a finer nested space by local L2 projection.

    Exact whenever each fine element is contained in a coarse element of
    degree at most the fine one (the situation along a refinement chain).
    """
    cmap = containing_map(field.space.mesh, fine_space.mesh)  # raises if they do not nest

    def values(e, pts):
        return evaluate_in_element(field, cmap[e.id], pts)

    return _l2_project(fine_space, values)


def save_field(field: DiscreteField, path) -> None:
    """Text serialization: one header line, then the N coefficients.

    The header reads ``hpdg-field <version> d sigma ell p0 slope rounding``.
    """
    sp = field.space
    with open(path, "w") as fh:
        fh.write(f"{FIELD_TAG} {FIELD_VERSION} {sp.mesh.d} {sp.mesh.sigma!r} {sp.mesh.ell} "
                 f"{sp.p0} {sp.slope!r} {sp.rounding}\n")
        for c in field.coeffs:
            fh.write(f"{float(c)!r}\n")


def load_field(path) -> DiscreteField:
    """Rebuild the space from the header and read the coefficients back."""
    with open(path) as fh:
        head = fh.readline().split()
        lines = [(no, line) for no, line in enumerate(fh, start=2) if line.strip()]
    if not head or head[0] != FIELD_TAG:
        raise ValueError(f"{path}: first header field is not {FIELD_TAG!r}")
    version = head[1] if len(head) > 1 else "missing"
    if version != str(FIELD_VERSION):
        raise ValueError(f"{path}: header field 'version' is {version!r}, "
                         f"this reader knows version {FIELD_VERSION}")
    if len(head) != 8:
        raise ValueError(f"{path}: header needs 8 fields "
                         f"({FIELD_TAG} version d sigma ell p0 slope rounding), got {len(head)}")
    d, sigma, ell, p0, slope, rounding = head[2:]
    if rounding not in ROUNDINGS:
        raise ValueError(f"{path}: header field 'rounding' is {rounding!r}, "
                         f"expected one of {ROUNDINGS}")
    m = meshmod.build_graded_mesh(int(d), float(sigma), int(ell))
    space = build_space(m, int(p0), float(slope), rounding)
    if len(lines) != space.N:
        raise ValueError(f"{path}: {len(lines)} coefficient lines, the space has N={space.N}")
    coeffs = np.full(space.N, np.nan)
    for i, (no, line) in enumerate(lines):
        with contextlib.suppress(ValueError):  # unparsable lines stay nan
            coeffs[i] = float(line)
        if not np.isfinite(coeffs[i]):
            raise ValueError(f"{path}: line {no} is not a finite coefficient: {line.strip()!r}")
    return DiscreteField(space, coeffs)
