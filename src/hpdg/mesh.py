"""Geometrically graded axiparallel meshes of the unit cube (-1/2, 1/2)^d.

The mesh is refined isotropically toward the singular point c at the origin:
the initial mesh splits the cube into 2^d boxes sharing the vertex c, and each
refinement step replaces the 2^d boxes touching c with a smaller inner box of
edge ratio sigma plus the boxes tiling the remaining shell.  Elements created
at step j and never refined again form layer j; the 2^d innermost boxes form
layer ell.  Interfaces are 1-irregular: every interior face piece is an entire
face of at least one of its two neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

GEOM_TOL = 1e-13

INTERIOR = "interior"
BOUNDARY = "boundary"


class MeshError(ValueError):
    pass


@dataclass
class Element:
    """An axis-aligned box element."""

    id: int
    lo: np.ndarray  # (d,) lower corner
    lengths: np.ndarray  # (d,) edge lengths
    layer: int
    touches_c: bool

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.lengths

    @property
    def h(self) -> float:
        """Element size h_K (largest edge; all edges equal for sigma = 1/2)."""
        return float(np.max(self.lengths))

    @property
    def center(self) -> np.ndarray:
        return self.lo + 0.5 * self.lengths

    @property
    def measure(self) -> float:
        return float(np.prod(self.lengths))


@dataclass
class Face:
    """A (d-1)-dimensional interface piece, normal along a coordinate axis.

    For interior faces ``owners = (minus, plus)`` with the normal +e_axis
    pointing from the minus-side element into the plus-side one.  Boundary
    faces have a single owner and ``sign`` gives the outward normal direction.
    """

    id: int
    kind: str
    owners: tuple
    axis: int
    sign: int
    lo: np.ndarray  # lo[axis] is the plane coordinate
    lengths: np.ndarray  # lengths[axis] == 0
    h_e: float
    is_subface: bool = False

    @property
    def measure(self) -> float:
        t = [self.lengths[m] for m in range(len(self.lengths)) if m != self.axis]
        return float(np.prod(t))


@dataclass
class GradedMesh:
    d: int
    sigma: float
    ell: int
    elements: list
    faces: list
    c: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.c is None:
            self.c = np.zeros(self.d)
        # cached coordinate arrays for vectorized point location
        self.el_lo = np.array([e.lo for e in self.elements])
        self.el_hi = np.array([e.hi for e in self.elements])
        self.el_len = np.array([e.lengths for e in self.elements])

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def interior_faces(self):
        return [f for f in self.faces if f.kind == INTERIOR]

    def boundary_faces(self):
        return [f for f in self.faces if f.kind == BOUNDARY]


def _signed_interval(a: float, b: float, sign: int):
    """Map the interval [a, b] (0 <= a < b) into the quadrant of given sign."""
    if sign > 0:
        return a, b - a
    return -b, b - a


def build_graded_mesh(d: int, sigma: float, ell: int) -> GradedMesh:
    """Build the graded mesh with refinement ratio sigma and ell steps.

    The shell around each refined box is tiled by the boxes with per-dimension
    extents [r_j, r_{j-1}] or [0, r_j] (r_j = sigma^j / 2); for sigma = 1/2
    these are the 2^d - 1 congruent siblings of the inner child.
    """
    if d not in (2, 3):
        raise MeshError(f"d must be 2 or 3, got {d}")
    if not (0.0 < sigma <= 0.5):
        raise MeshError(f"sigma must lie in (0, 1/2], got {sigma}")
    if ell < 0 or int(ell) != ell:
        raise MeshError(f"ell must be a nonnegative integer, got {ell}")
    ell = int(ell)

    h0 = 0.5
    radii = [h0 * sigma**j for j in range(ell + 1)]
    quadrants = list(product((-1, 1), repeat=d))
    patterns = [s for s in product((0, 1), repeat=d) if any(s)]

    elements = []

    def add(layer, lo, lengths, touches):
        elements.append(
            Element(len(elements), np.array(lo), np.array(lengths), layer, touches)
        )

    for j in range(1, ell + 1):
        for q in quadrants:
            for s in patterns:
                lo, lengths = [], []
                for m in range(d):
                    a, b = (radii[j], radii[j - 1]) if s[m] else (0.0, radii[j])
                    x0, ln = _signed_interval(a, b, q[m])
                    lo.append(x0)
                    lengths.append(ln)
                add(j, lo, lengths, False)
    for q in quadrants:
        lo, lengths = zip(*(_signed_interval(0.0, radii[ell], q[m]) for m in range(d)))
        add(ell, lo, lengths, True)

    faces = enumerate_faces_of(elements, d)
    return GradedMesh(d, float(sigma), ell, elements, faces)


def enumerate_faces(mesh: GradedMesh):
    """(Re)enumerate the faces of a mesh; see :func:`enumerate_faces_of`."""
    return enumerate_faces_of(mesh.elements, mesh.d)


def enumerate_faces_of(elements, d: int):
    """Enumerate all interior and boundary faces of a list of box elements.

    Interfaces across a size jump are decomposed into the finer elements'
    entire faces (flagged as sub-faces).  Raises :class:`MeshError` if some
    interface piece is an entire face of neither neighbour (violating
    1-irregularity).
    """
    # Collect element faces per axis: (plane, side, element id).
    # side == +1: element lies on the plus side of the plane (its lower face),
    # side == -1: element lies on the minus side (its upper face).
    per_axis = {m: [] for m in range(d)}
    for e in elements:
        for m in range(d):
            per_axis[m].append((float(e.lo[m]), +1, e.id))
            per_axis[m].append((float(e.lo[m] + e.lengths[m]), -1, e.id))

    el = {e.id: e for e in elements}
    tdims = {m: [t for t in range(d) if t != m] for m in range(d)}
    bound_lo, bound_hi = -0.5, 0.5

    raw = []  # (axis, plane, kind, owners, sign, lo, lengths, h_e, is_subface)

    for m in range(d):
        recs = sorted(per_axis[m])
        groups = []
        for plane, side, eid in recs:
            if groups and abs(plane - groups[-1][0]) <= GEOM_TOL:
                groups[-1][1].append((side, eid))
            else:
                groups.append((plane, [(side, eid)]))
        for plane, members in groups:
            minus = [eid for side, eid in members if side == -1]
            plus = [eid for side, eid in members if side == +1]
            if abs(plane - bound_lo) <= GEOM_TOL or abs(plane - bound_hi) <= GEOM_TOL:
                sign = -1 if abs(plane - bound_lo) <= GEOM_TOL else +1
                for eid in minus + plus:
                    e = el[eid]
                    lo = e.lo.copy()
                    lo[m] = plane
                    lengths = e.lengths.copy()
                    lengths[m] = 0.0
                    raw.append((m, plane, BOUNDARY, (eid, None), sign, lo, lengths, e.h, False))
                continue
            matched_minus = {eid: 0.0 for eid in minus}
            matched_plus = {eid: 0.0 for eid in plus}
            for ea_id in minus:
                ea = el[ea_id]
                for eb_id in plus:
                    eb = el[eb_id]
                    lo, lengths = np.zeros(d), np.zeros(d)
                    lo[m] = plane
                    area = 1.0
                    for t in tdims[m]:
                        a0, a1 = ea.lo[t], ea.lo[t] + ea.lengths[t]
                        b0, b1 = eb.lo[t], eb.lo[t] + eb.lengths[t]
                        c0, c1 = max(a0, b0), min(a1, b1)
                        if c1 - c0 <= GEOM_TOL:
                            area = 0.0
                            break
                        lo[t], lengths[t] = c0, c1 - c0
                        area *= c1 - c0
                    if area == 0.0:
                        continue
                    full_a = all(
                        abs(lo[t] - ea.lo[t]) <= GEOM_TOL
                        and abs(lengths[t] - ea.lengths[t]) <= GEOM_TOL
                        for t in tdims[m]
                    )
                    full_b = all(
                        abs(lo[t] - eb.lo[t]) <= GEOM_TOL
                        and abs(lengths[t] - eb.lengths[t]) <= GEOM_TOL
                        for t in tdims[m]
                    )
                    if not (full_a or full_b):
                        raise MeshError(
                            f"interface at axis {m}, plane {plane} between elements "
                            f"{ea_id} and {eb_id} is an entire face of neither"
                        )
                    h_e = min(ea.h, eb.h)
                    raw.append(
                        (m, plane, INTERIOR, (ea_id, eb_id), +1, lo, lengths,
                         h_e, full_a != full_b)
                    )
                    matched_minus[ea_id] += area
                    matched_plus[eb_id] += area
            # every non-boundary element face must be fully covered
            for eid, covered in list(matched_minus.items()) + list(matched_plus.items()):
                e = el[eid]
                expect = np.prod([e.lengths[t] for t in tdims[m]])
                if abs(covered - expect) > 1e-12 * max(expect, 1.0):
                    raise MeshError(
                        f"element {eid} face on axis {m}, plane {plane} not fully "
                        f"matched: covered {covered} of {expect}"
                    )

    raw.sort(key=lambda r: (r[0], r[1], tuple(r[5]), r[2]))
    faces = []
    for (m, plane, kind, owners, sign, lo, lengths, h_e, sub) in raw:
        faces.append(Face(len(faces), kind, owners, m, sign, lo, lengths, h_e, sub))
    return faces


def dump_mesh(mesh: GradedMesh, stream) -> None:
    """Plain-text debug dump: one element per line, then one face per line."""
    for e in mesh.elements:
        coords = " ".join(f"{x:.17g}" for x in e.lo)
        stream.write(f"{e.id} {e.layer} {coords} {e.h:.17g}\n")
    for f in mesh.faces:
        b = -1 if f.owners[1] is None else f.owners[1]
        ext = " ".join(f"{x:.17g}" for x in np.concatenate([f.lo, f.lengths]))
        stream.write(f"{f.kind} {f.owners[0]} {b} {f.axis} {ext}\n")
