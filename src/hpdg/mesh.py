"""Geometrically graded axiparallel meshes of the octant (0, 1/2)^d of the
unit cube (-1/2, 1/2)^d.

The mesh is refined isotropically toward the singular point at the origin:
the initial mesh is the octant, and each refinement step replaces the box
touching the origin with a smaller inner box of edge ratio sigma plus the
boxes tiling the remaining shell.  Elements created at step j and never
refined again form layer j; the innermost box forms layer ell.  Interfaces
are 1-irregular: every interior face piece is an entire face of at least one
of its two neighbours.

The problem is symmetric under every reflection x_m -> -x_m, and its ground
state is even, so it is solved on the octant alone: the planes x_m = 0 are
mirror planes, which carry no face terms (the natural condition of the even
sector), and every integral over the cube is :attr:`GradedMesh.copies` times
the one over the mesh.  :func:`build_faces` also accepts a tiling of the
whole cube, whose ``copies`` is 1.

A mesh is arrays only.  Element e is the box ``[lo[e], hi[e]]`` of layer
``layer[e]``; face f is the flat box ``faces.lo[f] + [0, faces.lengths[f]]``
normal to ``faces.axis[f]``.  Every corner coordinate is one entry of a single
radii table, so neighbouring boxes share their coordinates bitwise and all
geometric tests compare them exactly.  :func:`build_faces` enumerates the
faces of a tiling in numpy: it pairs the two sides of every plane by
broadcasting and intersects their tangential intervals.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class Faces:
    """The (d-1)-dimensional interface pieces of a mesh, one row per face.

    Interior faces have ``owners = (minus, plus)``, with the normal +e_axis
    pointing from the minus-side element into the plus-side one, and sign +1.
    Boundary faces have ``owners = (owner, -1)`` and ``sign`` gives the
    outward normal direction.  ``lo[f, axis[f]]`` is the plane coordinate and
    ``lengths[f, axis[f]] == 0``; ``h_e`` is the smaller owner size.
    """

    owners: np.ndarray  # (F, 2) element ids, -1 for none
    axis: np.ndarray  # (F,)
    sign: np.ndarray  # (F,)
    lo: np.ndarray  # (F, d)
    lengths: np.ndarray  # (F, d)
    h_e: np.ndarray  # (F,)
    interior: np.ndarray  # (F,) bool
    is_subface: np.ndarray  # (F,) bool: an entire face of one owner only

    def __len__(self) -> int:
        return len(self.axis)

    def __getitem__(self, idx) -> Faces:
        """The faces selected by an index array or a mask."""
        return Faces(*(getattr(self, f.name)[idx] for f in fields(self)))


@dataclass
class GradedMesh:
    d: int
    sigma: float
    ell: int
    lo: np.ndarray  # (E, d) lower corners
    hi: np.ndarray  # (E, d) upper corners
    layer: np.ndarray  # (E,)
    faces: Faces
    lengths: np.ndarray = field(init=False)  # (E, d) edge lengths, hi - lo

    def __post_init__(self):
        self.lengths = self.hi - self.lo

    @property
    def n_elements(self) -> int:
        return len(self.lo)

    @property
    def copies(self) -> int:
        """How many mirror images of the mesh tile the cube: 2 per axis whose
        tiling starts at the mirror plane 0, so 2^d on the octant, 1 on the cube."""
        return 2 ** int(np.count_nonzero(self.lo.min(axis=0) == 0))

    @property
    def corner(self) -> np.ndarray:
        """Which elements have the singular point, the origin, as a vertex."""
        return np.all((self.lo == 0) | (self.hi == 0), axis=1)


def build_graded_mesh(d: int, sigma: float, ell: int) -> GradedMesh:
    """Build the graded mesh of the octant (0, 1/2)^d with refinement ratio
    sigma and ell steps.

    The shell around each refined box is tiled by the boxes with per-dimension
    extents [r_j, r_{j-1}] or [0, r_j] (r_j = sigma^j / 2); for sigma = 1/2
    these are the 2^d - 1 congruent siblings of the inner child.  Elements are
    numbered by layer, then extent pattern; the innermost box comes last.  Both
    corners of every box are entries of the radii table (+0.0 at the origin),
    so shared planes are bitwise equal.
    """
    if d not in (2, 3):
        raise MeshError(f"d must be 2 or 3, got {d}")
    d = int(d)
    if isinstance(sigma, bool) or not isinstance(sigma, numbers.Real) or not (0.0 < sigma <= 0.5):
        raise MeshError(f"sigma must lie in (0, 1/2], got {sigma!r}")
    if (isinstance(ell, bool) or not isinstance(ell, numbers.Real) or not (0 <= ell < np.inf)
            or int(ell) != ell):
        raise MeshError(f"ell must be a nonnegative integer, got {ell!r}")
    ell = int(ell)

    radii = np.array([0.5 * sigma**j for j in range(ell + 1)])
    patterns = np.array([s for s in product((0, 1), repeat=d) if any(s)], dtype=bool)
    lo = np.concatenate([np.where(patterns, r, 0.0) for r in radii[1:]] + [np.zeros((1, d))])
    hi = np.concatenate([np.where(patterns, r0, r) for r0, r in zip(radii, radii[1:])]
                        + [np.full((1, d), radii[-1])])
    if not np.all(hi > lo):
        raise MeshError(f"sigma={sigma} and ell={ell} give elements of zero size: "
                        f"0.5 * sigma^ell underflows")
    layer = np.append(np.repeat(np.arange(1, ell + 1), len(patterns)), ell)
    return GradedMesh(d, float(sigma), ell, lo, hi, layer, build_faces(lo, hi))


def build_faces(lo: np.ndarray, hi: np.ndarray) -> Faces:
    """All interior and boundary faces of the boxes [lo, hi] (E, d) tiling the
    unit cube, or the part of it on the positive side of the mirror planes
    x_m = 0 of the axes where the tiling starts at 0; boxes that touch must
    share their coordinates bitwise.  A face on a mirror plane gets no entry.

    Interfaces across a size jump are decomposed into the finer elements'
    entire faces (flagged as sub-faces).  Faces are ordered by normal axis,
    plane, lower corner and kind (boundary first).  Raises :class:`MeshError`
    if some interface piece is an entire face of neither neighbour (violating
    1-irregularity) or some element face is not fully covered.
    """
    n_el, d = lo.shape
    lengths = hi - lo
    h = lengths.max(axis=1)
    parts = []  # per axis and kind: owners, sign, lo, lengths, h_e, is_subface
    for m in range(d):
        t = [k for k in range(d) if k != m]
        planes = np.concatenate([hi[:, m], lo[:, m]])  # minus side, then plus side
        sign = np.where(planes == -0.5, -1, np.where(planes == 0.5, 1, 0))
        # the element faces that need a neighbour: on neither the boundary nor a mirror
        paired = (sign == 0) & ~((planes == 0) & (lo[:, m].min() == 0))

        # boundary faces: one per element face on the cube's boundary
        on = np.flatnonzero(sign != 0)
        owner = on % n_el
        flo, flen = lo[owner].copy(), lengths[owner].copy()
        flo[:, m], flen[:, m] = planes[on], 0.0
        parts.append((np.column_stack([owner, np.full(len(on), -1)]), sign[on], flo, flen,
                      h[owner], np.zeros(len(on), dtype=bool)))

        # interior faces: the overlaps of minus- and plus-side faces on one plane
        minus = np.flatnonzero(paired[:n_el])
        plus = np.flatnonzero(paired[n_el:])
        i, j = np.nonzero(planes[minus][:, None] == planes[n_el + plus][None, :])
        i, j = minus[i], plus[j]
        c0 = np.maximum(lo[i][:, t], lo[j][:, t])
        c1 = np.minimum(hi[i][:, t], hi[j][:, t])
        keep = np.all(c1 > c0, axis=1)
        i, j, c0, c1 = i[keep], j[keep], c0[keep], c1[keep]
        width = c1 - c0
        full_a = np.all((c0 == lo[i][:, t]) & (c1 == hi[i][:, t]), axis=1)
        full_b = np.all((c0 == lo[j][:, t]) & (c1 == hi[j][:, t]), axis=1)
        bad = np.flatnonzero(~(full_a | full_b))
        if bad.size:
            k = bad[0]
            raise MeshError(f"interface at axis {m}, plane {planes[i[k]]} between elements "
                            f"{i[k]} and {j[k]} is an entire face of neither")
        area = np.prod(width, axis=1)
        covered = np.bincount(np.concatenate([i, n_el + j]), np.tile(area, 2), minlength=2 * n_el)
        expect = np.tile(np.prod(lengths[:, t], axis=1), 2)
        gap = np.abs(covered - expect) > 1e-12 * expect
        short = np.flatnonzero(paired & gap)
        if short.size:
            k = short[0]
            raise MeshError(f"element {k % n_el} face on axis {m}, plane {planes[k]} not "
                            f"fully matched: covered {covered[k]} of {expect[k]}")
        flo, flen = np.zeros((len(i), d)), np.zeros((len(i), d))
        flo[:, m], flo[:, t], flen[:, t] = planes[i], c0, width
        parts.append((np.column_stack([i, j]), np.ones(len(i), dtype=int), flo, flen,
                      np.minimum(h[i], h[j]), full_a != full_b))

    owners, sign, flo, flen, h_e, sub = (np.concatenate(x) for x in zip(*parts))
    axis = np.repeat(np.arange(d).repeat(2), [len(p[1]) for p in parts])  # two parts per axis
    interior = owners[:, 1] >= 0
    order = np.lexsort((interior, *flo.T[::-1], flo[np.arange(len(axis)), axis], axis))
    return Faces(owners[order], axis[order], sign[order], flo[order], flen[order], h_e[order],
                 interior[order], sub[order])
