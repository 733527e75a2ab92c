"""Rotation recovery from a tetrahedron and a projection of its rotated image.

Two independent routes are provided for the labeled problem.  The linear
route exploits that the first two rows of the rotation matrix satisfy
r1 . p_i = x_i and r2 . p_i = y_i for the first three vertices (the fourth
equation is implied by the centroid condition).  The geometric route
reconstructs the projected circumcircle of the first three vertices as an
ellipse through six constructible points and lifts it back to space.

The linear route is one core shared by both problems: the labeled solver
fits the identity relabeling, the unlabeled solver every relabeling that
survives the norm test.  The core factors the vertex matrix once per
tetrahedron and fits all relabelings in one batch: one stacked solve for
a full-dimensional tetrahedron, one least-squares solve for the in-plane
rows of a planar one.  Each branch passes three tests: orthonormal rows,
a snap to an exact rotation, and the residual against the observed
projection.  The last two run in one gate call per tetrahedron, which
the geometric route shares for its two lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    ALL_PERMUTATIONS,
    DEFAULT_TOLERANCES,
    IDENTITY_PERMUTATION,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    as_finite_array,
)
from .rotation import _EYE3, UnitQuaternion, _quat_from_rows, _rotation_rows

__all__ = [
    "Circle3D",
    "CollinearPointsError",
    "Conic",
    "DegenerateChordError",
    "DegenerateTetrahedronError",
    "DegenerateViewError",
    "SolveCandidate",
    "circumcircle3",
    "dedupe_rotations",
    "fit_conic",
    "labeled_solve",
    "prune_permutations",
    "reconstruct_geometric",
    "unlabeled_solve",
]

# Orthonormality acceptance for solved matrix rows; looser than machine
# precision to absorb the conditioning of near-planar tetrahedra.  The
# residual check against the observed projection is the final gate.
_ORTHO_ATOL = 1e-7
_SNAP_ATOL = 1e-6

# Zero-based images of every relabeling, one row per entry of
# ALL_PERMUTATIONS, and the row of each relabeling.
_PERM_INDEX = np.array([sigma.zero_based() for sigma in ALL_PERMUTATIONS])
_PERM_INDEX.flags.writeable = False
_PERM_ROW = {sigma: row for row, sigma in enumerate(ALL_PERMUTATIONS)}


class DegenerateTetrahedronError(ValueError):
    """Vertex set spans less than a plane; no rotation is recoverable."""


class CollinearPointsError(ValueError):
    """Points in degenerate position for a circle or conic construction."""


class DegenerateViewError(ValueError):
    """The projected circumcircle does not fit a usable ellipse."""


class DegenerateChordError(ValueError):
    """A chord of the reconstruction collapses; the ratio transfer is ill posed."""


@dataclass(frozen=True, eq=False)
class SolveCandidate:
    """One compatible rotation: relabeling, rotation, and its fit residual."""

    sigma: Permutation4
    rotation: UnitQuaternion
    matrix: np.ndarray
    residual: float
    planar_ambiguous: bool


@dataclass(frozen=True, eq=False)
class Circle3D:
    """Circle in space given by center, radius and unit normal."""

    center: np.ndarray
    radius: float
    normal: np.ndarray


@dataclass(frozen=True, eq=False)
class Conic:
    """Plane conic A x^2 + B xy + C y^2 + D x + E y + F = 0.

    Coefficients are normalized to unit Euclidean norm with the first
    nonzero coefficient positive.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        v = as_finite_array(self.coefficients, (6,), "coefficients")
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("conic coefficients must not all vanish")
        v = v / norm
        for x in v:
            if abs(x) > 1e-12:
                if x < 0:
                    v = -v
                break
        v.flags.writeable = False
        object.__setattr__(self, "coefficients", v)

    def is_ellipse(self) -> bool:
        a, b, c = self.coefficients[:3]
        return bool(b * b - 4.0 * a * c < 0.0)


def _cross(a: list[float], b: list[float]) -> list[float]:
    """a x b for two 3-vectors: the same bits as np.cross, without its overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _gate(
    vertices: np.ndarray,
    points: np.ndarray,
    sigmas: list[Permutation4],
    owner: list[int],
    matrices: list[list[list[float]]],
    planar: bool,
    tol: Tolerances,
) -> list[SolveCandidate]:
    """Snap near-rotations to exact ones and keep those that fit their shadow.

    Matrix i, given as nested lists, was fitted under relabeling
    sigmas[owner[i]] to the shadow points[owner[i]].  All matrices are
    tested as one (n, 3, 3) stack.  A matrix is snapped when it is
    orthogonal with determinant 1 within _SNAP_ATOL, and a NaN or inf
    entry fails that test.  A snapped rotation is kept when it projects
    every vertex within geom_abs of its shadow point.
    """
    if not matrices:
        return []
    stack = np.array(matrices)
    ortho = np.abs(stack.mT @ stack - _EYE3).max(axis=(1, 2))
    error = np.maximum(ortho, np.abs(np.linalg.det(stack) - 1.0))
    kept = [i for i, ok in enumerate((error <= _SNAP_ATOL).tolist()) if ok]
    if not kept:
        return []
    quats = [_quat_from_rows(matrices[i]) for i in kept]
    snapped = np.array([_rotation_rows(q.a, q.b, q.c, q.d) for q in quats])
    snapped.flags.writeable = False
    branch = [owner[i] for i in kept]
    diff = (vertices @ snapped.mT)[..., :2] - points[branch]
    residuals = np.sqrt(np.add.reduce(diff * diff, axis=-1)).max(axis=-1).tolist()
    return [
        SolveCandidate(sigmas[j], q, m, residual, planar)
        for j, q, m, residual in zip(branch, quats, snapped, residuals)
        if residual <= tol.geom_abs
    ]


def _fit_relabelings(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    sigmas: list[Permutation4],
    tol: Tolerances,
) -> list[SolveCandidate]:
    """Rotations mapping vertex i onto point sigma(i), for each sigma given.

    P3 = vertices[:3] is factored once, and a P3 spanning less than a
    plane is rejected even when sigmas is empty.  A full-dimensional P3
    gets the 2k row systems of all branches in one stacked solve; a planar
    one gets the in-plane rows of all branches from one least-squares
    solve, then the row completions of each branch.  One gate call takes
    every matrix of the tetrahedron.
    """
    p3 = tetra.vertices[:3]
    _, s, vt = np.linalg.svd(p3)
    if s[0] == 0.0 or s[1] <= tol.rank_rel * s[0]:
        raise DegenerateTetrahedronError("vertices span less than a plane")
    if not sigmas:
        return []
    k = len(sigmas)
    points = quad.points[_PERM_INDEX[[_PERM_ROW[sigma] for sigma in sigmas]]]

    if s[2] > tol.rank_rel * s[0]:
        # Rows 2j and 2j+1 are the first two matrix rows of branch j.  Stacked
        # one-vector solves and vecdot give the bits of a separate
        # np.linalg.solve(p3, x) and np.linalg.norm per row; a multi-column
        # solve or einsum would not.
        rhs = points[:, :3].transpose(0, 2, 1).reshape(2 * k, 3)
        rows = np.linalg.solve(np.broadcast_to(p3, (2 * k, 3, 3)), rhs[..., None])[..., 0]
        r1, r2 = rows[0::2], rows[1::2]
        norms = np.sqrt(np.vecdot(rows, rows))
        rejected = (
            (np.abs(norms[0::2] - 1.0) > _ORTHO_ATOL)
            | (np.abs(norms[1::2] - 1.0) > _ORTHO_ATOL)
            | (np.abs(np.vecdot(r1, r2)) > _ORTHO_ATOL)
        )
        owner = [j for j, bad in enumerate(rejected.tolist()) if not bad]
        pairs = rows.reshape(k, 2, 3).tolist()
        matrices = [[*pairs[j], _cross(*pairs[j])] for j in owner]
        planar = False
    else:
        # Columns 2j and 2j+1 of the right-hand side are the x and y
        # coordinates of branch j; one multi-column lstsq gives each column
        # the bits of its own solve, and vecdot those of a separate v @ v.
        basis = vt[:2]
        rhs = points[:, :3].transpose(1, 0, 2).reshape(3, 2 * k)
        sol, *_ = np.linalg.lstsq(p3 @ basis.T, rhs, rcond=None)
        rows = sol.T @ basis
        v1, v2 = rows[0::2], rows[1::2]
        s2 = (1.0 - np.vecdot(v1, v1)).tolist()
        t2 = (1.0 - np.vecdot(v2, v2)).tolist()
        dots = np.vecdot(v1, v2).tolist()
        v1, v2, normal = v1.tolist(), v2.tolist(), vt[2].tolist()
        owner, matrices = [], []
        for j in range(k):
            for m in _planar_completions(v1[j], v2[j], normal, s2[j], t2[j], dots[j], tol):
                owner.append(j)
                matrices.append(m)
        planar = True

    out = _gate(tetra.vertices, points, sigmas, owner, matrices, planar, tol)
    return dedupe_rotations(out, tol.dedupe)


def labeled_solve(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SolveCandidate]:
    """Rotations mapping vertex i onto projection point i, for all i.

    A full-dimensional tetrahedron admits at most one candidate; a planar
    one admits up to two (completions of the in-plane row components along
    the plane normal), flagged planar_ambiguous.  An empty list means the
    quad is not realizable.  Vertex sets spanning less than a plane are
    rejected.
    """
    return _fit_relabelings(tetra, quad, [IDENTITY_PERMUTATION], tol)


def _planar_completions(
    v1: list[float],
    v2: list[float],
    normal: list[float],
    s2: float,
    t2: float,
    cross: float,
    tol: Tolerances,
) -> list[list[list[float]]]:
    """Row completions of one branch on a planar vertex set, as nested lists.

    v1, v2 are the in-plane components of the first two matrix rows, fixed
    by the data, with s2 = 1-|v1|^2, t2 = 1-|v2|^2 and cross = v1.v2.  The
    out-of-plane components (s, t) along the unit plane normal satisfy
    s^2 = s2, t^2 = t2 and cross + s t = 0, which leaves at most two sign
    choices.
    """
    if s2 < -_ORTHO_ATOL or t2 < -_ORTHO_ATOL:
        return []
    s0 = math.sqrt(max(s2, 0.0))
    t0 = math.sqrt(max(t2, 0.0))
    matrices: list[list[list[float]]] = []
    for sgn_s in (1.0, -1.0):
        for sgn_t in (1.0, -1.0):
            s, t = sgn_s * s0, sgn_t * t0
            if abs(cross + s * t) > _ORTHO_ATOL:
                continue
            r1 = [v + s * n for v, n in zip(v1, normal)]
            r2 = [v + t * n for v, n in zip(v2, normal)]
            m = [r1, r2, _cross(r1, r2)]
            if all(np.linalg.norm(np.subtract(m, seen)) > tol.dedupe for seen in matrices):
                matrices.append(m)
    return matrices


def circumcircle3(p, q, r, rel_tol: float = DEFAULT_TOLERANCES.rank_rel) -> Circle3D:
    """Circle through three non-collinear points in space."""
    a = as_finite_array(p, (3,), "p")
    b = as_finite_array(q, (3,), "q")
    c = as_finite_array(r, (3,), "r")
    d1 = b - a
    d2 = c - a
    normal = np.array(_cross(d1.tolist(), d2.tolist()))
    scale = max(float(np.linalg.norm(d1)), float(np.linalg.norm(d2)))
    area = float(np.linalg.norm(normal))
    if scale == 0.0 or area <= rel_tol * scale * scale:
        raise CollinearPointsError("circumcircle needs three non-collinear points")
    gram = np.array([[d1 @ d1, d1 @ d2], [d1 @ d2, d2 @ d2]])
    rhs = 0.5 * np.array([d1 @ d1, d2 @ d2])
    alpha, beta = np.linalg.solve(gram, rhs)
    offset = alpha * d1 + beta * d2
    normal = normal / area
    for x in normal:
        if abs(x) > 1e-12:
            if x < 0:
                normal = -normal
            break
    return Circle3D(center=a + offset, radius=float(np.linalg.norm(offset)), normal=normal)


def fit_conic(points, rel_tol: float = DEFAULT_TOLERANCES.rank_rel) -> Conic:
    """Least-squares conic through five or more plane points.

    The conic is the null vector of the design matrix with rows
    (x^2, xy, y^2, x, y, 1).  Points are shifted and scaled internally for
    conditioning; coefficients are returned in the original frame.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 5:
        raise ValueError("need at least five plane points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    mean = pts.mean(axis=0)
    spread = float(np.sqrt(np.mean(np.sum((pts - mean) ** 2, axis=1))))
    if spread == 0.0:
        raise CollinearPointsError("coincident points do not determine a conic")
    norm_pts = (pts - mean) / spread
    xs, ys = norm_pts[:, 0], norm_pts[:, 1]
    design = np.column_stack([xs * xs, xs * ys, ys * ys, xs, ys, np.ones_like(xs)])
    _, s, vh = np.linalg.svd(design)
    if s[-2] <= rel_tol * s[0]:
        raise CollinearPointsError("points in degenerate position, conic is not unique")
    a, b, c, d, e, f = vh[-1]
    # undo the normalization x = (X - mx)/w, y = (Y - my)/w
    w = spread
    mx, my = mean
    coeffs = np.array([
        a,
        b,
        c,
        w * d - 2 * a * mx - b * my,
        w * e - 2 * c * my - b * mx,
        a * mx * mx + b * mx * my + c * my * my - w * d * mx - w * e * my + w * w * f,
    ])
    return Conic(coeffs)


def _ellipse_geometry(conic: Conic) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Center, semi-major, semi-minor and major-axis direction of an ellipse."""
    if not conic.is_ellipse():
        raise DegenerateViewError("fitted conic is not an ellipse")
    a, b, c, d, e, f = conic.coefficients
    if a + c < 0:
        a, b, c, d, e, f = -conic.coefficients
    center = np.linalg.solve(np.array([[2 * a, b], [b, 2 * c]]), np.array([-d, -e]))
    cx, cy = center
    level = -(a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f)
    if level <= 0:
        raise DegenerateViewError("conic has no real ellipse points")
    quad = np.array([[a, b / 2], [b / 2, c]])
    eigvals, eigvecs = np.linalg.eigh(quad)
    r_major = math.sqrt(level / eigvals[0])
    r_minor = math.sqrt(level / eigvals[1])
    return center, r_major, r_minor, eigvecs[:, 0]


def _frame(points: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frame adapted to three non-collinear points."""
    e1 = points[1] - points[0]
    e1 = e1 / np.linalg.norm(e1)
    e2 = points[2] - points[0]
    e2 = e2 - (e2 @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    return np.column_stack([e1, e2, _cross(e1.tolist(), e2.tolist())])


def reconstruct_geometric(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SolveCandidate]:
    """Labeled recovery through the projected-circumcircle construction.

    Steps: circumscribe the first three vertices; transfer each vertex
    chord through its opposite edge midpoint to a second circle point; map
    the six points to the projection by the invariant chord ratio; fit the
    ellipse they span; lift it to the two circle planes that project onto
    it (mirror images in the projection plane); extend each lift to a
    rigid image of the whole tetrahedron and keep the lifts whose induced
    linear map is a rotation reproducing the observed projection.

    Requires a full-dimensional tetrahedron and a non-degenerate view.
    Agrees with labeled_solve where both apply.
    """
    if not tetra.full_dimensional(tol.rank_rel):
        raise DegenerateTetrahedronError("geometric reconstruction needs a full-dimensional tetrahedron")
    p3 = tetra.vertices[:3]
    p4 = tetra.vertices[3]
    circle = circumcircle3(*p3, rel_tol=tol.rank_rel)

    u3 = quad.points[:3]
    e1, e2 = u3[1] - u3[0], u3[2] - u3[0]
    area2 = abs(float(e1[0] * e2[1] - e1[1] * e2[0]))
    uscale = max(float(np.linalg.norm(u3[1] - u3[0])), float(np.linalg.norm(u3[2] - u3[0])))
    if uscale == 0.0 or area2 <= tol.rank_rel * uscale * uscale:
        raise CollinearPointsError("projected points are collinear")

    six = [u3[0], u3[1], u3[2]]
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        mid3 = 0.5 * (p3[j] + p3[k])
        chord = mid3 - p3[i]
        chord_len = float(np.linalg.norm(chord))
        if chord_len <= tol.rank_rel * circle.radius:
            raise DegenerateChordError("vertex coincides with the opposite edge midpoint")
        # second intersection of the chord line with the circle, as the
        # affine parameter along p_i -> mid; parameters transfer to the
        # projection unchanged
        ratio = -2.0 * float((p3[i] - circle.center) @ chord) / (chord_len * chord_len)
        mid2 = 0.5 * (quad.points[j] + quad.points[k])
        if float(np.linalg.norm(mid2 - quad.points[i])) <= tol.rank_rel * uscale:
            raise DegenerateChordError("projected chord collapses to a point")
        six.append(quad.points[i] + ratio * (mid2 - quad.points[i]))

    conic = fit_conic(six, rel_tol=tol.rank_rel)
    center2, r_major, r_minor, dir_major = _ellipse_geometry(conic)
    tilt = min(r_minor / r_major, 1.0)
    if tilt <= 1e-6:
        raise DegenerateViewError("projected circumcircle is seen edge on")
    minor_dir = np.array([-dir_major[1], dir_major[0]])
    horiz = math.sqrt(max(1.0 - tilt * tilt, 0.0))

    frame3 = _frame(p3).T
    lifts = []
    for sign in (1.0, -1.0):
        normal = np.array([sign * horiz * minor_dir[0], sign * horiz * minor_dir[1], tilt])
        # lift each projected vertex to the plane through (center2, 0)
        lifted = np.empty((3, 3))
        lifted[:, :2] = u3
        lifted[:, 2] = (center2 - u3) @ normal[:2] / normal[2]
        rigid = _frame(lifted) @ frame3
        image4 = lifted[0] + rigid @ (p4 - p3[0])
        images = np.vstack([lifted, image4])
        images = images - images.mean(axis=0)
        lifts.append(np.linalg.solve(p3, images[:3]).T.tolist())
    out = _gate(tetra.vertices, quad.points[None], [IDENTITY_PERMUTATION], [0, 0], lifts, False, tol)
    return dedupe_rotations(out, tol.dedupe)


def prune_permutations(
    vertices,
    quad: ProjectionQuad,
    tol_abs: float = DEFAULT_TOLERANCES.geom_abs,
) -> list[Permutation4]:
    """Relabelings not excluded by the norm test.

    A projection never exceeds the norm of its source point, so sigma can
    only match when ||u_sigma(i)|| <= ||p_i|| for every i.  Operates on the
    coordinates as given, without recentring.
    """
    v = as_finite_array(vertices, (4, 3), "vertices")
    vertex_norms = np.linalg.norm(v, axis=1)
    point_norms = np.linalg.norm(quad.points, axis=1)
    allowed = point_norms[None, :] <= vertex_norms[:, None] + tol_abs
    survives = allowed[np.arange(4), _PERM_INDEX].all(axis=1)
    return [ALL_PERMUTATIONS[row] for row in np.flatnonzero(survives)]


def unlabeled_solve(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SolveCandidate]:
    """All rotations compatible with the projection under some relabeling.

    One factorization of the tetrahedron, one batched fit over the
    relabelings that survive the norm pruning (at most 24) and one gate
    call for all of them, each branch tested like a labeled solve:
    orthonormal rows, snap to a rotation, residual.  Each candidate equals what labeled_solve gives on the
    relabeled projection.  Near-identical rotations are merged per
    relabeling; the result is ordered by relabeling and residual.  An
    empty list means no rotation is compatible.  Vertex sets spanning less
    than a plane are rejected, even when no relabeling survives.
    """
    return _fit_relabelings(tetra, quad, prune_permutations(tetra.vertices, quad, tol.geom_abs), tol)


def dedupe_rotations(
    candidates: list[SolveCandidate],
    dedupe_tol: float = DEFAULT_TOLERANCES.dedupe,
) -> list[SolveCandidate]:
    """Merge candidates with the same relabeling and nearly equal matrices.

    Within each relabeling, matrices closer than dedupe_tol in Frobenius
    norm collapse to the representative with the smallest residual.  The
    output is sorted by relabeling images, then residual.
    """
    by_sigma: dict[tuple[int, int, int, int], list[SolveCandidate]] = {}
    for cand in candidates:
        by_sigma.setdefault(cand.sigma.images, []).append(cand)
    merged: list[SolveCandidate] = []
    for images in sorted(by_sigma):
        kept: list[SolveCandidate] = []
        for cand in sorted(by_sigma[images], key=lambda c: c.residual):
            if all(np.linalg.norm(cand.matrix - k.matrix) >= dedupe_tol for k in kept):
                kept.append(cand)
        merged.extend(kept)
    return merged
