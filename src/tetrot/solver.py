"""Rotation recovery from a tetrahedron and a projection of its rotated image.

Two independent routes are provided for the labeled problem.  The linear
route exploits that the first two rows of the rotation matrix satisfy
r1 . p_i = x_i and r2 . p_i = y_i for the first three vertices (the fourth
equation is implied by the centroid condition).  The geometric route
reconstructs the projected circumcircle of the first three vertices as an
ellipse through six constructible points and lifts it back to space.

The linear route is one core shared by both problems: the labeled solver
fits the identity relabeling, the unlabeled solver every relabeling that
survives the norm test.  It fits the rotation whose shadow is nearest the
points (orthographic Procrustes; Elden and Park, Numer. Math. 1999) for
all relabelings at once and either rank of the vertex matrix: one
least-squares solve gives two rows, the completions along the plane
normal (Huttenlocher and Ullman, IJCV 1990) add what it leaves open, and
Gauss-Newton steps on SO(3) refine starts that noise moved.  The one
acceptance test, shared with the geometric route, is the shadow residual.
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

# Zero-based images of every relabeling, one row per entry of
# ALL_PERMUTATIONS, and the row of each relabeling.
_PERM_INDEX = np.array([sigma.zero_based() for sigma in ALL_PERMUTATIONS])
_PERM_INDEX.flags.writeable = False
_PERM_ROW = {sigma: row for row, sigma in enumerate(ALL_PERMUTATIONS)}
# w @ _CROSS_MATRIX is [w]x, the matrix of v -> w x v, row by row.
_CROSS_MATRIX = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]],
                         dtype=float)
_CROSS_MATRIX.flags.writeable = False


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


def _noise_bounds(s: np.ndarray, s_min: float, tol: Tolerances) -> tuple[float, float]:
    """Row bound and residual screen for P3 with singular values s.

    Noise g = geom_abs moves the fitted rows by at most sqrt(3) x, x = g/s_min,
    and I - A A^T by less than bound = 4x(1 + x).  A start is then within about
    sqrt(bound) of a rotation and, as no vertex is longer than 2 s[0], misses
    its shadow by less than screen.
    """
    x = tol.geom_abs / float(s_min)
    bound = 4.0 * x * (1.0 + x)
    return bound, tol.geom_abs + 8.0 * math.sqrt(bound) * float(s[0])


def _starts(rows: list, normal: list[float], bound: float) -> tuple[list[int], list]:
    """Starts (pairs of rows) of the Procrustes fit, and the branch of each.

    Rows of a rotation make I - A A^T = c c^T, c their components along the
    normal, which A leaves out.  A branch further from that form than bound
    is dropped; one whose c is within bound of zero starts from A, any other
    from its two completions A + c n^T and A - c n^T.
    """
    owner, starts = [], []
    for j, (r1, r2) in enumerate(rows):
        m00 = 1.0 - (r1[0] * r1[0] + r1[1] * r1[1] + r1[2] * r1[2])
        m11 = 1.0 - (r2[0] * r2[0] + r2[1] * r2[1] + r2[2] * r2[2])
        m01 = -(r1[0] * r2[0] + r1[1] * r2[1] + r1[2] * r2[2])
        # I - A A^T has eigenvalues mean + rad and mean - rad
        mean, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
        rad = math.sqrt(half * half + m01 * m01)
        if abs(mean - rad) > bound:
            continue
        pairs = [[r1, r2]]
        if mean + rad > bound:
            # c is the eigenvector of mean + rad, scaled to its square root
            e0, e1 = (rad + half, m01) if half >= 0.0 else (m01, rad - half)
            scale = math.sqrt((mean + rad) / (e0 * e0 + e1 * e1))
            pairs = [[[a + sign * e * n for a, n in zip(r, normal)] for r, e in ((r1, e0), (r2, e1))]
                     for sign in (scale, -scale)]
        owner += [j] * len(pairs)
        starts += pairs
    return owner, starts


def _gauss_newton(vertices: np.ndarray, matrices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Three pseudo-inverse Gauss-Newton steps R <- exp([w]x) R on sum_i |(R p_i)[:2] - u_i|^2."""
    for _ in range(3):
        q = vertices @ matrices.mT
        # q + w x q = q - [q]x w: the shadow's Jacobian in w is the top of -[q]x
        jac = -(q @ _CROSS_MATRIX).reshape(-1, 4, 3, 3)[..., :2, :].reshape(-1, 8, 3)
        w = -(np.linalg.pinv(jac) @ (q[..., :2] - points).reshape(-1, 8, 1))[..., 0]
        # exp([w]x) = I + sin(t)/t [w]x + (1 - cos t)/t^2 [w]x^2, t = |w|
        cross = (w @ _CROSS_MATRIX).reshape(-1, 3, 3)
        t = np.sqrt(np.vecdot(w, w))[:, None, None]
        step = np.sinc(t / np.pi) * cross + 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2 * (cross @ cross)
        matrices = (_EYE3 + step) @ matrices
    return matrices


def _gate(
    vertices: np.ndarray,
    starts: list,
    sigmas: list[Permutation4],
    points: np.ndarray,
    screen: float,
    planar: bool,
    tol: Tolerances,
) -> list[SolveCandidate]:
    """Snap starts to rotations, refine them, and keep those that fit their shadow.

    Start i, two rows fitted under sigmas[i] to the shadow points[i], gets
    their cross product as third row and is snapped to a quaternion, unless
    it is not finite.  A rotation missing by more than geom_abs but at most
    screen takes Gauss-Newton steps; one within geom_abs at every vertex is kept.
    """
    quats, kept = [], []
    for i, (r1, r2) in enumerate(starts):
        try:
            quats.append(_quat_from_rows([r1, r2, _cross(r1, r2)]))
        except ValueError:  # a NaN or inf row
            continue
        kept.append(i)
    points = points[kept]
    for attempt in range(2):
        matrices = np.array([_rotation_rows(q.a, q.b, q.c, q.d) for q in quats]).reshape(-1, 3, 3)
        diff = (vertices @ matrices.mT)[..., :2] - points
        residuals = np.sqrt(np.add.reduce(diff * diff, axis=-1)).max(axis=-1).tolist()
        refine = [i for i, r in enumerate(residuals) if tol.geom_abs < r <= screen]
        if attempt or not refine:
            break
        for i, rows in zip(refine, _gauss_newton(vertices, matrices[refine], points[refine]).tolist()):
            quats[i] = _quat_from_rows(rows)
    matrices.flags.writeable = False
    return [
        SolveCandidate(sigmas[i], q, m, residual, planar)
        for i, q, m, residual in zip(kept, quats, matrices, residuals)
        if residual <= tol.geom_abs
    ]


def _fit_relabelings(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    sigmas: list[Permutation4],
    tol: Tolerances,
) -> list[SolveCandidate]:
    """Rotations mapping vertex i onto point sigma(i), for each sigma given.

    P3 = vertices[:3] is factored once, and a P3 spanning less than a plane
    is rejected even when sigmas is empty.  One least-squares solve at
    rcond = rank_rel gives the first two rows of every branch, whatever the
    rank of P3, and one gate call takes the starts of every branch.
    """
    p3 = tetra.vertices[:3]
    _, s, vt = np.linalg.svd(p3)
    if s[0] == 0.0 or s[1] <= tol.rank_rel * s[0]:
        raise DegenerateTetrahedronError("vertices span less than a plane")
    if not sigmas:
        return []
    planar = bool(s[2] <= tol.rank_rel * s[0])
    # Noise tilts the rows along n by up to sqrt(3) geom_abs / s[2]; past 1e-2 three
    # Gauss-Newton steps may not recover, so keep the in-plane part and complete it.
    in_plane = planar or s[2] <= 100.0 * tol.geom_abs
    bound, screen = _noise_bounds(s, s[1] if in_plane else s[2], tol)
    points = quad.points[_PERM_INDEX[[_PERM_ROW[sigma] for sigma in sigmas]]]
    # columns 2j and 2j+1 of the right-hand side are the x and y of branch j
    rhs = points[:, :3].transpose(1, 0, 2).reshape(3, -1)
    rows = np.linalg.lstsq(p3, rhs, rcond=tol.rank_rel)[0].T.reshape(-1, 2, 3)
    if in_plane:
        rows -= (rows @ vt[2])[..., None] * vt[2]
    owner, starts = _starts(rows.tolist(), vt[2].tolist(), bound)
    out = _gate(tetra.vertices, starts, [sigmas[j] for j in owner], points[owner], screen, planar, tol)
    return dedupe_rotations(out, tol.dedupe)


def labeled_solve(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SolveCandidate]:
    """Rotations mapping vertex i onto projection point i, for all i.

    A full-dimensional tetrahedron admits at most one candidate; a planar
    one admits up to two (the completions of the fitted rows along the
    plane normal), flagged planar_ambiguous.  A candidate is kept when its
    shadow lies within geom_abs of the quad; an empty list means no
    rotation does.  Vertex sets spanning less than a plane are rejected.
    """
    return _fit_relabelings(tetra, quad, [IDENTITY_PERMUTATION], tol)


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
    rigid image of the whole tetrahedron, and pass the first two rows of
    each induced linear map through the gate of the linear route.

    Requires a full-dimensional tetrahedron and a non-degenerate view.
    Agrees with labeled_solve where both apply.
    """
    p3 = tetra.vertices[:3]
    s = np.linalg.svd(p3, compute_uv=False)
    if not (s[0] > 0.0 and s[2] > tol.rank_rel * s[0]):
        raise DegenerateTetrahedronError("geometric reconstruction needs a full-dimensional tetrahedron")
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
        lifts.append(np.linalg.solve(p3, images[:3]).T[:2].tolist())
    _, screen = _noise_bounds(s, s[2], tol)
    out = _gate(tetra.vertices, lifts, [IDENTITY_PERMUTATION] * 2, np.array([quad.points] * 2), screen, False, tol)
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
    call for all of them, each branch fitted and accepted like a labeled
    solve.  Each candidate is one labeled_solve gives on the relabeled
    projection.  Near-identical rotations are merged per
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
    norm collapse to the representative with the smallest residual, taking
    the distances of a relabeling from one stacked pairwise computation.
    The output is sorted by relabeling images, then residual.
    """
    by_sigma: dict[tuple[int, int, int, int], list[SolveCandidate]] = {}
    for cand in candidates:
        by_sigma.setdefault(cand.sigma.images, []).append(cand)
    merged: list[SolveCandidate] = []
    for images in sorted(by_sigma):
        group = sorted(by_sigma[images], key=lambda c: c.residual)
        flat = np.array([cand.matrix.ravel() for cand in group])
        diff = flat[:, None] - flat[None]
        near = np.sqrt(np.vecdot(diff, diff)) < dedupe_tol
        kept: list[int] = []
        for i in range(len(group)):
            if not near[i, kept].any():
                kept.append(i)
        merged.extend(group[i] for i in kept)
    return merged
