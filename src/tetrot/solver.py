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
all relabelings at once and either rank of the vertex matrix: its one SVD,
truncated at its rank, gives two rows, the completions along the plane
normal (Huttenlocher and Ullman, IJCV 1990) add what it leaves open, and
Gauss-Newton steps on SO(3) refine starts that noise moved.  The one
acceptance test, shared with the geometric route, is the shadow residual.
Every singular-value rank decision is geom._rank at rank_rel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .geom import (
    ALL_PERMUTATIONS,
    DEFAULT_TOLERANCES,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    _rank,
    as_finite_array,
)
from .rotation import _EYE3, UnitQuaternion, _quat_from_rows, _rotation_rows

__all__ = [
    "DegenerateTetrahedronError",
    "DegenerateViewError",
    "SolveCandidate",
    "dedupe_rotations",
    "labeled_solve",
    "prune_permutations",
    "reconstruct_geometric",
    "unlabeled_solve",
]

# Zero-based images of every relabeling; a relabeling is known by its row,
# its index in ALL_PERMUTATIONS.
_PERM_INDEX = tuple(sigma.zero_based() for sigma in ALL_PERMUTATIONS)
# Entry [i, r, c] is the index in points.ravel() of coordinate c of the point
# relabeling r sends vertex i to: of rows r_0, r_1, ... the right-hand side
# takes it as entry [i, 2j + c].
_RHS_INDEX = np.array([[[2 * images[i], 2 * images[i] + 1] for images in _PERM_INDEX] for i in range(3)])
_RHS_INDEX.flags.writeable = False
# _PICK[r](points) is the tuple of the points relabeling r sends vertices 0-3 to.
_PICK = tuple(itemgetter(*images) for images in _PERM_INDEX)
# Bit r of _REACH[i][j] is set when relabeling r sends vertex i to point j.
_REACH = [[sum(1 << r for r, images in enumerate(_PERM_INDEX) if images[i] == j) for j in range(4)]
          for i in range(4)]
# w @ _CROSS_MATRIX is [w]x, the matrix of v -> w x v, row by row.
_CROSS_MATRIX = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]],
                         dtype=float)
_CROSS_MATRIX.flags.writeable = False
# Ratio of the projected circumcircle's minor to major axis at or below
# which the geometric route refuses the view as edge on: on the triangle
# areas before the fit, and on the fitted ellipse (see reconstruct_geometric).
_EDGE_ON_TILT = 1e-6
# Frobenius distance at or beyond which two rotations count as two (see _apart).
DEDUPE_DISTANCE = 1e-6


class DegenerateTetrahedronError(ValueError):
    """The tetrahedron T admits no recovery by the route that raised it, whatever the view."""


class DegenerateViewError(ValueError):
    """The view U admits no recovery by the route that raised it."""


@dataclass(frozen=True, eq=False)
class SolveCandidate:
    """One compatible rotation: relabeling, rotation, and its fit residual."""

    sigma: Permutation4
    rotation: UnitQuaternion
    matrix: np.ndarray
    residual: float
    planar_ambiguous: bool


def _cross(a: list[float], b: list[float]) -> list[float]:
    """a x b for two 3-vectors: the same bits as np.cross, without its overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _noise_bounds(s: np.ndarray, tol: Tolerances) -> tuple[float, float]:
    """Row bound and residual screen for rows fitted on the kept singular values s of P3.

    Noise g = geom_abs moves the fitted rows by at most sqrt(3) x, x = g/s[-1],
    and I - A A^T by less than bound = 4x(1 + x).  A start is then within about
    sqrt(bound) of a rotation and, as no vertex is longer than 2 s[0], misses
    its shadow by less than screen.
    """
    x = tol.geom_abs / float(s[-1])
    bound = 4.0 * x * (1.0 + x)
    return bound, tol.geom_abs + 8.0 * math.sqrt(bound) * float(s[0])


def _starts(fitted: dict[int, list], normal: list[float], bound: float, rejected: bool = False) -> tuple[list[int], list]:
    """Starts (pairs of rows) of the Procrustes fit, and the relabeling row of each.

    fitted maps the row of a relabeling in ALL_PERMUTATIONS to the two rows
    A fitted under it; the starts come in its order.  Rows of a rotation
    make I - A A^T = c c^T, c their components along the normal, which A
    leaves out.  A branch further from that form than bound is dropped; one
    whose c is within bound of zero starts from A, any other from its two
    completions A + c n^T and A - c n^T.  The completions are written out
    on named floats, entry r[k] + (sign * e) * n[k], the operations of a
    comprehension over the rows and the normal in its order.

    With rejected, the rows are branches that started from A and whose start
    the gate rejected, and each gives its two completions unless c is zero:
    mean + rad at most 0, or a double eigenvalue (rad = 0).  Without it, a
    branch past the bound has rad > 0, as |mean - rad| <= bound.
    """
    n0, n1, n2 = normal
    cut = 0.0 if rejected else bound
    owners, starts = [], []
    for row, (r1, r2) in fitted.items():
        x0, x1, x2 = r1
        y0, y1, y2 = r2
        m00 = 1.0 - (x0 * x0 + x1 * x1 + x2 * x2)
        m11 = 1.0 - (y0 * y0 + y1 * y1 + y2 * y2)
        m01 = -(x0 * y0 + x1 * y1 + x2 * y2)
        # I - A A^T has eigenvalues mean + rad and mean - rad
        mean, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
        rad = math.sqrt(half * half + m01 * m01)
        if abs(mean - rad) > bound:
            continue
        if mean + rad > cut and rad > 0.0:
            # c is the eigenvector of mean + rad, scaled to its square root
            e0, e1 = (rad + half, m01) if half >= 0.0 else (m01, rad - half)
            scale = math.sqrt((mean + rad) / (e0 * e0 + e1 * e1))
            for sign in (scale, -scale):
                s0, s1 = sign * e0, sign * e1
                starts.append(((x0 + s0 * n0, x1 + s0 * n1, x2 + s0 * n2),
                               (y0 + s1 * n0, y1 + s1 * n1, y2 + s1 * n2)))
            owners += (row, row)
        elif not rejected:
            starts.append((r1, r2))
            owners.append(row)
    return owners, starts


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


def _misses(images: list, shadows: list) -> list[float]:
    """Largest distance between a start's rotated vertices and its shadow, per start, on floats.

    images[i] holds the rotated vertices of start i and shadows[i] its four
    points.  The distance sqrt(dx*dx + dy*dy) rounds the sum of the squares
    once, as np.sqrt(np.add.reduce(diff * diff, -1)).max(-1) does; with
    finite coordinates up to the admitted magnitude nothing overflows, so no
    NaN can make the two maxima differ.
    """
    out = []
    for image, shadow in zip(images, shadows):
        worst = 0.0
        for (x, y, _), (u, v) in zip(image, shadow):
            dx, dy = x - u, y - v
            miss = math.sqrt(dx * dx + dy * dy)
            if miss > worst:
                worst = miss
        out.append(worst)
    return out


def _gate(
    vertices: np.ndarray,
    starts: list,
    rows: list[int],
    points: list,
    screen: float,
    planar: bool,
    tol: Tolerances,
) -> list[SolveCandidate]:
    """Snap starts to rotations, refine them, and keep those that fit their shadow.

    Start i is two rows fitted under sigma = ALL_PERMUTATIONS[rows[i]] to
    the shadow _PICK[rows[i]](points), the four points (each a list of two
    floats) that sigma sends the vertices to.  It gets their cross product
    as third row and is snapped to the components of a unit quaternion, as
    floats, unless it is not finite; only a start so kept gets its shadow.
    A rotation missing by more than geom_abs but at most screen takes
    Gauss-Newton steps; one within geom_abs at every vertex is kept, with
    its sigma, and only a kept one becomes a UnitQuaternion, through
    UnitQuaternion._from_unit: the snap's components are unit and finite by
    construction, so only the sign rule is applied.  The matrices are one
    flat list of _rotation_rows entries, made an array once; the rotated
    vertices come from one numpy matmul, whose bits every residual depends
    on; the residuals are taken from them on floats, and only the starts
    that Gauss-Newton refines get their shadows as an array.
    """
    quats, kept = [], []
    for row, (r1, r2) in zip(rows, starts):
        try:
            quats.append(_quat_from_rows([r1, r2, _cross(r1, r2)]))
        except ValueError:  # a NaN or inf row
            continue
        kept.append(row)
    shadows = [_PICK[row](points) for row in kept]
    for attempt in range(2):
        flat = []
        for q in quats:
            flat += _rotation_rows(*q)
        matrices = np.array(flat).reshape(-1, 3, 3)
        residuals = _misses((vertices @ matrices.mT).tolist(), shadows)
        refine = [i for i, r in enumerate(residuals) if tol.geom_abs < r <= screen]
        if attempt or not refine:
            break
        targets = np.array([shadows[i] for i in refine])
        for i, refined in zip(refine, _gauss_newton(vertices, matrices[refine], targets).tolist()):
            quats[i] = _quat_from_rows(refined)
    matrices.flags.writeable = False
    return [
        SolveCandidate(ALL_PERMUTATIONS[row], UnitQuaternion._from_unit(*q), m, residual, planar)
        for row, q, m, residual in zip(kept, quats, matrices, residuals)
        if residual <= tol.geom_abs
    ]


def _fit_relabelings(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    perm_rows: list[int],
    tol: Tolerances,
) -> list[SolveCandidate]:
    """Rotations mapping vertex i onto point sigma(i), for each sigma = ALL_PERMUTATIONS[row] of perm_rows.

    P3 = vertices[:3] is factored once, by one SVD, and a P3 spanning less
    than a plane is rejected even when perm_rows is empty.  The SVD
    truncated at k, the rank of P3, gives the first two rows of every branch
    as the pseudo-inverse solution of P3 r = u, keyed by the branch's row;
    each start carries that row through _starts and _gate to its candidate's
    sigma.  One gate call takes the starts of every branch.  When k = 2, a
    branch whose one start the gate rejected has its completions gated in a
    second call.
    """
    p3 = tetra.vertices[:3]
    u, s, vt = np.linalg.svd(p3)
    k = _rank(s, tol.rank_rel)
    if k < 2:
        raise DegenerateTetrahedronError("vertices span less than a plane")
    if not perm_rows:
        return []
    planar = k == 2
    # Noise tilts the rows along n by up to sqrt(3) geom_abs / s[2]; past 1e-2 three
    # Gauss-Newton steps may not recover, so keep the in-plane part and complete it.
    if s[2] <= 100.0 * tol.geom_abs:
        k = 2
    bound, screen = _noise_bounds(s[:k], tol)
    rhs = quad.points.ravel()[_RHS_INDEX[:, perm_rows]].reshape(3, -1)
    fitted = dict(zip(perm_rows, (vt[:k].T @ (u[:, :k].T @ rhs / s[:k, None])).T.reshape(-1, 2, 3).tolist()))
    normal, points = vt[2].tolist(), quad.points.tolist()
    owners, starts = _starts(fitted, normal, bound)
    out = _gate(tetra.vertices, starts, owners, points, screen, planar, tol)
    if k == 2 and len(out) < len(starts):
        # A plane's shadow is even in c, so Gauss-Newton cannot leave a start from A whose
        # c is within bound of zero: a branch whose one start the gate rejected is completed.
        accepted = {cand.sigma.images for cand in out}
        lone = {row: fitted[row] for row in owners
                if owners.count(row) == 1 and ALL_PERMUTATIONS[row].images not in accepted}
        owners, starts = _starts(lone, normal, bound, True)
        if starts:
            out += _gate(tetra.vertices, starts, owners, points, screen, planar, tol)
    return dedupe_rotations(out)


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
    return _fit_relabelings(tetra, quad, [0], tol)  # row 0 of ALL_PERMUTATIONS is the identity


def _circumcircle(p: list[float], q: list[float], r: list[float], rel_tol: float):
    """Center, radius and |(q - p) x (r - p)| of the circle through three points in space, on named floats.

    The edges from p are divided by the power of two at or above the longer
    one before any square is formed, so nothing overflows for admitted
    coordinates and the division is exact; lengths are math.hypot.  The
    points, three vertices of T, count as collinear, and
    DegenerateTetrahedronError is raised, when |(q - p) x (r - p)| is at
    most rel_tol times the square of the longer of the two edges: points
    that coincide have both at zero.
    """
    p0, p1, p2 = p
    a0, a1, a2 = q[0] - p0, q[1] - p1, q[2] - p2
    b0, b1, b2 = r[0] - p0, r[1] - p1, r[2] - p2
    longest = max(math.hypot(a0, a1, a2), math.hypot(b0, b1, b2))
    scale = math.ldexp(1.0, math.frexp(longest)[1])
    longest /= scale
    a0, a1, a2, b0, b1, b2 = a0 / scale, a1 / scale, a2 / scale, b0 / scale, b1 / scale, b2 / scale
    n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    area = math.hypot(n0, n1, n2)
    if area <= rel_tol * longest * longest:
        raise DegenerateTetrahedronError("circumcircle needs three non-collinear points")
    # center - p = (|a|^2 b - |b|^2 a) x (a x b) / (2 |a x b|^2), times scale, for the scaled edges a and b
    g11, g22 = a0 * a0 + a1 * a1 + a2 * a2, b0 * b0 + b1 * b1 + b2 * b2
    twice = 2.0 * area * area
    w0, w1, w2 = g11 * b0 - g22 * a0, g11 * b1 - g22 * a1, g11 * b2 - g22 * a2
    o0, o1, o2 = (w1 * n2 - w2 * n1) / twice, (w2 * n0 - w0 * n2) / twice, (w0 * n1 - w1 * n0) / twice
    return (p0 + scale * o0, p1 + scale * o1, p2 + scale * o2), scale * math.hypot(o0, o1, o2), scale * scale * area


def _unit_conic(points: list[list[float]], rel_tol: float) -> tuple[float, float, float, list[float]]:
    """Mean (mx, my), spread w and conic of plane points in their unit frame.

    The unit frame maps X to (X - m)/w, where w is the root mean square
    distance of the points from their mean m; the conic is the unit null
    vector of the design matrix with rows (x^2, xy, y^2, x, y, 1) there.
    The points come from the view U, so points that no one conic passes
    through (the matrix's rank at rel_tol is below 5) raise
    DegenerateViewError.  The geometric route passes six points whose
    first three span a triangle, so w is never zero.
    """
    n = len(points)
    mx = my = 0.0
    for x, y in points:  # left to right: from CPython 3.12 sum() compensates
        mx, my = mx + x, my + y
    mx, my = mx / n, my / n
    dev = [(x - mx, y - my) for x, y in points]
    spread = math.hypot(*(t for pair in dev for t in pair)) / math.sqrt(n)
    flat = []
    for dx, dy in dev:
        x, y = dx / spread, dy / spread
        flat += (x * x, x * y, y * y, x, y, 1.0)
    _, s, vh = np.linalg.svd(np.array(flat).reshape(n, 6))
    if _rank(s, rel_tol) < 5:
        raise DegenerateViewError("points in degenerate position, conic is not unique")
    return mx, my, spread, vh[-1].tolist()


def _ellipse_geometry(coefficients: list[float]) -> tuple[tuple[float, float], float, tuple[float, float]]:
    """Center, tilt and major-axis direction of the ellipse
    a x^2 + b xy + c y^2 + d x + e y + f = 0, closed form on floats.

    The tilt is the ratio of the minor to the major semi-axis,
    sqrt(level / big) / sqrt(level / small) with big >= small the
    eigenvalues of [[a, b/2], [b/2, c]], and at most 1.  Its square
    small / big is tested first, before the conic's type and level: a
    parabola or hyperbola has small <= 0, so every conic at or below the
    edge-on cut gets the one edge-on error, whatever rounding made of its
    type or level.  The route tests the cut on the triangle areas first; a
    view much larger than T can pass that test and meet this one.
    """
    a, b, c, d, e, f = coefficients
    if a + c < 0:
        a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
    disc = b * b - 4.0 * a * c
    # big >= small are mean +- rad; their product, the determinant, is -disc/4
    mean, half, h = 0.5 * (a + c), 0.5 * (a - c), 0.5 * b
    rad = math.hypot(half, h)
    big = mean + rad
    det = -0.25 * disc
    if not det > _EDGE_ON_TILT * _EDGE_ON_TILT * big * big:  # tilt^2 = small / big = det / big^2
        raise DegenerateViewError("projected circumcircle is seen edge on")
    # the center zeroes the gradient: [[2a, b], [b, 2c]] (cx, cy) = -(d, e)
    cx, cy = (2.0 * c * d - b * e) / disc, (2.0 * a * e - b * d) / disc
    level = -(a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f)
    if level <= 0:
        raise DegenerateViewError("conic has no real ellipse points")
    small = det / big
    vx, vy = (h, -half - rad) if half >= 0.0 else (half - rad, h)  # the eigenvector of small
    length = math.hypot(vx, vy)
    direction = (vx / length, vy / length) if length else (1.0, 0.0)
    return (cx, cy), min(math.sqrt(level / big) / math.sqrt(level / small), 1.0), direction


def _frame(p: list[float], q: list[float], r: list[float]) -> tuple[float, ...]:
    """Right-handed orthonormal frame adapted to three non-collinear points: rows e1, e2, e3 as nine floats."""
    p0, p1, p2 = p
    a0, a1, a2 = q[0] - p0, q[1] - p1, q[2] - p2
    length = math.hypot(a0, a1, a2)
    a0, a1, a2 = a0 / length, a1 / length, a2 / length
    b0, b1, b2 = r[0] - p0, r[1] - p1, r[2] - p2
    along = b0 * a0 + b1 * a1 + b2 * a2
    b0, b1, b2 = b0 - along * a0, b1 - along * a1, b2 - along * a2
    length = math.hypot(b0, b1, b2)
    b0, b1, b2 = b0 / length, b1 / length, b2 / length
    return a0, a1, a2, b0, b1, b2, a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def reconstruct_geometric(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SolveCandidate]:
    """Labeled recovery through the projected-circumcircle construction.

    Steps: circumscribe the first three vertices; transfer each vertex
    chord through its opposite edge midpoint to a second circle point; map
    the six points to the projection by the invariant chord ratio; fit the
    ellipse they span, in their unit frame; lift it to the two circle
    planes that project onto it (mirror images in the projection plane);
    extend each lift to a rigid image of the whole tetrahedron, and pass
    the first two rows of each rigid lift through the gate of the linear
    route.  Two SVDs are taken, of P3 and of the conic's design matrix;
    every other step is closed form on named floats, every sum left to
    right.

    For a shadow, |cross| of the first three points is the circle's tilt
    times that of the first three vertices: a view at or below
    _EDGE_ON_TILT by that ratio is refused as edge on before any chord or
    conic is formed, and the fitted ellipse is held to the same cut.

    A refusal names the input at fault.  DegenerateTetrahedronError: T is
    not full-dimensional, its first three vertices are collinear, or a
    vertex lies at its opposite edge's midpoint.  DegenerateViewError: the
    circle is seen edge on, a projected chord collapses, the six points fix
    no one conic, or its ellipse has no real points.  Agrees with
    labeled_solve where both apply.
    """
    p3 = tetra.vertices[:3]
    s = np.linalg.svd(p3, compute_uv=False)
    if _rank(s, tol.rank_rel) < 3:
        raise DegenerateTetrahedronError("geometric reconstruction needs a full-dimensional tetrahedron")
    p = p3.tolist()
    (c0, c1, c2), radius, area = _circumcircle(*p, tol.rank_rel)

    u = quad.points.tolist()
    (x0, y0), (x1, y1), (x2, y2) = u[:3]
    if abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)) <= _EDGE_ON_TILT * area:
        raise DegenerateViewError("projected circumcircle is seen edge on")
    uscale = max(math.hypot(x1 - x0, y1 - y0), math.hypot(x2 - x0, y2 - y0))

    six = u[:3]
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        (a0, a1, a2), (b0, b1, b2), (d0, d1, d2), (xi, yi), (xj, yj), (xk, yk) = p[i], p[j], p[k], u[i], u[j], u[k]
        h0, h1, h2 = 0.5 * (b0 + d0) - a0, 0.5 * (b1 + d1) - a1, 0.5 * (b2 + d2) - a2
        chord_len = math.hypot(h0, h1, h2)
        if chord_len <= tol.rank_rel * radius:
            raise DegenerateTetrahedronError("vertex coincides with the opposite edge midpoint")
        # second intersection of the chord line with the circle, as the
        # affine parameter along p_i -> mid; parameters transfer to the
        # projection unchanged.  Taken along the unit chord, whose product
        # with p_i - center cannot overflow.
        along = ((a0 - c0) * h0 + (a1 - c1) * h1 + (a2 - c2) * h2) / chord_len
        ratio = -2.0 * along / chord_len
        dx, dy = 0.5 * (xj + xk) - xi, 0.5 * (yj + yk) - yi
        if math.hypot(dx, dy) <= tol.rank_rel * uscale:
            raise DegenerateViewError("projected chord collapses to a point")
        six.append([xi + ratio * dx, yi + ratio * dy])

    mx, my, spread, coefficients = _unit_conic(six, tol.rank_rel)
    (cx, cy), tilt, (ax, ay) = _ellipse_geometry(coefficients)
    horiz = math.sqrt(1.0 - tilt * tilt)
    cx, cy = mx + spread * cx, my + spread * cy

    f00, f01, f02, f10, f11, f12, f20, f21, f22 = _frame(*p)
    lifts = []
    for lean in (horiz, -horiz):
        # lift each projected vertex to the circle plane through (cx, cy, 0) with normal
        # (-lean ay, lean ax, tilt), (ax, ay) the major axis; the rows of the lift are the
        # first two of F_lift F_3^T, each F the frame as columns
        nx, ny = -lean * ay, lean * ax
        lifted = [(x, y, ((cx - x) * nx + (cy - y) * ny) / tilt) for x, y in u[:3]]
        l00, l01, _, l10, l11, _, l20, l21, _ = _frame(*lifted)
        lifts.append([(a * f00 + b * f10 + c * f20, a * f01 + b * f11 + c * f21, a * f02 + b * f12 + c * f22)
                      for a, b, c in ((l00, l10, l20), (l01, l11, l21))])
    _, screen = _noise_bounds(s, tol)
    out = _gate(tetra.vertices, lifts, [0, 0], u, screen, False, tol)  # row 0 is the identity
    return dedupe_rotations(out)


def prune_permutations(vertices, quad: ProjectionQuad, tol: Tolerances = DEFAULT_TOLERANCES) -> list[Permutation4]:
    """Relabelings not excluded by the norm test at tol.geom_abs.

    A projection never exceeds the norm of its source point, so sigma can
    only match when ||u_sigma(i)|| <= ||p_i|| + geom_abs for every i.
    Operates on the coordinates as given, without recentring.
    """
    rows = _prune(as_finite_array(vertices, (4, 3), "vertices"), quad.points, tol.geom_abs)
    return [ALL_PERMUTATIONS[row] for row in rows]


def _prune(vertices: np.ndarray, points: np.ndarray, tol_abs: float) -> list[int]:
    """prune_permutations on a checked (4, 3) vertex array, on floats, as rows of ALL_PERMUTATIONS.

    The norms are sqrt(x*x + y*y + z*z), the bits of np.linalg.norm along a
    row.  The survivors are a 24-bit mask: for every vertex, the relabelings
    sending it to a point it can reach; their rows come back in ascending
    order.
    """
    point_norms = [math.sqrt(x * x + y * y) for x, y in points.tolist()]
    survivors = (1 << len(ALL_PERMUTATIONS)) - 1
    for (x, y, z), reach in zip(vertices.tolist(), _REACH):
        bound = math.sqrt(x * x + y * y + z * z) + tol_abs
        reachable = 0
        for mask, norm in zip(reach, point_norms):
            if norm <= bound:
                reachable |= mask
        survivors &= reachable
    return [row for row in range(len(ALL_PERMUTATIONS)) if survivors >> row & 1]


def unlabeled_solve(
    tetra: Tetrahedron,
    quad: ProjectionQuad,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[SolveCandidate]:
    """All rotations compatible with the projection under some relabeling.

    One factorization of the tetrahedron, one batched fit over the
    relabelings that survive the norm pruning (at most 24) and one gate
    call for all of them (and one for the completions of rejected in-plane
    starts, see _fit_relabelings), each branch fitted and accepted like a
    labeled solve.  Each candidate is one labeled_solve gives on the
    relabeled projection.  Rotations of one relabeling that are not _apart are
    merged by dedupe_rotations; the result is ordered by relabeling and residual.  An
    empty list means no rotation is compatible.  Vertex sets spanning less
    than a plane are rejected, even when no relabeling survives.
    """
    return _fit_relabelings(tetra, quad, _prune(tetra.vertices, quad.points, tol.geom_abs), tol)


def _apart(a: list[float], b: list[float]) -> bool:
    """Whether two rotations, given as their nine matrix entries, are two: the one rule
    for another rotation, math.dist(a, b) at or beyond DEDUPE_DISTANCE.

    dedupe_rotations keeps a candidate apart from every representative kept
    so far, and the uniqueness sweep counts one apart from the identity.
    """
    return math.dist(a, b) >= DEDUPE_DISTANCE


def dedupe_rotations(candidates: list[SolveCandidate]) -> list[SolveCandidate]:
    """Merge candidates with the same relabeling and nearly equal matrices.

    Within each relabeling, a candidate is kept when it is _apart from every
    representative kept so far, in order of residual; the others collapse to
    the representative with the smallest residual.  Each distance is
    math.dist of two matrices' entries as floats; a relabeling with one
    candidate keeps it as it is.  The output is sorted by relabeling
    images, then residual.
    """
    by_sigma: dict[tuple[int, int, int, int], list[SolveCandidate]] = {}
    for cand in candidates:
        by_sigma.setdefault(cand.sigma.images, []).append(cand)
    merged: list[SolveCandidate] = []
    for images in sorted(by_sigma):
        group = by_sigma[images]
        if len(group) > 1:
            group.sort(key=lambda c: c.residual)
            kept: list[SolveCandidate] = []
            seen: list[list[float]] = []
            for cand in group:
                entries = cand.matrix.ravel().tolist()
                if all(_apart(entries, other) for other in seen):
                    kept.append(cand)
                    seen.append(entries)
            group = kept
        merged += group
    return merged
