"""A solver-independent oracle for "every compatible rotation": branch and bound over rotation space.

For a relabeling sigma the question is whether some rotation R moves every
vertex p_i to within geom_abs of its point u_sigma(i) in the shadow, by the
gate's rule: max_i |(R p_i)[:2] - u_sigma(i)| <= geom_abs.  The search covers
the rotation vectors in the cube [-pi, pi]^3, which holds every rotation,
and follows Hartley and Kahl, "Global optimization through rotation space
search", IJCV 2009.

A cube of half-width h about the vector c holds vectors within sqrt(3) h of
c, and so rotations within the angle sqrt(3) h of R(c); such a rotation
moves p_i by at most sqrt(3) h |p_i|, and the shadow moves no more.  Over
the cube, the largest miss is therefore at least
max_i (miss_i(R(c)) - sqrt(3) h |p_i|), which is never below
miss(R(c)) - sqrt(3) h max_i |p_i|.  A cube whose bound exceeds geom_abs,
by more than the rounding of the coordinates, holds no compatible rotation
and is dropped; a rotation whose miss is at most geom_abs is a witness,
whether R(c) or R(c) followed by the vertical turn that best aligns its
shadow; any other cube splits into eight.  A witness is found by a descent
through the cubes that miss least, while an empty verdict needs every cube
dropped, whatever the order.

The verdict of each relabeling is "found" (a witness), "empty" (every cube
dropped: a proof) or "undecided": a cube reached the depth cap undecided, or
the cube cap was spent first.  Nothing here calls the solver.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from tetrot.geom import ALL_PERMUTATIONS

FOUND, EMPTY, UNDECIDED = "found", "empty", "undecided"

# Levels of halving below the root cube of half-width pi: 2**-60 pi is about 3e-18.
DEPTH = 60
# Cubes evaluated per relabeling before it is left undecided.
CUBE_CAP = 40_000
# Cubes split at once, in one vectorised evaluation of their children.
BATCH = 8
# The eight children of a cube, as signs of the offsets of their centres.
_OCTANTS = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])


def rotation_top_rows(vectors: np.ndarray) -> np.ndarray:
    """The top two rows of exp([r]x) for each rotation vector r of vectors (M, 3): (M, 2, 3).

    exp([r]x) = I + sin(t)/t [r]x + (1 - cos t)/t^2 [r]x^2 with t = |r|,
    written with sinc so that r = 0 needs no case of its own.
    """
    x, y, z = vectors.T
    t = np.sqrt(x * x + y * y + z * z)
    a = np.sinc(t / np.pi)
    b = 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2
    rows = np.empty((len(vectors), 2, 3))
    rows[:, 0, 0] = 1.0 - b * (y * y + z * z)
    rows[:, 0, 1] = b * x * y - a * z
    rows[:, 0, 2] = b * x * z + a * y
    rows[:, 1, 0] = b * x * y + a * z
    rows[:, 1, 1] = 1.0 - b * (x * x + z * z)
    rows[:, 1, 2] = b * y * z - a * x
    return rows


def misses(vertices: np.ndarray, shadow: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each vertex's shadow to its point (M, 4) under each rotation vector, and
    under the same rotation followed by the turn about the vertical that best aligns the shadow.

    A turn by psi about the vertical turns the shadow by psi in the plane,
    so the best turn in least squares is that of two-dimensional Procrustes,
    psi = atan2(sum a x u, sum a . u) over shadows a and points u, both
    centred.  The turned rotation is a rotation too, so its miss can be a
    witness; a bound uses only the miss of the cube's own centre.
    """
    images = vertices @ rotation_top_rows(vectors).transpose(0, 2, 1)
    ax, ay = images[..., 0], images[..., 1]
    ux, uy = shadow[:, 0], shadow[:, 1]
    psi = np.arctan2((ax * uy - ay * ux).sum(axis=1), (ax * ux + ay * uy).sum(axis=1))[:, None]
    c, s = np.cos(psi), np.sin(psi)
    turned = np.stack([c * ax - s * ay, s * ax + c * ay], axis=-1)
    return (np.sqrt(((images - shadow) ** 2).sum(axis=-1)),
            np.sqrt(((turned - shadow) ** 2).sum(axis=-1)))


def relabeling_verdict(vertices: np.ndarray, shadow: np.ndarray, geom_abs: float) -> str:
    """Verdict on whether a rotation sends vertex i within geom_abs of shadow[i].

    The search dives: the child that misses least, after its turn, of the
    cube it split last is split next, beside the BATCH - 1 live cubes that
    miss least; every other live child waits in a heap.  The turn takes the
    one direction in which a witness needs a fine grid out of the order: a
    near-planar tetrahedron seen face on changes its shadow only to second
    order under a tilt, and by its full size under a turn.
    """
    reach = math.sqrt(3.0) * np.linalg.norm(vertices, axis=1)
    # a bound must clear geom_abs by more than the rounding of a miss before a cube is dropped
    limit = geom_abs + 8.0 * np.finfo(float).eps * (float(np.abs(vertices).max()) + float(np.abs(shadow).max()))
    heap = []  # (turned miss, order, level, centre) of the live cubes not yet split
    order = itertools.count()  # unique, so a tie in the miss never compares two centres
    evaluated, stalled = 0, False
    levels, centres = np.zeros(1, dtype=int), np.zeros((1, 3))
    while True:
        miss, turned = misses(vertices, shadow, centres)
        evaluated += len(centres)
        best = np.minimum(miss.max(axis=1), turned.max(axis=1))
        if (best <= geom_abs).any():
            return FOUND
        alive = (miss - (np.pi * 0.5 ** levels)[:, None] * reach).max(axis=1) <= limit
        stalled |= bool((alive & (levels == DEPTH)).any())
        alive &= levels < DEPTH
        # the best live child of the first cube split, the dive's cube, is split next
        first = np.flatnonzero(alive[:8])
        dive = [first[np.argmin(best[first])]] if first.size else []
        for i in np.flatnonzero(alive):
            if i not in dive:
                heapq.heappush(heap, (best[i], next(order), levels[i], centres[i]))
        batch = [(levels[i], centres[i]) for i in dive]
        while heap and len(batch) < BATCH:
            batch.append(heapq.heappop(heap)[2:])
        if not batch:
            return UNDECIDED if stalled else EMPTY
        if evaluated >= CUBE_CAP:
            return UNDECIDED
        levels = np.repeat([level + 1 for level, _ in batch], 8)
        centres = np.concatenate([centre + np.pi * 0.5 ** (level + 1) * _OCTANTS for level, centre in batch])


def oracle(vertices: np.ndarray, points: np.ndarray, geom_abs: float) -> list[str]:
    """relabeling_verdict for each relabeling, in the order of ALL_PERMUTATIONS."""
    return [relabeling_verdict(vertices, points[list(sigma.zero_based())], geom_abs)
            for sigma in ALL_PERMUTATIONS]
