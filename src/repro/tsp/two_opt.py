"""2-opt local search for open tours.

Not part of the paper's algorithms — provided as the ablation the
DESIGN.md calls out (A3): how much RV distance a classical 2-opt
post-pass recovers on top of the nearest-neighbour / insertion tours.

The sweep measures every leg once into a pairwise distance matrix,
evaluates **all** candidate deltas of a sweep as one broadcast, and
replays improving moves in scan order — after each applied move the
candidate deltas are re-broadcast against the mutated order and the
scan resumes at the following ``(i, j)`` cell, which is exactly the
state the classic nested first-improvement loop would be in.  The move
sequence, and therefore the returned order, is bit-identical to that
loop (``np.hypot`` is sign-insensitive and each delta is the same
``d(a,c) + d(b,d) - d(a,b) - d(c,d)`` operation chain); the loop is
kept as a test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..geometry.points import as_points, pairwise_distances

__all__ = ["two_opt"]

#: A move must shorten the tour by more than this to count (guards the
#: scan against cycling on floating-point noise).
_EPS = 1e-12


def _two_opt_vectorized(points: np.ndarray, order: List[int], max_rounds: int) -> List[int]:
    """Broadcast sweeps over one distance matrix, replayed in scan
    order so the applied moves match the scalar loop move for move."""
    n = len(order)
    D = pairwise_distances(points)
    I = np.arange(1, n - 2)  # noqa: E741 — the loop variable of the spec
    J = np.arange(2, n - 1)
    ii = I[:, None]
    jj = J[None, :]
    upper = jj > ii  # candidate cells: j in (i, n-1)
    for _ in range(max_rounds):
        improved = False
        i0, j0 = 1, 2  # scan cursor: next candidate cell to consider
        while True:
            ordv = np.asarray(order, dtype=np.intp)
            # delta[i, j] = d(a,c) + d(b,d) - d(a,b) - d(c,d) with
            # a=order[i-1], b=order[i], c=order[j], d=order[j+1] — the
            # same left-to-right chain as the scalar loop, elementwise.
            d_ac = D[ordv[I - 1][:, None], ordv[J][None, :]]
            d_bd = D[ordv[I][:, None], ordv[J + 1][None, :]]
            d_ab = D[ordv[I - 1], ordv[I]][:, None]
            d_cd = D[ordv[J], ordv[J + 1]][None, :]
            delta = d_ac + d_bd - d_ab - d_cd
            cand = (delta < -_EPS) & upper
            # Cells before the cursor were already scanned this sweep.
            cand &= (ii > i0) | ((ii == i0) & (jj >= j0))
            if not cand.any():
                break
            flat = int(np.argmax(cand))  # first True in row-major order
            ri, rj = divmod(flat, len(J))
            i, j = int(I[ri]), int(J[rj])
            order[i : j + 1] = reversed(order[i : j + 1])
            improved = True
            i0, j0 = i, j + 1
        if not improved:
            break
    return order


def two_opt(
    points: np.ndarray,
    order: Sequence[int],
    max_rounds: int = 50,
) -> List[int]:
    """Improve an *open* tour with first-improvement 2-opt moves.

    Endpoints stay fixed (the RV's entry point and final destination are
    pinned by the scheduler); only the interior visiting order changes.
    Terminates when a full sweep finds no improving move or after
    ``max_rounds`` sweeps.

    Returns:
        The improved order (a new list; the input is not mutated).
    """
    points = as_points(points)
    order = list(int(i) for i in order)
    n = len(order)
    if n < 4:
        return order
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    return _two_opt_vectorized(points, order, max_rounds)
