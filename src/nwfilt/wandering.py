"""Wandering-domain evidence: pairs reachable cheaply but returnable only dearly.

A certificate is a sample pair (x, z) whose excursion level(x, z) is exceeded
by the return level(z, x) by at least a reporting gap.  For budgets eps' in
the open interval between the two levels, z is reachable from x within eps'
while no eps'-link leads back, which is exactly the finite-resolution shadow
of a wandering domain.  Certificates are evidence at the sampled resolution,
never proofs; reports carry the grid spacing and horizon used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import LevelMatrix


@dataclass(frozen=True)
class WanderingCertificate:
    x: int
    z: int
    eps: float     # level(x, z), the excursion budget
    gap: float     # level(z, x) - level(x, z) > 0


def find_wandering_certificates(matrix: LevelMatrix, min_gap: float,
                                limit: int | None = None) -> list[WanderingCertificate]:
    """All pairs with return level exceeding excursion level by at least min_gap.

    Sorted by descending gap, then ascending (x, z).  ``link_level(system, x,
    z)`` gives a certificate's forward witness.  An empty list is evidence
    (not proof) that every sample is robustly recurrent at this resolution.
    """
    if not min_gap > 0:
        raise ValueError("min_gap must be positive")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    L = matrix.levels
    with np.errstate(invalid="ignore"):
        gap = L.T - L   # inf - inf yields NaN, which never passes the gate
        mask = np.isfinite(L) & (gap >= min_gap)
    xs, zs = np.nonzero(mask)
    gaps = gap[xs, zs]
    order = np.lexsort((zs, xs, -gaps))
    if limit is not None:
        order = order[:limit]
    return [WanderingCertificate(x=int(matrix.targets[xs[i]]), z=int(matrix.targets[zs[i]]),
                                 eps=float(L[xs[i], zs[i]]), gap=float(gaps[i]))
            for i in order]


def certify_point(matrix: LevelMatrix, x: int, z: int,
                  eps_prime: float) -> tuple[bool, str]:
    """Check that z is reachable from x below eps_prime but cannot return within it.

    Requires eps_prime strictly above the excursion level(x, z); returns the
    verdict together with both levels and the resolution caveats.
    """
    forward = matrix.entry(x, z)
    if not eps_prime > forward:
        raise ValueError(
            f"eps_prime must exceed the excursion level {forward:.9g}, got {eps_prime:.9g}")
    back = matrix.entry(z, x)
    ok = back > eps_prime
    caveat = f"horizon={matrix.horizon}"
    if matrix.spacing is not None:
        caveat += f", grid spacing h={matrix.spacing:.9g}"
    text = (f"excursion level(x={x} -> z={z}) = {forward:.9g}, "
            f"return level(z -> x) = {back:.9g}, probe eps' = {eps_prime:.9g}: "
            f"{'no return link within eps-prime' if ok else 'a return link exists within eps-prime'} "
            f"at sampled resolution ({caveat})")
    return ok, text
