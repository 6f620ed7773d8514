"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: permutation
composition works on raw image tuples, and joint-scale membership is decided
by enumerating unital signatures level by level.
"""

import math
from fractions import Fraction
from functools import lru_cache

from cyclealg.signatures import CycleAlgebraShape, joint_scale_finite

# Largest total multiplicity for which the m=3 signature enumeration is run in
# full; beyond this the split reduction below is used (validated against the
# full enumeration in test_limits and the acceptance suite).
FULL_ENUM_LIMIT = 40

# Generic feasibility cap: number of signatures C(total + 2m - 1, 2m - 1)
# enumerated in full before falling back to the split reduction.
FULL_ENUM_SIGNATURES = 1_500_000


def full_enum_feasible(m, total):
    return math.comb(total + 2 * m - 1, 2 * m - 1) <= FULL_ENUM_SIGNATURES


def compose_images(images_a, images_b):
    """Permutation composition on raw image tuples: apply b first, then a."""
    return tuple(images_a[images_b[v] - 1] for v in range(len(images_b)))


@lru_cache(maxsize=None)
def unital_h1_set_full(m, total):
    """Homology values of unital signatures with the given total, by full enumeration."""
    shape = CycleAlgebraShape.uniform(m, total)
    return frozenset(e.h_part for e in joint_scale_finite(shape, unital_only=True,
                                                          max_total=max(total, 64)))


def unital_h1_contains_split(k, total):
    """Membership in the unital homology-value set via the rotation/reflection split.

    A signature contributes h = P - Q where P is its rotation total and Q its
    reflection total, and every split (P, Q) with P + Q = total is realized
    (put everything on the first rotation and first reflection class).  So
    the value set is {2P - total : 0 <= P <= total}.
    """
    return abs(k) <= total and (k - total) % 2 == 0


def unital_h1_contains(m, k, total):
    if full_enum_feasible(m, total):
        return k in unital_h1_set_full(m, total)
    return unital_h1_contains_split(k, total)


def brute_scale_contains(tower, k, t, extra_depth=6):
    """Joint-scale membership by searching realizing levels directly.

    The element h = k/(md)^t is in the unital joint scale iff some level T
    carries a unital signature with homology value h * s^T.  For s = 0 the
    limit homology group is trivial and only h = 0 occurs.
    """
    md = tower.m * tower.d
    if tower.s == 0:
        return k == 0
    h = Fraction(k, md ** t)
    for level in range(0, 2 * t + extra_depth + 1):
        scaled = h * Fraction(tower.s) ** level
        if scaled.denominator != 1:
            continue
        if unital_h1_contains(tower.m, int(scaled), md ** level):
            return True
    return False
