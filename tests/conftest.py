"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: permutation
composition works on raw image tuples, a concrete embedding's signature is
tallied by chaining its pieces into summands, and joint-scale membership is
decided by enumerating unital signatures level by level, or by searching
levels for a certified congruence state period.
"""

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

from cyclealg.cycle_core import enumerate_automorphisms
from cyclealg.limits import ScaleMembership, is_extreme
from cyclealg.signatures import (
    CycleAlgebraShape,
    JointScaleElement,
    Signature,
    h1,
    joint_scale_finite,
    k0_matrix,
)

# Largest total multiplicity for which the m=3 signature enumeration is run in
# full; beyond this the split reduction below is used (validated against the
# full enumeration in test_limits and the acceptance suite).
FULL_ENUM_LIMIT = 40

# Generic feasibility cap: number of signatures C(total + 2m - 1, 2m - 1)
# enumerated in full before falling back to the split reduction.
FULL_ENUM_SIGNATURES = 1_500_000


def cli_battery(tmp_path):
    """The CLI determinism battery of acceptance criterion 8: one argv per command.

    Writes the spec files it names under ``tmp_path``.
    """
    specs = {
        "stationary": {"schema_version": 1, "m": 3, "mode": "stationary_matroid", "d": 4, "s": 6},
        "other": {"schema_version": 1, "m": 3, "mode": "stationary_matroid", "d": 4, "s": 12},
        "explicit": {"schema_version": 1, "m": 3, "mode": "explicit",
                     "shapes": [[1] * 6, [2] * 6], "embeddings": [[1, 1, 0, 0, 0, 0]]},
    }
    path = {}
    for name, spec in specs.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(spec), encoding="utf-8")
    eye_rows = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
    return [
        ["invariants", str(path["stationary"]), "--json"],
        ["invariants", str(path["explicit"])],
        ["compare", str(path["stationary"]), str(path["other"]), "--json"],
        ["signature", "compose", "1,1,0,0,0,0", "0,0,1,0,0,0", "--json"],
        ["signature", "homrange", "2,1,2,1,2,1"],
        ["signature", "fromk0h1", "--m", "3", "--k0", eye_rows, "--h", "1", "--json"],
        ["verify", "lemma22", "--m", "3", "--dims", "2", "--trials", "5", "--seed", "9",
         "--json"],
        ["verify", "lemma31", "--m", "3", "--dims", "2", "--trials", "3", "--seed", "9",
         "--delta", "1e-6", "--json"],
        ["verify", "example23", "--json"],
        ["verify", "composition-oracle", "--m", "3", "--json"],
        ["verify", "lemma42-roundtrip", "--m", "3", "--max-entry", "1", "--json"],
    ]


def summand_tally(emb):
    """The signature of a standard-form rigid embedding, tallied summand by summand.

    The distinguished 2m-cycle E_{2k-1} = e_{2k-1, 2k}, E_{2k} = e_{2k+1, 2k}
    (cyclically) sits at the first slot of each source vertex.  Consecutive
    E's alternately share a column and a row, so the pieces of their images
    chain into one closed cycle per summand.  The target vertices of a
    summand's pieces are its vertex map, looked up among the automorphisms
    and counted at its label.
    """
    source, vertex = emb.source, emb.target.vertex_of_index
    two_m, corner = 2 * source.m, source.starts
    by_images = {theta.images(): theta for theta in enumerate_automorphisms(source.m)}
    keys = []
    for k in range(1, source.m + 1):
        column = corner[2 * k - 1]
        keys += [(corner[2 * k - 2], column), (corner[2 * k % two_m], column)]
    cycle = [emb.unit_images.get(key, ()) for key in keys]
    assert len({len(pieces) for pieces in cycle}) == 1, "cycle images differ in piece counts"
    by_col = [{p[1]: p for p in pieces} for pieces in cycle]
    by_row = [{p[0]: p for p in pieces} for pieces in cycle]
    tally = [0] * two_m
    used = [set() for _ in range(two_m)]
    for start in cycle[0]:
        chain = [start]
        for step in range(1, two_m):
            # odd steps share the previous piece's column, even steps its row
            nxt = by_col[step].get(chain[-1][1]) if step % 2 else by_row[step].get(chain[-1][0])
            assert nxt is not None, "cycle pieces do not match into summands"
            chain.append(nxt)
        assert chain[-1][0] == start[0], "cycle of pieces fails to close up"
        for step, piece in enumerate(chain):
            assert piece not in used[step], "a piece was matched into two summands"
            used[step].add(piece)
        # E_{2k-1} carries vertex 2k-1 to its row's vertex and vertex 2k to its column's
        images = tuple(vertex(piece[i]) for piece in chain[0::2] for i in (0, 1))
        assert images in by_images, f"summand vertex map {images} is not an automorphism"
        tally[by_images[images].index - 1] += 1
    return tuple(tally)


def signatures_with_entries_at_most(m, bound):
    """All signatures with every entry <= bound (includes the zero signature)."""
    for r in itertools.product(range(bound + 1), repeat=2 * m):
        yield Signature(m, r)


def compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers with the given sum, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def scale_element(sig):
    """The joint-scale element contributed by a rigid embedding with this signature."""
    return JointScaleElement(tuple(row[0] + row[sig.m] for row in k0_matrix(sig)), h1(sig))


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


def loop_scale_contains(tower, query):
    """Unital joint-scale membership of k/(md)^t by a search over levels.

    The element h = k/(md)^t is in the scale iff some h * s^T is an integer
    k_T with |k_T| <= (md)^T and k_T = (md)^T mod 2.  Past the first level
    where h * s^T is integral and within the bound, both persist, and the
    parity depends only on the state (k_T mod 2m, (md)^T mod 2m), which is
    eventually periodic; a repeated state without success certifies failure.
    Returns a ``ScaleMembership`` whose certificate is the first realizing
    (T, k_T).
    """
    md = tower.level_multiplier
    two_m = 2 * tower.m
    if tower.s == 0:
        if query.k == 0:
            return ScaleMembership(True, (query.t, md ** query.t),
                                   "homology group is trivial; every unital embedding realizes h = 0")
        return ScaleMembership(False, None, "homology group is trivial; only h = 0 occurs")

    s = tower.s
    h = Fraction(query.k, md ** query.t)

    rem = h.denominator
    while rem != 1:
        g = math.gcd(rem, abs(s))
        if g == 1:
            return ScaleMembership(False, None, "h lies outside the limit homology group")
        rem //= g

    if is_extreme(tower) and abs(h) > 1:
        return ScaleMembership(False, None,
                               "extreme tower: the homology scale is confined to the "
                               "symmetric interval [-1, 1]")

    level = 0
    scaled = h
    while scaled.denominator != 1 or abs(scaled) > Fraction(md) ** level:
        scaled *= s
        level += 1

    seen = {}
    for _ in range((two_m * two_m) + 2):
        k_level = int(scaled)
        if (k_level - md ** level) % 2 == 0:
            return ScaleMembership(True, (level, k_level),
                                   f"realized by a unital embedding at level exponent {level}")
        state = (k_level % two_m, pow(md, level, two_m))
        if state in seen:
            # The state transition (k, c) -> (k*s, c*md) mod 2m is a function
            # of the state, so a repeat certifies a period with no success in
            # it; check the detected period explicitly on both components.
            period = level - seen[state]
            assert pow(md, level + period, two_m) == state[1]
            assert (state[0] * pow(s, period, two_m)) % two_m == state[0]
            return ScaleMembership(False, None,
                                   "congruence with the level parity fails at every level "
                                   f"(state period {period} certified)")
        seen[state] = level
        scaled *= s
        level += 1
    raise AssertionError("congruence search failed to reach a periodic state")
