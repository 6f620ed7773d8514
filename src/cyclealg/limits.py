"""Limit invariants and the isomorphism decision for stationary towers.

The stationary family: fix m >= 3 and a level multiplier d >= 1, and form
the tower of 2m-cycle algebras with uniform vertex multiplicities
(md)^0, (md)^1, (md)^2, .. where every linking embedding has the constant
signature (p, q, p, q, ..) with p + q = d.  Writing s = m(p - q), the
possible homology multipliers are S = {-md, -md + 2m, .., md} (d + 1
values), one limit algebra per s.

Limit invariants computed here:

* the ordered K0 data: two copies (one per parity class) of the subgroup of
  Q attached to the generalised integer (md)^inf, order unit 1 in each,
* the limit homology group: trivial for s = 0, else the localization
  Z[1/s^inf],
* the homology part of the unital joint scale, decided in closed form for
  query elements k/(md)^t, with the realizing level as certificate,
* the star-extendible isomorphism verdict with a named witness.

Everything is exact (Python integers).  The one float, an estimate of a
certificate level, is corrected by exact integer comparisons.
"""

from __future__ import annotations

import functools
import math

from .cycle_core import Value, check_half_length, check_integer
from .errors import (
    CrossCycleLengthError,
    EnumerationBoundError,
    InvalidIndexError,
    InvalidTowerError,
)
from .signatures import (
    CycleAlgebraShape,
    Signature,
    h1,
    homology_range,
    k0_matrix,
    signature_compose,
)

#: Largest trial divisor of ``prime_factors``.
TRIAL_DIVISION_BOUND = 2 ** 20


def prime_factors(n) -> dict:
    """Prime factorization of a positive integer as {prime: exponent}.

    Trial division stops at B = ``TRIAL_DIVISION_BOUND``.  A cofactor left
    with no prime factor up to B is prime if it is below (B + 1)^2, and
    raises ``EnumerationBoundError`` otherwise, so every n <= B^2 is factored.
    """
    n = int(n)
    if n < 1:
        raise InvalidIndexError(f"prime factorization needs a positive integer, got {n}")
    out = {}
    p = 2
    while p * p <= n and p <= TRIAL_DIVISION_BOUND:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n >= p * p:
        raise EnumerationBoundError(
            f"the cofactor {n} has no prime factor up to 2^20 and exceeds 2^40, "
            "so it cannot be factored by trial division")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class SupernaturalNumber(Value):
    """The generalised integer n^inf, given by the sorted primes of n.

    Every K0 datum here is such an infinite power, so each prime carries the
    exponent infinity and only the prime set is stored.
    """

    _fields = ("primes",)

    def __init__(self, primes):
        self.__dict__.update(primes=primes)

    def __str__(self):
        return " * ".join(f"{p}^inf" for p in self.primes)

    def to_json(self):
        return {str(p): "inf" for p in self.primes}


class LocalizedGroup(Value):
    """The limit homology group: Z localized at the sorted ``primes``, or 0 without primes.

    The group is 0 exactly for s = 0; a nonzero s has |s| >= m >= 3, so its
    prime set is never empty.
    """

    _fields = ("primes",)

    def __init__(self, primes):
        self.__dict__.update(primes=primes)

    @property
    def kind(self) -> str:
        return "localization" if self.primes else "trivial"

    def describe(self) -> str:
        if not self.primes:
            return "0"
        return "Z[1/(" + "*".join(str(p) for p in self.primes) + ")]"


class StationaryMatroidTower(Value):
    """A stationary tower determined by (m, d, s), s one of the d + 1 admissible
    homology multipliers {-md, -md + 2m, .., md}."""

    _fields = ("m", "d", "s")

    def __init__(self, m, d, s):
        # s is admissible iff |s| <= md and s = md mod 2m: O(1), the d + 1
        # admissible values are never built.
        m = check_half_length(m, minimum=3)
        d = check_integer(d, "level multiplier d", 1, name="d")
        s = check_integer(s, "s", name="s")
        md = m * d
        if abs(s) > md or (s + md) % (2 * m):
            raise InvalidIndexError(
                f"s={s} is not in the admissible set {{-{md} + {2 * m}j : j = 0, .., {d}}}",
                "s")
        self.__dict__.update(m=m, d=d, s=s)

    @property
    def level_multiplier(self) -> int:
        return self.m * self.d

    @functools.cached_property
    def md_primes(self) -> tuple:
        """The primes of md, which alone determine the K0 data (md)^inf."""
        return tuple(sorted(prime_factors(self.level_multiplier)))

    @functools.cached_property
    def s_primes(self) -> tuple:
        """The primes of |s| (none for s = 0), which alone determine the homology group."""
        return tuple(sorted(prime_factors(abs(self.s)))) if self.s else ()

    def constant_signature(self) -> Signature:
        """The linking signature (p, q, p, q, ..) with p + q = d, m(p - q) = s."""
        quot, rem = divmod(self.s, self.m)
        assert rem == 0
        p = (self.d + quot) // 2
        q = self.d - p
        return Signature(self.m, (p, q) * self.m)


def k0_limit(tower: StationaryMatroidTower):
    """Limit ordered K0 data: ((md)^inf, description of summands, order unit, scale)."""
    sn = SupernaturalNumber(tower.md_primes)
    description = {
        "summands": 2,
        "summand_index": "the two vertex-parity classes",
        "group": f"subgroup of Q (+) Q of type {sn}",
        "order_unit": [1, 1],
        "scale": "elements between 0 and the order unit in each summand",
    }
    return sn, description


def h1_limit(tower: StationaryMatroidTower) -> LocalizedGroup:
    """Limit homology group: trivial for s = 0, else Z localized at the primes of |s|."""
    return LocalizedGroup(tower.s_primes)


def is_extreme(tower: StationaryMatroidTower) -> bool:
    """Extreme towers have |s| = md; their homology scale is a finite interval."""
    return abs(tower.s) == tower.level_multiplier


def is_homologically_limited(tower: StationaryMatroidTower) -> bool:
    """Whether the homology scale exhausts the limit homology group.

    True exactly for nonextreme towers with s != 0; for those the
    classification reduces to the enveloping C*-algebra plus the homology
    group.
    """
    return tower.s != 0 and not is_extreme(tower)


class LimitScaleQuery(Value):
    """The candidate unital joint-scale element 1/m (+) 1/m (+) k/(md)^t."""

    _fields = ("k", "t")

    def __init__(self, k, t):
        k = check_integer(k, "numerator k")
        t = check_integer(t, "exponent t", 1)
        self.__dict__.update(k=k, t=t)


class ScaleMembership(Value):
    """Decision with certificate: level exponent and realizing homology value."""

    _fields = ("contained", "certificate", "reason")

    def __init__(self, contained, certificate=None, reason=""):
        self.__dict__.update(contained=contained, certificate=certificate, reason=reason)

    def __bool__(self):
        return self.contained


def _coprime_part(md, s) -> int:
    """The largest divisor of md coprime to s (s != 0)."""
    c, g = md, math.gcd(md, s)
    while g != 1:
        c //= g
        g = math.gcd(c, g)
    return c


def unital_joint_scale_contains(tower: StationaryMatroidTower,
                                query: LimitScaleQuery) -> ScaleMembership:
    """Decide membership of 1/m (+) 1/m (+) h, h = k/(md)^t, in the unital joint scale.

    A unital rigid embedding into the level-T algebra (vertex multiplicities
    (md)^T) realizes exactly the homology values k_T with |k_T| <= (md)^T and
    k_T = (md)^T mod 2, and contributes the limit element h = k_T / s^T.  With
    c the largest divisor of md coprime to s, some level realizes h iff c^t
    divides k (h lies in Z[1/s]), |k| <= (md)^t when the tower is extreme, and
    k is odd when md is odd.  The certificate is the first such level T with
    its value h * s^T.
    """
    md, s, k, t = tower.level_multiplier, tower.s, query.k, query.t
    if s == 0:
        if k == 0:
            return ScaleMembership(True, (t, md ** t),
                                   "homology group is trivial; every unital embedding realizes h = 0")
        return ScaleMembership(False, None, "homology group is trivial; only h = 0 occurs")
    if k % _coprime_part(md, s) ** t:
        return ScaleMembership(False, None,
                               f"h lies outside the limit homology group Z[1/{abs(s)}]")
    if is_extreme(tower) and abs(k) > md ** t:
        return ScaleMembership(False, None,
                               "extreme tower: the homology scale is confined to the "
                               "symmetric interval [-1, 1]")
    if md % 2 and k % 2 == 0:
        return ScaleMembership(False, None,
                               "congruence with the level parity fails at every level: "
                               "md is odd and k is even")
    level, value = _certificate(md, s, k, t)
    return ScaleMembership(True, (level, value),
                           f"realized by a unital embedding at level exponent {level}")


def _certificate(md, s, k, t) -> tuple:
    """The first level T where k_T = h s^T, h = k/(md)^t, is realized, and k_T.

    k_T must be an integer with |k_T| <= (md)^T and the parity of (md)^T.  The
    caller has checked that some level realizes h.  Integrality and the bound
    persist once they hold (|s| <= md), so T is the larger of their first
    levels, plus one when the parity fails there: s = md mod 2, so one more
    factor s makes k_T even and (md)^T even for T >= 1.
    """
    g = math.gcd(k, md ** t)
    num, den = k // g, md ** t // g  # h = num/den in lowest terms
    # h s^T is an integer iff den divides s^T: strip the primes of s from den
    level, rest = 0, den
    while rest != 1:
        rest //= math.gcd(rest, s)
        level += 1
    # |num| |s|^T <= den (md)^T first holds at a level estimated in floats and
    # corrected exactly; an extreme tower (|s| = md) has |h| <= 1, so 0 there.
    if abs(num) > den:
        def fits(n):
            return abs(num) * abs(s) ** n <= den * md ** n

        bound = math.ceil((math.log(abs(num)) - math.log(den))
                          / math.log1p((md - abs(s)) / abs(s)))
        while bound > 0 and fits(bound - 1):
            bound -= 1
        while not fits(bound):
            bound += 1
        level = max(level, bound)
    value = num * s ** level // den
    if (value - md ** level) % 2:
        level, value = level + 1, value * s
    return level, value


def unital_scale_numerators(tower: StationaryMatroidTower) -> range:
    """The numerators k with 1/m (+) 1/m (+) k/(md) in the unital joint scale.

    ``unital_joint_scale_contains`` at t = 1, as one progression over
    [-md, md]: only k = 0 for s = 0, and otherwise the multiples of c, the
    largest divisor of md coprime to s, that are odd when md is odd, so of
    step c or 2c.  The interval bound of extreme towers cuts nothing here.
    """
    md = tower.level_multiplier
    if tower.s == 0:
        return range(0, 1)
    c = _coprime_part(md, tower.s)
    return range(-md, md + 1, c * (1 + md % 2))


class IsomorphismVerdict(Value):
    """Outcome of the star-extendible isomorphism decision.

    A negative verdict always names the distinguishing invariant in
    ``witness``; a positive verdict carries the matching certificate in
    ``detail``.
    """

    _fields = ("isomorphic", "witness", "detail")

    def __init__(self, isomorphic, witness=None, detail=""):
        if not isomorphic and not witness:
            raise InvalidIndexError("a negative verdict must carry a witness")
        self.__dict__.update(isomorphic=isomorphic, witness=witness, detail=detail)

    @property
    def verdict(self) -> str:
        return "isomorphic" if self.isomorphic else "not_isomorphic"


def decide_isomorphism(t1: StationaryMatroidTower,
                       t2: StationaryMatroidTower) -> IsomorphismVerdict:
    """Star-extendible isomorphism of the two stationary limit algebras.

    Invariants are compared in order: ordered K0 data (supernatural number),
    limit homology group, boundedness type of the homology scale
    (extreme versus nonextreme).  Pairs that agree on all three are
    isomorphic: extreme pairs and s = 0 pairs directly, and nonextreme
    nonzero pairs because equal localizations force coinciding unital joint
    scales.  Towers of different cycle lengths are refused, not compared.
    """
    if t1.m != t2.m:
        raise CrossCycleLengthError(
            f"cycle half-lengths differ (m={t1.m} vs m={t2.m}); "
            "no comparison across cycle lengths is defined"
        )

    k1, _ = k0_limit(t1)
    k2, _ = k0_limit(t2)
    if k1 != k2:
        return IsomorphismVerdict(False, "k0_supernatural_data",
                                  f"K0 data differ: {k1} vs {k2}")

    g1, g2 = h1_limit(t1), h1_limit(t2)
    if g1 != g2:
        return IsomorphismVerdict(False, "h1_group",
                                  f"homology groups differ: {g1.describe()} vs {g2.describe()}")

    e1, e2 = is_extreme(t1), is_extreme(t2)
    if e1 != e2:
        return IsomorphismVerdict(
            False, "joint_scale_boundedness",
            "homology scale is a symmetric finite interval for the extreme tower "
            "but congruence-restricted only for the nonextreme one")

    if e1:
        detail = ("extreme pair: matching K0 and homology data; the unital joint scales "
                  "coincide on the symmetric interval")
    elif t1.s == 0:
        detail = "trivial homology; the joint scale reduces to the K0 scale, which matches"
    else:
        detail = ("nonextreme pair with equal localizations; the unital joint scales "
                  "coincide (congruence restriction only)")
    return IsomorphismVerdict(True, None, detail)


# ---------------------------------------------------------------------------
# Finite-level invariants of explicit towers
# ---------------------------------------------------------------------------

class ExplicitTower(Value):
    """A finite tower prefix: shapes plus one linking signature per step.

    Construction checks capacity, so every instance is realizable: the
    standard embedding of each linking signature fits its target level.
    Refusals raise ``InvalidTowerError`` naming the first offending level.
    """

    _fields = ("shapes", "embeddings")

    def __init__(self, shapes, embeddings):
        shapes = tuple(shapes)
        embeddings = tuple(embeddings)
        if not shapes:
            raise InvalidTowerError("a tower needs at least one level", level=1)
        if len(embeddings) != len(shapes) - 1:
            raise InvalidTowerError(
                f"{len(shapes)} levels need {len(shapes) - 1} linking signatures, "
                f"got {len(embeddings)}", level=len(shapes))
        m = shapes[0].m
        check_half_length(m, minimum=3)
        for level, shape in enumerate(shapes, start=1):
            if shape.m != m:
                raise InvalidTowerError(f"level {level} has m={shape.m}, level 1 has m={m}",
                                        level=level)
        for level, sig in enumerate(embeddings, start=2):
            if sig.m != m:
                raise InvalidTowerError(
                    f"the linking signature into level {level} has m={sig.m}, the levels "
                    f"have m={m}", level=level)
            if sig.is_zero:
                raise InvalidTowerError(
                    f"the linking signature into level {level} must be nonzero", level=level)
        _check_capacity(shapes, embeddings)
        self.__dict__.update(shapes=shapes, embeddings=embeddings)

    @property
    def m(self) -> int:
        return self.shapes[0].m


def _check_capacity(shapes, embeddings) -> None:
    """Check K0(sig) . mults_src <= mults_tgt at every step, in exact integers."""
    for level, sig in enumerate(embeddings, start=2):
        src = shapes[level - 2].mults_parity_order()
        needed = [sum(a * b for a, b in zip(row, src)) for row in k0_matrix(sig)]
        tgt = shapes[level - 1].mults_parity_order()
        if any(n > t for n, t in zip(needed, tgt)):
            raise InvalidTowerError(
                f"embedding into level {level} needs vertex multiplicities "
                f"{needed} but the level has {list(tgt)}", level=level)


def progression(values: range) -> dict:
    """A range as {"lo", "hi", "step"}, hi its last member, or {} when it is empty."""
    if not values:
        return {}
    return {"lo": values[0], "hi": values[-1], "step": values.step}


def _unital_scale(shape: CycleAlgebraShape) -> dict:
    """The unital joint scale of a level algebra, in closed form.

    A unital embedding into a uniform level of size n has a signature of
    total n, and the map from signatures to scale elements (k0 part, h) is
    injective, so the scale has C(n + 2m - 1, 2m - 1) elements with h over
    {-n, -n + 2, .., n}.  A non-uniform level admits no unital embedding.
    """
    n = shape.vertex_mults[0]
    if len(set(shape.vertex_mults)) != 1:
        return {"element_count": 0, "h_values": progression(range(0))}
    return {"element_count": math.comb(n + 2 * shape.m - 1, 2 * shape.m - 1),
            "h_values": progression(range(-n, n + 1, 2))}


def finite_level_invariants(tower: ExplicitTower) -> list:
    """Per-level invariants of an explicit tower prefix.

    Reports per level the composed signature from level 1, its matrix and
    homology data, and the unital joint scale of the level algebra.  No
    limit verdict is attached: the input is a finite prefix.
    """
    reports, composite = [], None
    for level, shape in enumerate(tower.shapes, start=1):
        entry = {"level": level, "vertex_mults": list(shape.vertex_mults),
                 "composite_signature": None}
        if level > 1:
            step = tower.embeddings[level - 2]
            composite = step if composite is None else signature_compose(composite, step)
            entry.update(composite_signature=list(composite.r), k0_matrix=k0_matrix(composite),
                         h1=h1(composite), homology_range=progression(homology_range(composite)))
        entry["unital_scale"] = _unital_scale(shape)
        reports.append(entry)
    return reports
