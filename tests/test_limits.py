import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    brute_scale_contains,
    enumerate_S,
    loop_scale_contains,
    stationary_prefix,
    unital_h1_contains_split,
    unital_h1_set_full,
)

from cyclealg.errors import (
    CrossCycleLengthError,
    EnumerationBoundError,
    InvalidIndexError,
    InvalidTowerError,
)
from cyclealg.limits import (
    ExplicitTower,
    IsomorphismVerdict,
    LimitScaleQuery,
    LocalizedGroup,
    StationaryMatroidTower,
    SupernaturalNumber,
    decide_isomorphism,
    finite_level_invariants,
    h1_limit,
    is_extreme,
    is_homologically_limited,
    k0_limit,
    prime_factors,
    progression,
    unital_joint_scale_contains,
    unital_scale_numerators,
)
from cyclealg.signatures import (
    CycleAlgebraShape,
    Signature,
    h1,
    joint_scale_finite,
    k0_matrix,
)

def tower(m, d, s):
    return StationaryMatroidTower(m, d, s)


# -- basic data ----------------------------------------------------------------

def test_prime_factors():
    assert prime_factors(12) == {2: 2, 3: 1}
    assert prime_factors(1) == {}
    assert prime_factors(30) == {2: 1, 3: 1, 5: 1}


def test_prime_factors_bounded_trial_division():
    below, above = 2 ** 20 - 3, 2 ** 20 + 7  # the primes next to the trial bound 2^20
    big = 2 ** 40 - 87  # the largest prime below 2^40
    assert prime_factors(below ** 2) == {below: 2}
    assert prime_factors(3 * big) == {3: 1, big: 1}
    assert prime_factors(2 ** 64 * above) == {2: 64, above: 1}
    for n in (above ** 2, 10 ** 18 + 3, 3 * (10 ** 18 + 3)):
        with pytest.raises(EnumerationBoundError, match="no prime factor up to 2"):
            prime_factors(n)
    # a tower factors md and |s| once, when their primes are first read
    t = tower(3, big, 3)
    assert t.md_primes == (3, big) and t.s_primes == (3,)
    with pytest.raises(EnumerationBoundError):
        tower(3, 10 ** 18 + 3, 3).md_primes


def test_supernatural_numbers():
    # every K0 datum is n^inf, so a supernatural number is its sorted prime set
    a = SupernaturalNumber((2, 3))
    assert a.primes == (2, 3) and str(a) == "2^inf * 3^inf"
    assert a.to_json() == {"2": "inf", "3": "inf"}
    assert a == SupernaturalNumber(tower(3, 4, 0).md_primes) == k0_limit(tower(3, 2, 0))[0]
    assert a != SupernaturalNumber(tower(3, 5, 3).md_primes)


def test_enumerate_S():
    assert enumerate_S(3, 2) == [-6, 0, 6]
    assert enumerate_S(3, 3) == [-9, -3, 3, 9]
    assert enumerate_S(4, 1) == [-4, 4]
    for m in (3, 4, 5):
        for d in range(1, 11):
            values = enumerate_S(m, d)
            assert len(values) == d + 1
            assert all((s - m * d) % (2 * m) == 0 for s in values)
            # the test-side list is exactly what the tower's O(1) check admits
            admitted = []
            for s in range(-m * d - 2 * m, m * d + 2 * m + 1):
                try:
                    admitted.append(StationaryMatroidTower(m, d, s).s)
                except InvalidIndexError:
                    pass
            assert admitted == values


@pytest.mark.parametrize("d,s,name", [
    (4.0, 6, "d"), (True, 3, "d"), ("4", 6, "d"), (0, 0, "d"),
    (4, 6.0, "s"), (4, False, "s"), (4, "6", "s"), (4, 5, "s")])
def test_tower_refusals_name_the_argument(d, s, name):
    # d = True would pass as 1 with s = 3, and s = False as 0 with d = 4
    with pytest.raises(InvalidIndexError) as err:
        tower(3, d, s)
    assert err.value.name == name


def test_tower_numpy_integers_become_python_ints():
    t = tower(np.int64(3), np.int32(4), np.int64(-6))
    assert (t.m, t.d, t.s) == (3, 4, -6)
    assert all(type(x) is int for x in (t.m, t.d, t.s))
    assert t == tower(3, 4, -6) and hash(t) == hash(tower(3, 4, -6))


def test_tower_factors_md_and_s_once(monkeypatch):
    import cyclealg.limits as limits
    calls = []
    monkeypatch.setattr(limits, "prime_factors",
                        lambda n, real=limits.prime_factors: calls.append(n) or real(n))
    t1, t2 = tower(3, 10, 30), tower(3, 10, -30)
    assert calls == []  # construction factors nothing
    for _ in range(3):
        decide_isomorphism(t1, t2)
        k0_limit(t1), h1_limit(t1)
        unital_joint_scale_contains(t1, LimitScaleQuery(1, 7))
    assert sorted(calls) == [30, 30, 30, 30]  # md and |s| of each tower, once
    assert tower(3, 4, 0).s_primes == () and len(calls) == 4


def test_tower_validation_and_constant_signature():
    with pytest.raises(InvalidIndexError, match=r"\{-6 \+ 6j : j = 0, \.\., 2\}"):
        tower(3, 2, 3)
    with pytest.raises(InvalidIndexError):
        tower(3, 2, 12)
    with pytest.raises(InvalidIndexError):
        tower(3, 2, 6.0)
    with pytest.raises(InvalidIndexError):
        tower(2, 1, 2)
    t = tower(3, 4, 6)
    sig = t.constant_signature()
    assert sig.r == (3, 1, 3, 1, 3, 1)
    assert h1(sig) == 6
    # every admissible s is realized by its constant signature
    for d in range(1, 7):
        for s in enumerate_S(3, d):
            sig = tower(3, d, s).constant_signature()
            assert sig.r[0] + sig.r[1] == d and h1(sig) == s


def test_k0_limit():
    sn, desc = k0_limit(tower(3, 1, 3))
    assert str(sn) == "3^inf" and desc["summands"] == 2 and desc["order_unit"] == [1, 1]
    sn4, _ = k0_limit(tower(3, 4, 0))
    assert str(sn4) == "2^inf * 3^inf"
    sn2, _ = k0_limit(tower(3, 2, 0))
    assert sn2 == sn4  # same prime sets under infinite exponents


def test_h1_limit():
    trivial = h1_limit(tower(3, 4, 0))
    assert trivial == LocalizedGroup(()) and trivial.kind == "trivial"
    assert trivial.describe() == "0"
    group = h1_limit(tower(3, 4, 6))
    assert group == h1_limit(tower(3, 4, -6)) == LocalizedGroup((2, 3))
    assert group.kind == "localization" and group.describe() == "Z[1/(2*3)]"
    assert h1_limit(tower(3, 12, 30)).primes == (2, 3, 5)


def test_extreme_and_homologically_limited():
    assert is_extreme(tower(3, 2, 6))
    assert not is_extreme(tower(3, 4, 6))
    assert not is_extreme(tower(3, 4, 0))
    assert is_homologically_limited(tower(3, 4, 6))
    assert not is_homologically_limited(tower(3, 2, 6))
    assert not is_homologically_limited(tower(3, 4, 0))


# -- joint scale membership ------------------------------------------------------

def test_scale_membership_examples():
    # extreme d=1: h = 1 is in scale, h = 5/3 is out (interval bound)
    t = tower(3, 1, 3)
    assert unital_joint_scale_contains(t, LimitScaleQuery(3, 1))
    out = unital_joint_scale_contains(t, LimitScaleQuery(5, 1))
    assert not out and "interval" in out.reason
    # parity obstruction: even numerators never occur when md is odd
    out = unital_joint_scale_contains(t, LimitScaleQuery(2, 1))
    assert not out and "parity" in out.reason
    assert not unital_joint_scale_contains(t, LimitScaleQuery(0, 1))
    # nonextreme even d: everything with admissible denominator is in scale
    t = tower(3, 4, 6)
    for k in (-20, -1, 0, 1, 5, 12, 100):
        assert unital_joint_scale_contains(t, LimitScaleQuery(k, 2))
    # h outside the limit homology group
    t = tower(3, 5, 3)
    out = unital_joint_scale_contains(t, LimitScaleQuery(1, 1))
    assert not out and "outside the limit homology group" in out.reason


def test_scale_membership_s0():
    t = tower(3, 4, 0)
    assert unital_joint_scale_contains(t, LimitScaleQuery(0, 1))
    assert not unital_joint_scale_contains(t, LimitScaleQuery(1, 1))


def test_admissible_s_is_decided_without_enumeration():
    # the admissible set of d = 10^9 has 10^9 + 1 members; deciding s never builds it
    for m, d in ((3, 10 ** 9), (4, 10 ** 30), (5, 10 ** 9 + 1)):
        md = m * d
        for s in (-md, -md + 2 * m, md - 2 * m, md):
            assert tower(m, d, s).s == s
        for s in (-md - 2 * m, -md + m, md - 1, md + 2 * m):
            with pytest.raises(InvalidIndexError):
                tower(m, d, s)


def _membership_loop(t):
    md = t.level_multiplier
    return [k for k in range(-md, md + 1) if loop_scale_contains(t, LimitScaleQuery(k, 1))]


def test_unital_scale_numerators_match_membership_exhaustive():
    for m in range(3, 7):
        for d in range(1, 25):
            for s in enumerate_S(m, d):
                t = tower(m, d, s)
                assert list(unital_scale_numerators(t)) == _membership_loop(t), (m, d, s)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6),
       st.one_of(st.integers(1, 10 ** 12),
                 st.builds(lambda a, b, c: 2 ** a * 3 ** b * 5 ** c,
                           st.integers(0, 12), st.integers(0, 8), st.integers(0, 6))),
       st.data())
def test_unital_scale_numerators_match_membership_large_d(m, d, data):
    md = m * d
    t = tower(m, d, -md + 2 * m * data.draw(st.integers(0, d)))
    numerators = unital_scale_numerators(t)
    k = data.draw(st.one_of(st.integers(-md, md),
                            st.integers(0, len(numerators) - 1).map(numerators.__getitem__)))
    assert (k in numerators) == bool(unital_joint_scale_contains(t, LimitScaleQuery(k, 1)))


def _coprime_part(md, s):
    """The largest divisor of md coprime to s: md without its gcd with a high power of s."""
    return md // math.gcd(md, s ** md.bit_length())


def _assert_matches_loop(t, query):
    got, want = unital_joint_scale_contains(t, query), loop_scale_contains(t, query)
    assert (got.contained, got.certificate) == (want.contained, want.certificate), (t, query)


def test_scale_membership_matches_loop_oracle_exhaustive():
    # decision and certificate, on both sides of every condition's boundary
    for m, top in ((3, 8), (4, 5), (5, 4), (6, 3)):
        for d in range(1, top + 1):
            md = m * d
            for s in enumerate_S(m, d):
                t = tower(m, d, s)
                for tt in (1, 2):
                    bound = md ** tt + 2 * m
                    for k in range(-bound, bound + 1):
                        _assert_matches_loop(t, LimitScaleQuery(k, tt))


_SMOOTH = st.builds(lambda a, b, c: 2 ** a * 3 ** b * 5 ** c,
                    st.integers(0, 30), st.integers(0, 15), st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8), st.one_of(st.integers(1, 10 ** 12), _SMOOTH),
       st.integers(1, 4), st.data())
def test_scale_membership_matches_loop_oracle_large(m, d, tt, data):
    md = m * d
    s = data.draw(st.one_of(st.sampled_from((-md, md)),
                            st.integers(0, d).map(lambda j: -md + 2 * m * j)))
    t = tower(m, d, s)
    top = md ** tt
    c = _coprime_part(md, s) ** tt if s else top
    k = data.draw(st.one_of(st.integers(-top, top),
                            st.integers(-(top // c), top // c).map(lambda j: j * c)))
    _assert_matches_loop(t, LimitScaleQuery(k, tt))


def test_scale_membership_past_the_factoring_bound():
    # |s| = 6p with p prime above (2^20 + 1)^2 cannot be factored by trial
    # division, and membership never needs to
    p = 2 ** 41 + 27
    extreme, t = tower(3, 2 * p, 6 * p), tower(3, 2 * p + 2, 6 * p)
    with pytest.raises(EnumerationBoundError):
        h1_limit(t).describe()
    out = unital_joint_scale_contains(t, LimitScaleQuery(1, 1))
    assert not out and "outside the limit homology group" in out.reason
    c = 5 * 36650387593  # the part of md = 6(p + 1) = 2^3 3^2 c coprime to 6p
    # h = c/md = 1/72 is first an integer at T = 3 (3p^3, odd) and meets the parity at T = 4
    assert unital_joint_scale_contains(t, LimitScaleQuery(c, 1)).certificate == (4, 18 * p ** 4)
    for query in (LimitScaleQuery(1, 1), LimitScaleQuery(c, 1), LimitScaleQuery(-3 * c ** 2, 2)):
        _assert_matches_loop(t, query)
    for k in (1, 6 * p, 6 * p + 1, -2):
        _assert_matches_loop(extreme, LimitScaleQuery(k, 1))
    out = unital_joint_scale_contains(extreme, LimitScaleQuery(6 * p + 1, 1))
    assert not out and "interval" in out.reason


@pytest.mark.parametrize("m,d,s,k,t", [
    (3, 1000, 2994, 10 ** 50 * 3000, 1),           # h = 10^50: T near 57,500
    (3, 1000, -2994, -125 * (8 * 10 ** 50 + 1), 1),
    (3, 5, 9, 5 * (10 ** 50 + 1), 1),              # md odd: h = (10^50 + 1)/3
    (4, 6, 16, 3 ** 40 * 7, 40),                   # h = 7/2^120: 30 levels, parity 31
    (3, 4, 12, 12 ** 20 - 1, 20),                  # extreme: |h| <= 1
])
def test_scale_certificate_past_the_loop(m, d, s, k, t):
    # checked from the definition, without a level loop: h s^T is an integer
    # within the capacity (md)^T with its parity, and h s^(T-1) is not
    t_ = tower(m, d, s)
    out = unital_joint_scale_contains(t_, LimitScaleQuery(k, t))
    assert out
    level, value = out.certificate
    md = m * d

    def realized(n, v):
        return abs(v) <= md ** n and (v - md ** n) % 2 == 0

    assert value * md ** t == k * s ** level and realized(level, value)
    if level:
        below, rem = divmod(k * s ** (level - 1), md ** t)
        assert rem or not realized(level - 1, below)


def test_scale_certificates_are_realizing_levels():
    # a certificate (T, k_T) means: a unital signature at level exponent T
    # with homology value k_T and limit class equal to the query
    for t in [tower(3, 1, 3), tower(3, 2, 6), tower(3, 3, 3), tower(3, 4, 6),
              tower(3, 3, -9), tower(3, 2, -6)]:
        md = t.m * t.d
        for k in range(-2 * md, 2 * md + 1):
            res = unital_joint_scale_contains(t, LimitScaleQuery(k, 1))
            if res:
                level, value = res.certificate
                total = md ** level
                assert unital_h1_contains_split(value, total)
                if t.s != 0:
                    # the realizing value rescales back to the query element
                    from fractions import Fraction
                    assert Fraction(value, t.s ** level) == Fraction(k, md)


def test_scale_membership_against_level_bruteforce():
    towers = [tower(3, d, s) for d in (1, 2, 3) for s in enumerate_S(3, d)]
    for t in towers:
        md = t.m * t.d
        for tt in (1, 2):
            for k in range(-(md ** tt) - 7, md ** tt + 8):
                got = bool(unital_joint_scale_contains(t, LimitScaleQuery(k, tt)))
                want = brute_scale_contains(t, k, tt)
                assert got == want, (t, k, tt, got, want)


def test_split_reduction_matches_full_enumeration_small():
    for m, totals in [(3, range(1, 13)), (4, list(range(1, 9)) + [16]),
                      (5, range(1, 7))]:
        for total in totals:
            full = unital_h1_set_full(m, total)
            split = {k for k in range(-total - 3, total + 4)
                     if unital_h1_contains_split(k, total)}
            assert split == full, (m, total)


def test_scale_membership_oracle_for_longer_cycles():
    # the stationary family for m > 3 is exposed only because the level
    # enumeration oracle agrees with the closed form
    cases = [(4, 1), (4, 2), (5, 1)]
    for m, d in cases:
        for s in enumerate_S(m, d):
            t = tower(m, d, s)
            md = m * d
            for tt in (1, 2):
                for k in range(-(md ** tt) - 2 * m - 1, md ** tt + 2 * m + 2):
                    got = bool(unital_joint_scale_contains(t, LimitScaleQuery(k, tt)))
                    want = brute_scale_contains(t, k, tt)
                    assert got == want, (m, d, s, k, tt, got, want)


def test_scale_membership_symmetric_in_s():
    # composing with the reflection flips homology signs, so the scale and
    # hence membership cannot see the sign of s
    for d in (1, 2, 3, 4):
        for s in enumerate_S(3, d):
            if s <= 0:
                continue
            plus, minus = tower(3, d, s), tower(3, d, -s)
            for k in range(-3 * d - 5, 3 * d + 6):
                q = LimitScaleQuery(k, 1)
                assert bool(unital_joint_scale_contains(plus, q)) == \
                    bool(unital_joint_scale_contains(minus, q))


def test_verdicts_cohere_with_scale_membership():
    # isomorphic towers answer every sampled scale query identically, and a
    # boundedness witness comes with an explicit distinguishing query
    towers = [tower(3, d, s) for d in (2, 4) for s in enumerate_S(3, d)]
    for a, b in itertools.product(towers, repeat=2):
        verdict = decide_isomorphism(a, b)
        md_a, md_b = 3 * a.d, 3 * b.d
        if verdict.isomorphic and a.s != 0:
            for t in (1, 2):
                for k in range(-(6 ** t) - 5, 6 ** t + 6):
                    qa = LimitScaleQuery(k * (md_a // 6) ** t, t)
                    qb = LimitScaleQuery(k * (md_b // 6) ** t, t)
                    assert bool(unital_joint_scale_contains(a, qa)) == \
                        bool(unital_joint_scale_contains(b, qb)), (a, b, k, t)
        if verdict.witness == "joint_scale_boundedness":
            extreme, other = (a, b) if abs(a.s) == md_a else (b, a)
            big = LimitScaleQuery(2 * (3 * extreme.d), 1)
            assert not unital_joint_scale_contains(extreme, big)
            assert unital_joint_scale_contains(other, LimitScaleQuery(2 * (3 * other.d), 1))


# -- isomorphism verdicts --------------------------------------------------------

def test_verdict_examples():
    v = decide_isomorphism(tower(3, 4, 6), tower(3, 4, -6))
    assert v.isomorphic and v.verdict == "isomorphic"
    v = decide_isomorphism(tower(3, 4, 12), tower(3, 4, 6))
    assert not v.isomorphic and v.witness == "joint_scale_boundedness"
    v = decide_isomorphism(tower(3, 12, 30), tower(3, 12, 6))
    assert not v.isomorphic and v.witness == "h1_group"
    assert "Z[1/(2*3*5)]" in v.detail and "Z[1/(2*3)]" in v.detail
    v = decide_isomorphism(tower(3, 2, 6), tower(3, 2, -6))
    assert v.isomorphic
    v = decide_isomorphism(tower(3, 1, 3), tower(3, 2, 6))
    assert not v.isomorphic and v.witness == "k0_supernatural_data"
    v = decide_isomorphism(tower(3, 2, 0), tower(3, 8, 0))
    assert v.isomorphic  # trivial homology, matching K0 data


def test_verdict_refuses_cross_length():
    with pytest.raises(CrossCycleLengthError):
        decide_isomorphism(tower(3, 1, 3), StationaryMatroidTower(4, 1, 4))


def test_verdict_requires_witness():
    with pytest.raises(InvalidIndexError):
        IsomorphismVerdict(False, None, "missing witness")


def test_verdict_is_equivalence_on_family():
    towers = [tower(3, d, s) for d in range(1, 7) for s in enumerate_S(3, d)]
    verdicts = {}
    for a, b in itertools.product(towers, repeat=2):
        verdicts[(a, b)] = decide_isomorphism(a, b).isomorphic
    for a in towers:
        assert verdicts[(a, a)]
    for a, b in itertools.product(towers, repeat=2):
        assert verdicts[(a, b)] == verdicts[(b, a)]
    for a, b, c in itertools.product(towers, repeat=3):
        if verdicts[(a, b)] and verdicts[(b, c)]:
            assert verdicts[(a, c)]


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 7), st.integers(1, 30), st.sampled_from((2, 3)), st.data())
def test_tower_is_isomorphic_to_its_telescopes(m, d, k, data):
    # k levels at a time: the level multiplier becomes (md)^k and the linking
    # signature's homology multiplier s^k
    s = -m * d + 2 * m * data.draw(st.integers(0, d))
    verdict = decide_isomorphism(tower(m, d, s), tower(m, m ** (k - 1) * d ** k, s ** k))
    assert verdict.isomorphic, verdict


# -- finite-level invariants -----------------------------------------------------

def test_single_level_echo():
    t = ExplicitTower((CycleAlgebraShape.uniform(3, 1),), ())
    levels = finite_level_invariants(t)
    assert len(levels) == 1
    assert levels[0]["composite_signature"] is None
    assert levels[0]["vertex_mults"] == [1, 1, 1, 1, 1, 1]


def test_stationary_prefix_composites():
    # s = 0, d = 2: the composite matrix after two steps is the square
    t = tower(3, 2, 0)
    levels = finite_level_invariants(stationary_prefix(t, 3))
    step = np.array(k0_matrix(t.constant_signature()))
    assert np.array_equal(np.array(levels[1]["k0_matrix"]), step)
    assert np.array_equal(np.array(levels[2]["k0_matrix"]), step @ step)
    assert levels[1]["h1"] == 0 and levels[2]["h1"] == 0
    # homology multiplies along the tower: composite h after t steps is s^t
    t = tower(3, 1, 3)
    levels = finite_level_invariants(stationary_prefix(t, 4))
    assert [lv["h1"] for lv in levels[1:]] == [3, 9, 27]


def test_capacity_violation_names_level():
    shapes = (CycleAlgebraShape.uniform(3, 1), CycleAlgebraShape.uniform(3, 1))
    embeddings = (Signature(3, (1, 1, 0, 0, 0, 0)),)
    with pytest.raises(InvalidTowerError) as err:
        ExplicitTower(shapes, embeddings)
    assert err.value.level == 2


def test_explicit_tower_validation():
    with pytest.raises(InvalidTowerError):
        ExplicitTower((), ())
    with pytest.raises(InvalidTowerError):
        ExplicitTower((CycleAlgebraShape.uniform(3, 1),),
                      (Signature(3, (1, 0, 0, 0, 0, 0)),))
    with pytest.raises(InvalidTowerError):
        ExplicitTower((CycleAlgebraShape.uniform(3, 1), CycleAlgebraShape.uniform(3, 1)),
                      (Signature.zero(3),))


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("fault,message", [
    (lambda sig: Signature.zero(3), "must be nonzero"),
    (lambda sig: Signature(4, sig.r + (0, 0)), "has m=4"),
])
def test_explicit_tower_error_names_the_linked_level(index, fault, message):
    # the linking signature at index i maps level i + 1 into level i + 2
    shapes = tuple(CycleAlgebraShape.uniform(3, 2 ** i) for i in range(4))
    embeddings = [Signature(3, (1, 1, 0, 0, 0, 0))] * 3
    embeddings[index] = fault(embeddings[index])
    with pytest.raises(InvalidTowerError, match=f"into level {index + 2} {message}") as err:
        ExplicitTower(shapes, embeddings)
    assert err.value.level == index + 2


def _as_progression(values):
    """{lo, hi, step} of a sorted list that must be an arithmetic progression."""
    if not values:
        return {}
    step = values[1] - values[0] if len(values) > 1 else 1
    assert values == list(range(values[0], values[-1] + 1, step))
    return {"lo": values[0], "hi": values[-1], "step": step}


def _reported_scale(shape):
    return finite_level_invariants(ExplicitTower((shape,), ()))[0]["unital_scale"]


def _split_scale(m, n):
    """Unital scale of a uniform level by the rotation/reflection split (conftest).

    The count is the number of signatures of total n, by a running sum over
    the 2m classes; the homology values are those the split admits.
    """
    counts = [1] + [0] * n  # signatures over the classes so far, by total
    for _ in range(2 * m):
        counts = list(itertools.accumulate(counts))
    return {"element_count": counts[n],
            "h_values": _as_progression([k for k in range(-n, n + 1)
                                         if unital_h1_contains_split(k, n)])}


def test_unital_scale_reported_per_level():
    t = tower(3, 1, 3)
    levels = finite_level_invariants(stationary_prefix(t, 3))
    assert levels[0]["unital_scale"]["h_values"] == {"lo": -1, "hi": 1, "step": 2}
    assert levels[1]["unital_scale"]["h_values"] == {"lo": -3, "hi": 3, "step": 2}
    assert levels[2]["unital_scale"] == _split_scale(3, 9)
    assert _reported_scale(CycleAlgebraShape.uniform(3, 100)) == _split_scale(3, 100) == {
        "element_count": math.comb(105, 5), "h_values": {"lo": -100, "hi": 100, "step": 2}}


@pytest.mark.parametrize("m,top", [(3, 24), (4, 10), (5, 6), (6, 4)])
def test_unital_scale_closed_form_matches_enumeration(m, top):
    def enumerated(shape):
        scale = joint_scale_finite(shape, unital_only=True)
        return {"element_count": len(scale),
                "h_values": _as_progression(sorted({e.h_part for e in scale}))}

    for n in range(1, top + 1):
        shape = CycleAlgebraShape.uniform(m, n)
        assert _reported_scale(shape) == enumerated(shape) == _split_scale(m, n), (m, n)
    non_uniform = ((2,) + (1,) * (2 * m - 1), tuple(range(1, 2 * m + 1)),
                   (64,) + (65,) * (2 * m - 1))
    for mults in non_uniform:
        shape = CycleAlgebraShape(m, mults)
        assert _reported_scale(shape) == enumerated(shape) == {"element_count": 0,
                                                               "h_values": {}}
    # past the enumeration oracle's reach, against the split oracle it is checked with above
    for n in (65, 100):
        assert _reported_scale(CycleAlgebraShape.uniform(m, n)) == _split_scale(m, n)


def test_check_capacity_exact_beyond_int64():
    # level 16 holds 30^15 > 2^63 per vertex and needs exactly that many
    prefix = stationary_prefix(tower(3, 10, 30), 16)  # constructed, so capacity holds
    shapes = list(prefix.shapes)
    mults = shapes[-1].vertex_mults
    shapes[-1] = CycleAlgebraShape(3, (mults[0] - 1,) + mults[1:])
    with pytest.raises(InvalidTowerError) as err:
        ExplicitTower(tuple(shapes), prefix.embeddings)
    assert err.value.level == 16


@pytest.mark.parametrize("levels", [8, 16])
def test_long_homology_range_refused_before_report(levels):
    # the composite into level L has 30^(L-1) / 3 rotations per class and no
    # reflections, so its homology range has 2 * 30^(L-1) / 6 + 1 values
    reports = finite_level_invariants(stationary_prefix(tower(3, 10, 30), levels))
    for entry in reports[1:]:
        n = 30 ** (entry["level"] - 1)
        assert entry["composite_signature"] == [n // 3, 0] * 3
        assert entry["homology_range"] == {"lo": -n, "hi": n, "step": 6}
    # level 5 alone has 270001 values
    assert reports[4]["homology_range"] == {"lo": -810000, "hi": 810000, "step": 6}


def test_progression():
    assert progression(range(0)) == {}
    assert progression(range(5, 6, 6)) == {"lo": 5, "hi": 5, "step": 6}
    assert progression(range(-9, 10, 6)) == {"lo": -9, "hi": 9, "step": 6}
    n = 3 * 2 ** 200  # more members than len() can count
    assert progression(range(-n, n + 1, 6)) == {"lo": -n, "hi": n, "step": 6}
    assert progression(range(-n, n + 5, 6)) == {"lo": -n, "hi": n, "step": 6}


def test_composite_total_beyond_int64_reported():
    # one rotation class only, so the homology range stays a single value;
    # the last composite total 30^13 is beyond 2^63
    shapes = tuple(CycleAlgebraShape.uniform(3, 30 ** k) for k in range(14))
    step = Signature(3, (30, 0, 0, 0, 0, 0))
    levels = finite_level_invariants(ExplicitTower(shapes, (step,) * 13))
    assert len(levels) == 14
    assert [sum(row) for row in levels[-1]["k0_matrix"]] == [30 ** 13] * 6
    assert levels[-1]["h1"] == 30 ** 13
