import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import compose_images, compositions, scale_element, signatures_with_entries_at_most
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclealg.cycle_core import enumerate_automorphisms, parity_order
from cyclealg.errors import (
    CycleAlgebraError,
    EnumerationBoundError,
    HomologyRangeError,
    IncompatibleError,
    InvalidIndexError,
    K0NotRigidTypeError,
)
from cyclealg.limits import progression
from cyclealg.signatures import (
    MAX_FIBRE_MEMBERS,
    CycleAlgebraShape,
    JointScaleElement,
    Signature,
    h1,
    homology_range,
    joint_scale_finite,
    k0_is_rigid_type,
    k0_matrix,
    k0h1_roundtrip_report,
    permutation_matrix,
    signature_compose,
    signature_from_k0h1,
    unit_signatures,
)

ONES_BLOCKS_M3 = np.kron(np.eye(2, dtype=np.int64), np.ones((3, 3), dtype=np.int64))


def sig3(*r):
    return Signature(3, r)


def signatures_st(m=3, max_entry=4):
    return st.lists(st.integers(0, max_entry), min_size=2 * m, max_size=2 * m).map(
        lambda r: Signature(m, tuple(r)))


def small_pair_signatures_st(m=3, max_entry=2 ** 200):
    """Entries up to max_entry, except one rotation and one reflection entry <= 10."""
    def build(r, rot, refl):
        r = list(r)
        r[2 * rot], r[2 * refl + 1] = r[2 * rot] % 11, r[2 * refl + 1] % 11
        return Signature(m, tuple(r))
    return st.builds(build,
                     st.lists(st.integers(0, max_entry), min_size=2 * m, max_size=2 * m),
                     st.integers(0, m - 1), st.integers(0, m - 1))


def matmul(a, b):
    """Exact product of two matrices given as lists of Python-int rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# -- matrix and homology ----------------------------------------------------

def test_signature_validation():
    with pytest.raises(InvalidIndexError):
        Signature(2, (1, 0, 0, 0))
    with pytest.raises(InvalidIndexError):
        Signature(3, (1, 0, 0, 0, 0))
    with pytest.raises(InvalidIndexError):
        Signature(3, (1, -1, 0, 0, 0, 0))


@pytest.mark.parametrize("entry", [True, False, 1.7, 1.0, "1", None])
def test_signature_and_shape_refuse_non_integer_entries(entry):
    # int() would have read 1.7 as 1 and True as 1
    with pytest.raises(InvalidIndexError, match="signature entry must be an integer"):
        Signature(3, (entry, 0, 0, 0, 0, 1))
    with pytest.raises(InvalidIndexError, match="vertex multiplicity must be an integer"):
        CycleAlgebraShape(3, (2,) * 5 + (entry,))
    with pytest.raises(InvalidIndexError, match="cycle half-length must be an integer"):
        Signature(entry, (0,) * 6)


def test_numpy_integers_become_python_ints():
    sig = Signature(np.int64(3), np.array([2, 0, 1, 0, 0, 5], dtype=np.int64))
    shape = CycleAlgebraShape(np.int32(3), np.full(6, 4, dtype=np.uint16))
    assert sig.r == (2, 0, 1, 0, 0, 5) and shape.vertex_mults == (4,) * 6
    values = (sig.m, shape.m) + sig.r + shape.vertex_mults
    assert all(type(x) is int for x in values)


def test_k0_identity_class():
    assert np.array_equal(k0_matrix(sig3(1, 0, 0, 0, 0, 0)), np.eye(6, dtype=np.int64))


def test_k0_full_signature_is_twice_ones_blocks():
    assert np.array_equal(k0_matrix(sig3(1, 1, 1, 1, 1, 1)), 2 * ONES_BLOCKS_M3)


@pytest.mark.parametrize("p,q", [(1, 0), (2, 1), (3, 2), (0, 4)])
def test_k0_constant_signatures(p, q):
    sig = sig3(p, q, p, q, p, q)
    assert np.array_equal(k0_matrix(sig), (p + q) * ONES_BLOCKS_M3)
    assert h1(sig) == 3 * (p - q)


def k0_by_action(sig):
    """sum_j r_j P(theta_j) in Python ints, each class placed vertex by vertex through act."""
    order = parity_order(sig.m)
    rows = [[0] * len(order) for _ in order]
    for rj, theta in zip(sig.r, enumerate_automorphisms(sig.m)):
        for v in order:
            rows[order.index(theta.act(v))][order.index(v)] += rj
    return rows


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 16).flatmap(lambda m: st.lists(
    st.one_of(st.integers(0, 4), st.integers(0, 2 ** 200)),
    min_size=2 * m, max_size=2 * m).map(lambda r: Signature(m, tuple(r)))))
@example(sig3(2, 0, 1, 0, 0, 3))
@example(sig3(0, 1, 0, 1, 2, 0))
@example(Signature(4, (0, 1, 0, 1, 2, 0, 2 ** 200, 7)))
def test_k0_matches_permutation_sum(sig):
    mat = k0_matrix(sig)
    expected = k0_by_action(sig)
    assert mat == expected
    assert type(mat) is list and all(type(row) is list for row in mat)
    assert all(type(x) is int for row in mat for x in row)
    if max(sig.r) < 2 ** 31:  # the released int64 permutation matrices, where they do not wrap
        released = sum(rj * permutation_matrix(t)
                       for rj, t in zip(sig.r, enumerate_automorphisms(sig.m)))
        assert np.array_equal(mat, released)
    # the rows are fresh: writing into them leaves the next matrix alone
    for row in mat:
        row[0] += 1
    mat.append([])
    assert k0_matrix(sig) == expected


def test_k0_block_diagonal_parity():
    mat = np.array(k0_matrix(sig3(1, 2, 3, 4, 5, 6)))
    assert np.all(mat[:3, 3:] == 0)
    assert np.all(mat[3:, :3] == 0)


def test_k0_entries_are_python_ints():
    for sig in (sig3(1, 2, 3, 4, 5, 6), Signature(4, (2 ** 100,) * 8)):
        mat = k0_matrix(sig)
        assert isinstance(mat, list) and len(mat) == 2 * sig.m
        assert all(type(x) is int for row in mat for x in row)


def test_k0_row_sums_exact_beyond_int64():
    # int64 arithmetic wraps these row sums to -2^63
    mat = k0_matrix(sig3(2 ** 62, 2 ** 62, 0, 0, 0, 0))
    assert [sum(row) for row in mat] == [2 ** 63] * 6


def test_h1_values():
    assert h1(sig3(1, 0, 0, 0, 0, 0)) == 1
    assert h1(sig3(1, 1, 1, 1, 1, 1)) == 0
    assert h1(sig3(2, 1, 2, 1, 2, 1)) == 3


# -- composition ------------------------------------------------------------

def test_compose_identity():
    ident = sig3(1, 0, 0, 0, 0, 0)
    for sig in (sig3(0, 2, 1, 0, 3, 0), sig3(1, 1, 1, 1, 1, 1)):
        assert signature_compose(ident, sig).r == sig.r
        assert signature_compose(sig, ident).r == sig.r


def test_compose_unit_classes_follow_the_group():
    units = unit_signatures(3)
    # shift twice lands in the class labeled 5
    assert signature_compose(units[2], units[2]).r == units[4].r
    # expanding (1,1,0,..) * (1,1,0,..): four products, two land on each of
    # the first two classes
    assert signature_compose(sig3(1, 1, 0, 0, 0, 0), sig3(1, 1, 0, 0, 0, 0)).r == \
        (2, 2, 0, 0, 0, 0)


def test_compose_matches_raw_permutation_convolution():
    autos = enumerate_automorphisms(3)
    images = {a.index: a.images() for a in autos}
    lookup = {a.images(): a.index for a in autos}
    inner, outer = sig3(1, 0, 2, 0, 0, 1), sig3(0, 3, 0, 0, 1, 0)
    expected = [0] * 6
    for ia, ra in zip(range(1, 7), outer.r):
        for ib, rb in zip(range(1, 7), inner.r):
            expected[lookup[compose_images(images[ia], images[ib])] - 1] += ra * rb
    assert signature_compose(inner, outer).r == tuple(expected)


def test_compose_rejects_mixed_m():
    with pytest.raises(IncompatibleError):
        signature_compose(sig3(1, 0, 0, 0, 0, 0), Signature(4, (1,) + (0,) * 7))


@settings(max_examples=60, deadline=None)
@given(signatures_st(), signatures_st(), signatures_st())
def test_compose_associative(a, b, c):
    left = signature_compose(signature_compose(a, b), c)
    right = signature_compose(a, signature_compose(b, c))
    assert left.r == right.r


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(signatures_st(), signatures_st()),
                 st.tuples(signatures_st(max_entry=2 ** 200), signatures_st(max_entry=2 ** 200))))
def test_k0_and_h1_multiplicative(pair):
    inner, outer = pair
    comp = signature_compose(inner, outer)
    assert k0_matrix(comp) == matmul(k0_matrix(outer), k0_matrix(inner))
    assert h1(comp) == h1(outer) * h1(inner)


def test_functoriality_exhaustive_on_unit_classes():
    for m in (3, 4):
        for sa, sb in itertools.product(unit_signatures(m), repeat=2):
            comp = signature_compose(sb, sa)
            assert k0_matrix(comp) == matmul(k0_matrix(sa), k0_matrix(sb))
            assert h1(comp) == h1(sa) * h1(sb)


# -- conjugacy --------------------------------------------------------------

def test_conjugacy_is_signature_equality():
    assert sig3(1, 2, 0, 0, 0, 0).r == sig3(1, 2, 0, 0, 0, 0).r
    assert sig3(1, 0, 0, 0, 0, 0).r != sig3(0, 1, 0, 0, 0, 0).r
    # equal matrices, different homology: still distinct classes
    a, b = sig3(1, 1, 1, 1, 1, 1), sig3(2, 0, 2, 0, 2, 0)
    assert k0_matrix(a) == k0_matrix(b)
    assert h1(a) != h1(b)
    assert a.r != b.r


# -- fibres and recovery ----------------------------------------------------

def test_fibre_of_identity():
    fibre = k0_is_rigid_type(np.eye(6, dtype=np.int64))
    assert [f.r for f in fibre] == [(1, 0, 0, 0, 0, 0)]


def test_fibre_of_twice_ones():
    fibre = k0_is_rigid_type(2 * ONES_BLOCKS_M3)
    assert [f.r for f in fibre] == [(0, 2, 0, 2, 0, 2), (1, 1, 1, 1, 1, 1), (2, 0, 2, 0, 2, 0)]


def test_fibre_empty_for_parity_crossing_matrix():
    mat = np.eye(6, dtype=np.int64)
    mat[0, 3] = 1
    assert k0_is_rigid_type(mat) == []


def test_fibre_empty_for_non_rigid_diagonal():
    mat = np.diag([2, 1, 1, 1, 1, 1]).astype(np.int64)
    assert k0_is_rigid_type(mat) == []


def test_fibre_beyond_the_bound_refused_before_listing():
    # the fibre has min(rotations) + min(reflections) + 1 members: 2^16 here
    half = MAX_FIBRE_MEMBERS // 2
    assert len(k0_is_rigid_type(k0_matrix(sig3(half, half - 1, half, half - 1, half, half - 1)))) \
        == MAX_FIBRE_MEMBERS
    # and 2 * 10^30 + 1 here, refused before any member is built
    with pytest.raises(EnumerationBoundError, match=f"more than the bound {MAX_FIBRE_MEMBERS}$"):
        k0_is_rigid_type(k0_matrix(Signature(3, (10 ** 30,) * 6)))


def test_recovery_examples():
    got = signature_from_k0h1(np.eye(6, dtype=np.int64), 1)
    assert got.r == (1, 0, 0, 0, 0, 0)
    got = signature_from_k0h1(2 * ONES_BLOCKS_M3, 0)
    assert got.r == (1, 1, 1, 1, 1, 1)
    with pytest.raises(HomologyRangeError, match=re.escape("range {1 + 6k : k = 0, .., 0} of")):
        signature_from_k0h1(np.eye(6, dtype=np.int64), -1)
    with pytest.raises(HomologyRangeError, match=re.escape("range {-6 + 6k : k = 0, .., 2} of")):
        signature_from_k0h1(2 * ONES_BLOCKS_M3, 3)
    with pytest.raises(K0NotRigidTypeError):
        signature_from_k0h1(np.diag([2, 1, 1, 1, 1, 1]), 0)


EYE_ROWS = [[int(i == j) for j in range(6)] for i in range(6)]


@pytest.mark.parametrize("mat,h,error,message", [
    ([row[:5] if i == 2 else row for i, row in enumerate(EYE_ROWS)], 1, InvalidIndexError,
     "expected a 2m x 2m matrix with m >= 3, got shape (6, 5, 6)"),
    (np.eye(4, dtype=np.int64), 1, InvalidIndexError,
     "expected a 2m x 2m matrix with m >= 3, got shape (4, 4)"),
    ([[1.0 if i == j else 0 for j in range(6)] for i in range(6)], 1, InvalidIndexError,
     "vertex-multiplicity matrix must be integer"),
    ([[-1 if (i, j) == (0, 3) else int(i == j) for j in range(6)] for i in range(6)], 1,
     InvalidIndexError, "vertex-multiplicity matrix must be nonnegative"),
    (np.diag([2, 1, 1, 1, 1, 1]), 0, K0NotRigidTypeError,
     "matrix is not a sum of automorphism permutation matrices"),
    (EYE_ROWS, -1, HomologyRangeError,
     "homology value -1 is outside the homology range {1 + 6k : k = 0, .., 0} of this matrix"),
], ids=["ragged", "4x4", "float", "negative", "not-a-permutation-sum", "h-outside"])
def test_recovery_refusals_keep_type_and_message(mat, h, error, message):
    with pytest.raises(CycleAlgebraError) as caught:
        signature_from_k0h1(mat, h)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("h", [1.0, True, "1"])
def test_recovery_refuses_a_non_integer_homology_value(h):
    with pytest.raises(InvalidIndexError, match="homology value must be an integer") as caught:
        signature_from_k0h1(EYE_ROWS, h)
    assert caught.value.name == "h"


def test_recovery_accepts_a_numpy_integer_homology_value():
    got = signature_from_k0h1(EYE_ROWS, np.int64(1))
    assert got == sig3(1, 0, 0, 0, 0, 0) and all(type(x) is int for x in got.r)


def test_fibre_input_validation():
    with pytest.raises(InvalidIndexError, match=r"got shape \(4, 4\)"):
        k0_is_rigid_type(np.eye(4, dtype=np.int64))
    with pytest.raises(InvalidIndexError, match="must be integer"):
        k0_is_rigid_type(np.eye(6))
    with pytest.raises(InvalidIndexError, match="must be nonnegative"):
        k0_is_rigid_type(-np.eye(6, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_pair_signatures_st(max_entry=6), small_pair_signatures_st(),
                 small_pair_signatures_st(m=5)))
def test_recovery_roundtrip_large_entries(sig):
    assert signature_from_k0h1(k0_matrix(sig), h1(sig)) == sig


def test_fibre_bound():
    # the fibre of this matrix has 2^25 members; both ends are picked without listing it
    n = 2 ** 25 - 1
    mat = k0_matrix(sig3(n, 0, n, 0, n, 0))
    tracemalloc.start()
    try:
        lowest = signature_from_k0h1(mat, -3 * n)
        highest = signature_from_k0h1(mat, 3 * n)
        message = re.escape(f"range {{{-3 * n} + 6k : k = 0, .., {n}}} of")
        for h in (-3 * n - 6, 3 * n + 6, 3 * n - 3):
            with pytest.raises(HomologyRangeError, match=message):
                signature_from_k0h1(mat, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lowest.r == (0, n, 0, n, 0, n) and highest.r == (n, 0, n, 0, n, 0)
    assert peak < 2 ** 20


def distinct_entries(m):
    """A signature whose cell sums rot_a + refl_b are pairwise distinct."""
    return Signature(m, tuple(1 << (20 * j) for j in range(2 * m)))


def cell_sum_matrix(m, sums):
    """The 2m x 2m matrix laying out cell sums S[a][b] (rot_a + refl_b when rigid):
    odd cell (i, j) holds S[j-i][i+j] and even cell (i, j) holds S[j-i][i+j+1]."""
    odd = [[sums[(j - i) % m][(i + j) % m] for j in range(m)] + [0] * m for i in range(m)]
    even = [[0] * m + [sums[(j - i) % m][(i + j + 1) % m] for j in range(m)] for i in range(m)]
    return odd + even


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(lambda m: st.lists(
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 200)),
             min_size=2 * m, max_size=2 * m).map(lambda r: Signature(m, tuple(r))),
    min_size=1, max_size=5)))
def test_recovery_kernel_batch_matches_single_calls(sigs):
    import cyclealg.signatures as signatures
    m = sigs[0].m
    singles = [signature_from_k0h1(k0_matrix(sig), h1(sig)) for sig in sigs]
    assert singles == sigs
    cols = [list(col) for col in zip(*(sig.r for sig in sigs))]
    sums = signatures._cell_sums(cols[0::2], cols[1::2], signatures._add_columns)
    got = signatures._recover(m, sums, [h1(sig) for sig in sigs])
    assert [Signature(m, r) for r in zip(*got)] == singles


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_recovery_refuses_matrices_that_are_not_rigid(m):
    mat = k0_matrix(distinct_entries(m))
    off_parity = [row[:] for row in mat]
    off_parity[1][m + 2] = 1
    # the two cells that hold one cell sum, found by value, made to differ
    cells = [(i, j) for i in range(2 * m) for j in range(2 * m) if mat[i][j] == mat[0][1]]
    assert len(cells) == 2
    split = [row[:] for row in mat]
    split[cells[1][0]][cells[1][1]] += 1
    # every cell sum at both of its places, but not of the form rot_a + refl_b
    not_additive = cell_sum_matrix(m, [[int((a, b) == (0, 1)) for b in range(m)]
                                       for a in range(m)])
    for bad in (off_parity, split, not_additive):
        with pytest.raises(K0NotRigidTypeError) as caught:
            signature_from_k0h1(bad, 0)
        assert str(caught.value) == "matrix is not a sum of automorphism permutation matrices"
        assert k0_is_rigid_type(bad) == []
    sig = distinct_entries(m)
    assert cell_sum_matrix(m, [[sig.r[2 * a] + sig.r[2 * b + 1] for b in range(m)]
                               for a in range(m)]) == mat


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, 2 ** 200), min_size=2 * m, max_size=2 * m).map(
        lambda r: Signature(m, tuple(r))),
    st.integers(1, 2 * m - 1), st.integers(1, 3))))
def test_recovery_off_the_progression_keeps_its_message(case):
    sig, offset, beyond = case
    m, mat = sig.m, k0_matrix(sig)
    rot, refl = min(sig.r[0::2]), min(sig.r[1::2])
    lo = h1(sig) - 2 * m * rot
    hi = h1(sig) + 2 * m * refl
    for h in (h1(sig) + offset, lo - 2 * m * beyond, hi + 2 * m * beyond):
        with pytest.raises(HomologyRangeError) as caught:
            signature_from_k0h1(mat, h)
        assert str(caught.value) == (
            f"homology value {h} is outside the homology range "
            f"{{{lo} + {2 * m}k : k = 0, .., {rot + refl}}} of this matrix")


def test_roundtrip_at_its_bound_runs_in_bounded_memory():
    # 2^16 signatures at m = 8; holding all their 64 cell-sum columns at once would
    # take 64 * 2^16 pointers, 32 MiB, so the bound below allows only a few chunks
    tracemalloc.start()
    try:
        report = k0h1_roundtrip_report(8, max_entry=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["count"] == 65536 and report["ok"] and report["failures"] == []
    assert peak < 2 ** 22


def test_roundtrip_exhaustive_small():
    report = k0h1_roundtrip_report(3, max_entry=1)
    assert report["ok"] and report["count"] == 64


def test_roundtrip_checks_the_shared_recovery(monkeypatch):
    # a recovery that answers the next member of the shift family must be caught
    import cyclealg.signatures as signatures
    recover = signatures._recover

    def next_member(m, sums, hs=None):
        cols = recover(m, sums, hs)
        return [[x - 1 if j % 2 else x + 1 for x in col] for j, col in enumerate(cols)]
    monkeypatch.setattr(signatures, "_recover", next_member)
    report = k0h1_roundtrip_report(3, max_entry=1)
    assert not report["ok"] and report["count"] == 64 and len(report["failures"]) == 64
    assert report["failures"][0] == {"signature": [0] * 6, "got": [1, -1] * 3}
    # the public recovery runs the same code
    assert signature_from_k0h1(EYE_ROWS, 1).r == (2, -1, 1, -1, 1, -1)


@pytest.mark.parametrize("max_entry", [1.5, 1.0, True, "1", None])
def test_roundtrip_refuses_a_non_integer_max_entry(max_entry):
    with pytest.raises(InvalidIndexError, match="max_entry must be an integer") as caught:
        k0h1_roundtrip_report(3, max_entry)
    assert caught.value.name == "max_entry"


def test_roundtrip_reads_a_numpy_integer_max_entry():
    report = k0h1_roundtrip_report(np.int64(3), np.int64(1))
    assert report["ok"] and report["count"] == 64
    assert type(report["m"]) is int and type(report["max_entry"]) is int


@pytest.mark.parametrize("m,max_entry,refused", [
    (8, 1, False), (4, 3, False),  # exactly 2^16 signatures
    (9, 1, True), (4, 4, True), (3, 6, True)])
def test_roundtrip_bound(monkeypatch, m, max_entry, refused):
    # the bound is decided before the enumeration starts, which is stubbed out here
    import cyclealg.signatures as signatures
    monkeypatch.setattr(signatures, "itertools",
                        SimpleNamespace(product=lambda *a, **k: (), islice=itertools.islice))
    if refused:
        with pytest.raises(EnumerationBoundError, match="more than the bound 2"):
            k0h1_roundtrip_report(m, max_entry)
    else:
        assert k0h1_roundtrip_report(m, max_entry)["ok"]


def test_roundtrip_bound_for_long_cycles_in_bounded_memory():
    # 2^(2m) at m = 10^8 would be a 25 MB integer; the refusal takes no power
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBoundError):
            k0h1_roundtrip_report(10 ** 8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# -- homology range ---------------------------------------------------------

def test_homology_range_examples():
    assert tuple(homology_range(sig3(1, 0, 0, 0, 0, 0))) == (1,)
    assert tuple(homology_range(sig3(1, 1, 1, 1, 1, 1))) == (-6, 0, 6)
    assert tuple(homology_range(sig3(2, 1, 2, 1, 2, 1))) == (-9, -3, 3, 9)


def test_homology_range_bound():
    n = 2 ** 16
    assert len(homology_range(sig3(n - 1, 0, n - 1, 0, n - 1, 0))) == 2 ** 16
    for n in (2 ** 16, 2 ** 200):  # n + 1 values, held as a range
        r = homology_range(sig3(0, n, 0, n, 0, n))
        assert (r[0], r[-1], r.step) == (-3 * n, 3 * n, 6)
        assert 3 * n - 6 in r and 3 * n - 3 not in r and 3 * n + 6 not in r


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 6).flatmap(lambda m: signatures_st(m, max_entry=2 ** 200)))
def test_homology_range_progression_large_entries(sig):
    m, rot, refl = sig.m, min(sig.r[0::2]), min(sig.r[1::2])
    lo, hi = h1(sig) - 2 * m * rot, h1(sig) + 2 * m * refl
    assert progression(homology_range(sig)) == {"lo": lo, "hi": hi, "step": 2 * m}
    # the ends of the range pick the ends of the fibre: shift by -rot and by +refl
    mat = k0_matrix(sig)
    assert signature_from_k0h1(mat, lo).r == tuple(
        x - rot if i % 2 == 0 else x + rot for i, x in enumerate(sig.r))
    assert signature_from_k0h1(mat, hi).r == tuple(
        x + refl if i % 2 == 0 else x - refl for i, x in enumerate(sig.r))


def test_homology_range_matches_fibre_bruteforce():
    for sig in signatures_with_entries_at_most(3, 2):
        fibre_values = sorted(h1(member) for member in k0_is_rigid_type(k0_matrix(sig)))
        assert list(homology_range(sig)) == fibre_values


def test_homology_range_size_constant_signatures():
    for d in range(1, 11):
        for p in range(d + 1):
            q = d - p
            assert len(homology_range(sig3(p, q, p, q, p, q))) == d + 1


# -- joint scale ------------------------------------------------------------

def test_joint_scale_unit_shape():
    shape = CycleAlgebraShape.uniform(3, 1)
    elems = joint_scale_finite(shape, unital_only=True)
    # lexicographic signature enumeration lists the unit classes in reverse label order
    expected = [scale_element(sig) for sig in reversed(unit_signatures(3))]
    assert elems == expected
    assert len(set(elems)) == 6
    # non-unital query over the same shape: nothing smaller fits
    assert joint_scale_finite(shape, unital_only=False) == expected


def test_joint_scale_elements_match_reference_map():
    shape = CycleAlgebraShape(3, (2, 3, 2, 2, 2, 2))
    elems = joint_scale_finite(shape)
    ref = []
    seen = set()
    for total in range(1, 3):
        for r in compositions(total, 6):
            e = scale_element(Signature(3, r))
            if e not in seen:
                seen.add(e)
                ref.append(e)
    assert elems == ref


def test_joint_scale_unital_requires_uniform_shape():
    assert joint_scale_finite(CycleAlgebraShape(3, (2, 1, 1, 1, 1, 1)), unital_only=True) == []


def test_joint_scale_constant_k0_part_h_values():
    # embeddings with the constant vertex-class image (d per class) have
    # exactly the d + 1 homology values -3d, -3d+6, .., 3d
    d = 2
    shape = CycleAlgebraShape.uniform(3, 3 * d)
    elems = joint_scale_finite(shape, unital_only=True)
    hs = sorted(e.h_part for e in elems if e.k0_part == (d,) * 6)
    assert hs == list(range(-3 * d, 3 * d + 1, 6))


def test_joint_scale_enumeration_bound():
    with pytest.raises(EnumerationBoundError):
        joint_scale_finite(CycleAlgebraShape.uniform(3, 65))
    with pytest.raises(EnumerationBoundError):
        joint_scale_finite(CycleAlgebraShape.uniform(3, 5), max_total=3)
    # explicit override allows it
    elems = joint_scale_finite(CycleAlgebraShape.uniform(3, 5), unital_only=True, max_total=5)
    assert JointScaleElement((5, 0, 0, 5, 0, 0), 5) in elems
