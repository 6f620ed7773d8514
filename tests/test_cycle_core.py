import itertools

import numpy as np
import pytest
from conftest import compose_images

from cyclealg.cycle_core import (
    DihedralElement,
    check_half_length,
    check_integer,
    dihedral_compose,
    dihedral_inverse,
    enumerate_automorphisms,
    parity_order,
    parity_position,
)
from cyclealg.errors import IncompatibleError, InvalidIndexError


@pytest.mark.parametrize("value", [True, False, np.True_, 1.0, 2.9, "3", None, [3]])
def test_check_integer_refuses_non_integers(value):
    with pytest.raises(InvalidIndexError, match="count must be an integer") as err:
        check_integer(value, "count", name="n")
    assert err.value.name == "n"


def test_check_integer_converts_and_bounds():
    for value in (7, np.int64(7), np.uint8(7)):
        got = check_integer(value, "count", 0)
        assert got == 7 and type(got) is int
    assert check_integer(-2 ** 100, "count") == -2 ** 100
    with pytest.raises(InvalidIndexError, match="count must be >= 1, got 0"):
        check_integer(0, "count", 1)
    assert type(check_half_length(np.int32(4))) is int
    with pytest.raises(InvalidIndexError):
        check_half_length(3.0)


def test_enumeration_count_and_kinds():
    autos = enumerate_automorphisms(3)
    assert len(autos) == 6
    assert [a.index for a in autos] == [1, 2, 3, 4, 5, 6]
    assert [a.is_rotation for a in autos] == [True, False, True, False, True, False]


def test_identity_and_named_actions():
    autos = enumerate_automorphisms(3)
    assert autos[0].images() == (1, 2, 3, 4, 5, 6)
    # the reflection with label 2 fixes vertex 1
    assert autos[1].act(1) == 1
    # the shift with label 3 maps each vertex k to k - 2
    assert autos[2].act(3) == 1
    assert autos[2].act(1) == 5


def test_rejects_bad_half_length_and_vertex():
    with pytest.raises(InvalidIndexError):
        enumerate_automorphisms(1)
    with pytest.raises(InvalidIndexError):
        DihedralElement.identity(3).act(7)
    with pytest.raises(InvalidIndexError):
        DihedralElement.identity(3).act(0)


def test_shift_order_m4():
    # composing the basic shift with itself four times gives the identity,
    # checked by raw permutation composition
    theta3 = enumerate_automorphisms(4)[2]
    images = theta3.images()
    acc = tuple(range(1, 9))
    for _ in range(4):
        acc = compose_images(images, acc)
    assert acc == tuple(range(1, 9))


def test_compose_matches_permutation_oracle_m3():
    autos = enumerate_automorphisms(3)
    theta3 = autos[2]
    # shift twice = the rotation labeled 5
    assert dihedral_compose(theta3, theta3) == autos[4]
    assert compose_images(theta3.images(), theta3.images()) == autos[4].images()
    # reflection squared = identity
    assert dihedral_compose(autos[1], autos[1]) == autos[0]
    # mixed composition agrees with the oracle and is a reflection
    mixed = dihedral_compose(autos[1], theta3)
    assert mixed.images() == compose_images(autos[1].images(), theta3.images())
    assert not mixed.is_rotation


def test_compose_rejects_mixed_lengths():
    with pytest.raises(IncompatibleError):
        dihedral_compose(DihedralElement.identity(3), DihedralElement.identity(4))


@pytest.mark.parametrize("m", range(2, 9))
def test_group_axioms_exhaustive(m):
    autos = enumerate_automorphisms(m)
    table = {}
    for a, b in itertools.product(autos, repeat=2):
        c = dihedral_compose(a, b)
        # closure + agreement with raw permutation composition
        assert c.images() == compose_images(a.images(), b.images())
        table[(a, b)] = c
    identity = autos[0]
    for a in autos:
        assert table[(a, identity)] == a
        assert table[(identity, a)] == a
        assert table[(a, dihedral_inverse(a))] == identity
        assert table[(dihedral_inverse(a), a)] == identity
    for a, b, c in itertools.product(autos, repeat=3):
        assert table[(table[(a, b)], c)] == table[(a, table[(b, c)])]


@pytest.mark.parametrize("m", range(2, 9))
def test_group_action_property(m):
    autos = enumerate_automorphisms(m)
    for a, b in itertools.product(autos, repeat=2):
        ab = dihedral_compose(a, b)
        for v in range(1, 2 * m + 1):
            assert ab.act(v) == a.act(b.act(v))


@pytest.mark.parametrize("m", range(2, 9))
def test_parity_preserved(m):
    for a in enumerate_automorphisms(m):
        for v in range(1, 2 * m + 1):
            assert a.act(v) % 2 == v % 2


@pytest.mark.parametrize("m", range(2, 9))
def test_rotations_and_reflections_cover_each_class_once(m):
    # needed for homology-range correctness: over all rotations (and over all
    # reflections) each vertex is sent to each same-parity vertex exactly once
    autos = enumerate_automorphisms(m)
    for kind in (True, False):
        subset = [a for a in autos if a.is_rotation == kind]
        for v in range(1, 2 * m + 1):
            hits = sorted(a.act(v) for a in subset)
            same_parity = [w for w in range(1, 2 * m + 1) if w % 2 == v % 2]
            assert hits == same_parity


def test_parity_order_and_positions():
    assert parity_order(3) == (1, 3, 5, 2, 4, 6)
    for m in range(2, 6):
        order = parity_order(m)
        assert sorted(order) == list(range(1, 2 * m + 1))
        for pos, v in enumerate(order):
            assert parity_position(m, v) == pos

