import copy
import itertools
import pickle

import numpy as np
import pytest
from conftest import compose_images, dihedral_inverse

from cyclealg.cycle_core import (
    DihedralElement,
    check_half_length,
    check_integer,
    dihedral_compose,
    enumerate_automorphisms,
    parity_order,
    parity_position,
)
from cyclealg.errors import IncompatibleError, InvalidIndexError
from cyclealg.limits import (
    ExplicitTower,
    IsomorphismVerdict,
    LimitScaleQuery,
    LocalizedGroup,
    ScaleMembership,
    StationaryMatroidTower,
    SupernaturalNumber,
)
from cyclealg.matrix_model import (
    ConcreteEmbedding,
    MatrixAlgebraModel,
    basic_model,
    realize_rigid,
)
from cyclealg.signatures import CycleAlgebraShape, JointScaleElement, Signature


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



ONES = "(1, 1, 1, 1, 1, 1)"
MODEL = f"MatrixAlgebraModel(m=3, vertex_mults={ONES})"
#: (instance factory, field names, repr) for every value type of the package
VALUE_CASES = [
    (lambda: DihedralElement(3, 1, True), ("m", "shift", "reflected"),
     "DihedralElement(m=3, shift=1, reflected=True)"),
    (lambda: Signature(3, (1, 0, 2, 0, 0, 0)), ("m", "r"), "Signature(m=3, r=(1, 0, 2, 0, 0, 0))"),
    (lambda: CycleAlgebraShape(3, (1,) * 6), ("m", "vertex_mults"),
     f"CycleAlgebraShape(m=3, vertex_mults={ONES})"),
    (lambda: JointScaleElement((1, 1, 0, 0, 0, 0), -1), ("k0_part", "h_part"),
     "JointScaleElement(k0_part=(1, 1, 0, 0, 0, 0), h_part=-1)"),
    (lambda: SupernaturalNumber((2, 3)), ("primes",), "SupernaturalNumber(primes=(2, 3))"),
    (lambda: LocalizedGroup(()), ("primes",), "LocalizedGroup(primes=())"),
    (lambda: StationaryMatroidTower(3, 4, 6), ("m", "d", "s"),
     "StationaryMatroidTower(m=3, d=4, s=6)"),
    (lambda: LimitScaleQuery(5, 2), ("k", "t"), "LimitScaleQuery(k=5, t=2)"),
    (lambda: ScaleMembership(True), ("contained", "certificate", "reason"),
     "ScaleMembership(contained=True, certificate=None, reason='')"),
    (lambda: IsomorphismVerdict(False, "h1_group"), ("isomorphic", "witness", "detail"),
     "IsomorphismVerdict(isomorphic=False, witness='h1_group', detail='')"),
    (lambda: ExplicitTower([CycleAlgebraShape(3, (1,) * 6), CycleAlgebraShape(3, (2,) * 6)],
                           [Signature(3, (1, 1, 0, 0, 0, 0))]),
     ("shapes", "embeddings"),
     f"ExplicitTower(shapes=(CycleAlgebraShape(m=3, vertex_mults={ONES}), "
     "CycleAlgebraShape(m=3, vertex_mults=(2, 2, 2, 2, 2, 2))), "
     "embeddings=(Signature(m=3, r=(1, 1, 0, 0, 0, 0)),))"),
    (lambda: MatrixAlgebraModel(3, (1,) * 6), ("m", "vertex_mults"), MODEL),
    (lambda: ConcreteEmbedding(basic_model(3), basic_model(3), [range(6)]),
     ("source", "target", "slot_maps"), f"ConcreteEmbedding(source={MODEL}, target={MODEL})"),
]


@pytest.mark.parametrize("make, fields, text", VALUE_CASES,
                         ids=[text.split("(")[0] for _, _, text in VALUE_CASES])
def test_value_types_compare_hash_print_and_refuse_assignment(make, fields, text):
    x = make()
    key = tuple(getattr(x, name) for name in fields)
    assert x == make() and not x != make() and x is not make()
    assert hash(x) == hash(key) == hash(make())
    assert type(x)(**dict(zip(fields, key))) == x
    assert repr(x) == text
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == key
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
    assert x != key and x != object()


def test_value_types_keep_their_defaults_and_class_identity():
    assert ScaleMembership(True) == ScaleMembership(contained=True, certificate=None, reason="")
    assert IsomorphismVerdict(True) == IsomorphismVerdict(isomorphic=True, witness=None,
                                                         detail="")
    with pytest.raises(InvalidIndexError, match="a negative verdict must carry a witness"):
        IsomorphismVerdict(False)
    # a model is not its shape, and its derived ``starts`` takes no part in comparing
    model, shape = MatrixAlgebraModel(3, (1,) * 6), CycleAlgebraShape(3, (1,) * 6)
    assert model != shape and shape != model and len({model, shape}) == 2
    assert model.starts == (0, 1, 2, 3, 4, 5, 6) and "starts" not in repr(model)
    # likewise the derived classes of an embedding, which its slot maps decide
    phi = realize_rigid(Signature(3, (1, 0, 0, 0, 1, 0)), MatrixAlgebraModel(3, (2,) * 6))
    assert phi.classes == (1, 5) and "classes" not in repr(phi)
    with pytest.raises(TypeError):
        DihedralElement(3, 0, False) < DihedralElement(3, 1, False)
