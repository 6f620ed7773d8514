import numpy as np
import pytest
from conftest import signatures_with_entries_at_most, summand_tally
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclealg.cycle_core import enumerate_automorphisms
from cyclealg.errors import (
    CapacityError,
    HomologyRangeError,
    IncompatibleError,
    InvalidIndexError,
    K0NotRigidTypeError,
    UnsupportedInputError,
)
from cyclealg.matrix_model import (
    ConcreteEmbedding,
    MatrixAlgebraModel,
    _block_defects,
    basic_model,
    compose_embeddings,
    composition_oracle_report,
    decompose_signature,
    distance_to_partial_isometry,
    entrywise_partial_isometry_report,
    locally_regular_check,
    max_minimal_compression_distance,
    nonregular_embedding_example,
    perturbed_entry_report,
    random_model_partial_isometry,
    realize_rigid,
)
from cyclealg.signatures import (
    CycleAlgebraShape,
    Signature,
    k0_matrix,
    permutation_matrix,
    signature_compose,
)

HEXAGON_MASK = np.array([
    [1, 1, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 1],
], dtype=bool)


def validate_star_extendible(emb, tol=1e-9) -> float:
    """Largest defect of the multiplicativity and adjoint relations on generators."""
    dense = {key: emb.image_of_unit(*key) for key in emb.unit_images}
    worst = 0.0
    keys = sorted(dense)
    for (i, j) in keys:
        im = dense[(i, j)]
        worst = max(worst, float(np.max(np.abs(im @ im.conj().T - dense[(i, i)]))))
        worst = max(worst, float(np.max(np.abs(im.conj().T @ im - dense[(j, j)]))))
        for (k, l) in keys:
            prod = im @ dense[(k, l)]
            expected = dense[(i, l)] if j == k and (i, l) in dense else 0.0
            worst = max(worst, float(np.max(np.abs(prod - expected))))
    assert worst <= tol, f"embedding violates star relations by {worst:.3e}"
    return worst


# -- models and masks --------------------------------------------------------

def test_basic_hexagon_mask():
    assert np.array_equal(basic_model(3).support_mask(), HEXAGON_MASK)


def test_four_cycle_mask_matches_corner_form_after_parity_relabel():
    # the staircase 4-cycle support, re-ordered odd-then-even, is the
    # diagonal plus the upper-right corner used by the nonregular example
    mask = basic_model(2).support_mask()
    perm = [0, 2, 1, 3]
    relabeled = mask[np.ix_(perm, perm)]
    expected = np.eye(4, dtype=bool)
    expected[0:2, 2:4] = True
    assert np.array_equal(relabeled, expected)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_support_is_reflexive_and_transitive_blockwise(m):
    pairs = set(basic_model(m).supported_block_pairs())
    for v in range(1, 2 * m + 1):
        assert (v, v) in pairs
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j == k:
                assert (i, l) in pairs


def test_block_layout_with_multiplicities():
    shape = CycleAlgebraShape(3, (2, 1, 1, 1, 1, 1))
    model = MatrixAlgebraModel(shape.m, shape.vertex_mults)
    assert model.dimension == 7
    assert list(model.block_indices(1)) == [0, 1]
    assert list(model.block_indices(2)) == [2]
    mask = model.support_mask()
    assert mask[0, 1] and mask[1, 0]  # diagonal blocks fully supported
    assert mask[0, 2] and not mask[2, 0]
    assert model.vertex_of_index(1) == 1 and model.vertex_of_index(6) == 6


@st.composite
def model_shapes_st(draw):
    m = draw(st.integers(2, 6))
    return m, tuple(draw(st.lists(st.integers(1, 5), min_size=2 * m, max_size=2 * m)))


@settings(max_examples=60, deadline=None)
@given(model_shapes_st())
def test_block_layout_matches_cumulative_sum_reference(shape):
    m, mults = shape
    model = MatrixAlgebraModel(m, mults)
    starts = [0]
    for k in mults:
        starts.append(starts[-1] + k)
    n = starts[-1]
    assert model.dimension == n
    owner = []
    for v in range(1, 2 * m + 1):
        idx = list(range(starts[v - 1], starts[v]))
        assert list(model.block_indices(v)) == idx
        assert [model.flat_index(v, p) for p in range(mults[v - 1])] == idx
        owner.extend([v] * mults[v - 1])
        with pytest.raises(InvalidIndexError):
            model.flat_index(v, mults[v - 1])
    assert [model.vertex_of_index(i) for i in range(n)] == owner
    for i in (-1, n):
        with pytest.raises(InvalidIndexError):
            model.vertex_of_index(i)
    # staircase: diagonal blocks, and each odd vertex sees its two neighbours
    expected = np.zeros((n, n), dtype=bool)
    for i in range(1, 2 * m + 1):
        cols = [i] if i % 2 == 0 else [i, i % (2 * m) + 1, (i - 2) % (2 * m) + 1]
        for j in cols:
            expected[np.ix_(range(starts[i - 1], starts[i]),
                            range(starts[j - 1], starts[j]))] = True
    assert np.array_equal(model.support_mask(), expected)


# -- distance ----------------------------------------------------------------

def test_distance_examples():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q, _ = np.linalg.qr(z)
    assert distance_to_partial_isometry(q) < 1e-12
    assert distance_to_partial_isometry(np.array([[0.5]])) == pytest.approx(0.5)
    assert distance_to_partial_isometry(np.diag([1.1, 0.2])) == pytest.approx(0.2)
    assert distance_to_partial_isometry(np.zeros((3, 2))) == 0.0


# -- realizations ------------------------------------------------------------

def test_realize_identity_is_identity_map():
    model = basic_model(3)
    emb = realize_rigid(Signature.unit(enumerate_automorphisms(3)[0]), model)
    eye = np.eye(6)
    assert np.allclose(emb.apply(HEXAGON_MASK * 1.0), HEXAGON_MASK * 1.0)
    assert np.allclose(emb.apply(eye), eye)


def test_realize_shift_class_k0():
    theta3 = enumerate_automorphisms(3)[2]
    emb = realize_rigid(Signature.unit(theta3), basic_model(3))
    validate_star_extendible(emb)
    assert decompose_signature(emb).r == (0, 0, 1, 0, 0, 0)
    assert np.array_equal(k0_matrix(Signature.unit(theta3)), permutation_matrix(theta3))


def test_realize_reflection_has_negative_h():
    theta2 = enumerate_automorphisms(3)[1]
    emb = realize_rigid(Signature.unit(theta2), basic_model(3))
    sig = decompose_signature(emb)
    assert sig.r == (0, 1, 0, 0, 0, 0)


def test_realize_rigid_unital_and_rank_bookkeeping():
    # the full unit signature has matrix row sums six, so its unital target
    # is the shape with multiplicity six everywhere
    sig = Signature(3, (1, 1, 1, 1, 1, 1))
    target = MatrixAlgebraModel(3, (6,) * 6)
    emb = realize_rigid(sig, target)
    validate_star_extendible(emb)
    # unital: images of the six diagonal units sum to the identity
    total = sum(emb.image_of_unit(v, v) for v in range(6))
    assert np.allclose(total, np.eye(36))
    # ranks of diagonal-unit images reproduce the matrix entries
    from cyclealg.cycle_core import parity_position
    mat = k0_matrix(sig)
    for j in range(1, 7):
        image = emb.image_of_unit(j - 1, j - 1)
        for i in range(1, 7):
            idx = list(target.block_indices(i))
            block = image[np.ix_(idx, idx)]
            assert np.linalg.matrix_rank(block) == mat[parity_position(3, i)][
                parity_position(3, j)]


def test_row_sum_capacity_predicts_realizability():
    # row sums of a rigid-type matrix all equal the signature total
    from cyclealg.errors import CycleAlgebraError
    rng = np.random.default_rng(17)
    for _ in range(30):
        sig = Signature(3, tuple(int(x) for x in rng.integers(0, 3, size=6)))
        if sig.is_zero:
            continue
        shape = CycleAlgebraShape(3, tuple(int(x) for x in rng.integers(1, 8, size=6)))
        target = MatrixAlgebraModel(shape.m, shape.vertex_mults)
        try:
            realize_rigid(sig, target)
            realized = True
        except CycleAlgebraError:
            realized = False
        assert realized == (sig.total <= min(shape.vertex_mults))


def test_realize_capacity_errors():
    with pytest.raises(CapacityError):
        realize_rigid(Signature(3, (2, 0, 0, 0, 0, 0)), basic_model(3))
    with pytest.raises(UnsupportedInputError):
        realize_rigid(Signature.zero(3), MatrixAlgebraModel(3, (2,) * 6))
    with pytest.raises(IncompatibleError):
        realize_rigid(Signature(3, (1, 0, 0, 0, 0, 0)), basic_model(4))


def test_two_identity_copies():
    target = MatrixAlgebraModel(3, (2,) * 6)
    emb = realize_rigid(Signature(3, (2, 0, 0, 0, 0, 0)), target)
    assert decompose_signature(emb).r == (2, 0, 0, 0, 0, 0)


def test_compose_embeddings_identity_and_classes():
    unit = basic_model(3)
    autos = enumerate_automorphisms(3)
    ident = realize_rigid(Signature.unit(autos[0]), unit)
    shift = realize_rigid(Signature.unit(autos[2]), unit, source=unit)
    comp = compose_embeddings(ident, shift)
    assert decompose_signature(comp).r == (0, 0, 1, 0, 0, 0)
    # shift then shift lands in the class labeled 5
    comp = compose_embeddings(realize_rigid(Signature.unit(autos[2]), unit), shift)
    assert decompose_signature(comp).r == (0, 0, 0, 0, 1, 0)
    # reflection twice is the identity class
    refl = realize_rigid(Signature.unit(autos[1]), unit)
    refl2 = realize_rigid(Signature.unit(autos[1]), unit, source=unit)
    assert decompose_signature(compose_embeddings(refl, refl2)).r == (1, 0, 0, 0, 0, 0)
    with pytest.raises(IncompatibleError):
        compose_embeddings(shift, realize_rigid(Signature.unit(autos[0]), basic_model(4)))


def test_composition_oracle_pins_convolution_orientation():
    report = composition_oracle_report(3)
    assert report["ok"] and report["matches"] == 36


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_composition_oracle_realizes_each_unit_embedding_once(monkeypatch, m):
    from cyclealg import matrix_model
    calls = []
    real = matrix_model.realize_rigid
    monkeypatch.setattr(matrix_model, "realize_rigid",
                        lambda *args, **kwargs: calls.append(args[0].r) or real(*args, **kwargs))
    decomposed = []
    real_decompose = matrix_model.decompose_signature

    def decompose(emb):
        # every pair's K0/H1 reading agrees with the summand chain
        sig = real_decompose(emb)
        assert summand_tally(emb) == sig.r
        decomposed.append(sig)
        return sig

    monkeypatch.setattr(matrix_model, "decompose_signature", decompose)
    report = composition_oracle_report(m)
    assert report["ok"] and report["matches"] == len(decomposed) == (2 * m) ** 2
    assert sorted(calls) == sorted(Signature.unit(theta).r for theta in enumerate_automorphisms(m))


def test_decompose_rejects_non_standard_form():
    unit = basic_model(3)
    emb = realize_rigid(Signature.unit(enumerate_automorphisms(3)[0]), unit)
    bad = dict(emb.unit_images)
    bad[(0, 0)] = ((0, 0, 0.5 + 0j),)
    with pytest.raises(UnsupportedInputError):
        decompose_signature(ConcreteEmbedding(unit, unit, bad))


@pytest.mark.parametrize("key,pieces,error", [
    # e_12 carried from vertex 1 to vertex 4: no automorphism moves 2 that far from 1
    ((0, 1), ((0, 3, 1.0 + 0j),), UnsupportedInputError),
    # e_11 on two target vertices: the K0 column sums differ, no sum of permutations
    ((0, 0), ((0, 0, 1.0 + 0j), (2, 2, 1.0 + 0j)), K0NotRigidTypeError),
    # e_12 read as a reflection while K0 is the identity's, whose fibre has h = 1 only
    ((0, 1), ((0, 5, 1.0 + 0j),), HomologyRangeError),
])
def test_decompose_refuses_what_k0_and_h1_do_not_resolve(key, pieces, error):
    unit = basic_model(3)
    images = dict(realize_rigid(Signature.unit(enumerate_automorphisms(3)[0]), unit).unit_images)
    images[key] = pieces
    with pytest.raises(error):
        decompose_signature(ConcreteEmbedding(unit, unit, images))


def _assert_rigid_roundtrip(max_entry, count):
    # every nonzero signature with entries <= max_entry, in a target whose
    # multiplicity 6 * max_entry the largest of them fills exactly
    target = MatrixAlgebraModel(3, (6 * max_entry,) * 6)
    sigs = [s for s in signatures_with_entries_at_most(3, max_entry) if not s.is_zero]
    assert len(sigs) == count
    for sig in sigs:
        emb = realize_rigid(sig, target)
        assert decompose_signature(emb).r == summand_tally(emb) == sig.r


def test_realize_decompose_roundtrip_sample():
    # the sample is the whole finite set of signatures with entries <= 2
    _assert_rigid_roundtrip(2, 728)


def test_realize_roundtrip_report_exhaustive():
    _assert_rigid_roundtrip(1, 63)


def test_decompose_from_larger_source():
    # signature of an embedding whose source has multiplicities: recovered
    # through the standard probe injection
    mid = MatrixAlgebraModel(3, (2,) * 6)
    target = MatrixAlgebraModel(3, (6,) * 6)
    first = realize_rigid(Signature(3, (1, 1, 0, 0, 0, 0)), mid)
    second = realize_rigid(Signature(3, (1, 0, 1, 0, 0, 0)), target, source=mid)
    assert decompose_signature(second).r == summand_tally(second) == (1, 0, 1, 0, 0, 0)
    comp = compose_embeddings(first, second)
    expected = signature_compose(Signature(3, (1, 1, 0, 0, 0, 0)),
                                 Signature(3, (1, 0, 1, 0, 0, 0)))
    assert decompose_signature(comp).r == summand_tally(comp) == expected.r


def test_unitary_conjugation_preserves_measured_ranks():
    # conjugating by block-diagonal unitaries cannot change the K0 data
    from cyclealg.cycle_core import parity_position
    from cyclealg.matrix_model import _block_unitaries

    target = MatrixAlgebraModel(3, (4,) * 6)
    sig = Signature(3, (1, 0, 2, 0, 0, 1))
    emb = realize_rigid(sig, target)
    rng = np.random.default_rng(11)
    u = _block_unitaries(target, rng.standard_normal((1, 2 * 6 * 4 * 4)))[0]
    mat = k0_matrix(sig)
    for j in range(1, 7):
        image = u @ emb.image_of_unit(j - 1, j - 1) @ u.conj().T
        for i in range(1, 7):
            idx = list(target.block_indices(i))
            rank = np.linalg.matrix_rank(image[np.ix_(idx, idx)], tol=1e-8)
            assert rank == mat[parity_position(3, i)][parity_position(3, j)]


# -- harnesses ---------------------------------------------------------------

def test_entrywise_report_exact():
    model = MatrixAlgebraModel(3, (1, 2, 1, 3, 1, 2))
    report = entrywise_partial_isometry_report(model, trials=60, tol=1e-9, seed=5)
    assert report["ok"]
    assert report["max_deviation"] <= 1e-9


def test_entrywise_report_rejects_four_cycles():
    with pytest.raises(InvalidIndexError):
        entrywise_partial_isometry_report(basic_model(2), trials=1)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_random_model_partial_isometry_refuses_a_bad_seed(seed):
    with pytest.raises(InvalidIndexError) as caught:
        random_model_partial_isometry(basic_model(3), seed)
    assert caught.value.name == "seed"


def test_identity_element_has_zero_deviation():
    model = MatrixAlgebraModel(3, (2,) * 6)
    a = np.eye(model.dimension, dtype=complex)
    assert _block_defects(a[None], model, model.supported_block_pairs())[0] == 0.0


def test_matrix_unit_cycle_has_zero_deviation():
    # every block entry of the distinguished 6-cycle is a single matrix unit
    model = basic_model(3)
    cycle = np.zeros((6, 6), dtype=complex)
    for (r, c) in [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)]:
        cycle[r, c] = 1.0
    assert _block_defects(cycle[None], model, model.supported_block_pairs())[0] == 0.0


@pytest.mark.parametrize("dims,seed", [((2,) * 6, 4), ((1, 3, 2, 1, 2, 3), 31)])
def test_unperturbed_stream_matches_entrywise_report(dims, seed):
    # delta = 0 draws the same trials as the entrywise harness at the same seed
    model = MatrixAlgebraModel(3, dims)
    plain = entrywise_partial_isometry_report(model, trials=12, seed=seed)
    perturbed = perturbed_entry_report(model, delta=0.0, trials=12, seed=seed)
    assert perturbed["max_entry_deviation"] == plain["max_deviation"]
    if plain["worst_trial"] is not None:
        worst = max(perturbed["rows"], key=lambda row: row["entry_deviation"])
        assert worst["trial"] == plain["worst_trial"]["trial"]


def test_perturbed_report_records():
    model = MatrixAlgebraModel(3, (2,) * 6)
    report = perturbed_entry_report(model, delta=0.0, trials=10, epsilon=1e-4, seed=2)
    # delta = 0 leaves only float rounding from the unitary conjugation
    assert report["max_entry_deviation"] <= 1e-12 and report["within_epsilon"]
    report = perturbed_entry_report(model, delta=1e-6, trials=10, epsilon=1e-4, seed=2)
    assert report["max_entry_deviation"] <= 1e-6 + 1e-12
    # large perturbations are recorded, never asserted against
    report = perturbed_entry_report(model, delta=0.3, trials=5, epsilon=1e-4, seed=2)
    assert report["ok"] and not report["within_epsilon"]


# -- local regularity and the nonregular example ------------------------------

def test_matrix_unit_is_locally_regular():
    model = basic_model(3)
    x = np.zeros((6, 6), dtype=complex)
    x[0, 1] = 1.0
    assert locally_regular_check(x, model)
    with pytest.raises(InvalidIndexError):
        locally_regular_check(np.eye(5, dtype=complex), model)


def test_locally_regular_check_refuses_beyond_eight_vertices():
    model = basic_model(5)
    with pytest.raises(InvalidIndexError, match="2m <= 8 vertices, got 10"):
        locally_regular_check(np.eye(10, dtype=complex), model)


def test_nonregular_example_report():
    vs, report = nonregular_embedding_example()
    v1, v2, v3, v4 = vs
    assert v1.shape == (16, 16)
    # the first displayed 2x2 sub-block of v1
    assert np.array_equal(v1[0:2, 8:10].real, np.array([[1, 0], [0, 0]]))
    assert max(report["v_partial_isometry_distances"]) <= 1e-9
    assert all(report["v_regular"])
    assert report["cycle_relation_defect"] <= 1e-12
    assert not report["product_locally_regular"]
    assert report["product_partial_isometry_distance"] <= 1e-9
    assert report["max_minimal_compression_distance"] >= 0.1
    assert report["ok"]


def test_nonregular_witness_value():
    # the failing compression is a 2x2 half-Hadamard block: both singular
    # values are 1/sqrt(2), so the defect is 1 - 1/sqrt(2)
    vs, report = nonregular_embedding_example()
    model = MatrixAlgebraModel(2, (4, 4, 4, 4))
    product = vs[2] @ vs[1].conj().T
    assert max_minimal_compression_distance(product, model) == pytest.approx(
        1 - 1 / np.sqrt(2), abs=1e-12)
