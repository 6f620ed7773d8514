"""The stacked harness against the per-trial, per-block loop it replaced.

The reference below draws one trial at a time, realizes its embedding as a
dict of matrix-unit pieces, applies it, conjugates densely and measures every
supported block with its own SVD.  The stacked harness must agree with it
exactly (``==``, not approximately) on every trial.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from cyclealg.matrix_model import (
    _STACK_ENTRIES,
    MatrixAlgebraModel,
    _defects,
    _harness_trials,
    _random_composition,
    distance_to_partial_isometry,
    entrywise_partial_isometry_report,
    locally_regular_check,
    nonregular_embedding_example,
    random_model_partial_isometry,
    random_source_partial_isometry,
    realize_rigid,
)
from cyclealg.signatures import Signature


def _reference_unitary(model, rng):
    u = np.zeros((model.dimension, model.dimension), dtype=complex)
    for v in range(1, 2 * model.m + 1):
        k = model.vertex_mults[v - 1]
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        u[model.block(v), model.block(v)] = q
    return u


def _reference_partial_isometry(model, rng):
    m = model.m
    bound = min(model.vertex_mults)
    sig = Signature.zero(m)
    while sig.is_zero:
        sig = Signature(m, _random_composition(rng, int(rng.integers(1, bound + 1)), 2 * m))
    a = realize_rigid(sig, model).apply(random_source_partial_isometry(m, rng))
    u = _reference_unitary(model, rng)
    return u @ a @ u.conj().T, sig


def _reference_trials(model, trials, seed, delta=0.0):
    rng = np.random.default_rng(seed)
    mask = model.support_mask() if delta > 0 else None
    for t in range(trials):
        a, sig = _reference_partial_isometry(model, rng)
        if delta > 0:
            e = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
            e[~mask] = 0.0
            e *= delta / np.linalg.norm(e, 2)
            a = a + e
        worst = 0.0
        for (i, j) in model.supported_block_pairs():
            worst = max(worst, distance_to_partial_isometry(a[model.block(i), model.block(j)]))
        yield t, sig.r, worst


def _chunk(model):
    return max(1, _STACK_ENTRIES // model.dimension ** 2)


CASES = [
    # (m, dims, trials, delta): uniform and per-vertex dims, delta 0 and > 0,
    # trial counts that end mid-chunk after crossing chunk boundaries
    (3, (2,) * 6, 120, 0.0),
    (3, (1, 3, 2, 1, 2, 3), 120, 0.0),
    (3, (1, 3, 2, 1, 2, 3), 120, 1e-6),
    (4, (3, 1, 2, 2, 1, 3, 1, 2), 90, 0.3),
    (6, (3,) * 12, 30, 0.0),
    (6, (3,) * 12, 30, 1e-2),
    # N = 132 > 128: one trial per chunk
    (3, (22,) * 6, 3, 0.0),
    (3, (22,) * 6, 3, 1e-4),
]


@pytest.mark.parametrize("m,dims,trials,delta", CASES)
def test_stacked_harness_equals_per_trial_reference(m, dims, trials, delta):
    model = MatrixAlgebraModel(m, dims)
    chunk = _chunk(model)
    assert chunk == 1 or trials > chunk, "each case must cross a chunk boundary"
    got = [(t, sig.r, dev) for t, sig, dev in _harness_trials(model, trials, 17, delta)]
    assert got == list(_reference_trials(model, trials, 17, delta))


@pytest.mark.parametrize("dims", [(2,) * 6, (1, 3, 2, 1, 2, 3)])
def test_random_model_partial_isometry_is_one_reference_trial(dims):
    model = MatrixAlgebraModel(3, dims)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(5):
        a, sig = random_model_partial_isometry(model, rng)
        b, ref_sig = _reference_partial_isometry(model, ref_rng)
        assert sig.r == ref_sig.r
        assert np.array_equal(a, b)


def test_entrywise_report_memory_does_not_grow_with_trials():
    model = MatrixAlgebraModel(6, (3,) * 12)
    # the first long run fills the interpreter's free lists for good; warm them
    entrywise_partial_isometry_report(model, trials=2000, seed=1)
    peaks = []
    for trials in (50, 2000):
        tracemalloc.start()
        try:
            entrywise_partial_isometry_report(model, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one stacked (chunk, N, N) complex array alone is about 250 KB here
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


# -- stacked LAPACK calls equal per-matrix calls --------------------------------------

@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (1, 1)])
def test_stacked_svd_defects_equal_per_matrix_distances(shape):
    rng = np.random.default_rng(23)
    stack = rng.standard_normal((500, *shape)) + 1j * rng.standard_normal((500, *shape))
    stacked = _defects(stack)
    assert [float(d) for d in stacked] == [distance_to_partial_isometry(x) for x in stack]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_qr_equals_per_matrix_qr(k):
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((500, k, k)) + 1j * rng.standard_normal((500, k, k))
    q, r = np.linalg.qr(stack)
    for i, z in enumerate(stack):
        qi, ri = np.linalg.qr(z)
        assert np.array_equal(q[i], qi) and np.array_equal(r[i], ri)


# -- local regularity, stacked by compression shape ------------------------------------

def _reference_locally_regular(x, model, tol):
    two_m = 2 * model.m
    subsets = [[v + 1 for v in range(two_m) if mask >> v & 1] for mask in range(1, 1 << two_m)]
    for p, q in product(subsets, subsets):
        rows = [i for v in p for i in model.block_indices(v)]
        cols = [j for v in q for j in model.block_indices(v)]
        if distance_to_partial_isometry(x[np.ix_(rows, cols)]) > tol:
            return False
    return True


def _block_unitary(model, rng):
    u = np.zeros((model.dimension, model.dimension), dtype=complex)
    for v in range(1, 2 * model.m + 1):
        k = model.vertex_mults[v - 1]
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        u[model.block(v), model.block(v)] = q
    return u


def test_locally_regular_check_matches_per_compression_reference():
    # dims 3 at m = 3: the 9 x 9 compressions (400 of them) exceed one stack
    model = MatrixAlgebraModel(3, (3,) * 6)
    assert 400 * 81 > _STACK_ENTRIES
    rng = np.random.default_rng(41)
    u = _block_unitary(model, rng)
    tweaked = u.copy()
    tweaked[model.block(5), model.block(6)] = 0.5
    noise = rng.standard_normal(u.shape) * 1e-9
    for x in (u, u + noise, tweaked, rng.standard_normal(u.shape) + 0j, np.zeros_like(u)):
        assert locally_regular_check(x, model) == _reference_locally_regular(x, model, 1e-6)
    assert locally_regular_check(u, model) and not locally_regular_check(tweaked, model)


def test_locally_regular_check_on_the_nonregular_example_matches_reference():
    vs, _ = nonregular_embedding_example()
    model = MatrixAlgebraModel(2, (4, 4, 4, 4))
    for x in (*vs, vs[2] @ vs[1].conj().T):
        assert locally_regular_check(x, model) == _reference_locally_regular(x, model, 1e-6)
