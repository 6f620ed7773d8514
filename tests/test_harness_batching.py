"""The stacked harness against the per-trial, per-block loop it replaced.

The reference below takes one trial at a time from the three seeded streams,
decodes its blocks in plain Python (the signature, then the source partial
isometry by a sequential greedy pass), realizes its embedding with
``realize_rigid``, applies it, conjugates densely and measures every
supported block with its own SVD.  The stacked harness, which draws and
places a chunk of trials at once, must agree with it exactly (``==``, not
approximately) on every trial.  The product runs the reference's greedy
itself, one key place at a time across the trials of a chunk.
"""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from cyclealg import matrix_model
from cyclealg.matrix_model import (
    _STACK_ENTRIES,
    MatrixAlgebraModel,
    _defects,
    _draw_sources,
    _harness_streams,
    _harness_trials,
    _locally_regular,
    _source_units,
    basic_model,
    distance_to_partial_isometry,
    entrywise_partial_isometry_report,
    locally_regular_check,
    nonregular_embedding_example,
    perturbed_entry_report,
    random_model_partial_isometry,
    realize_rigid,
)
from cyclealg.signatures import Signature


def _reference_streams(seed):
    # uniforms, unitary normals, perturbation normals
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def _reference_unitary(model, normals):
    u = np.zeros((model.dimension, model.dimension), dtype=complex)
    offset = 0
    for v in range(1, 2 * model.m + 1):
        k = model.vertex_mults[v - 1]
        z = normals[offset:offset + 2 * k * k].reshape(2, k, k)
        offset += 2 * k * k
        q, r = np.linalg.qr(z[0] + 1j * z[1])
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        u[model.block(v), model.block(v)] = q
    return u


def _reference_source(m, keys, skips, phases):
    units = [(i - 1, j - 1) for (i, j) in basic_model(m).supported_block_pairs()]
    x = np.zeros((2 * m, 2 * m), dtype=complex)
    rows_used, cols_used = set(), set()
    for idx in np.argsort(keys):
        r, c = units[idx]
        if r in rows_used or c in cols_used:
            continue
        if rows_used and skips[idx] < 0.25:
            continue
        rows_used.add(r)
        cols_used.add(c)
        x[r, c] = np.exp(2j * math.pi * phases[idx])
    return x


def _reference_partial_isometry(model, streams):
    m, bound = model.m, min(model.vertex_mults)
    u = streams[0].random(1 + bound + 12 * m)
    r = [0] * (2 * m)
    for p in range(1 + int(u[0] * bound)):
        r[int(u[1 + p] * 2 * m)] += 1
    sig = Signature(m, tuple(r))
    units = 4 * m
    keys, skips, phases = (u[1 + bound + i * units:1 + bound + (i + 1) * units] for i in range(3))
    a = realize_rigid(sig, model).apply(_reference_source(m, keys, skips, phases))
    normals = streams[1].standard_normal(2 * sum(k * k for k in model.vertex_mults))
    u = _reference_unitary(model, normals)
    return u @ a @ u.conj().T, sig


def _reference_trials(model, trials, seed, delta=0.0):
    streams = _reference_streams(seed)
    n = model.dimension
    mask = model.support_mask() if delta > 0 else None
    for t in range(trials):
        a, sig = _reference_partial_isometry(model, streams)
        if delta > 0:
            z = streams[2].standard_normal((n, n, 2))
            e = z[..., 0] + 1j * z[..., 1]
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
    got = [(t, tuple(row.tolist()), dev)
           for t, row, dev in _harness_trials(model, trials, 17, delta)]
    assert got == list(_reference_trials(model, trials, 17, delta))


@pytest.mark.parametrize("dims", [(2,) * 6, (1, 3, 2, 1, 2, 3)])
def test_random_model_partial_isometry_is_one_reference_trial(dims):
    # it is trial 0 of the harness run with the same seed
    model = MatrixAlgebraModel(3, dims)
    for seed in range(5):
        a, sig = random_model_partial_isometry(model, seed)
        b, ref_sig = _reference_partial_isometry(model, _reference_streams(seed))
        assert sig.r == ref_sig.r
        assert np.array_equal(a, b)


@pytest.mark.parametrize("stack", [1 << 11, 1])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, stack):
    # N = 12: 113 trials per chunk, 14 under 2^11 entries, 1 under one entry
    model = MatrixAlgebraModel(3, (2,) * 6)
    reports = [
        lambda: entrywise_partial_isometry_report(model, trials=120, seed=5),
        lambda: perturbed_entry_report(model, delta=1e-3, trials=120, seed=5),
    ]
    before = [report() for report in reports]
    monkeypatch.setattr(matrix_model, "_STACK_ENTRIES", stack)
    assert [report() for report in reports] == before


@pytest.mark.parametrize("m", [3, 5])
def test_drawn_sources_and_signatures_cover_the_draw(m):
    bound, two_m = 3, 2 * m
    uniforms = _harness_streams(8)[0].random((3000, 1 + bound + 12 * m))
    classes, coefficients = _draw_sources(m, bound, uniforms)
    units = [(i - 1, j - 1) for (i, j) in basic_model(m).supported_block_pairs()]
    x = np.zeros((len(uniforms), two_m, two_m), dtype=complex)
    x[:, [r for r, _ in units], [c for _, c in units]] = coefficients
    mask = basic_model(m).support_mask()
    for source in x:
        nonzero = source != 0
        assert not nonzero[~mask].any()
        assert nonzero.any(axis=0).sum() == nonzero.sum() == nonzero.any(axis=1).sum()
        assert np.allclose(np.abs(source[nonzero]), 1.0, rtol=0, atol=1e-15)
        assert distance_to_partial_isometry(source) <= 1e-15
    totals = (classes < two_m).sum(axis=1)
    assert set(totals.tolist()) == set(range(1, bound + 1))
    assert set(classes[classes < two_m].tolist()) == set(range(two_m))
    # summands are in label order, and the sentinel only follows them
    assert (np.diff(classes, axis=1) >= 0).all()


@pytest.mark.parametrize("count", [1, 200])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("draw", ["all-skipped", "none-skipped", "random"])
def test_source_units_run_the_reference_greedy(m, count, draw):
    rng = np.random.default_rng(100 * m + count)
    keys, phases = rng.random((2, count, 4 * m))
    skips = {"all-skipped": rng.uniform(0, 0.25, (count, 4 * m)),
             "none-skipped": rng.uniform(0.25, 1, (count, 4 * m)),
             "random": rng.random((count, 4 * m))}[draw]
    units = [(i - 1, j - 1) for (i, j) in basic_model(m).supported_block_pairs()]
    coefficients = _source_units(m, keys, skips, phases)
    for t in range(count):
        source = np.zeros((2 * m, 2 * m), dtype=complex)
        source[tuple(zip(*units))] = coefficients[t]
        assert np.array_equal(source, _reference_source(m, keys[t], skips[t], phases[t]))
        taken = coefficients[t] != 0
        if draw == "all-skipped":
            assert taken.tolist() == (keys[t] == keys[t].min()).tolist()
        elif draw == "none-skipped":
            rows, cols = (source != 0).any(axis=1), (source != 0).any(axis=0)
            assert all(rows[r] or cols[c] for r, c in units), "the matching is not maximal"


def test_lemma31_measures_the_trials_of_lemma22(monkeypatch):
    # the perturbation has its own stream: at delta > 0 the measured matrices
    # are those of delta = 0 plus a norm-delta perturbation inside the support
    model = MatrixAlgebraModel(3, (1, 3, 2, 1, 2, 3))
    measured = []
    block_defects = matrix_model._block_defects

    def spy(a, *args):
        measured.append(a)
        return block_defects(a, *args)

    monkeypatch.setattr(matrix_model, "_block_defects", spy)
    delta = 0.05
    rows = {d: [tuple(row.tolist()) for _, row, _ in _harness_trials(model, 200, 4, d)]
            for d in (0.0, delta)}
    assert rows[0.0] == rows[delta]
    plain, perturbed = (np.concatenate(measured[:len(measured) // 2]),
                        np.concatenate(measured[len(measured) // 2:]))
    e = perturbed - plain
    assert not e[:, ~model.support_mask()].any()
    assert np.allclose(np.linalg.norm(e, 2, axis=(1, 2)), delta, rtol=1e-9, atol=0)


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


def test_stacked_local_regularity_matches_one_check_per_matrix():
    # irregular matrices drop out of the stack at different chunks, the regular ones stay
    model = MatrixAlgebraModel(3, (3,) * 6)
    rng = np.random.default_rng(43)
    u = _block_unitary(model, rng)
    late = u.copy()
    late[model.block(5), model.block(6)] = 0.5
    xs = np.stack([rng.standard_normal(u.shape) + 0j, u, late, _block_unitary(model, rng),
                   u + rng.standard_normal(u.shape) * 1e-9])
    expected = [locally_regular_check(x, model) for x in xs]
    assert expected == [False, True, False, True, True]
    assert _locally_regular(xs, model, 1e-6).tolist() == expected
    assert _locally_regular(xs[[0, 2]], model, 1e-6).tolist() == [False, False]
