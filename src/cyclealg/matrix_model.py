"""Concrete complex block-matrix realizations of 2m-cycle algebras.

A 2m-cycle algebra with vertex multiplicities (n_1, .., n_{2m}) sits inside
M_N (N = sum n_v) in block matrix staircase form: fully supported diagonal
blocks, plus for each odd (range) vertex i the blocks (i, i+1) and
(i, i-1), indices cyclic so row 1 also sees column 2m.

This module realizes rigid embeddings as summand slot maps, injective maps
of source flat indices to target flat indices in exact ints; composes them;
and reads the multiplicity signature of such a realization back by counting
its summands by class, which the embedding identifies when it is built.
Floats enter only through :meth:`ConcreteEmbedding.apply` and the numerical
verification harnesses: entrywise partial-isometry checks, perturbation
sweeps, and the concrete locally-regular-but-not-regular embedding of the
4-cycle algebra.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product

import numpy as np

from .cycle_core import (
    DihedralElement,
    check_half_length,
    check_integer,
    enumerate_automorphisms,
)
from .errors import (
    CapacityError,
    EnumerationBoundError,
    IncompatibleError,
    InvalidIndexError,
    UnsupportedInputError,
)
from .signatures import (
    CycleAlgebraShape,
    Signature,
    signature_compose,
    unit_signatures,
)

#: Most complex entries held by one stacked array of the harness and of the
#: local-regularity check: the harness runs max(1, 2^14 // N^2) trials at a time.
_STACK_ENTRIES = 1 << 14
#: Largest half-length of the composition oracle, whose (2m)^2 compose and
#: decompose pairs cost O(m log m) each: on a 2-vCPU x86-64 VM about 0.04-0.09 s
#: at m = 16 and 0.24-0.45 s at m = 32, the bound, so about 4 s at m = 64.
MAX_ORACLE_HALF_LENGTH = 32
#: Most trials x N^2 entries of one harness run, whose time and ``lemma31``
#: report grow linearly with trials: about 2 s and 1.8 MB at 20,000 trials, N = 12.
MAX_HARNESS_ENTRIES = 1 << 22
#: Largest entry magnitude that :meth:`ConcreteEmbedding.apply` accepts off the support.
OFF_SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class MatrixAlgebraModel:
    """A 2m-cycle algebra realized in M_N with the staircase support pattern.

    Vertex v owns the contiguous block ``starts[v - 1]:starts[v]`` of flat
    indices; ``starts[-1]`` is N.
    """

    m: int
    vertex_mults: tuple
    starts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = CycleAlgebraShape(self.m, self.vertex_mults)
        object.__setattr__(self, "vertex_mults", shape.vertex_mults)
        object.__setattr__(self, "starts", tuple(accumulate(shape.vertex_mults, initial=0)))

    @property
    def dimension(self) -> int:
        return self.starts[-1]

    def block(self, v) -> slice:
        """The flat indices of vertex v (1-based) as a slice."""
        return slice(self.starts[v - 1], self.starts[v])

    def block_indices(self, v):
        return range(self.starts[v - 1], self.starts[v])

    def vertex_of_index(self, i) -> int:
        if not 0 <= i < self.dimension:
            raise InvalidIndexError(f"flat index {i} out of range")
        return bisect_right(self.starts, i)

    def supported_block_pairs(self):
        """Vertex block pairs (row vertex, column vertex) of the staircase form."""
        two_m = 2 * self.m
        pairs = [(v, v) for v in range(1, two_m + 1)]
        for i in range(1, two_m + 1, 2):
            pairs.append((i, i + 1))
            pairs.append((i, i - 1 if i > 1 else two_m))
        return sorted(pairs)

    def support_mask(self) -> np.ndarray:
        mask = np.zeros((self.dimension, self.dimension), dtype=bool)
        for (i, j) in self.supported_block_pairs():
            mask[self.block(i), self.block(j)] = True
        return mask


def basic_model(m) -> MatrixAlgebraModel:
    """The basic 2m-cycle algebra in M_{2m} (all vertex multiplicities one)."""
    return _basic_model(check_half_length(m))


@functools.lru_cache(maxsize=None)
def _basic_model(m) -> MatrixAlgebraModel:
    # Cached: the harness asks for it on every trial, and building it each
    # time raised the harness's peak RSS by about 0.9 MB.
    return MatrixAlgebraModel(m, (1,) * (2 * m))


def _defects(stack) -> np.ndarray:
    """Distance to the nearest partial isometry of every matrix of a stack (..., r, c).

    One SVD call for the whole stack.  Snapping each singular value to the
    nearer of {0, 1} is optimal, so a matrix's distance is the max over its
    singular values of min(sigma, |sigma - 1|).
    """
    s = np.linalg.svd(stack, compute_uv=False)
    return np.minimum(s, np.abs(s - 1.0)).max(axis=-1)


def distance_to_partial_isometry(x) -> float:
    """Operator-norm distance to the nearest partial isometry."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(_defects(x))


def _block_defects(x, model: MatrixAlgebraModel, pairs) -> np.ndarray:
    """For each matrix of the stack x (c, N, N), the largest defect of its vertex
    blocks (i, j) over the pairs; one stacked SVD per block shape."""
    by_shape = {}
    for (i, j) in pairs:
        shape = (model.vertex_mults[i - 1], model.vertex_mults[j - 1])
        by_shape.setdefault(shape, []).append((i, j))
    worst = np.zeros(len(x))
    for group in by_shape.values():
        blocks = np.stack([x[:, model.block(i), model.block(j)] for (i, j) in group], axis=1)
        worst = np.maximum(worst, _defects(blocks).max(axis=1))
    return worst


def locally_regular_check(x, model: MatrixAlgebraModel, tol=1e-6) -> bool:
    """Whether every central compression p x q is a partial isometry.

    p and q run over sums of vertex-block identities (the central projections
    of the diagonal part); all 2^{2m} x 2^{2m} pairs are checked, so the
    check is refused beyond 2m = 8 vertices (2m = 12 already takes a minute).
    Compressions of one shape are checked together, at most
    ``_STACK_ENTRIES`` entries per SVD call.
    """
    if tol <= 0:
        raise InvalidIndexError(f"tolerance must be positive, got {tol}")
    two_m = 2 * model.m
    if two_m > 8:
        raise InvalidIndexError(f"the exhaustive check needs 2m <= 8 vertices, got {two_m}")
    x = np.asarray(x, dtype=complex)
    n = model.dimension
    if x.shape != (n, n):
        raise InvalidIndexError(f"expected a {n} x {n} matrix, got shape {x.shape}")
    return bool(_locally_regular(x[None], model, tol)[0])


def _locally_regular(xs, model: MatrixAlgebraModel, tol) -> np.ndarray:
    """``locally_regular_check`` of every matrix of the stack xs (c, N, N) at once:
    each SVD call takes one chunk of compressions of every matrix still regular."""
    two_m = 2 * model.m
    # flat indices of every nonempty sum of vertex blocks, grouped by size
    by_size = {}
    for mask in range(1, 1 << two_m):
        idx = [i for v in range(1, two_m + 1) if mask >> (v - 1) & 1
               for i in model.block_indices(v)]
        by_size.setdefault(len(idx), []).append(idx)
    groups = [np.array(g) for g in by_size.values()]
    regular = np.ones(len(xs), dtype=bool)
    for rows in groups:
        for cols in groups:
            count = len(rows) * len(cols)
            live = np.flatnonzero(regular)
            step = max(1, _STACK_ENTRIES // (len(live) * rows.shape[1] * cols.shape[1]))
            for start in range(0, count, step):
                k = np.arange(start, min(count, start + step))
                blocks = xs[live][:, rows[k // len(cols)][:, :, None],
                                  cols[k % len(cols)][:, None, :]]
                regular[live] = ~(_defects(blocks) > tol).any(axis=1)
                live = np.flatnonzero(regular)
                if not len(live):
                    return regular
    return regular


def max_minimal_compression_distance(x, model: MatrixAlgebraModel) -> float:
    """Largest partial-isometry defect over pairs of minimal central projections."""
    vertices = range(1, 2 * model.m + 1)
    x = np.asarray(x, dtype=complex)
    return float(_block_defects(x[None], model, product(vertices, vertices))[0])


# ---------------------------------------------------------------------------
# Concrete embeddings
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _class_labels(m):
    """The label of each of the 2m classes, keyed by its vertex images."""
    return {theta.images(): theta.index for theta in enumerate_automorphisms(m)}


@dataclass(frozen=True)
class ConcreteEmbedding:
    """A rigid embedding in standard form: a direct sum of multiplicity-one summands.

    ``slot_maps`` holds one tuple per summand, whose entry i is the target
    flat index of source flat index i: the summand carries the source matrix
    unit e_ij to the target matrix unit at (s[i], s[j]).  There is at least
    one map, every map has one index per source index, and no target index
    is used twice.  Each summand is rigid: the first slots of the source
    vertices land on the vertex images of an automorphism theta, whose label
    ``classes`` records, and every slot of vertex v lands in theta(v)'s block.
    """

    source: MatrixAlgebraModel
    target: MatrixAlgebraModel
    slot_maps: tuple = field(repr=False)
    classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, size = self.source.dimension, self.target.dimension
        maps = tuple(tuple(check_integer(t, "target index") for t in s) for s in self.slot_maps)
        if not maps:
            raise UnsupportedInputError("an embedding needs at least one summand")
        if any(len(s) != n for s in maps):
            raise InvalidIndexError(f"each slot map needs {n} target indices, one per source index")
        flat = [t for s in maps for t in s]
        if not all(0 <= t < size for t in flat):
            raise InvalidIndexError(f"target indices must lie in 0..{size - 1}")
        if len(set(flat)) != len(flat):
            raise InvalidIndexError("a target index is used twice")
        if self.source.m != self.target.m:
            raise IncompatibleError("source and target must share the cycle length")
        vertex, labels = self.target.vertex_of_index, _class_labels(self.source.m)
        corners, mults = self.source.starts[:-1], self.source.vertex_mults
        classes = []
        for number, s in enumerate(maps, start=1):
            hit = [vertex(t) for t in s]
            images = tuple(hit[i] for i in corners)
            label = labels.get(images)
            if label is None or hit != [w for w, k in zip(images, mults) for _ in range(k)]:
                raise UnsupportedInputError(
                    f"summand {number} sends the source slots to target vertices {hit}, "
                    "which no automorphism of the cycle does")
            classes.append(label)
        object.__setattr__(self, "slot_maps", maps)
        object.__setattr__(self, "classes", tuple(classes))

    def apply(self, x) -> np.ndarray:
        """Image of a source-algebra element (off-support entries at most ``OFF_SUPPORT_TOL``)."""
        x = np.asarray(x, dtype=complex)
        n = self.source.dimension
        if x.shape != (n, n):
            raise InvalidIndexError(f"expected a {n} x {n} matrix, got shape {x.shape}")
        mask = self.source.support_mask()
        off_mask = np.abs(x[~mask])
        if off_mask.size and off_mask.max() > OFF_SUPPORT_TOL:
            raise UnsupportedInputError("element is not supported in the source algebra")
        x = np.where(mask, x, 0)
        out = np.zeros((self.target.dimension, self.target.dimension), dtype=complex)
        for s in self.slot_maps:
            out[np.ix_(s, s)] = x
        return out


def realize_rigid(sig: Signature, target: MatrixAlgebraModel,
                  source: MatrixAlgebraModel = None) -> ConcreteEmbedding:
    """Block-diagonal direct sum of multiplicity-one embeddings with the given signature.

    Summands are placed in label order, each copy of an automorphism theta
    taking the next free slots: source slot (v, p) goes to target slot
    (theta(v), used + p).
    """
    source = basic_model(sig.m) if source is None else source
    if sig.m != source.m or sig.m != target.m:
        raise IncompatibleError("signature, source and target must share the cycle length")
    used = [0] * (2 * sig.m + 1)  # slots taken so far at each target vertex
    slot_maps = []
    for index, mult in enumerate(sig.r, start=1):
        theta = DihedralElement.from_index(sig.m, index)
        for _ in range(mult):
            slot_map = []
            for v in range(1, 2 * sig.m + 1):
                w = theta.act(v)
                need = used[w] + source.vertex_mults[v - 1]
                if need > target.vertex_mults[w - 1]:
                    raise CapacityError(
                        f"vertex {w} of the target has multiplicity "
                        f"{target.vertex_mults[w - 1]}, placement needs {need}"
                    )
                slot_map.extend(range(target.starts[w - 1] + used[w], target.starts[w - 1] + need))
                used[w] = need
            slot_maps.append(slot_map)
    return ConcreteEmbedding(source, target, slot_maps)


def compose_embeddings(f: ConcreteEmbedding, g: ConcreteEmbedding) -> ConcreteEmbedding:
    """The composite that applies f first, then g (f's target must be g's source):
    one summand t . s for every summand s of f and t of g."""
    if f.target != g.source:
        raise IncompatibleError("the target model of the first embedding must equal "
                                "the source model of the second")
    return ConcreteEmbedding(f.source, g.target,
                             [[t[i] for i in s] for s in f.slot_maps for t in g.slot_maps])


# ---------------------------------------------------------------------------
# Signature recovery
# ---------------------------------------------------------------------------

def decompose_signature(emb: ConcreteEmbedding) -> Signature:
    """The multiplicity signature of a rigid embedding: its summands counted by
    class.  Recovery from the two invariants, K0 and H1, is
    :func:`cyclealg.signatures.signature_from_k0h1`."""
    r = [0] * (2 * emb.source.m)
    for label in emb.classes:
        r[label - 1] += 1
    return Signature(emb.source.m, tuple(r))


# ---------------------------------------------------------------------------
# Randomized verification harnesses
# ---------------------------------------------------------------------------

def _harness_streams(seed):
    """The three generators of a seeded harness run, spawned from ``seed``: the
    uniforms, the block-unitary normals and the perturbation normals.

    Each trial takes a block of fixed size from each stream, and a chunk of
    trials takes its blocks in one call per stream, so trial t depends only on
    the seed and the model, never on how the trials are chunked.
    """
    seed = check_integer(seed, "seed", 0, name="seed")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


@functools.lru_cache(maxsize=None)
def _unit_tables(m):
    """The basic algebra's 4m matrix units at half-length m: their flat rows and
    columns, in ``supported_block_pairs`` order, and for each unit its rivals
    (the units sharing its row or its column), padded with the unit itself to
    a common width."""
    units = [(i - 1, j - 1) for (i, j) in basic_model(m).supported_block_pairs()]
    by_row, by_col = {}, {}
    for u, (r, c) in enumerate(units):
        by_row.setdefault(r, []).append(u)
        by_col.setdefault(c, []).append(u)
    rivals = [sorted(set(by_row[r] + by_col[c]) - {u}) for u, (r, c) in enumerate(units)]
    width = max(map(len, rivals))
    rivals = np.array([w + [u] * (width - len(w)) for u, w in enumerate(rivals)])
    rows, cols = (np.array(x) for x in zip(*units))
    for table in (rows, cols, rivals):
        table.flags.writeable = False  # shared by every caller through the cache
    return rows, cols, rivals


@functools.lru_cache(maxsize=None)
def _class_images(m):
    """The 0-based vertex images of the 2m classes, (2m, 2m) in label order."""
    images = np.array([theta.images() for theta in enumerate_automorphisms(m)]) - 1
    images.flags.writeable = False  # shared by every caller through the cache
    return images


def _source_units(m, keys, skips, phases) -> np.ndarray:
    """Random partial isometries of the basic algebra, as the coefficients
    (c, 4m) of its matrix units (in :func:`_unit_tables` order, 0 where a unit
    is not taken).

    Row t of ``keys``, ``skips`` and ``phases`` (each (c, 4m)) holds the
    uniforms of trial t's matrix units.  Units are taken in the order of their
    keys: a unit is taken when no unit taken before it shares its row or its
    column and, unless it comes first, when its skip uniform is at least 0.25.
    A taken unit gets the coefficient exp(2 pi i phase).  A sum of matrix units
    with distinct rows and columns and unimodular coefficients is a partial
    isometry with its projections in the algebra.

    The greedy pass runs in rounds over all units of the chunk at once: a
    unit is decided as soon as a rival before it is taken, or every rival
    before it that could be taken is decided.
    """
    rivals = _unit_tables(m)[2]
    rank = keys.argsort(axis=1).argsort(axis=1)  # each unit's place in its trial's order
    open_ = (skips >= 0.25) | (rank == 0)
    # rivals before the unit that could be taken (the padding, the unit itself, is not before)
    earlier = (rank[:, rivals] < rank[:, :, None]) & open_[:, rivals]
    taken = np.zeros_like(open_)
    while open_.any():
        blocked = (earlier & taken[:, rivals]).any(axis=2)
        ready = open_ & (blocked | ~(earlier & open_[:, rivals]).any(axis=2))
        taken |= ready & ~blocked
        open_ &= ~ready
    return np.where(taken, np.exp(2j * math.pi * phases), 0)


def _draw_sources(m, bound, uniforms):
    """Summand classes (c, bound) and source unit coefficients (c, 4m) from the
    trials' uniform blocks (c, 1 + bound + 12m).

    A block's first uniform u sets the number of summands, 1 + floor(u bound);
    summand p below that number has the class floor(u_{1+p} 2m), 0-based.  The
    classes are sorted into label order, and 2m marks a summand past the
    number.  The last 12m uniforms are the keys, then the skips, then the
    phases of the 4m source matrix units (:func:`_source_units`).
    """
    two_m = 2 * m
    total = 1 + (uniforms[:, 0] * bound).astype(int)
    classes = (uniforms[:, 1:1 + bound] * two_m).astype(int)
    classes[np.arange(bound) >= total[:, None]] = two_m
    classes.sort(axis=1)
    keys, skips, phases = np.split(uniforms[:, 1 + bound:], 3, axis=1)
    return classes, _source_units(m, keys, skips, phases)


def _block_unitaries(model: MatrixAlgebraModel, normals) -> np.ndarray:
    """Block-diagonal unitaries (c, N, N) from stacked normals (c, 2 sum k^2).

    Each vertex block is the Q factor of its normals, phase-fixed so that R has
    a positive diagonal; one QR call per distinct vertex multiplicity.
    """
    c, n = len(normals), model.dimension
    offsets = list(accumulate((2 * k * k for k in model.vertex_mults), initial=0))
    by_size = {}
    for v, k in enumerate(model.vertex_mults, start=1):
        by_size.setdefault(k, []).append(v)
    u = np.zeros((c, n, n), dtype=complex)
    for k, vertices in by_size.items():
        parts = [normals[:, offsets[v - 1]:offsets[v]].reshape(c, 2, k, k) for v in vertices]
        z = np.stack(parts, axis=1)  # (c, vertices, re/im, k, k)
        q, r = np.linalg.qr(z[:, :, 0] + 1j * z[:, :, 1])
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[..., None, :]
        for g, v in enumerate(vertices):
            u[:, model.block(v), model.block(v)] = q[:, g]
    return u


def _model_trials(model: MatrixAlgebraModel, streams, count):
    """The next ``count`` trials of the streams: signature rows (count, 2m) and
    the model partial isometries U A U^*, stacked (count, N, N).

    A places the source's unit coefficients once per summand.  With the basic
    source every summand takes one slot at each target vertex, so summand s
    of class theta takes slot s at vertex theta(v): the placement of
    :func:`realize_rigid`, done as one fancy-index assignment per summand
    index.  U is the block-diagonal unitary of the trial's normals.
    """
    uniforms, normals, _ = streams
    m, n, bound = model.m, model.dimension, min(model.vertex_mults)
    classes, coefficients = _draw_sources(m, bound, uniforms.random((count, 1 + bound + 12 * m)))
    unit_rows, unit_cols, _ = _unit_tables(m)
    starts = np.array(model.starts[:-1])
    images = _class_images(m)
    a = np.zeros((count, n, n), dtype=complex)
    for s in range(bound):
        t = np.flatnonzero(classes[:, s] < 2 * m)
        idx = starts[images[classes[t, s]]] + s  # target index of each source index
        a[t[:, None], idx[:, unit_rows], idx[:, unit_cols]] = coefficients[t]
    u = _block_unitaries(
        model, normals.standard_normal((count, 2 * sum(k * k for k in model.vertex_mults))))
    rows = (classes[:, :, None] == np.arange(2 * m)).sum(axis=1)
    return rows, u @ a @ u.conj().transpose(0, 2, 1)


def random_model_partial_isometry(model: MatrixAlgebraModel, seed=0):
    """A partial isometry in the model with initial and final projections in it.

    Built as the image of a random partial isometry of the basic algebra
    under a random rigid embedding, conjugated by a random block-diagonal
    unitary; the entrywise partial-isometry property is exact for these.
    This is trial 0 of the harness run with the same seed.
    """
    rows, a = _model_trials(model, _harness_streams(seed), 1)
    return a[0], Signature(model.m, tuple(rows[0].tolist()))


def _harness_trials(model: MatrixAlgebraModel, trials, seed, delta=0.0):
    """Yield (t, signature row, max block-entry deviation) for each seeded trial.

    Each trial is a random model partial isometry; delta > 0 adds a random
    perturbation of operator norm delta inside the support before measuring.
    The perturbation has its own stream, so the trials are those of delta = 0
    at any delta.  Trials run max(1, _STACK_ENTRIES // N^2) at a time: the
    chunk draws its blocks from the streams, then the numerics run stacked.
    """
    if model.m < 3:
        raise InvalidIndexError(
            "the entrywise partial-isometry property fails for 4-cycle algebras; need m >= 3",
            "m")
    if not (math.isfinite(delta) and delta >= 0):
        raise InvalidIndexError(f"delta must be finite and nonnegative, got {delta}", "delta")
    if trials < 1:
        raise InvalidIndexError(f"trials must be at least 1, got {trials}", "trials")
    n = model.dimension
    if trials * n * n > MAX_HARNESS_ENTRIES:
        raise EnumerationBoundError(
            f"{trials} trials of an N = {n} model hold trials * N^2 = {trials * n * n} "
            f"entries, more than the bound {MAX_HARNESS_ENTRIES}", "trials")
    streams = _harness_streams(seed)
    mask = model.support_mask() if delta > 0 else None
    pairs = model.supported_block_pairs()
    chunk = max(1, _STACK_ENTRIES // (n * n))
    for first in range(0, trials, chunk):
        count = min(chunk, trials - first)
        rows, a = _model_trials(model, streams, count)
        if delta > 0:
            # the trial's 2N^2 normals, read as N^2 (real, imaginary) pairs
            e = streams[2].standard_normal((count, n, n, 2)).view(complex)[..., 0]
            e[:, ~mask] = 0.0
            e *= (delta / np.linalg.svd(e, compute_uv=False).max(axis=-1))[:, None, None]
            a = a + e
        for t, row, dev in zip(range(first, trials), rows, _block_defects(a, model, pairs)):
            yield t, row, float(dev)


def entrywise_partial_isometry_report(model: MatrixAlgebraModel, trials=100,
                                      tol=1e-9, seed=0) -> dict:
    """Check that block entries of partial isometries are partial isometries.

    For cycle half-length >= 3, any partial isometry whose initial and final
    projections lie in the algebra has this property exactly; the harness
    verifies it on randomly constructed instances and reports the maximum
    deviation.  Refused for m = 2, where the property fails.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidIndexError(f"tolerance must be finite and positive, got {tol}", "tol")
    max_dev, worst = 0.0, None
    for t, row, dev in _harness_trials(model, trials, seed):
        if dev > max_dev:
            max_dev, worst = dev, (t, row)
    worst_trial = None if worst is None else {"trial": worst[0], "signature": worst[1].tolist()}
    return {
        "check": "entrywise-partial-isometries",
        "m": model.m,
        "vertex_mults": list(model.vertex_mults),
        "trials": trials,
        "tol": tol,
        "seed": seed,
        "max_deviation": max_dev,
        "worst_trial": worst_trial,
        "ok": max_dev <= tol,
    }


def perturbed_entry_report(model: MatrixAlgebraModel, delta, trials=50,
                           epsilon=1e-4, seed=0) -> dict:
    """Record entry deviations after a norm-delta perturbation inside the support.

    This measures the delta-to-epsilon dependence of the approximate
    entrywise property; the harness records and never asserts a bound.
    """
    if not math.isfinite(epsilon):
        raise InvalidIndexError(f"epsilon must be finite, got {epsilon}", "epsilon")
    rows = [{"trial": t, "entry_deviation": dev}
            for t, _, dev in _harness_trials(model, trials, seed, delta)]
    max_dev = max(row["entry_deviation"] for row in rows)
    return {
        "check": "perturbed-entry-distances",
        "m": model.m,
        "vertex_mults": list(model.vertex_mults),
        "delta": delta,
        "epsilon": epsilon,
        "trials": trials,
        "seed": seed,
        "rows": rows,
        "max_entry_deviation": max_dev,
        "within_epsilon": max_dev <= epsilon,
        "ok": True,
    }


def composition_oracle_report(m) -> dict:
    """Compose all ordered pairs of multiplicity-one embeddings in the matrix model
    and compare the decomposed class against the group-ring convolution."""
    check_half_length(m, minimum=3, name="m")
    if m > MAX_ORACLE_HALF_LENGTH:
        raise EnumerationBoundError(
            f"the composition oracle checks (2m)^2 pairs at O(m log m) each; "
            f"m={m} exceeds the bound {MAX_ORACLE_HALF_LENGTH}", "m")
    unit = basic_model(m)
    autos = enumerate_automorphisms(m)
    units = unit_signatures(m)
    embeddings = [realize_rigid(s, unit) for s in units]
    mismatches = []
    for a, sa, second in zip(autos, units, embeddings):
        for b, sb, first in zip(autos, units, embeddings):
            got = decompose_signature(compose_embeddings(first, second))
            expected = signature_compose(sb, sa)
            if got.r != expected.r:
                mismatches.append({"a": a.index, "b": b.index,
                                   "got": list(got.r), "expected": list(expected.r)})
    total = len(autos) ** 2
    return {
        "check": "composition-oracle",
        "m": m,
        "pairs": total,
        "matches": total - len(mismatches),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


# ---------------------------------------------------------------------------
# The locally regular, non-regular 4-cycle embedding
# ---------------------------------------------------------------------------

def _place_corner(entries, scale=1.0):
    """Place 8x8 corner data (1-based row, col, sign) into M_16.

    Rows 1..8 are the slots of vertices 1 and 2, columns 1..8 the slots of
    vertices 3 and 4; the corner occupies rows 0..7 and columns 8..15.
    """
    x = np.zeros((16, 16), dtype=complex)
    for (r, c, sign) in entries:
        x[r - 1, 8 + c - 1] = sign * scale
    return x


def nonregular_embedding_example():
    """The 4-cycle algebra embedding that is locally regular but not regular.

    Returns the four image partial isometries v1..v4 of the rank-one 4-cycle
    (as 16 x 16 matrices, the off-diagonal corner of the 4-cycle algebra with
    vertex multiplicities four) together with a verification report:

    (a) every v_i is a partial isometry,
    (b) every v_i is a regular partial isometry (all central compressions
        are partial isometries),
    (c) the product of the consecutive pair sharing initial projections
        (v3 v2* in the order returned here) is a partial isometry that fails
        the local-regularity test outright.
    """
    model = MatrixAlgebraModel(2, (4, 4, 4, 4))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v1 = _place_corner([(1, 1, 1), (2, 5, 1), (5, 2, 1), (6, 6, 1)])
    v2 = _place_corner([(1, 3, 1), (1, 7, 1), (2, 3, 1), (2, 7, -1),
                        (5, 4, 1), (5, 8, 1), (6, 4, 1), (6, 8, -1)], inv_sqrt2)
    v3 = _place_corner([(3, 3, 1), (3, 4, 1), (4, 7, 1), (4, 8, 1),
                        (7, 3, 1), (7, 4, -1), (8, 7, 1), (8, 8, -1)], inv_sqrt2)
    v4 = _place_corner([(3, 1, 1), (4, 5, 1), (7, 2, 1), (8, 6, 1)])
    vs = (v1, v2, v3, v4)

    distances = [distance_to_partial_isometry(v) for v in vs]
    product = v3 @ v2.conj().T
    *regular, product_regular = _locally_regular(np.stack(vs + (product,)), model, 1e-6).tolist()

    # The images form a 4-cycle: consecutive pairs alternately share final
    # and initial projections.
    cycle_defect = max(
        float(np.max(np.abs(v1 @ v1.conj().T - v2 @ v2.conj().T))),
        float(np.max(np.abs(v2.conj().T @ v2 - v3.conj().T @ v3))),
        float(np.max(np.abs(v3 @ v3.conj().T - v4 @ v4.conj().T))),
        float(np.max(np.abs(v4.conj().T @ v4 - v1.conj().T @ v1))),
    )

    product_distance = distance_to_partial_isometry(product)
    witness = max_minimal_compression_distance(product, model)

    report = {
        "check": "nonregular-embedding",
        "model": {"m": 2, "vertex_mults": [4, 4, 4, 4]},
        "v_partial_isometry_distances": distances,
        "v_regular": regular,
        "cycle_relation_defect": cycle_defect,
        "nonregular_product": "v3 v2*",
        "product_partial_isometry_distance": product_distance,
        "product_locally_regular": product_regular,
        "max_minimal_compression_distance": witness,
        "assertions": {
            "each_v_is_partial_isometry": max(distances) <= 1e-9,
            "each_v_is_regular": all(regular),
            "product_not_locally_regular": (not product_regular) and witness >= 0.1,
        },
    }
    report["ok"] = all(report["assertions"].values())
    return vs, report
