"""Exact combinatorics of rigid embeddings between 2m-cycle algebras.

A rigid embedding decomposes into proper multiplicity-one embeddings, one
inner-equivalence class per digraph automorphism.  The multiplicity
signature (r_1, .., r_{2m}) lists how often each class occurs and is a
complete conjugacy invariant.  Two derived invariants are computed here:

* the vertex-multiplicity matrix sum_j r_j P(theta_j), written in the fixed
  odd-then-even vertex ordering (block diagonal across the parity split),
* the homology multiplier r_1 - r_2 + r_3 - .. - r_{2m} (rotations minus
  reflections), i.e. the image of the signature under the sign character.

Everything in this module is exact Python-integer arithmetic.  numpy appears
only in the enumeration oracle (``permutation_matrix``, ``joint_scale_finite``
and their helpers), which the tests check the closed forms against.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .cycle_core import (
    DihedralElement,
    check_half_length,
    check_integer,
    dihedral_compose,
    enumerate_automorphisms,
    parity_order,
    parity_position,
)
from .errors import (
    EnumerationBoundError,
    HomologyRangeError,
    IncompatibleError,
    InvalidIndexError,
    K0NotRigidTypeError,
)

#: Default ceiling on exact joint-scale enumerations (total multiplicity).
DEFAULT_ENUMERATION_BOUND = 64
#: ``k0h1_roundtrip_report`` enumerates at most 2^16 signatures.
MAX_ROUNDTRIP_LOG2 = 16


@dataclass(frozen=True)
class Signature:
    """Multiplicities (r_1, .., r_{2m}) indexed by the canonical automorphism labels.

    The zero signature is allowed as the additive identity of signature
    arithmetic; embedding-facing operations reject it.
    """

    m: int
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", check_half_length(self.m, minimum=3))
        r = tuple(check_integer(x, "signature entry", 0) for x in self.r)
        if len(r) != 2 * self.m:
            raise InvalidIndexError(f"signature needs {2 * self.m} entries, got {len(r)}")
        object.__setattr__(self, "r", r)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.r)

    @property
    def total(self) -> int:
        return sum(self.r)

    @classmethod
    def unit(cls, element: DihedralElement) -> "Signature":
        """The multiplicity-one signature of a single automorphism class."""
        r = [0] * (2 * element.m)
        r[element.index - 1] = 1
        return cls(element.m, tuple(r))

    @classmethod
    def zero(cls, m) -> "Signature":
        return cls(m, (0,) * (2 * m))


def _require_same_m(s1: Signature, s2: Signature):
    if s1.m != s2.m:
        raise IncompatibleError(f"signatures of different cycle lengths: m={s1.m} vs m={s2.m}")


def permutation_matrix(element: DihedralElement) -> np.ndarray:
    """Vertex permutation matrix of an automorphism in the odd-then-even ordering."""
    m = element.m
    mat = np.zeros((2 * m, 2 * m), dtype=np.int64)
    for v in range(1, 2 * m + 1):
        mat[parity_position(m, element.act(v)), parity_position(m, v)] = 1
    return mat


@functools.lru_cache(maxsize=None)
def _perm_stack(m):
    return np.stack([permutation_matrix(theta) for theta in enumerate_automorphisms(m)])


@functools.lru_cache(maxsize=None)
def _composition_index_table(m):
    autos = enumerate_automorphisms(m)
    return tuple(tuple(dihedral_compose(a, b).index - 1 for b in autos) for a in autos)


@functools.lru_cache(maxsize=None)
def _k0_cells(m):
    """Per class, the (row, col) cells of its permutation matrix in parity order."""
    return tuple(tuple((parity_position(m, theta.act(v)), parity_position(m, v))
                       for v in range(1, 2 * m + 1))
                 for theta in enumerate_automorphisms(m))


def k0_matrix(sig: Signature) -> list:
    """The matrix sum_j r_j P(theta_j) as 2m rows of Python ints.

    It is block diagonal across the parity split.
    """
    rows = [[0] * (2 * sig.m) for _ in range(2 * sig.m)]
    for r, cells in zip(sig.r, _k0_cells(sig.m)):
        if r:
            for row, col in cells:
                rows[row][col] += r
    return rows


def h1(sig: Signature) -> int:
    """Rotations minus reflections: r_1 - r_2 + r_3 - .. - r_{2m}."""
    return sum(x if i % 2 == 0 else -x for i, x in enumerate(sig.r))


def signature_compose(inner: Signature, outer: Signature) -> Signature:
    """Signature of outer . inner (inner applied first): group-ring convolution."""
    _require_same_m(inner, outer)
    table = _composition_index_table(inner.m)
    out = [0] * (2 * inner.m)
    for a, ra in enumerate(outer.r):
        if ra == 0:
            continue
        row = table[a]
        for b, rb in enumerate(inner.r):
            if rb:
                out[row[b]] += ra * rb
    return Signature(inner.m, tuple(out))


def _shift_family(mat) -> tuple:
    """(lowest member, size) of the fibre of a vertex-multiplicity matrix, or (None, 0).

    The fibre is the shift family (r_1 + k, r_2 - k, r_3 + k, ..).  Write
    rot_k, refl_k for the classes theta_{2k+1}, theta_{2k+2}.  The column of
    vertex 1 holds rot_k + refl_{-k} at vertex 1 - 2k and the column of
    vertex 2 holds rot_k + refl_{1-k} at vertex 2 - 2k; walking around the
    cycle from rot_0 = 0 solves all but one of these pair constraints.  The
    shift vector has the zero matrix, so one exact check of the lowest
    nonnegative member decides the whole family.
    """
    rows = [list(row) for row in mat]
    n = len(rows)
    shape = (n,) + tuple(sorted({len(row) for row in rows}))
    if n % 2 or n < 6 or shape != (n, n):
        raise InvalidIndexError(f"expected a 2m x 2m matrix with m >= 3, got shape {shape}")
    try:
        rows = [[operator.index(x) for x in row] for row in rows]
    except TypeError:
        raise InvalidIndexError("vertex-multiplicity matrix must be integer") from None
    if any(x < 0 for row in rows for x in row):
        raise InvalidIndexError("vertex-multiplicity matrix must be nonnegative")

    m = n // 2
    col1, col2 = parity_position(m, 1), parity_position(m, 2)
    r = [0] * n
    for k in range(m):
        if k:
            at = parity_position(m, (1 - 2 * k) % n + 1)
            r[2 * k] = rows[at][col2] - r[2 * ((1 - k) % m) + 1]
        at = parity_position(m, (-2 * k) % n + 1)
        r[2 * ((-k) % m) + 1] = rows[at][col1] - r[2 * k]
    lo, hi = -min(r[0::2]), min(r[1::2])
    if lo > hi:
        return None, 0
    base = Signature(m, _shift(r, lo))
    if k0_matrix(base) != rows:
        return None, 0
    return base, hi - lo + 1


def _shift(r, k) -> tuple:
    """Entries of r moved k steps along the shift family (+k rotations, -k reflections)."""
    return tuple(x + k if i % 2 == 0 else x - k for i, x in enumerate(r))


def k0_is_rigid_type(mat) -> list:
    """All signatures with the given vertex-multiplicity matrix (empty if none).

    A matrix is of rigid type exactly when this fibre is nonempty.  The fibre
    is the shift family of ``_shift_family``, listed in increasing r_1.
    """
    base, size = _shift_family(mat)
    return [Signature(base.m, _shift(base.r, k)) for k in range(size)]


def signature_from_k0h1(mat, h: int) -> Signature:
    """The unique signature with the given matrix and homology multiplier.

    Raises ``K0NotRigidTypeError`` when the matrix has empty fibre and
    ``HomologyRangeError`` when the matrix is realizable but h is not.  The
    shift by k moves h1 by 2m * k, so the member is picked directly.
    """
    base, size = _shift_family(mat)
    if base is None:
        raise K0NotRigidTypeError("matrix is not a sum of automorphism permutation matrices")
    lo, step = h1(base), 2 * base.m
    k, rem = divmod(h - lo, step)
    if rem == 0 and 0 <= k < size:
        return Signature(base.m, _shift(base.r, k))
    raise HomologyRangeError(
        f"homology value {h} is outside the homology range "
        f"{{{lo} + {step}k : k = 0, .., {size - 1}}} of this matrix")


def homology_range(sig: Signature) -> range:
    """All homology multipliers over the fibre of the signature's matrix.

    The fibre is the shift family (r_1 + k, r_2 - k, ..) with k bounded by
    the smallest rotation and reflection entries, so the range is the
    arithmetic progression h1(sig) + 2m * k, an interval in the mod-2m
    congruence class of h1(sig).
    """
    base, step = h1(sig), 2 * sig.m
    return range(base - step * min(sig.r[0::2]), base + step * min(sig.r[1::2]) + 1, step)


@dataclass(frozen=True)
class CycleAlgebraShape:
    """A 2m-cycle algebra given by its vertex multiplicities (vertex order 1..2m)."""

    m: int
    vertex_mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", check_half_length(self.m))
        mults = tuple(check_integer(x, "vertex multiplicity", 1) for x in self.vertex_mults)
        if len(mults) != 2 * self.m:
            raise InvalidIndexError(f"shape needs {2 * self.m} multiplicities, got {len(mults)}")
        object.__setattr__(self, "vertex_mults", mults)

    @classmethod
    def uniform(cls, m, mult) -> "CycleAlgebraShape":
        return cls(m, (mult,) * (2 * m))

    @property
    def dimension(self) -> int:
        return sum(self.vertex_mults)

    def mults_parity_order(self) -> tuple:
        return tuple(self.vertex_mults[v - 1] for v in parity_order(self.m))


@dataclass(frozen=True)
class JointScaleElement:
    """One element (class of the image of e11 + e22, homology value) of a joint scale.

    ``k0_part`` is indexed by vertex classes in the odd-then-even ordering.
    """

    k0_part: tuple
    h_part: int


def scale_element(sig: Signature) -> JointScaleElement:
    """The joint-scale element contributed by a rigid embedding with this signature."""
    return JointScaleElement(tuple(row[0] + row[sig.m] for row in k0_matrix(sig)), h1(sig))


def compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers with the given sum, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _compositions_array(total, parts) -> np.ndarray:
    """Stars-and-bars enumeration as an array, rows in the same lex order."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    dividers = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(total + parts - 1), parts - 1)),
        dtype=np.int64,
    ).reshape(-1, parts - 1)
    first = dividers[:, :1]
    middle = np.diff(dividers, axis=1) - 1
    last = total + parts - 2 - dividers[:, -1:]
    return np.hstack([first, middle, last])


def joint_scale_finite(shape: CycleAlgebraShape, unital_only=False,
                       max_total=DEFAULT_ENUMERATION_BOUND) -> list:
    """All joint-scale elements of embeddings of the basic algebra into ``shape``.

    Enumerates every nonzero signature satisfying the row-sum capacity
    condition (equality at every vertex when ``unital_only``), deduplicated
    in order of first appearance under lexicographic signature enumeration.
    Since all row sums equal the signature total, a unital embedding exists
    only when the shape is uniform.
    """
    check_half_length(shape.m, minimum=3)
    bound = min(shape.vertex_mults)
    if bound > max_total:
        raise EnumerationBoundError(
            f"enumeration up to total multiplicity {bound} exceeds the bound {max_total}; "
            "raise max_total explicitly to force it"
        )
    if unital_only:
        if len(set(shape.vertex_mults)) != 1:
            return []
        totals = [shape.vertex_mults[0]]
    else:
        totals = list(range(1, bound + 1))

    m = shape.m
    # Per-class contributions: the scale element depends linearly on the
    # signature through the image positions of vertices 1 and 2 and the sign
    # character (same map as scale_element, batched).
    stack = _perm_stack(m)
    part_map = (stack[:, :, 0] + stack[:, :, m]).astype(np.int64)
    signs = np.array([1 if j % 2 == 0 else -1 for j in range(2 * m)], dtype=np.int64)

    seen = set()
    out = []
    for total in totals:
        sigs = _compositions_array(total, 2 * m)
        parts = sigs @ part_map
        hs = sigs @ signs
        for row, h in zip(parts, hs):
            elem = JointScaleElement(tuple(int(x) for x in row), int(h))
            if elem not in seen:
                seen.add(elem)
                out.append(elem)
    return out


def unit_signatures(m) -> list:
    """The 2m multiplicity-one signatures in canonical label order."""
    return [Signature.unit(theta) for theta in enumerate_automorphisms(m)]


def signatures_with_entries_at_most(m, bound):
    """All signatures with every entry <= bound (includes the zero signature)."""
    for r in itertools.product(range(bound + 1), repeat=2 * m):
        yield Signature(m, r)


def k0h1_roundtrip_report(m, max_entry=2) -> dict:
    """Recover every signature with entries <= max_entry from its matrix and homology value.

    The pair (matrix, homology multiplier) determines the signature uniquely:
    the matrix pins the shift family and the homology value pins the shift.
    """
    check_half_length(m, minimum=3, name="m")
    if max_entry < 1:
        raise InvalidIndexError(f"max_entry must be at least 1, got {max_entry}", "max_entry")
    # (max_entry + 1)^(2m) >= 2^(2m): 2m > 16 is past the bound at any max_entry,
    # so the refusal is m's and the power is never computed
    if 2 * m > MAX_ROUNDTRIP_LOG2 or (max_entry + 1) ** (2 * m) > 2 ** MAX_ROUNDTRIP_LOG2:
        raise EnumerationBoundError(
            f"max_entry={max_entry} at m={m} gives (max_entry + 1)^(2m) signatures, "
            f"more than the bound 2^{MAX_ROUNDTRIP_LOG2}",
            "m" if 2 * m > MAX_ROUNDTRIP_LOG2 else "max_entry")
    count, failures = 0, []
    for sig in signatures_with_entries_at_most(m, max_entry):
        count += 1
        got = signature_from_k0h1(k0_matrix(sig), h1(sig))
        if got.r != sig.r:
            failures.append({"signature": list(sig.r), "got": list(got.r)})
    return {
        "check": "k0h1-roundtrip",
        "m": m,
        "max_entry": max_entry,
        "count": count,
        "failures": failures,
        "ok": not failures,
    }
