"""Exact combinatorics of rigid embeddings between 2m-cycle algebras.

A rigid embedding decomposes into proper multiplicity-one embeddings, one
inner-equivalence class per digraph automorphism.  The multiplicity
signature (r_1, .., r_{2m}) lists how often each class occurs and is a
complete conjugacy invariant.  Two derived invariants are computed here:

* the vertex-multiplicity matrix sum_j r_j P(theta_j), written in the fixed
  odd-then-even vertex ordering (block diagonal across the parity split),
* the homology multiplier r_1 - r_2 + r_3 - .. - r_{2m} (rotations minus
  reflections), i.e. the image of the signature under the sign character.

Everything in this module is exact Python-integer arithmetic.  numpy is
imported only inside the enumeration oracle (``permutation_matrix``,
``joint_scale_finite`` and their helpers), which the tests check the closed
forms against, so importing this module does not load it.  Values
are checked once, where they enter (``Signature(m, r)``, the fibre recovery's
matrix and h); values computed here from checked ints are not checked again.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

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
#: ``k0_is_rigid_type`` lists fibres of at most 2^16 members.
MAX_FIBRE_MEMBERS = 1 << 16
#: ``k0h1_roundtrip_report`` recovers at most this many signatures per ``_recover`` call.
_RECOVERY_CHUNK = 1 << 8


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
    def _of(cls, m, r) -> "Signature":
        """A signature of already checked ints, not validated again."""
        sig = object.__new__(cls)
        sig.__dict__.update(m=m, r=r)
        return sig

    @classmethod
    def unit(cls, element: DihedralElement) -> "Signature":
        """The multiplicity-one signature of a single automorphism class."""
        r = [0] * (2 * element.m)
        r[element.index - 1] = 1
        return cls(element.m, tuple(r))

    @classmethod
    def zero(cls, m) -> "Signature":
        return cls(m, (0,) * (2 * m))


def permutation_matrix(element: DihedralElement) -> np.ndarray:
    """Vertex permutation matrix of an automorphism in the odd-then-even ordering."""
    import numpy as np
    m = element.m
    mat = np.zeros((2 * m, 2 * m), dtype=np.int64)
    for v in range(1, 2 * m + 1):
        mat[parity_position(m, element.act(v)), parity_position(m, v)] = 1
    return mat


@functools.lru_cache(maxsize=None)
def _perm_stack(m):
    import numpy as np
    return np.stack([permutation_matrix(theta) for theta in enumerate_automorphisms(m)])


@functools.lru_cache(maxsize=None)
def _composition_index_table(m):
    autos = enumerate_automorphisms(m)
    return tuple(tuple(dihedral_compose(a, b).index - 1 for b in autos) for a in autos)


@functools.lru_cache(maxsize=None)
def _k0_layout(m):
    """(layout, reader): layout reads the row-major k0 matrix out of the cell sums
    rot_a + refl_b (at a*m + b) and a 0, and reader reads the cell sums back out of it.

    With rot_k, refl_k the classes theta_{2k+1}, theta_{2k+2}, cell (i, j) of the
    odd block is rot_{j-i} + refl_{i+j} and of the even block rot_{j-i} + refl_{i+j+1};
    each cell sum sits at two places of the two blocks, the other blocks are 0.
    """
    zero = [m * m] * m
    odd = [[(j - i) % m * m + (i + j) % m for j in range(m)] + zero for i in range(m)]
    even = [zero + [(j - i) % m * m + (i + j + 1) % m for j in range(m)] for i in range(m)]
    cells = list(itertools.chain.from_iterable(odd + even))
    return operator.itemgetter(*cells), operator.itemgetter(*map(cells.index, range(m * m)))


def _cell_sums(rots, refls, add=operator.add) -> list:
    """The cell sums rot_a + refl_b at a*m + b: of one signature's entries, or with
    ``_add_columns`` of entry columns, one column per class over a batch."""
    return list(itertools.starmap(add, itertools.product(rots, refls)))


def _add_columns(x, y) -> list:
    return list(map(operator.add, x, y))


def k0_matrix(sig: Signature) -> list:
    """The matrix sum_j r_j P(theta_j) as 2m rows of Python ints, block diagonal by parity."""
    sums = _cell_sums(sig.r[0::2], sig.r[1::2])
    sums.append(0)
    return list(map(list, zip(*[iter(_k0_layout(sig.m)[0](sums))] * (2 * sig.m))))


def _h1(r) -> int:
    return sum(r[0::2]) - sum(r[1::2])


def h1(sig: Signature) -> int:
    """Rotations minus reflections: r_1 - r_2 + r_3 - .. - r_{2m}."""
    return _h1(sig.r)


def signature_compose(inner: Signature, outer: Signature) -> Signature:
    """Signature of outer . inner (inner applied first): group-ring convolution."""
    if inner.m != outer.m:
        raise IncompatibleError(
            f"signatures of different cycle lengths: m={inner.m} vs m={outer.m}")
    table = _composition_index_table(inner.m)
    out = [0] * (2 * inner.m)
    for a, ra in enumerate(outer.r):
        if ra:
            row = table[a]
            for b, rb in enumerate(inner.r):
                if rb:
                    out[row[b]] += ra * rb
    return Signature._of(inner.m, tuple(out))


def _checked_sums(mat) -> tuple:
    """(m, cell sums) of a caller's 2m x 2m nonnegative integer matrix that is the
    layout of its own cell sums."""
    rows = [list(row) for row in mat]
    n = len(rows)
    shape = (n,) + tuple(sorted({len(row) for row in rows}))
    if n % 2 or n < 6 or shape != (n, n):
        raise InvalidIndexError(f"expected a 2m x 2m matrix with m >= 3, got shape {shape}")
    try:
        flat = tuple(map(operator.index, itertools.chain.from_iterable(rows)))
    except TypeError:
        raise InvalidIndexError("vertex-multiplicity matrix must be integer") from None
    if min(flat) < 0:
        raise InvalidIndexError("vertex-multiplicity matrix must be nonnegative")
    layout, reader = _k0_layout(n // 2)
    sums = list(reader(flat))
    if layout(sums + [0]) != flat:
        raise K0NotRigidTypeError("matrix is not a sum of automorphism permutation matrices")
    return n // 2, sums


@functools.lru_cache(maxsize=None)
def _off_chain(m):
    """(a, b, a*m + b) of the (m - 1)^2 cells that the chain (a, a), (a + 1, a) skips."""
    return tuple((a, b, a * m + b) for a in range(m) for b in range(m) if a - b not in (0, 1))


def _recover(m, sums, hs=None) -> list:
    """Entry columns r_1, .., r_2m of a batch: sums[a*m + b] lists the items' nonnegative
    cell sums rot_a + refl_b and hs their homology values (None: each fibre's lowest member).

    The chain from rot_0 = 0 (refl_a = S[a, a] - rot_a, rot_{a+1} = S[a+1, a] - refl_a)
    gives one solution, which the other cells must agree with.  The fibre is its shift
    family (r_1 + k, r_2 - k, r_3 + k, ..), nonnegative for -min(rot) <= k <= min(refl),
    which holds at some k since min(rot) + min(refl) = min(S) >= 0; the shift by k
    moves h1 by 2m * k.  The first item that fails raises.
    """
    rot, refl = [[0] * len(sums[0])], []
    for a in range(m):
        refl.append(list(map(operator.sub, sums[a * m + a], rot[a])))
        if a + 1 < m:
            rot.append(list(map(operator.sub, sums[(a + 1) * m + a], refl[a])))
    rigid = all(list(map(operator.add, rot[a], refl[b])) == sums[c] for a, b, c in _off_chain(m))
    lo, hi = [-x for x in map(min, *rot)], list(map(min, *refl))
    h0 = list(map(operator.sub, map(sum, zip(*rot)), map(sum, zip(*refl))))
    step = 2 * m
    if hs is None:
        ks, rems = lo, [0] * len(lo)
    else:
        ks, rems = zip(*map(divmod, map(operator.sub, hs, h0), itertools.repeat(step)))
    if not (rigid and not any(rems) and all(map(operator.le, lo, ks))
            and all(map(operator.le, ks, hi))):
        for i, (k, rem, low, high) in enumerate(zip(ks, rems, lo, hi)):
            if any(rot[a][i] + refl[b][i] != sums[c][i] for a, b, c in _off_chain(m)):
                raise K0NotRigidTypeError(
                    "matrix is not a sum of automorphism permutation matrices")
            if rem or not low <= k <= high:
                raise HomologyRangeError(
                    f"homology value {hs[i]} is outside the homology range "
                    f"{{{h0[i] + step * low} + {step}k : k = 0, .., {high - low}}} "
                    "of this matrix")
    cols = []
    for x, y in zip(rot, refl):
        cols += [list(map(operator.add, x, ks)), list(map(operator.sub, y, ks))]
    return cols


def k0_is_rigid_type(mat) -> list:
    """All signatures with the given vertex-multiplicity matrix, in increasing r_1.

    A matrix is of rigid type exactly when this fibre (``_recover``) is nonempty.
    A fibre of more than ``MAX_FIBRE_MEMBERS`` members is refused, not listed.
    """
    try:
        m, sums = _checked_sums(mat)
        base = [col[0] for col in _recover(m, [[s] for s in sums])]
    except K0NotRigidTypeError:
        return []
    size = min(base[1::2]) + 1
    if size > MAX_FIBRE_MEMBERS:
        raise EnumerationBoundError(
            f"the fibre has {size} members, more than the bound {MAX_FIBRE_MEMBERS}")
    return [Signature._of(m, tuple(x - k if j % 2 else x + k for j, x in enumerate(base)))
            for k in range(size)]


def signature_from_k0h1(mat, h: int) -> Signature:
    """The unique signature with the given matrix and homology multiplier.

    Raises ``K0NotRigidTypeError`` when the matrix has empty fibre and
    ``HomologyRangeError`` when the matrix is realizable but h is not.
    """
    h = check_integer(h, "homology value", name="h")
    m, sums = _checked_sums(mat)
    return Signature._of(m, tuple(col[0] for col in _recover(m, [[s] for s in sums], [h])))


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


def _compositions_array(total, parts) -> np.ndarray:
    """Stars-and-bars enumeration as an array, rows in lexicographic order."""
    import numpy as np
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
    import numpy as np
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
    # Per-class contributions: the scale element (columns 0 and m of the k0
    # matrix summed, and h1) depends linearly on the signature through the
    # image positions of vertices 1 and 2 and the sign character.
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


def k0h1_roundtrip_report(m, max_entry=2) -> dict:
    """Recover every signature with entries <= max_entry from its matrix and homology value.

    The pair (matrix, homology multiplier) determines the signature uniquely:
    the matrix pins the shift family and the homology value pins the shift.
    The signatures go through ``signature_from_k0h1``'s kernel ``_recover``
    ``_RECOVERY_CHUNK`` at a time, as the cell sums and h1 that ``k0_matrix``
    and ``h1`` compute.
    """
    m = check_half_length(m, minimum=3, name="m")
    max_entry = check_integer(max_entry, "max_entry", name="max_entry")
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
    rows = itertools.product(range(max_entry + 1), repeat=2 * m)
    for chunk in iter(lambda: list(itertools.islice(rows, _RECOVERY_CHUNK)), []):
        count += len(chunk)
        cols = list(map(list, zip(*chunk)))
        got = _recover(m, _cell_sums(cols[0::2], cols[1::2], _add_columns), list(map(_h1, chunk)))
        if got != cols:
            failures += [{"signature": list(r), "got": list(g)}
                         for r, g in zip(chunk, zip(*got)) if r != g]
    return {
        "check": "k0h1-roundtrip",
        "m": m,
        "max_entry": max_entry,
        "count": count,
        "failures": failures,
        "ok": not failures,
    }
