"""The 2m-cycle digraph, its automorphism group and the action on vertices.

The digraph D has vertices 1..2m arranged in a cycle with alternating edge
orientations plus a loop at every vertex.  Odd vertices are range vertices
(vertex 1 in particular), even vertices are source vertices.  Every digraph
automorphism preserves this bipartition, and the automorphism group is the
dihedral group of order 2m.

Elements carry the canonical labels theta_1 .. theta_{2m}:

* theta_1 is the identity,
* theta_2 is the reflection fixing vertex 1 (v -> 2 - v mod 2m),
* theta_3 is the shift v -> v - 2 mod 2m,
* theta_{2k-1} = theta_3^(k-1) and theta_{2k} = theta_2 . theta_{2k-1}.

Vertices are kept 1-based with representatives in {1, .., 2m}.  Composition
``dihedral_compose(a, b)`` means "apply b first, then a".
"""

from __future__ import annotations

import operator

from .errors import IncompatibleError, InvalidIndexError


def check_integer(x, what, minimum=None, name=None) -> int:
    """x as a Python int, at least ``minimum`` if given.

    Bools and non-integral values (floats, strings) are refused; integer
    types such as numpy ints are converted.  A refusal carries ``name``, the
    argument at fault.
    """
    value = x
    if type(value) is not int:  # bool, a subclass of int, also lands here
        try:
            value = None if isinstance(x, bool) else int(operator.index(x))
        except TypeError:
            value = None
        if value is None:
            raise InvalidIndexError(f"{what} must be an integer, got {x!r}", name)
    if minimum is not None and value < minimum:
        raise InvalidIndexError(f"{what} must be >= {minimum}, got {value}", name)
    return value


def check_half_length(m, minimum=2, name=None) -> int:
    """Validate a cycle half-length m (the digraph has 2m vertices)."""
    return check_integer(m, "cycle half-length", minimum, name)


class Value:
    """An immutable value whose fields are the names in ``_fields``, in order.

    ``__init__`` stores the fields with ``self.__dict__.update``; any other entry
    of ``__dict__`` (a derived attribute, a cached property) is not a field.
    Instances are equal only to instances of the same class with equal fields,
    hash as the tuple of their fields, print as ``Name(field=value, ..)`` and
    refuse assignment and deletion.
    """

    _fields = ()

    def __init_subclass__(cls):
        # itemgetter of one name returns the bare value, and the key is a tuple
        fields = cls._fields
        cls._key = staticmethod(operator.itemgetter(*fields) if len(fields) > 1
                                else lambda d, name=fields[0]: (d[name],))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self.__dict__) == other._key(other.__dict__)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self.__dict__))

    def __repr__(self):
        d = self.__dict__
        items = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DihedralElement(Value):
    """Automorphism of the 2m-cycle digraph, normalized to (shift, reflected).

    ``shift`` counts powers of the basic shift theta_3 (0 <= shift < m);
    ``reflected`` records a leading factor of the reflection theta_2.  The
    canonical 1-based label is derived, never stored.
    """

    _fields = ("m", "shift", "reflected")

    def __init__(self, m, shift, reflected):
        check_half_length(m)
        if not 0 <= shift < m:
            raise InvalidIndexError(f"shift must lie in 0..{m - 1}, got {shift}")
        self.__dict__.update(m=m, shift=shift, reflected=reflected)

    @property
    def index(self) -> int:
        """Canonical 1-based label: odd for rotations, even for reflections."""
        return 2 * self.shift + (2 if self.reflected else 1)

    @property
    def is_rotation(self) -> bool:
        return not self.reflected

    @classmethod
    def from_index(cls, m, index) -> "DihedralElement":
        check_half_length(m)
        if not 1 <= index <= 2 * m:
            raise InvalidIndexError(f"label must lie in 1..{2 * m}, got {index}")
        return cls(m, (index - 1) // 2, index % 2 == 0)

    @classmethod
    def identity(cls, m) -> "DihedralElement":
        return cls(m, 0, False)

    def act(self, v) -> int:
        """Image of vertex v (1-based, representatives in 1..2m)."""
        two_m = 2 * self.m
        if not 1 <= v <= two_m:
            raise InvalidIndexError(f"vertex must lie in 1..{two_m}, got {v}")
        if self.reflected:
            w = 2 + 2 * self.shift - v
        else:
            w = v - 2 * self.shift
        return (w - 1) % two_m + 1

    def images(self) -> tuple:
        """The full vertex permutation as a tuple (image of 1, .., image of 2m)."""
        return tuple(self.act(v) for v in range(1, 2 * self.m + 1))


def enumerate_automorphisms(m):
    """All 2m automorphisms in canonical label order theta_1, .., theta_{2m}."""
    check_half_length(m)
    return [DihedralElement.from_index(m, i) for i in range(1, 2 * m + 1)]


def dihedral_compose(a: DihedralElement, b: DihedralElement) -> DihedralElement:
    """The automorphism "b first, then a".

    With elements written as sigma^r rho^j (sigma the reflection theta_2,
    rho the shift theta_3) the product rule is rho sigma = sigma rho^(-1).
    """
    if a.m != b.m:
        raise IncompatibleError(f"cannot compose automorphisms of D_{2 * a.m} and D_{2 * b.m}")
    if b.reflected:
        shift = (b.shift - a.shift) % a.m
    else:
        shift = (a.shift + b.shift) % a.m
    return DihedralElement(a.m, shift, a.reflected ^ b.reflected)


def parity_order(m):
    """The fixed vertex ordering for invariant matrices: odd ascending, then even."""
    check_half_length(m)
    return tuple(range(1, 2 * m, 2)) + tuple(range(2, 2 * m + 1, 2))


def parity_position(m, v) -> int:
    """Index of vertex v in ``parity_order(m)``."""
    if not 1 <= v <= 2 * m:
        raise InvalidIndexError(f"vertex must lie in 1..{2 * m}, got {v}")
    return (v - 1) // 2 if v % 2 == 1 else m + (v - 2) // 2
