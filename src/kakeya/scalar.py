"""Arithmetic over the three supported coordinate fields.

A Field object fixes the kind of arithmetic: a prime field F_p with
canonical residues 0..p-1, the rational numbers with exact Fraction
values in lowest terms, or floating-point reals compared up to an
absolute tolerance.  Field elements are plain canonical Python values
(an int, a Fraction or a float); the field's methods define each operation
on them (hot loops compute the same inline), and field(x) turns an int (or
a Fraction or float, where the field admits it) into the canonical value.

Scalar wraps a value together with its field and overloads the usual
operators; arithmetic between scalars of different fields raises
FieldMismatch rather than guessing a coercion.  The package itself
computes on plain values.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import partial

from .errors import DivisionByZero, FieldMismatch, MalformedFile, UnsupportedField, need

DEFAULT_REAL_TOLERANCE = 1e-9

# Miller-Rabin with these bases decides primality exactly below
# _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017); larger moduli are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


class Memo(dict):
    """A dict that fills the entry of a missing key k with f(k) on first lookup."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, k):
        v = self[k] = self.f(k)
        return v


class Field:
    """Common interface of the three coordinate fields.

    The defaults are the native operators on canonical values, which the
    rationals use as they are; PrimeField replaces the arithmetic with
    residues mod p and RealField the zero and equality tests with the
    tolerance.  Each kind stores its canonical zero and one as class
    constants, and the characteristic p as well (0; an F_p sets its
    modulus in __init__): a value written into an instance's __dict__
    after __init__ would slow every later attribute read on it, such as
    PrimeField's self.p.
    """

    kind = "abstract"
    exact = True
    p = 0

    def __init__(self):
        # values_from_json's parse memo, set here rather than on first use for the reason above; it
        # reaches the field through a weak proxy, so the two form no cycle and go with the last holder
        self._parsed = Memo(partial(type(self)._parse, weakref.proxy(self)))

    def __call__(self, value):
        """The canonical value of an int (or of a Fraction or float, where admitted)."""
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return pow(a, e, self.p) if self.p else a ** e

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        """The canonical value written as s."""
        raise NotImplementedError

    def _parse(self, s):
        """from_str(s) for a str s; TypeError for any other entry, which values_from_json then names."""
        if type(s) is not str:
            raise TypeError(s)
        return self.from_str(s)

    def values_from_json(self, doc, what: str) -> list:
        """Values of a JSON list of strings, each distinct string parsed once; MalformedFile naming what otherwise."""
        doc = doc if type(doc) is list else need(doc, list, what)
        try:
            return list(map(self._parsed.__getitem__, doc))
        except TypeError:  # an entry that is not a str, hashable or not
            return [self.from_str(need(s, str, f"{what} entry")) for s in doc]
        except MalformedFile as exc:  # a string from_str refuses: not a number, a zero denominator, a non-finite real
            raise MalformedFile(f"{what} entry {exc}") from None

    def to_json(self) -> dict:
        raise NotImplementedError


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= p < _PRIME_LIMIT."""
    if any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << j, p) == p - 1 for j in range(s))
        for a in _PRIME_BASES
    )


class PrimeField(Field):
    """F_p for a prime p; values are canonical residues 0..p-1."""

    kind = "prime"
    zero, one = 0, 1

    def __init__(self, p: int):
        if p < 2:
            raise UnsupportedField(f"modulus must be at least 2, got {p}")
        if p >= _PRIME_LIMIT:
            raise UnsupportedField(f"modulus {p} is too large to test for primality")
        if not _is_prime(p):
            raise UnsupportedField(f"modulus {p} is not prime")
        self.p = p
        super().__init__()

    def __call__(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into F_{self.p}")
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def from_str(self, s):
        try:
            return int(s, 10) % self.p
        except ValueError:
            raise MalformedFile(f"{s!r} is not an integer") from None

    def to_json(self):
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField(Field):
    """The rationals; values are Fractions in lowest terms."""

    kind = "rational"
    zero, one = Fraction(0), Fraction(1)

    def __call__(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no rational inverse")
        return 1 / Fraction(a)  # 1 / a is a float when a is an int

    def to_str(self, a):
        return f"{a.numerator}/{a.denominator}"

    def from_str(self, s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise MalformedFile(f"{s!r} has denominator 0") from None
        except ValueError:
            raise MalformedFile(f"{s!r} is not a rational number") from None

    def to_json(self):
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class RealField(Field):
    """Floating-point reals compared up to an absolute tolerance below 1.

    tol bounds each single comparison, |a - b| <= tol or |a| <= tol, of input
    coordinates and computed residuals alike.  It is no distance between points
    or lines: a residual scales with its coordinates, so a coordinate moved by
    less than tol can change a verdict.  A real basis (rref) need not be reduced,
    nor a row 1 at its own pivot: an entry elimination skipped as at most tol
    stays, a later pivot just above tol scales it up to about 1/tol, and that
    row's elimination moves the earlier pivots' entries (hence PointSet._near's
    other leads); Subspace.contains can then reject points the basis spans.
    The hot record loops (ProjPoint, Subspace.contains, PointSet, walk_point, the
    writer, verify's audits) compute inline with these methods' float operations,
    abs(x) <= tol, abs(a - b) <= tol and 1.0 / x, so every bit and verdict is theirs.
    """

    kind = "real"
    exact = False
    zero, one = 0.0, 1.0

    def __init__(self, tol: float = DEFAULT_REAL_TOLERANCE):
        # from 1 up the leading coordinate 1 of every normalized point counts as zero
        if not (0 < tol < 1):
            raise UnsupportedField(f"tolerance must lie strictly between 0 and 1, got {tol}")
        self.tol = float(tol)
        super().__init__()

    def __call__(self, value):
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise TypeError(f"cannot coerce {value!r} into the reals")

    def inv(self, a):
        if abs(a) <= self.tol:
            raise DivisionByZero(f"value {a} is zero up to tolerance {self.tol}")
        return 1.0 / a

    def eq(self, a, b):
        return abs(a - b) <= self.tol

    def is_zero(self, a):
        return abs(a) <= self.tol

    def to_str(self, a):
        return repr(float(a))

    def from_str(self, s):
        try:
            x = float(s)
        except ValueError:
            raise MalformedFile(f"{s!r} is not a real number") from None
        if not math.isfinite(x):
            raise MalformedFile(f"{s!r} is not finite")
        return x

    def to_json(self):
        return {"kind": "real", "tol": self.tol}

    def __eq__(self, other):
        return isinstance(other, RealField) and other.tol == self.tol

    def __hash__(self):
        return hash(("real", self.tol))

    def __repr__(self):
        return f"RealField(tol={self.tol})"


def field_from_json(doc) -> Field:
    kind = need(doc, dict, "field").get("kind")
    if kind == "prime":
        return PrimeField(need(doc["p"], int, "field p"))
    if kind == "rational":
        return RationalField()
    if kind == "real":
        return RealField(need(doc.get("tol", DEFAULT_REAL_TOLERANCE), (int, float), "field tol"))
    raise UnsupportedField(f"unknown field kind {kind!r}")


class Scalar:
    """A field value paired with its field; immutable, with operator overloads."""

    __slots__ = ("value", "field")

    def __init__(self, value, field: Field):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _peer(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return Scalar(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other):
        other = self._peer(other)
        return Scalar(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other):
        other = self._peer(other)
        return Scalar(self.field.mul(self.value, other.value), self.field)

    def __truediv__(self, other):
        other = self._peer(other)
        if self.field.is_zero(other.value):
            raise DivisionByZero("division by zero scalar")
        return Scalar(self.field.div(self.value, other.value), self.field)

    def __neg__(self):
        return Scalar(self.field.neg(self.value), self.field)

    def __pow__(self, e: int):
        return Scalar(self.field.pow(self.value, e), self.field)

    def inverse(self) -> "Scalar":
        return Scalar(self.field.inv(self.value), self.field)

    @property
    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return self.field.eq(self.value, other.value)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        if not self.field.exact:
            raise TypeError("real-kind scalars compare up to tolerance and are unhashable")
        return hash((self.field, self.value))

    def to_str(self) -> str:
        return self.field.to_str(self.value)

    def __repr__(self):
        return f"Scalar({self.to_str()})"
