"""Scalar backends: the exact field Q(sqrt3) and tolerance-governed floats.

Two kinds of scalars run through the whole library.  Exact computations
(canonical representatives, curvature tables, signature counts) use
:class:`QSqrt3`, numbers of the form a + b*sqrt(3) with rational a, b, held
as three Python ints (p + q*sqrt(3))/d in lowest terms so that exact
arithmetic creates no intermediate Fractions.  Everything touched by
eigendecompositions or hyperbolic normalization uses plain floats, signed
against one relative zero band, DEFAULT_TOL, at unit scale (reduction.classify).
"""

from __future__ import annotations

import math
import numbers
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

EXACT = "exact"
APPROX = "approx"

#: relative zero band of float sign classification, at unit scale
DEFAULT_TOL = 1e-9

#: sqrt3 rounded to the nearest float
SQRT3_F = math.sqrt(3.0)


class _Frozen:
    """Base of the read-only value classes, here as this module imports nothing from the
    package.  __init__ fills the slots through _fill, and a later write raises
    AttributeError.  Equality, hash and repr read the fields named in _FIELDS and compare
    only instances of one class, as a frozen dataclass's do."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        """Fill a copy's or an unpickled instance's slots."""
        self._fill(*(state[1][name] for name in self.__slots__))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class SqrtOfNegative(ArithmeticError):
    """Square root requested for a negative exact value."""


class SqrtUnsupportedExact(ArithmeticError):
    """Square root of an exact scalar that is not a perfect square in Q(sqrt3)."""


def _fraction(*args) -> Fraction:
    """Fraction(*args); `fractions`, and the `decimal` module it loads, load on first use."""
    from fractions import Fraction
    return Fraction(*args)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return _fraction(num, den)
    return None


class QSqrt3:
    """An element a + b*sqrt(3) of the real quadratic field Q(sqrt3).

    Stored as the integer triple (p + q*sqrt3)/d with d > 0 and
    gcd(p, q, d) = 1, so equal values have identical triples; a and b are
    exposed as read-only Fractions.  Hashable and immutable by contract (the
    triple is private); arithmetic is exact.  Mixing with floats is
    deliberately not supported so that exact data cannot be contaminated
    silently -- convert with :func:`float` at the boundary instead.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        if type(a) is int and type(b) is int:
            self._p, self._q, self._d = a, b, 1
            return
        if _inexact(a) or _inexact(b):
            raise TypeError(f"QSqrt3({a!r}, {b!r}): a float component is not exact")
        a, b = _fraction(a), _fraction(b)
        # over the lcm of two reduced denominators the triple is already normal
        d = math.lcm(a.denominator, b.denominator)
        self._p = int(a.numerator) * (d // a.denominator)
        self._q = int(b.numerator) * (d // b.denominator)
        self._d = d

    # -- construction ------------------------------------------------------

    @classmethod
    def coerce(cls, x: QSqrt3 | int | Fraction) -> QSqrt3:
        o = _operand(x)
        if o is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to QSqrt3")
        return o

    @classmethod
    def parse(cls, text: str) -> "QSqrt3":
        """Parse strings like '1/2', '-2+sqrt3', '1/2-3/4*sqrt3' or '2.5e-3+sqrt3'.

        The whole string must be signed terms, each a rational or decimal, sqrt3, or a
        number times sqrt3 ('*' optional), every term after the first with its sign;
        ValueError for anything else."""
        if not text.strip():
            raise ValueError("empty exact scalar")
        number = r"\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
        terms = re.compile(  # re caches the compiled pattern
            rf"\s*(?P<sign>[+-]?)\s*(?:(?:(?P<coef>{number})\s*\*?\s*)?(?P<root>sqrt3)"
            rf"|(?P<number>{number}))\s*"
        )
        a = b = _fraction(0)
        pos = 0
        while pos < len(text):
            term = terms.match(text, pos)
            if term is None or (pos and not term["sign"]):
                raise ValueError(f"{text!r} is not a sum of terms a, sqrt3 or a*sqrt3")
            value = _fraction(term["sign"] + (term["coef"] or term["number"] or "1"))
            if term["root"]:
                b += value
            else:
                a += value
            pos = term.end()
        return cls(a, b)

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return _fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt3."""
        return _fraction(self._q, self._d)

    # -- presentation ------------------------------------------------------

    def format(self) -> str:
        """Canonical string form, inverse of :meth:`parse`."""
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if b == 1:
            root = "sqrt3"
        elif b == -1:
            root = "-sqrt3"
        else:
            root = f"{b}*sqrt3"
        if a == 0:
            return root
        sign = "+" if b > 0 else ""
        return f"{a}{sign}{root}"

    def __repr__(self) -> str:
        return f"QSqrt3({self.a!s}, {self.b!s})"

    def __str__(self) -> str:
        return self.format()

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other):
        if type(other) is QSqrt3:
            o = other
        elif type(other) is int:
            # gcd(p + o*d, q, d) = gcd(p, q, d) = 1: no normalization needed
            return _make(self._p + other * self._d, self._q, self._d)
        else:
            o = _operand(other)
            if o is None:
                return NotImplemented
        d, od = self._d, o._d
        if d == od:
            if d == 1:
                return _make(self._p + o._p, self._q + o._q, 1)
            return _normalized(self._p + o._p, self._q + o._q, d)
        return _normalized(self._p * od + o._p * d, self._q * od + o._q * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __sub__(self, other):
        o = other if type(other) is int else _operand(other)  # an int keeps __add__'s fast path
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is QSqrt3:
            o = other
        elif type(other) is int:
            if self._d == 1:
                return _make(self._p * other, self._q * other, 1)
            return _normalized(self._p * other, self._q * other, self._d)
        else:
            o = _operand(other)
            if o is None:
                return NotImplemented
        p, q, op, oq = self._p, self._q, o._p, o._q
        d = self._d * o._d
        if d == 1:
            return _make(p * op + 3 * q * oq, p * oq + q * op, 1)
        return _normalized(p * op + 3 * q * oq, p * oq + q * op, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            if other == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt3)")
            return _normalized(self._p, self._q, self._d * other)
        o = _operand(other)
        if o is None:
            return NotImplemented
        op, oq = o._p, o._q
        norm = op * op - 3 * oq * oq
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        # multiply by the conjugate: 1/(a+b s3) = (a-b s3)/(a^2-3 b^2)
        p, q = self._p, self._q
        return _normalized(
            (p * op - 3 * q * oq) * o._d, (q * op - p * oq) * o._d, self._d * norm
        )

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order structure ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} (of p + q sqrt3, as d > 0)."""
        p, q = self._p, self._q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        sp = 1 if p > 0 else -1
        sq = 1 if q > 0 else -1
        if sp == sq:
            return sp
        # opposite signs: compare p^2 with 3 q^2 (never equal for q != 0)
        return sp if p * p > 3 * q * q else sq

    def __eq__(self, other) -> bool:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._d == o._d

    def __hash__(self) -> int:
        if self._q == 0:
            return hash(self._p) if self._d == 1 else hash(self.a)  # a Fraction's hash
        return hash((self._p, self._q, self._d))

    def __lt__(self, other) -> bool:
        return (self - QSqrt3.coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - QSqrt3.coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - QSqrt3.coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - QSqrt3.coerce(other)).sign() >= 0

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __float__(self) -> float:
        # float(a) + float(b)*sqrt3; int true division rounds like Fraction
        return self._p / self._d + self._q / self._d * SQRT3_F

    def __abs__(self) -> "QSqrt3":
        return self if self.sign() >= 0 else -self

    # -- partial square root ------------------------------------------------

    def sqrt(self) -> "QSqrt3":
        """Exact square root when one exists in Q(sqrt3).

        Raises SqrtOfNegative for negative values, SqrtUnsupportedExact when
        the value is nonnegative but not a perfect square in the field.
        """
        sgn = self.sign()
        if sgn < 0:
            raise SqrtOfNegative(f"sqrt of negative exact scalar {self}")
        if sgn == 0:
            return QSqrt3(0)
        a, b = self.a, self.b
        # solve (p + q sqrt3)^2 = a + b sqrt3, i.e. p^2+3q^2=a, 2pq=b
        if b == 0:
            p = _fraction_sqrt(a)
            if p is not None:
                return QSqrt3(p)
            q = _fraction_sqrt(a / 3)
            if q is not None:
                return QSqrt3(0, q)
            raise SqrtUnsupportedExact(f"{self} is not a square in Q(sqrt3)")
        disc = _fraction_sqrt(a * a - 3 * b * b)
        if disc is not None:
            for q2 in ((a + disc) / 6, (a - disc) / 6):
                q = _fraction_sqrt(q2)
                if q is not None and q != 0:
                    root = QSqrt3(b / (2 * q), q)
                    if root.sign() < 0:
                        root = -root
                    if root * root == self:
                        return root
        raise SqrtUnsupportedExact(f"{self} is not a square in Q(sqrt3)")


_new_qsqrt3 = object.__new__


def _make(p: int, q: int, d: int) -> QSqrt3:
    """A QSqrt3 from a triple that is already normalized."""
    x = _new_qsqrt3(QSqrt3)
    x._p, x._q, x._d = p, q, d
    return x


def _normalized(p: int, q: int, d: int) -> QSqrt3:
    """The QSqrt3 (p + q sqrt3)/d, brought to d > 0 and gcd(p, q, d) = 1."""
    if d < 0:
        p, q, d = -p, -q, -d
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _make(p, q, d)


def sub_product(x: QSqrt3, f: QSqrt3 | int | Fraction, y: QSqrt3) -> QSqrt3:
    """x - f*y as one operation with one normalization; any operand may be rational.

    The product's numerator is kept over f's and y's denominators unreduced, so an
    update on integer or equal-denominator entries normalizes at most once.
    """
    if type(f) is not QSqrt3:
        f = QSqrt3.coerce(f)
    if type(y) is not QSqrt3:
        y = QSqrt3.coerce(y)
    if type(x) is not QSqrt3:
        x = QSqrt3.coerce(x)
    fp, fq, yp, yq = f._p, f._q, y._p, y._q
    mp, mq, md = fp * yp + 3 * fq * yq, fp * yq + fq * yp, f._d * y._d
    d = x._d
    if d == md:
        if d == 1:
            return _make(x._p - mp, x._q - mq, 1)
        return _normalized(x._p - mp, x._q - mq, d)
    return _normalized(x._p * md - mp * d, x._q * md - mq * d, d * md)


def _inexact(x) -> bool:
    """True for a real number that is not rational by type: a float, numpy's included."""
    return isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational)


def _operand(x) -> QSqrt3 | None:
    """x as a QSqrt3 when it is an exact scalar, else None."""
    if isinstance(x, QSqrt3):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, numbers.Rational):  # a Fraction, in lowest terms, or numpy's integers
        return _make(int(x.numerator), 0, int(x.denominator))
    return None


SQRT3 = QSqrt3(0, 1)
