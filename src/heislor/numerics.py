"""Scalar backends: the exact field Q(sqrt3) and tolerance-governed floats.

Two kinds of scalars run through the whole library.  Exact computations
(canonical representatives, curvature tables, signature counts) use
:class:`QSqrt3`, numbers of the form a + b*sqrt(3) with rational a, b, held
as three Python ints (p + q*sqrt(3))/d in lowest terms so that exact
arithmetic creates no intermediate Fractions.  Everything touched by
eigendecompositions or hyperbolic normalization uses plain floats with an
explicit tolerance.  A certified midpoint bisection solver lives here as
well.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Union

EXACT = "exact"
APPROX = "approx"
BACKENDS = (EXACT, APPROX)

#: default tolerance for float sign classification
DEFAULT_TOL = 1e-9
#: default residual bound for bisection roots
ROOT_EPS = 1e-12

_SQRT3_FLOAT = math.sqrt(3.0)

RationalLike = Union[int, Fraction]


class SqrtOfNegative(ArithmeticError):
    """Square root requested for a value below -tol."""


class SqrtUnsupportedExact(ArithmeticError):
    """Square root of an exact scalar that is not a perfect square in Q(sqrt3)."""


class NoSignChange(ValueError):
    """Bisection bracket endpoints do not straddle a root."""


class NoConvergence(RuntimeError):
    """Iteration budget exhausted before the residual target was met."""


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
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

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        if type(a) is int and type(b) is int:
            self._p, self._q, self._d = a, b, 1
            return
        a, b = Fraction(a), Fraction(b)
        # over the lcm of two reduced denominators the triple is already normal
        d = math.lcm(a.denominator, b.denominator)
        self._p = int(a.numerator) * (d // a.denominator)
        self._q = int(b.numerator) * (d // b.denominator)
        self._d = d

    # -- construction ------------------------------------------------------

    @classmethod
    def coerce(cls, x: "QSqrt3 | RationalLike") -> "QSqrt3":
        o = _operand(x)
        if o is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to QSqrt3")
        return o

    @classmethod
    def parse(cls, text: str) -> "QSqrt3":
        """Parse strings like '1/2', '-2+sqrt3' or '1/2-3/4*sqrt3'."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty exact scalar")
        a = Fraction(0)
        b = Fraction(0)
        for term in re.findall(r"[+-]?[^+-]+", s):
            if "sqrt3" in term:
                coef = term[: term.index("sqrt3")].rstrip("*")
                if coef in ("", "+"):
                    b += 1
                elif coef == "-":
                    b -= 1
                else:
                    b += Fraction(coef)
            else:
                a += Fraction(term)
        return cls(a, b)

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt3."""
        return Fraction(self._q, self._d)

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
        if type(other) is int:
            # gcd(p + o*d, q, d) = gcd(p, q, d) = 1: no normalization needed
            return _make(self._p + other * self._d, self._q, self._d)
        o = _operand(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        return _normalized(self._p * od + o._p * d, self._q * od + o._q * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __sub__(self, other):
        if type(other) is int:
            return _make(self._p - other * self._d, self._q, self._d)
        o = _operand(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        return _normalized(self._p * od - o._p * d, self._q * od - o._q * d, d * od)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return _normalized(self._p * other, self._q * other, self._d)
        o = _operand(other)
        if o is None:
            return NotImplemented
        p, q, op, oq = self._p, self._q, o._p, o._q
        return _normalized(p * op + 3 * q * oq, p * oq + q * op, self._d * o._d)

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

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return QSqrt3(1) / self ** (-exponent)
        out = QSqrt3(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "QSqrt3":
        return _make(self._p, -self._q, self._d)

    # -- order structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

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
            return hash(self._p) if self._d == 1 else hash(Fraction(self._p, self._d))
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
        return self._p / self._d + self._q / self._d * _SQRT3_FLOAT

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


def _operand(x) -> QSqrt3 | None:
    """x as a QSqrt3 when it is an exact scalar, else None."""
    if isinstance(x, QSqrt3):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return None


ZERO = QSqrt3(0)
ONE = QSqrt3(1)
SQRT3 = QSqrt3(0, 1)

NEGATIVE, ZEROCLASS, POSITIVE = -1, 0, 1


def sign_with_tol(x: float, tol: float = DEFAULT_TOL) -> int:
    """Total sign classification of a float: |x| <= tol counts as zero."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if abs(x) <= tol:
        return ZEROCLASS
    return POSITIVE if x > 0 else NEGATIVE


def approx_sqrt(x: float, tol: float = DEFAULT_TOL) -> float:
    """Float square root with values in [-tol, 0] clamped to zero."""
    if x < -tol:
        raise SqrtOfNegative(f"sqrt of negative value {x}")
    return math.sqrt(x) if x > 0 else 0.0


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    eps: float = ROOT_EPS,
    max_iter: int = 200,
) -> float:
    """Deterministic midpoint bisection on a sign-changing bracket.

    Returns s in [lo, hi] with |f(s)| <= eps.  The bracket must satisfy
    f(lo)*f(hi) <= 0; endpoints whose residual already meets eps are
    returned as-is.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= eps:
        return lo
    if abs(fhi) <= eps:
        return hi
    if flo * fhi > 0:
        raise NoSignChange(f"f({lo})={flo} and f({hi})={fhi} have equal sign")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= eps:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NoConvergence(f"no root with residual <= {eps} after {max_iter} bisections")
