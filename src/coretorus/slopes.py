"""Exact slope arithmetic on the one-vertex boundary torus.

A slope is a primitive integer pair (x, y) in a fixed (longitude, meridian)
basis, normalized so that x >= 0, and y = 1 when x = 0.  The x coordinate is
then the (nonnegative) intersection number with the meridian (0, 1).

The module also houses the Fibonacci slope sequence s_0 = (1,0), s_1 = (1,1),
s_{i+2} = s_i + s_{i+1}, elementary moves on slope triples (diagonal flips of
the one-vertex torus triangulation), and exact comparisons against powers of
the golden ratio, done in the ring Z[sqrt(5)] so no floating point is ever
trusted for a verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class Slope:
    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ValueError("slope (0,0) is not a curve class")
        if math.gcd(self.x, self.y) != 1:
            raise ValueError(f"slope ({self.x},{self.y}) is not primitive")
        if self.x < 0 or (self.x == 0 and self.y < 0):
            raise ValueError(f"slope ({self.x},{self.y}) is not normalized")

    def __str__(self):
        return f"({self.x},{self.y})"

    def to_json(self):
        return [self.x, self.y]


def normalize_slope(x, y):
    """Primitive, sign-normalized slope for an integer homology class."""
    if x == 0 and y == 0:
        raise ValueError("zero class has no slope")
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return Slope(x, y)


def intersection(a: Slope, b: Slope) -> int:
    """Geometric intersection number |a.x * b.y - a.y * b.x|."""
    return abs(a.x * b.y - a.y * b.x)


def min_pre_core_intersection(slopes) -> tuple:
    """(least value, least n attaining it) of the total intersection number
    of the slope (1, n) with ``slopes``, over all integers n.

    intersection((1, n), (x, y)) = |n*x - y| is convex and piecewise linear
    in n with its corner at y/x, so the sum is too, and the ends L <= R of
    its real minimum set are corners.  The least integer minimiser is
    ceil(L) if [L, R] holds an integer, else floor(L) or ceil(L).  At least
    one slope must have x > 0, or the sum does not depend on n.
    """
    corners = [s for s in slopes if s.x]
    if not corners:
        raise ValueError("the total intersection does not depend on n")
    candidates = {c for s in corners for c in (s.y // s.x, -(-s.y // s.x))}
    return min((sum(abs(n * s.x - s.y) for s in slopes), n) for n in candidates)


def mediant(a: Slope, b: Slope) -> Slope:
    """Farey mediant of two once-intersecting slopes."""
    if intersection(a, b) != 1:
        raise ValueError(f"mediant undefined: {a} and {b} do not intersect once")
    return normalize_slope(a.x + b.x, a.y + b.y)


@dataclass(frozen=True)
class SlopeTriple:
    """The three boundary edge slopes of a one-vertex torus triangulation.

    Pairwise intersection numbers are 1, which makes one slope the mediant
    of the other two, so the triple spans a Farey triangle.  Proof:
    |det(a, b)| = 1 makes (a, b) a basis of Z^2, so c = m a + n b, and
    det(a, c) = n det(a, b), det(b, c) = -m det(a, b) give |m| = |n| = 1.
    Either c = +-(a + b), the mediant of a and b, or c = +-(a - b), and then
    a = b + c or b = a + c is the mediant of the other two.
    """

    slopes: frozenset

    def __init__(self, slopes):
        slopes = frozenset(slopes)
        if len(slopes) != 3:
            raise ValueError("a slope triple needs three distinct slopes")
        a, b, c = sorted(slopes)
        for u, v in ((a, b), (a, c), (b, c)):
            if intersection(u, v) != 1:
                raise ValueError(f"{u} and {v} do not intersect once")
        object.__setattr__(self, "slopes", slopes)

    def __iter__(self):
        return iter(sorted(self.slopes))

    def __contains__(self, s):
        return s in self.slopes

    def others(self, s: Slope):
        if s not in self.slopes:
            raise ValueError(f"{s} is not in the triple")
        return tuple(sorted(self.slopes - {s}))

    def __str__(self):
        return "{" + ", ".join(str(s) for s in self) + "}"


def elementary_move(t: SlopeTriple, removed: Slope) -> SlopeTriple:
    """Flip the removed edge of a one-vertex torus triangulation.

    Removing one edge of the triangulation merges its two triangles into a
    square; the move inserts the other diagonal of that square.  In slope
    terms the two diagonals are the sum and the difference of the two kept
    slopes, and the inserted one is whichever of those the removed slope is
    not.  Removing the mediant of the kept pair therefore backtracks along
    the Farey tree rather than reinserting the removed slope.
    """
    a, b = t.others(removed)
    total = normalize_slope(a.x + b.x, a.y + b.y)
    diff = normalize_slope(a.x - b.x, a.y - b.y)
    inserted = diff if removed == total else total
    if removed not in (total, diff):
        raise ValueError(f"{removed} is not a diagonal of the square spanned by {a}, {b}")
    return SlopeTriple({a, b, inserted})


def _fib_pair(n):
    """(fib(n), fib(n + 1)) for n >= 0, by doubling over the bits of n:
    fib(2k) = fib(k) (2 fib(k+1) - fib(k)), fib(2k+1) = fib(k)^2 + fib(k+1)^2."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def fib(n: int) -> int:
    """Fibonacci numbers with fib(0) = 0, fib(1) = 1, any integer index."""
    if n < 0:
        f = fib(-n)
        return -f if n % 2 == 0 else f
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """Lucas numbers, lucas(0) = 2, lucas(1) = 1, any integer index:
    lucas(n) = fib(n - 1) + fib(n + 1) = 2 fib(n + 1) - fib(n)."""
    if n < 0:
        v = lucas(-n)
        return v if n % 2 == 0 else -v
    a, b = _fib_pair(n)
    return 2 * b - a


def slope_seq(i: int) -> Slope:
    """The i-th slope of the layered family: s_i = (fib(i+1), fib(i))."""
    if i < 0:
        raise ValueError("slope sequence starts at index 0")
    a, b = _fib_pair(i)
    return Slope(b, a)


def golden_power_cmp(value, k: int) -> int:
    """Exact sign of (value - phi**k) for a rational value and integer k.

    Uses phi**k = (lucas(k) + fib(k)*sqrt(5)) / 2 and compares by squaring,
    so the verdict is exact integer arithmetic throughout.
    """
    value = Fraction(value)
    # value - phi**k  has the sign of  a - b*sqrt(5)
    a = 2 * value - lucas(k)
    b = fib(k)
    if b >= 0:
        if a <= 0:
            return 0 if a == 0 and b == 0 else -1
        cmp = a * a - 5 * b * b
    else:
        if a >= 0:
            return 1
        cmp = 5 * b * b - a * a
    return (cmp > 0) - (cmp < 0)


def at_least_golden_power(value, k: int) -> bool:
    """Exact test value >= phi**k."""
    return golden_power_cmp(value, k) >= 0
