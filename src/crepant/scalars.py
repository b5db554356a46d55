"""Exact scalars: rationals and cyclotomic numbers.

Rationals are `fractions.Fraction`.  A cyclotomic number is a residue
modulo the N-th cyclotomic polynomial Phi_N, stored as integer numerators
`nums` over one positive integer `den` in lowest terms: gcd(den, *nums) == 1,
and zero is (0, ..., 0)/1.  So a value has one spelling per conductor, and
equality is a tuple comparison in a common field.  All arithmetic is on
integers (a rational operand scales numerators and denominator), and each
result is divided by its gcd once, in the constructor.

Every reduction goes through one residue table per conductor N, built on
first use: row e holds the nonzero integer coefficients of x^e mod Phi_N
for e = 0..N-1, and `_reduce` sums c * row[e mod N] over integer (e, c)
terms.  The public constructor (after clearing denominators once), `zeta`
(row k), the Galois action `galois(u)` (e -> e u), the common-field lift
(e -> e M/N) and the high half of a product all go through it.  The
inverse is an extended Euclid of Phi_N and the numerators on integer
polynomials, fraction-free.

The conductor cap is checked where a conductor first appears (the public
constructor, `zeta`, a lift to a larger conductor and the table build),
before any table or anything else of size N is built.  The result of an
operation has an operand's conductor or one its lift has checked, so it is
not checked again.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

DEFAULT_MAX_CONDUCTOR = 120


def conductor_cap() -> int:
    """Largest allowed conductor; override with CREPANT_MAX_CONDUCTOR, an
    integer >= 1 as `parse_int` reads it (no space, `+` or `_`).  Read on
    every call; a CycNum checks it only where its conductor first appears,
    so a lowered cap does not reject numbers that already exist, nor results
    at their conductors."""
    raw = os.environ.get("CREPANT_MAX_CONDUCTOR")
    if raw is None:
        return DEFAULT_MAX_CONDUCTOR
    try:
        cap = parse_int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CREPANT_MAX_CONDUCTOR must be an integer >= 1, got {raw!r}")
    return cap


def _mobius(m: int) -> int:
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the n-th cyclotomic polynomial, low degree first:
    the product of (x^d - 1)^mu(n/d) over the divisors d of n.  The factors
    with mu = +1 are multiplied out, then each one with mu = -1 divides the
    product exactly, by synthetic division on integers."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    poly, divisors = [1], []
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            if mu == 1:
                poly = [0] * d + poly
                for i, c in enumerate(poly[d:]):
                    poly[i] -= c
            elif mu == -1:
                divisors.append(d)
    for d in divisors:
        # poly = quot (x^d - 1): quot_j = poly_(j+d) + quot_(j+d), from the top
        quot = poly[d:]
        for j in range(len(quot) - 1 - d, -1, -1):
            quot[j] += quot[j + d]
        poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _residues(n: int):
    """Row e, for e = 0..n-1, is x^e mod Phi_n as its nonzero (j, c) pairs."""
    _check_conductor(n)
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = [((e, 1),) for e in range(deg)]
    # x^deg = -sum_j phi_j x^j; each further row is the one before times x
    vec = [0] * (deg - 1) + [1]
    for _ in range(deg, n):
        top = vec[-1]
        vec = [v - top * p for v, p in zip([0] + vec[:-1], phi)]
        rows.append(tuple((j, c) for j, c in enumerate(vec) if c))
    return tuple(rows)


def _reduce(n: int, terms):
    """Integer coefficients of sum c x^e mod Phi_n over the integer (e, c)
    terms: each term adds c times row e mod n of the residue table.  The
    one reduction of this module."""
    rows = _residues(n)
    out = [0] * euler_phi(n)
    for e, c in terms:
        if c:
            for j, r in rows[e % n]:
                out[j] += c * r
    return out


def _check_conductor(n: int) -> None:
    """Raise ValueError unless 1 <= n <= cap; called before anything of size
    n is built."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    cap = conductor_cap()
    if n > cap:
        raise ValueError(f"conductor {n} exceeds cap {cap} "
                         "(set CREPANT_MAX_CONDUCTOR to raise it)")


class CycNum:
    """An element of Q(zeta_N): integer numerators over one denominator of a
    residue modulo Phi_N, in lowest terms."""

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor, coeffs, _den=None):
        """sum coeffs[e] zeta_conductor^e for int or Fraction coefficients.
        With `_den` (this module's results), `coeffs` are reduced integer
        numerators over `_den` > 0 at a conductor within the cap."""
        if _den is None:
            _check_conductor(conductor)
            coeffs = list(coeffs)
            _den = lcm(*(c.denominator for c in coeffs))
            coeffs = _reduce(conductor, ((e, c.numerator * (_den // c.denominator))
                                         for e, c in enumerate(coeffs)))
        g = gcd(_den, *coeffs)
        if g != 1:
            coeffs = [c // g for c in coeffs]
            _den //= g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", tuple(coeffs))
        object.__setattr__(self, "den", _den)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple:
        """The residue's coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        _check_conductor(n)
        return cls(n, _reduce(n, ((power, 1),)), 1)

    # -- structure ---------------------------------------------------------

    def _lift(self, conductor):
        """(nums, den) in Q(zeta_conductor), a multiple of the own conductor
        N: x^e goes to x^(e conductor/N).  It stays in lowest terms: an
        algebraic integer of Q(zeta_N) is integral in the power basis."""
        if conductor == self.conductor:
            return self.nums, self.den
        _check_conductor(conductor)
        step = conductor // self.conductor
        return tuple(_reduce(conductor, ((e * step, c) for e, c in enumerate(self.nums)))), self.den

    def _pair(self, other):
        """(common conductor, own (nums, den), other's (nums, den)) there, or
        None.  A rational operand becomes its constant term directly."""
        if isinstance(other, CycNum):
            n = lcm(self.conductor, other.conductor)
            return n, self._lift(n), other._lift(n)
        if isinstance(other, (int, Fraction)):
            pad = (0,) * (len(self.nums) - 1)
            return self.conductor, (self.nums, self.den), ((other.numerator,) + pad,
                                                           other.denominator)
        return None

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other, or NotImplemented."""
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, (a, da), (b, db) = pair
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return CycNum(n, [x * fa + y * fb for x, y in zip(a, b)], da * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return CycNum(self.conductor, [c * p for c in self.nums],
                          self.den * other.denominator)
        if not isinstance(other, CycNum):
            return NotImplemented
        n, (a, da), (b, db) = self._pair(other)
        deg = len(a)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        # x^e for e < deg is its own residue: only the high half is folded
        high = _reduce(n, enumerate(prod[deg:], deg))
        return CycNum(n, [x + y for x, y in zip(prod, high)], da * db)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Fraction-free extended Euclid.  With self = a/d, each remainder r
        of Phi_N and a has an integer cofactor s with r = s a mod Phi_N; a
        step scales both by a leading coefficient, then divides out their
        joint content.  The last r is an integer c, and 1/self = d s / c."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        r0, s0 = list(cyclotomic_polynomial(self.conductor)), [0]
        r1, s1 = list(self.nums), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            lead, r, s = r1[-1], r0, s0
            while len(r) >= len(r1):
                # cancel the leading term of r with x^shift r1
                c, shift = r[-1], len(r) - len(r1)
                r = [lead * t for t in r]
                s = [lead * t for t in s] + [0] * (shift + len(s1) - len(s))
                for j, t in enumerate(r1):
                    r[shift + j] -= c * t
                for j, t in enumerate(s1):
                    s[shift + j] -= c * t
                while not r[-1]:
                    r.pop()
            g = gcd(*r, *s)
            r0, s0, r1, s1 = r1, s1, [t // g for t in r], [t // g for t in s]
        # deg s < deg Phi_N: s is a full residue once padded
        scale = self.den if r1[0] > 0 else -self.den
        nums = [scale * t for t in s1]
        return CycNum(self.conductor, nums + [0] * (len(self.nums) - len(nums)), abs(r1[0]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other.denominator, other.numerator)
        if isinstance(other, CycNum):
            return self * other.inv()
        return NotImplemented

    def __rtruediv__(self, other):
        if other == 1:
            return self.inv()
        return self.inv() * other

    def galois(self, u: int) -> "CycNum":
        """sigma_u: zeta_N -> zeta_N^u for gcd(u, N) = 1 (u = -1 conjugates),
        one reduction of the terms (e u, c) at the same conductor."""
        n = self.conductor
        if gcd(u, n) != 1:
            raise ValueError(f"galois({u}) needs u prime to the conductor {n}")
        return CycNum(n, _reduce(n, ((e * u, c) for e, c in enumerate(self.nums))), self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        _, a, b = pair
        return a == b

    __hash__ = None  # equality crosses conductors

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append(f"{c}*z{self.conductor}")
            else:
                terms.append(f"{c}*z{self.conductor}^{e}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return {"conductor": self.conductor,
                "coeffs": [_format_ratio(c, self.den) for c in self.nums]}


ZERO, ONE = Fraction(0), Fraction(1)


def lift_terms(values: list):
    """(N, D, lift, mixed) for Fraction or CycNum `values`: N is the lcm of
    their CycNum conductors (1 when there is none) and D of their
    denominators; lift(v) is D v as its nonzero integer (e, a) terms in
    Z[x]/(x^N - 1), x = zeta_N, a CycNum at conductor M putting its
    numerators at e N/M; `mixed` when the values have more than one
    conductor.  Sums of products of such terms add exponents mod N and are
    reduced mod Phi_N by `_reduce`, once per result.  `CycNum._lift` lifts
    one value, reduced, for CycNum arithmetic and the quantum root sums."""
    conductors = {v.conductor for v in values if isinstance(v, CycNum)}
    n = lcm(*conductors)
    d = lcm(*(v.den if isinstance(v, CycNum) else v.denominator for v in values))

    def lift(v):
        if isinstance(v, CycNum):
            step, scale = n // v.conductor, d // v.den
            return tuple((e * step, a * scale) for e, a in enumerate(v.nums) if a)
        return ((0, v.numerator * (d // v.denominator)),) if v else ()

    return n, d, lift, len(conductors) > 1


def no_arithmetic(self, other):
    """`+` and `*` of a value type built on a tuple, installed as __add__,
    __radd__, __mul__ and __rmul__: a TypeError naming the class, where the
    tuple's own operators would concatenate or repeat."""
    raise TypeError(f"{type(self).__name__} has no + or *")


def scalar_is_zero(x) -> bool:
    if isinstance(x, CycNum):
        return x.is_zero()
    return x == 0


def scalar_to_json(x):
    if isinstance(x, CycNum):
        return x.to_json() if any(x.nums[1:]) else _format_ratio(x.nums[0], x.den)
    return _format_ratio(x.numerator, x.denominator)


def format_rational(r) -> str:
    r = Fraction(r)
    return _format_ratio(r.numerator, r.denominator)


def _format_ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, written `N` or `N/D`."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


# One factor token in ASCII digits (not \d, which also matches other
# scripts' digits): groups sign, N, zeta's N and K, i, and D.
_FACTOR = re.compile(r"(-)?(?:([0-9]+)|zeta([0-9]+)(?:\^([0-9]+))?|(i))(?:/([0-9]+))?")


def _factor(text, error: str, units: bool = True, den: bool = True):
    """The value of a factor `-?N`, `-?zetaN(^K)?` or `-?i`, each with an
    optional `/D`: an int for `-?N`, a Fraction for `-?N/D`, else a CycNum.
    ValueError(error) unless `text` is a str and a factor, with no `zeta` or
    `i` unless `units` and no `/D` unless `den`, before anything is built.
    A zero D is named with the whole token, after any CycNum is built."""
    m = _FACTOR.fullmatch(text) if isinstance(text, str) else None
    if not m or not (units or m[2]) or (m[6] and not den):
        raise ValueError(error)
    sign, num, n, k, unit, d = m.groups()
    if num:
        value = int(num)
    else:
        value = CycNum.zeta(4) if unit else CycNum.zeta(int(n), int(k or 1))
    if d:
        d = int(d)
        if not d:
            raise ValueError(f"zero denominator in {text!r}")
        value = value * Fraction(1, d)
    return -value if sign else value


def parse_int(text) -> int:
    """An integer token `-?N`, a factor with no unit and no denominator:
    a `+` sign, an underscore, space or a non-ASCII digit is a ValueError."""
    return _factor(text, f"not an integer token (-?N): {text!r}", units=False, den=False)


def parse_rational(text) -> Fraction:
    """An exact rational: an integer (not a boolean) or a token such as
    `-3` or `2/3`, a factor with no unit, the rational grammar of `--q`.  A
    decimal, an exponent, a `+` sign, an underscore, surrounding space, a
    non-ASCII digit, a float, a unit and a zero denominator are each a
    ValueError."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    return Fraction(_factor(
        text, f"not an exact rational token (-?N or -?N/D): {text!r}", units=False))


def parse_scalar(text: str):
    """Parse exact scalar expressions like `-1`, `2/3`, `zeta3^2`, `i/2`,
    or products such as `1/2*zeta8`.  Returns a Fraction or CycNum.

    Each `*`-separated factor is `-?N`, `-?zetaN(^K)?` or `-?i`, with at
    most one `/D`: no space anywhere."""
    if not text:
        raise ValueError("empty scalar")
    value = ONE
    for part in text.split("*"):
        value = value * _factor(part, f"cannot parse scalar factor {part!r}")
    return value
