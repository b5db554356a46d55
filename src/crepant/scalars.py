"""Exact scalars: rationals and cyclotomic numbers.

Rationals are `fractions.Fraction`.  Cyclotomic numbers are residues modulo
the N-th cyclotomic polynomial, with Fraction coefficients, so equality is
canonical coefficient-wise comparison (after embedding into a common field).

Every reduction goes through one residue table per conductor N, built on
first use: row e holds the nonzero coefficients of x^e mod Phi_N for
e = 0..N-1, and `_reduce` sums c * row[e mod N] over (e, c) terms.  The
constructor, `zeta` (row k), `embed` (e -> e M/N), `conj` (e -> -e) and the
common-field lift of a binary operation all go through it.  The conductor
cap is checked where a conductor first appears (the public constructor,
`zeta`, a lift to a larger conductor and the table build), before any
table or anything else of size N is built.  The result of an operation has
an operand's conductor or one its lift has checked, so it is not checked
again.

No floating point is used anywhere except the display helper `to_complex`.
"""

from __future__ import annotations

import cmath
import os
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

DEFAULT_MAX_CONDUCTOR = 120


def conductor_cap() -> int:
    """Largest allowed conductor; override with CREPANT_MAX_CONDUCTOR, an
    integer >= 1.  Read on every call; a CycNum checks it only where its
    conductor first appears, so a lowered cap does not reject numbers that
    already exist, nor results at their conductors."""
    raw = os.environ.get("CREPANT_MAX_CONDUCTOR")
    if raw is None:
        return DEFAULT_MAX_CONDUCTOR
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CREPANT_MAX_CONDUCTOR must be an integer >= 1, got {raw!r}")
    return cap


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _poly_trim(out)


def _poly_divmod(num, den):
    """Exact division of integer/Fraction polynomials (den need not be monic)."""
    num = list(num)
    den = _poly_trim(den)
    q = [0] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coef = Fraction(num[i + len(den) - 1], lead) if lead != 1 else num[i + len(den) - 1]
        q[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return q, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    # x^n - 1 divided by the product of all lower cyclotomic polynomials.
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod(num, den)
    assert not r
    return tuple(int(c) for c in q)


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
    """Coefficients of sum c x^e mod Phi_n over the (e, c) terms: each term
    adds c times row e mod n of the residue table.  The one reduction of
    this module."""
    rows = _residues(n)
    out = [Fraction(0)] * euler_phi(n)
    for e, c in terms:
        if c:
            for j, r in rows[e % n]:
                out[j] += c if r == 1 else c * r
    return tuple(out)


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
    """An element of Q(zeta_N), stored as a residue modulo Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs, _reduced=False):
        """`_reduced` is for this module's own results: the coefficients
        are reduced already, at a conductor already within the cap."""
        if not _reduced:
            _check_conductor(conductor)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs) if _reduced
                           else _reduce(conductor, enumerate(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CycNum":
        return cls(1, [Fraction(value)])

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        _check_conductor(n)
        return cls(n, _reduce(n, ((power, 1),)), _reduced=True)

    # -- structure ---------------------------------------------------------

    def _lift(self, conductor):
        """Own coefficients in the power basis of Q(zeta_conductor), a
        multiple of the own conductor N: x^e goes to x^(e conductor/N)."""
        if conductor == self.conductor:
            return self.coeffs
        if conductor % self.conductor:
            raise ValueError("can only embed into a multiple conductor")
        _check_conductor(conductor)
        step = conductor // self.conductor
        return _reduce(conductor, ((e * step, c) for e, c in enumerate(self.coeffs)))

    def embed(self, conductor: int) -> "CycNum":
        """Image in Q(zeta_conductor); own conductor must divide it."""
        if conductor == self.conductor:
            return self
        return CycNum(conductor, self._lift(conductor), _reduced=True)

    def _pair(self, other):
        """(common conductor, own coeffs, other's coeffs) there, or None.  A
        rational operand becomes its constant coefficient tuple directly."""
        if isinstance(other, CycNum):
            n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
            return n, self._lift(n), other._lift(n)
        if isinstance(other, (int, Fraction)):
            pad = (Fraction(0),) * (len(self.coeffs) - 1)
            return self.conductor, self.coeffs, (Fraction(other),) + pad
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, a, b = pair
        return CycNum(n, [x + y for x, y in zip(a, b)], _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, [-c for c in self.coeffs], _reduced=True)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, a, b = pair
        return CycNum(n, [x - y for x, y in zip(a, b)], _reduced=True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycNum(self.conductor, [c * f for c in self.coeffs], _reduced=True)
        if not isinstance(other, CycNum):
            return NotImplemented
        n, a, b = self._pair(other)
        return CycNum(n, _reduce(n, enumerate(_poly_mul(a, b))), _reduced=True)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        # Invariant: r_k = s_k * self  (mod Phi_N).
        r0, r1 = phi, _poly_trim(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, _poly_trim(r)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1, "Phi_N is squarefree; gcd with a nonzero residue is a unit"
        scale = Fraction(1) / r0[0]
        n = self.conductor
        return CycNum(n, _reduce(n, ((e, c * scale) for e, c in enumerate(s0))), _reduced=True)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, CycNum):
            return self * other.inv()
        return NotImplemented

    def __rtruediv__(self, other):
        if other == 1:
            return self.inv()
        return self.inv() * other

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(N-1)."""
        n = self.conductor
        return CycNum(n, _reduce(n, ((-e, c) for e, c in enumerate(self.coeffs))),
                      _reduced=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        _, a, b = pair
        return a == b

    __hash__ = None  # equality crosses conductors

    # -- rendering ---------------------------------------------------------

    def to_complex(self) -> complex:
        """Float rendering for display only; never used in core arithmetic."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * z ** e for e, c in enumerate(self.coeffs))

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
                "coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "CycNum":
        return cls(data["conductor"], [parse_rational(c) for c in data["coeffs"]])


ONE = Fraction(1)


def scalar_is_zero(x) -> bool:
    if isinstance(x, CycNum):
        return x.is_zero()
    return x == 0


def scalar_conj(x):
    if isinstance(x, CycNum):
        return x.conj()
    return x


def scalar_to_json(x):
    if isinstance(x, CycNum):
        r = x.as_rational()
        if r is not None:
            return format_rational(r)
        return x.to_json()
    return format_rational(Fraction(x))


def format_rational(r) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def parse_rational(text) -> Fraction:
    """An exact rational token such as `-3` or `2/3`; a zero denominator is
    a ValueError, like any other malformed token."""
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


_SCALAR_FACTOR = re.compile(
    r"^(?P<sign>-)?(?P<body>zeta(?P<n>\d+)(\^(?P<k>\d+))?|i|\d+(/\d+)?)(/(?P<den>\d+))?$"
)


def parse_scalar(text: str):
    """Parse exact scalar expressions like `-1`, `2/3`, `zeta3^2`, `i/2`,
    or products such as `1/2*zeta8`.  Returns a Fraction or CycNum."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    value = ONE
    for part in text.split("*"):
        m = _SCALAR_FACTOR.match(part)
        if not m:
            raise ValueError(f"cannot parse scalar factor {part!r}")
        body = m.group("body")
        if body == "i":
            factor = CycNum.zeta(4)
        elif body.startswith("zeta"):
            factor = CycNum.zeta(int(m.group("n")), int(m.group("k") or 1))
        else:
            factor = parse_rational(body)
        if m.group("den"):
            den = parse_rational(m.group("den"))
            if den == 0:
                raise ValueError(f"zero denominator in {part!r}")
            factor = factor / den
        if m.group("sign"):
            factor = -factor
        value = value * factor
    return value
