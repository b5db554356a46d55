"""Exact scalars: rationals and cyclotomic numbers.

Rationals are `fractions.Fraction`.  Cyclotomic numbers are residues modulo
the N-th cyclotomic polynomial, with Fraction coefficients, so equality is
canonical coefficient-wise comparison (after embedding into a common field).
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
    integer >= 1.  Read on every call, so a change takes effect at once."""
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


def _reduce_mod_cyclotomic(coeffs, n):
    """Reduce a coefficient list modulo the n-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    coeffs = [Fraction(c) for c in coeffs]
    # First fold exponents with zeta^n = 1, then do the polynomial remainder.
    if len(coeffs) > n:
        folded = [Fraction(0)] * n
        for e, c in enumerate(coeffs):
            folded[e % n] += c
        coeffs = folded
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg + 1):
                coeffs[i - deg + j] -= c * phi[j]
        coeffs[i] = Fraction(0)
    coeffs = coeffs[:deg]
    while len(coeffs) < deg:
        coeffs.append(Fraction(0))
    return tuple(coeffs)


class CycNum:
    """An element of Q(zeta_N), stored as a residue modulo Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs, _reduced=False):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if conductor > conductor_cap():
            raise ValueError(
                f"conductor {conductor} exceeds cap {conductor_cap()} "
                "(set CREPANT_MAX_CONDUCTOR to raise it)"
            )
        object.__setattr__(self, "conductor", conductor)
        if _reduced:
            object.__setattr__(self, "coeffs", tuple(coeffs))
        else:
            object.__setattr__(self, "coeffs", _reduce_mod_cyclotomic(coeffs, conductor))

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CycNum":
        return cls(1, [Fraction(value)])

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        power %= n
        return cls(n, [0] * power + [1])

    # -- structure ---------------------------------------------------------

    def embed(self, conductor: int) -> "CycNum":
        """Image in Q(zeta_conductor); own conductor must divide it."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only embed into a multiple conductor")
        step = conductor // self.conductor
        out = [Fraction(0)] * conductor
        for e, c in enumerate(self.coeffs):
            out[e * step] += c
        return CycNum(conductor, out)

    def _pair(self, other):
        """(common conductor, own coeffs, other's coeffs) there, or None.  A
        rational operand becomes its constant coefficient tuple directly."""
        if isinstance(other, CycNum):
            n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
            return n, self.embed(n).coeffs, other.embed(n).coeffs
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
        return CycNum(n, _poly_mul(a, b))

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
        return CycNum(self.conductor, [c * scale for c in s0])

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
        out = [Fraction(0)] * n
        for e, c in enumerate(self.coeffs):
            out[(-e) % n] += c
        return CycNum(n, out)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        if self.conductor == 1:
            return self.coeffs[0] if self.coeffs else Fraction(0)
        return None

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        _, a, b = pair
        return a == b

    __hash__ = None  # equality crosses conductors; hash by .key() if needed

    def key(self) -> str:
        """A string key identifying the value (for memoization)."""
        m = self.minimal()
        return f"{m.conductor}:" + ",".join(str(c) for c in m.coeffs)

    def minimal(self) -> "CycNum":
        """Equal value at the smallest conductor dividing the current one."""
        n = self.conductor
        for p in sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}):
            while n % p == 0:
                down = self._try_descend(n // p)
                if down is None:
                    break
                return down.minimal()
        return self

    def _try_descend(self, m):
        if self.conductor % m:
            return None
        # Solve embed(x) == self by matching coefficients of the big field.
        step = self.conductor // m
        target = list(self.coeffs)
        # zeta_m^e embeds as reduction of x^(e*step); build the linear system.
        cols = []
        for e in range(euler_phi(m)):
            cols.append(_reduce_mod_cyclotomic([0] * (e * step) + [1], self.conductor))
        rows = len(target)
        mat = [[cols[c][r] for c in range(len(cols))] + [target[r]] for r in range(rows)]
        piv = 0
        for col in range(len(cols)):
            sel = next((r for r in range(piv, rows) if mat[r][col] != 0), None)
            if sel is None:
                continue
            mat[piv], mat[sel] = mat[sel], mat[piv]
            inv = Fraction(1) / mat[piv][col]
            mat[piv] = [x * inv for x in mat[piv]]
            for r in range(rows):
                if r != piv and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[piv])]
            piv += 1
        # After full reduction each pivot row reads off one coordinate.
        sol = [Fraction(0)] * len(cols)
        piv = 0
        for col in range(len(cols)):
            row = next((r for r in range(rows)
                        if mat[r][col] == 1 and all(mat[r][c] == 0 for c in range(len(cols)) if c != col)), None)
            if row is not None:
                sol[col] = mat[row][-1]
        cand = CycNum(m, sol)
        if cand.embed(self.conductor) == self:
            return cand
        return None

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


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


ZERO = Fraction(0)
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
    return Fraction(str(text))


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
            factor = Fraction(body)
        if m.group("den"):
            factor = factor / Fraction(int(m.group("den")))
        if m.group("sign"):
            factor = -factor
        value = value * factor
    return value
