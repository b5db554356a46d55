"""Reference implementations the tests compare the library against.

None of these is on a computation path of the package: each is an
independent route to a value the package computes another way.
"""

import argparse
import cmath
import contextlib
import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add

from crepant import cli
from crepant.cartan import cartan_inverse_entry, cartan_matrix, curve_class, span_weights
from crepant.geometry import SectorRing, sum_rows
from crepant.gw import gw_invariant
from crepant.quantum import (
    PoleError,
    QPoint,
    QSeries,
    QuantumRing,
    all_spans,
    structure_constants,
)
from crepant.resolution import ResolutionRing
from crepant.scalars import (
    ZERO,
    CycNum,
    _check_conductor,
    _reduce,
    conductor_cap,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
    scalar_is_zero,
    scalar_to_json,
)
from crepant.verify import (
    A2Solution,
    A2SolveResult,
    AffineSystem,
    HomChecker,
    HomReport,
    _component_names,
    _roots_of_unity,
    _row_reduce,
    _shift,
    a2_candidates,
    reduce_system,
)


class HClass:
    """An element of H*(S) = Q[h]/h^(dim+1) over `base`: its coefficients of
    h^0..h^dim, rationals or cyclotomic numbers.  The tests' route through
    H*(S) coordinates; the package stores classes flat instead."""

    __slots__ = ("base", "coeffs")
    __hash__ = None

    def __init__(self, base, coeffs):
        self.base = base
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        return HClass(self.base, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, scalar):
        return HClass(self.base, (scalar * a for a in self.coeffs))

    def __mul__(self, other):
        """Cup product, truncated above h^dim; a scalar scales."""
        if not isinstance(other, HClass):
            return self.scale(other)
        out = [Fraction(0)] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if i + j < len(out) and not scalar_is_zero(a) and not scalar_is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return HClass(self.base, out)

    __rmul__ = __mul__

    def integrate(self):
        """Integral over S: the h^dim coefficient."""
        return self.coeffs[-1]

    def is_zero(self):
        return all(scalar_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        return self.base == other.base and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"HClass({self.base!r}, {self.coeffs!r})"


def h_power(base, j, coeff=Fraction(1)):
    """coeff h^j in H*(base), the zero class when h^j is above the top degree."""
    coeffs = [Fraction(0)] * (base.dim + 1)
    if j <= base.dim:
        coeffs[j] = coeffs[j] + coeff
    return HClass(base, coeffs)


def one(base):
    return h_power(base, 0)


def zero(base):
    return h_power(base, 0, Fraction(0))


class DenseClass(namedtuple("DenseClass", "geom coeffs")):
    """A sector class as the dense tuple of its (n + 2) rank coefficients,
    `coeffs[m]` that of the basis element b_m = h^p g, m = g rank + p: the
    tests' own coordinates, where the package keeps sparse rows {m: c}."""

    __slots__ = ()
    __hash__ = None


def dense(geom, row):
    """The sparse row {m: c} as a dense class."""
    return DenseClass(geom, tuple(row.get(m, ZERO) for m in range((geom.n + 2) * geom.base.rank)))


def generator_row(geom, k):
    """The k-th module generator as a sparse row: k = 0 is 1, k = 1 is
    sigma, k = a + 1 is g_a."""
    return {k * geom.base.rank: Fraction(1)}


def generator(geom, k):
    """The k-th module generator as a dense class."""
    return dense(geom, generator_row(geom, k))


def labelled_basis(ring):
    """(label, b_m) for every basis element, in the order of `ring.labels()`."""
    return [(label, dense(ring.geom, {m: Fraction(1)})) for m, label in enumerate(ring.labels())]


def generator_product(ring, i, j):
    """g_i g_j as a dense class, read off the ring's sparse row."""
    rank = ring.geom.base.rank
    return dense(ring.geom, ring.product((i + 1) * rank, (j + 1) * rank))


def product_table(ring):
    """{(i, j): b_i b_j} as sparse rows, for i <= j."""
    return {(i, j): ring.product(i, j) for i in range(ring.size) for j in range(i, ring.size)}


def mul_by_table(ring, x, y):
    """sum x_i y_j b_i b_j over the nonzero coefficients of the dense
    classes x and y, read off the ring's basis products."""
    return dense(ring.geom, sum_rows((a * b, ring.product(i, j))
                                     for i, a in as_row(x).items() for j, b in as_row(y).items()))


def coords(x):
    """The n + 2 H*(S) coordinates of a sector class, of 1, sigma, g_1..g_n."""
    rank = x.geom.base.rank
    return tuple(HClass(x.geom.base, x.coeffs[m:m + rank])
                 for m in range(0, len(x.coeffs), rank))


def from_coords(geom, parts):
    """The sector class with one H*(S) coordinate per generator 1, sigma, g_1..g_n."""
    return DenseClass(geom, tuple(c for alpha in parts for c in alpha.coeffs))


def difference(x, y):
    """x - y for sector classes, coefficient by coefficient: the package's
    classes have no arithmetic."""
    return DenseClass(x.geom, tuple(a - b for a, b in zip(x.coeffs, y.coeffs)))


def vanishes(x):
    """True when every coefficient of the sector class x is zero."""
    return all(scalar_is_zero(c) for c in x.coeffs)


def times_generator(geom, k, alpha):
    """alpha times the k-th module generator (k = 0 is 1, k = 1 is sigma,
    k = a + 1 is g_a)."""
    parts = [zero(geom.base)] * (geom.n + 2)
    parts[k] = alpha
    return from_coords(geom, parts)


def kap(geom):
    """The class k as an element of H*(S): k h."""
    return h_power(geom.base, 1, geom.k)


def ell(geom):
    """The class l as an element of H*(S): l h."""
    if geom.l is None:
        raise ValueError("l is undefined for n = 1")
    return h_power(geom.base, 1, geom.l)


def em(geom):
    """The class m as an element of H*(S): m h."""
    if geom.m is None:
        raise ValueError("m is undefined for n = 1")
    return h_power(geom.base, 1, geom.m)


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int):
    """Phi_n, low degree first, as x^n - 1 long-divided by every Phi_d for
    the proper divisors d of n, all monic, so the division stays on
    integers."""
    rest = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_by_division(d)
            quot = [0] * (len(rest) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = c = rest[i + len(div) - 1]
                for j, v in enumerate(div):
                    rest[i + j] -= c * v
            assert not any(rest)
            rest = quot
    return tuple(rest)


def reduce_mod_cyclotomic(coeffs, n):
    """Reduce a coefficient list modulo the n-th cyclotomic polynomial by
    folding with zeta^n = 1 and long division by Phi_n."""
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


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
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
    """Quotient and remainder of Fraction polynomials."""
    num, den = [Fraction(c) for c in num], _poly_trim(den)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        q[i] = coef = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= coef * d
    return q, _poly_trim(num)


def _scattered_residue(n, terms):
    """sum c x^e mod Phi_n over the (e, c) terms, by long division."""
    out = [Fraction(0)] * n
    for e, c in terms:
        out[e % n] += c
    return reduce_mod_cyclotomic(out, n)


class FractionCycNum:
    """The Fraction-coefficient cyclotomic number: an element of Q(zeta_N)
    as its residue modulo Phi_N with one Fraction per power of zeta_N,
    reduced by long division, inverted by the extended Euclidean algorithm
    over Q.  The reference for `CycNum`, which keeps integer numerators
    over one denominator instead."""

    def __init__(self, conductor, coeffs):
        self.conductor = conductor
        self.coeffs = _scattered_residue(conductor, enumerate(coeffs))

    @classmethod
    def zeta(cls, n, power=1):
        return cls(n, [0] * (power % n) + [1])

    def embed(self, conductor):
        step = conductor // self.conductor
        assert step * self.conductor == conductor
        return FractionCycNum(conductor, _scattered_residue(
            conductor, ((e * step, c) for e, c in enumerate(self.coeffs))))

    def _pair(self, other):
        if isinstance(other, FractionCycNum):
            n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
            return n, self.embed(n).coeffs, other.embed(n).coeffs
        if isinstance(other, (int, Fraction)):
            return self.conductor, self.coeffs, (Fraction(other),) + (Fraction(0),) * (
                len(self.coeffs) - 1)
        return None

    def __add__(self, other):
        n, a, b = self._pair(other)
        return FractionCycNum(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCycNum(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        n, a, b = self._pair(other)
        return FractionCycNum(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        n, a, b = self._pair(other)
        return FractionCycNum(n, _poly_mul(a, b))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # invariant: r_k = s_k * self mod Phi_N
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r1, s0, s1 = _poly_trim(self.coeffs), [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1
        return FractionCycNum(self.conductor, [c / r0[0] for c in s0])

    def __truediv__(self, other):
        if isinstance(other, FractionCycNum):
            return self * other.inv()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inv() * other

    def galois(self, u):
        """sigma_u, zeta_N -> zeta_N^u, by long division of the scattered terms."""
        n = self.conductor
        if gcd(u, n) != 1:
            raise ValueError(f"galois({u}) needs u prime to the conductor {n}")
        terms = ((e * u, c) for e, c in enumerate(self.coeffs))
        return FractionCycNum(n, _scattered_residue(n, terms))

    def is_zero(self):
        return not any(self.coeffs)

    def as_rational(self):
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def __eq__(self, other):
        _, a, b = self._pair(other)
        return a == b

    def to_json(self):
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}


def to_complex(x: CycNum) -> complex:
    """The value of x as a float complex number, to check a value numerically."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * z ** e for e, c in enumerate(x.coeffs))


def cycnum_from_json(data) -> CycNum:
    """The CycNum that `CycNum.to_json` wrote as `data`."""
    return CycNum(data["conductor"], [parse_rational(c) for c in data["coeffs"]])


def exact(x):
    """A Fraction, int or CycNum as its type and every field, for comparisons
    that see the type, the conductor, `nums` and `den`."""
    if isinstance(x, CycNum):
        return CycNum, x.conductor, x.nums, x.den
    return type(x), x


def conjugate(x, u: int):
    """sigma_u of a Fraction, int or CycNum: rationals are fixed."""
    return x.galois(u) if isinstance(x, CycNum) else x


def exact_system(system: AffineSystem):
    """Every field of an AffineSystem, each scalar through `exact`."""
    return (exact(system.det), system.spans, system.rank,
            [[exact(v) for v in row] for row in system.rows],
            system.solution and {span: exact(v) for span, v in system.solution.items()},
            system.point and tuple(exact(v) for v in system.point),
            system.inconsistent and (*system.inconsistent[:2], exact(system.inconsistent[2])))


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def key(x: CycNum) -> str:
    """A string identifying the value of x across conductors."""
    m = minimal(x)
    return f"{m.conductor}:" + ",".join(str(c) for c in m.coeffs)


def minimal(x: CycNum) -> CycNum:
    """Equal value at the smallest conductor dividing that of x."""
    n = x.conductor
    for p in sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}):
        while n % p == 0:
            down = _try_descend(x, n // p)
            if down is None:
                break
            return minimal(down)
    return x


def _try_descend(x: CycNum, m: int):
    """The element of Q(zeta_m) that embeds as x, or None."""
    if x.conductor % m:
        return None
    # Solve embed(y) == x by matching coefficients of the big field.
    step = x.conductor // m
    target = list(x.coeffs)
    # zeta_m^e embeds as reduction of x^(e*step); build the linear system.
    cols = []
    for e in range(euler_phi(m)):
        cols.append(reduce_mod_cyclotomic([0] * (e * step) + [1], x.conductor))
    rows = len(target)
    mat = [[cols[c][r] for c in range(len(cols))] + [target[r]] for r in range(rows)]
    piv = 0
    for col in range(len(cols)):
        sel = next((r for r in range(piv, rows) if mat[r][col] != 0), None)
        if sel is None:
            continue
        mat[piv], mat[sel] = mat[sel], mat[piv]
        inv = Fraction(1) / mat[piv][col]
        mat[piv] = [v * inv for v in mat[piv]]
        for r in range(rows):
            if r != piv and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[piv])]
        piv += 1
    # After full reduction each pivot row reads off one coordinate.
    sol = [Fraction(0)] * len(cols)
    for col in range(len(cols)):
        row = next((r for r in range(rows)
                    if mat[r][col] == 1 and all(mat[r][c] == 0 for c in range(len(cols)) if c != col)), None)
        if row is not None:
            sol[col] = mat[row][-1]
    cand = CycNum(m, sol)
    if cand == x:
        return cand
    return None


def is_span(beta):
    """(i, j) if the curve class is beta_{ij} = beta_i + ... + beta_j, else None."""
    support = [t for t, m in enumerate(beta.mult) if m != 0]
    if not support:
        return None
    i, j = support[0], support[-1]
    if support == list(range(i, j + 1)) and all(beta.mult[t] == 1 for t in support):
        return (i + 1, j + 1)
    return None


def surface_table(n: int):
    """Sector products over a point base: e_a * e_b is (1/(n+1)) sigma when
    the twists cancel mod n+1 and zero otherwise.  Returns the nonzero
    coefficient of sigma per sector pair."""
    table = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            table[(a, b)] = Fraction(1, n + 1) if (a + b) % (n + 1) == 0 else Fraction(0)
    return table


def inverse_by_elimination(matrix):
    """The inverse of an invertible square matrix of rationals, by exact
    Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def cartan_inverse_by_elimination(n: int):
    """Independent computation of c_n^-1 by exact Gaussian elimination."""
    return inverse_by_elimination(cartan_matrix(n))


def alpha_vector_coefficients(n: int, i: int, j: int):
    """The contracted-form coefficients alpha_{ijm}: per m a pair
    (m_coef, k_coef) such that alpha_{ijm} = m_coef * m + k_coef * k.

    E_i E_j (twisted part) = sum_{l,m} (c_n^-1)_{lm} alpha_{ijm} E_l; zero
    for |i - j| > 1."""
    if i > j:
        i, j = j, i
    out = [(Fraction(0), Fraction(0)) for _ in range(n)]
    if j - i > 1:
        return tuple(out)
    if i == j:
        # boundary terms at m = 0 or m = n+1 are dropped
        if i - 2 >= 0:
            out[i - 2] = (Fraction(1), Fraction(-(i - 1)))
        out[i - 1] = (Fraction(0), Fraction(-4))
        if i < n:
            out[i] = (Fraction(-1), Fraction(i + 1))
    else:  # j = i + 1
        out[i - 1] = (Fraction(-1), Fraction(i + 1))
        out[j - 1] = (Fraction(1), Fraction(-i))
    return tuple(out)


def contracted_alpha(n: int, i: int, j: int):
    """sum_m (c_n^-1)_{lm} alpha_{ijm} as (m_coef, k_coef) pairs per l.

    Cross-check target for the direct product formula."""
    alphas = alpha_vector_coefficients(n, i, j)
    out = []
    for l in range(1, n + 1):
        cm = Fraction(0)
        ck = Fraction(0)
        for m in range(1, n + 1):
            c = cartan_inverse_entry(n, l, m)
            cm += c * alphas[m - 1][0]
            ck += c * alphas[m - 1][1]
        out.append((cm, ck))
    return out


def as_row(x):
    """The sparse row {m: c} of the nonzero coefficients of the class x: the
    form in which `SectorRing._compute_ee` returns a generator product."""
    return {m: c for m, c in enumerate(x.coeffs) if not scalar_is_zero(c)}


class ContractedAlphaRing(SectorRing):
    """The classical resolution ring built independently of
    `quantum.structure_constants`: E_i E_j is (c_n)_ij sigma plus, per
    E_l, cm m + ck k with (cm, ck) from `contracted_alpha`."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def _compute_ee(self, i, j):
        geom = self.geom
        n = geom.n
        sigma = one(geom.base).scale(Fraction(cartan_matrix(n)[i - 1][j - 1]))
        # m is undefined for n = 1, where every cm is 0
        exc = tuple((em(geom).scale(cm) if cm else zero(geom.base)) + kap(geom).scale(ck)
                    for cm, ck in contracted_alpha(n, i, j))
        return as_row(from_coords(geom, (zero(geom.base), sigma, *exc)))


def intersection(n: int, l: int, beta) -> int:
    """E_l . beta, extended linearly from E_l . beta_m = (c_n)_{lm}."""
    c = cartan_matrix(n)
    return sum(c[l - 1][m] * beta.mult[m] for m in range(n))


@lru_cache(maxsize=None)
def r_poly(n: int, i: int, j: int, m: int) -> QSeries:
    """R_{ijm} = sum over spans of (E_i.beta)(E_j.beta)(E_m.beta) delta."""
    atoms = {}
    for r in range(1, n + 1):
        for s in range(r, n + 1):
            beta = curve_class(n, r, s)
            c = (intersection(n, i, beta) * intersection(n, j, beta)
                 * intersection(n, m, beta))
            if c:
                atoms[(r, s)] = Fraction(c)
    return QSeries.from_dict(Fraction(0), atoms)


def contracted_correction(n: int, i: int, j: int, l: int) -> QSeries:
    """sum_m (c_n^-1)_{lm} R_{ijm}: the quantum correction to the E_l
    coefficient of E_i E_j, over k, by contraction with the inverse
    intersection matrix.  Cross-check target for the root-sum form."""
    series = QSeries()
    for m in range(1, n + 1):
        c = cartan_inverse_entry(n, l, m)
        if c:
            series = series + c * r_poly(n, i, j, m)
    return series


def gw_by_coords(geom, span, insertions):
    """`gw.gw_invariant` in a multiple of beta_span through H*(S)
    coordinates: 0 if an insertion is a pullback class (zero included),
    else the product of the E_l . beta_span of the insertions alpha_t E_l
    times the integral of alpha_1 alpha_2 alpha_3 k h."""
    beta = curve_class(geom.n, *span)
    value, alpha = Fraction(1), kap(geom)
    for x in insertions:
        parts = [(g, a) for g, a in enumerate(coords(x)) if not a.is_zero()]
        if all(g < 2 for g, _ in parts):
            return Fraction(0)
        (g, a), = parts
        value *= intersection(geom.n, g - 1, beta)
        alpha = alpha * a
    return value * alpha.integrate()


def a1_scalar_sweep(count: int = 200):
    """A deterministic pool of cyclotomic scalars with conductors <= 8,
    excluding +-i/2, for falsification sweeps."""
    half_i = CycNum.zeta(4) * Fraction(1, 2)
    pool = []
    seen = set()
    rationals = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                 Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(3, 2),
                 Fraction(2, 3), Fraction(-3, 4), Fraction(5, 2), Fraction(1, 4)]
    conductors = [1, 3, 4, 5, 7, 8]
    for r in rationals:
        for n in conductors:
            for k in range(n):
                c = CycNum.zeta(n, k) * r
                if c == half_i or c == -half_i:
                    continue
                tag = key(c)
                if tag in seen:
                    continue
                seen.add(tag)
                pool.append(c)
                if len(pool) == count:
                    return pool
    raise RuntimeError("scalar pool exhausted before reaching the count")


def det_by_cofactors(matrix):
    """Exact determinant by cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = matrix[0][col] * det_by_cofactors(minor)
        total = total + (term if col % 2 == 0 else -term)
    return total


_SWAP_D11_D22 = {(1, 1): (2, 2), (2, 2): (1, 1)}


def reflect_a2_table(table):
    """Image of an A_2 product table, keyed and laid out like
    `verify.PRINTED_A2_TABLE`, under the Dynkin reflection i -> 3 - i.

    The reflection exchanges E1 and E2, so the slot (i, j).E_l goes to
    (3 - j, 3 - i).E_{3-l}; its M and L parts trade places and delta_11
    and delta_22 are exchanged.  A table of the A_2 quantum products is its
    own image."""
    def swap(series):
        return series.merge_spans(lambda span: _SWAP_D11_D22.get(span, span))

    image = {}
    for (i, j), entry in table.items():
        reflected = {"sigma": entry["sigma"]}
        for l in (1, 2):
            m_part, l_part = entry[f"E{l}"]
            reflected[f"E{3 - l}"] = (swap(l_part), swap(m_part))
        image[(3 - j, 3 - i)] = reflected
    return image


def repair_a2_table(table):
    """Locate and correct the misprinted slots of an A_2 product table laid
    out like `verify.PRINTED_A2_TABLE`, from the table alone.

    The quantum corrections are multiples of k = (L + M)/3, so in each slot
    the M and L parts carry the same delta-terms.  A slot that breaks this
    rule is replaced by the reflection image of its partner, which must keep
    it.  Returns the corrected table and the labels of the replaced slots."""
    def broken(entry_val):
        m_part, l_part = entry_val
        return m_part.atoms != l_part.atoms

    image = reflect_a2_table(table)
    repaired = {key: dict(entry) for key, entry in table.items()}
    replaced = set()
    for (i, j), entry in table.items():
        for l in (1, 2):
            if broken(entry[f"E{l}"]):
                if broken(table[(3 - j, 3 - i)][f"E{3 - l}"]):
                    raise ValueError(f"E{i}*E{j}.E{l} and its reflection partner "
                                     f"both break the M/L rule")
                repaired[(i, j)][f"E{l}"] = image[(i, j)][f"E{l}"]
                replaced.add(f"E{i}*E{j}.E{l}")
    return repaired, replaced


class A2TableRing(SectorRing):
    """The A_2 resolution ring at a parameter point with its sector products
    read off a table laid out like `verify.PRINTED_A2_TABLE`, in the
    normalization that table is printed in: E_i E_j is sigma_ij sigma plus,
    per E_l, (M_l/3) l + (L_l/3) m, the M and L parts evaluated at `q`."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def __init__(self, geom, table, q):
        super().__init__(geom)
        self.table = table
        self.deltas = q.deltas()

    def _compute_ee(self, i, j):
        geom = self.geom
        entry = self.table[(i, j)]
        sectors = tuple(
            ell(geom).scale(evaluate(m_part, self.deltas) * Fraction(1, 3))
            + em(geom).scale(evaluate(l_part, self.deltas) * Fraction(1, 3))
            for m_part, l_part in (entry["E1"], entry["E2"]))
        return as_row(from_coords(
            geom, (zero(geom.base), one(geom.base).scale(entry["sigma"]), *sectors)))


def a2_candidates_closed_form():
    """(a, b, matrix) for the four sign choices of the symmetric A_2 ansatz,
    each solved and inverted on its own: a + b = +-sqrt(-3) outer, a - b =
    3, -3 inner, in the order `verify.a2_candidates` lists them."""
    sqrt_m3 = 1 + 2 * CycNum.zeta(3)
    candidates = []
    for s in (sqrt_m3, -sqrt_m3):
        for d in (3, -3):
            a = (s + d) * Fraction(1, 2)
            b = (s - d) * Fraction(1, 2)
            inv_det = (a * a - b * b).inv()
            diag, off = a * inv_det, -b * inv_det
            candidates.append((a, b, ((diag, off), (off, diag))))
    return candidates


def poles_by_products(q):
    """The spans (r, s) of the QPoint `q` where 1 - q_r ... q_s = 0, each
    span product formed by the scalar product of `QPoint.span_product`."""
    return [span for span in all_spans(q.n) if scalar_is_zero(1 - q.span_product(*span))]


def solve_a2_sweep(orb, max_order=12):
    """The symmetric A_2 ansatz from the orbifold ring `orb` settled by
    sweeping: one full exact ring-isomorphism check per pole-free root and
    candidate, in the order `verify.solve_a2_symmetric` reports them."""
    geom = orb.geom
    checker = HomChecker(orb)
    candidates = a2_candidates()
    solutions, excluded = [], []
    for root in _roots_of_unity(max_order):
        q = QPoint([root, root])
        try:
            quantum = QuantumRing(geom, q)
        except PoleError:
            excluded.extend((root, span) for span in poles_by_products(q))
            continue
        for a, b, matrix in candidates:
            if checker.check(matrix, quantum).passed:
                solutions.append(A2Solution(q=root, a=a, b=b))
    return A2SolveResult(solutions=solutions, excluded=excluded)


def inner_by_definition(table, f, i):
    """<f, chi_i> = (1/|G|) sum_c |c| f(c) conj(chi_i(c)), summed term by term
    from 0 as written: the definition `CharacterTable.gram` sums on the
    table's lifted integer terms."""
    total = Fraction(0)
    for size, x, y in zip(table.class_sizes, f, table.values[i]):
        total = total + size * x * (y.galois(-1) if isinstance(y, CycNum) else y)
    return total / table.group.order


def fourier_map(n: int):
    """M_kl = (1/N) eta^-k (omega^-k - 1) sum_j omega^-jk (c_n^-1)_jl with
    N = n + 1, omega = zeta_N and eta = zeta_2N: a candidate map that is a
    ring isomorphism at q = (zeta_N, ..., zeta_N)."""
    big = n + 1

    def omega(e):
        return CycNum.zeta(big, e % big)

    return [[Fraction(1, big) * CycNum.zeta(2 * big, -k % (2 * big)) * (omega(-k) - 1)
             * sum((omega(-j * k) * cartan_inverse_entry(n, j, l) for j in range(1, n + 1)),
                   Fraction(0))
             for l in range(1, n + 1)] for k in range(1, n + 1)]


def dot(xs, ys):
    """sum x_k y_k over int, Fraction and CycNum operands, exactly as the
    term-by-term sum reduce(add, map(mul, xs, ys)) gives it: the same value
    and type, a CycNum at the lcm N of every CycNum operand's conductor (a
    zero one too), and the same cap error, which names the first running lcm
    over the cap.  The quantum ring's root sums went through it before
    `QuantumRing._root_sum`, and `evaluate` keeps it as their oracle.

    Every product goes unreduced into one integer accumulator over one
    common denominator, indexed by exponents at N: a CycNum at conductor M
    puts its numerators at e N/M (its lift, not yet reduced), a rational its
    numerator at 0.  The high half is folded once and the one CycNum built
    divides by one gcd."""
    pairs = list(zip(xs, ys))
    if not pairs:
        raise TypeError("dot() of empty sequences")
    operands = [v for pair in pairs for v in pair]
    conductors = [v.conductor for v in operands if isinstance(v, CycNum)]
    n = lcm(*conductors)
    if any(c != n for c in conductors) and n > conductor_cap():
        _raise_first_lift_over_cap(pairs)
    # each operand as (numerators, denominator, exponent step at n): a
    # rational is its numerator at x^0
    ops = [(v.nums, v.den, n // v.conductor) if isinstance(v, CycNum)
           else ((v.numerator,), v.denominator, 0) for v in operands]
    terms = list(zip(ops[::2], ops[1::2]))
    # a list: unpacking a generator here raised the peak RSS of one
    # tables_cyclotomic pass of bench/run.py by 0.18 MB
    den = lcm(*[da * db for (_, da, _), (_, db, _) in terms])
    acc = [0] * (2 * n - 1)
    for (a, da, sa), (b, db, sb) in terms:
        scale = den // (da * db)
        for i, x in enumerate(a):
            if x:
                x *= scale
                i *= sa
                for j, y in enumerate(b):
                    if y:
                        acc[i + j * sb] += x * y
    if not conductors:
        # an int when every operand is one, as int products and sums are
        if all(isinstance(v, int) for v in operands):
            return acc[0]
        return Fraction(acc[0], den)
    # x^e for e < phi(N) is its own residue: only the rest is folded
    phi = euler_phi(n)
    high = _reduce(n, enumerate(acc[phi:], phi))
    return CycNum(n, [x + y for x, y in zip(acc, high)], den)


def _raise_first_lift_over_cap(pairs):
    """The cap error of the term-by-term sum.  It checks the cap where two
    CycNums of different conductors meet, in a product or a partial sum,
    and names their lcm."""
    def meet(a, b):
        if a is None:
            return b
        if b is None or a == b:
            return a
        n = lcm(a, b)
        _check_conductor(n)
        return n

    total = None
    for pair in pairs:
        a, b = (v.conductor if isinstance(v, CycNum) else None for v in pair)
        total = meet(total, meet(a, b))


def inverse_deltas(values):
    """{(r, s): 1/(1 - Q) - 1} over every span of the point `values`, by the
    inverse, the oracle of the closed form in `QPoint.deltas`: each span
    product Q multiplied out left to right, then every 1 - Q formed before
    any is inverted.  A pole raises PoleError at the first span and an lcm
    over the conductor cap the product's ValueError, both in span order."""
    denoms = {}
    for r, s in all_spans(len(values)):
        product = Fraction(1)
        for v in values[r - 1:s]:
            product = product * v
        denoms[r, s] = 1 - product
        if scalar_is_zero(denoms[r, s]):
            raise PoleError((r, s))
    return {span: 1 / denom - 1 for span, denom in denoms.items()}


def evaluate(series: QSeries, deltas):
    """Exact evaluation of a QSeries at atom values {(r, s): delta_rs}: one
    `dot` of (1, c_beta...) with (const, delta_beta...), or the constant
    itself, what that `dot` returns, when there is no atom."""
    if not series.atoms:
        return series.const
    return dot((1, *(c for _, c in series.atoms)),
               (series.const, *(deltas[span] for span, _ in series.atoms)))


def quantum_ee_by_coords(geom, q, i, j):
    """g_i g_j of `QuantumRing(geom, q)` through H*(S) classes: per E_l,
    em().scale(cm) + kap().scale(ck), ck the series evaluated at q's atoms,
    or its constant when the ring is uncorrected (k = 0, a point base or
    every delta 0)."""
    deltas = q.deltas()
    corrected = not kap(geom).is_zero() and not all(scalar_is_zero(d) for d in deltas.values())
    sigma, slots = structure_constants(geom.n)[(i, j)]
    exc = []
    for cm, series in slots:
        term = kap(geom).scale(evaluate(series, deltas) if corrected else series.const)
        # m is undefined for n = 1, where cm is always 0
        exc.append(em(geom).scale(cm) + term if cm else term)
    return from_coords(geom, (zero(geom.base), one(geom.base).scale(sigma), *exc))


def obstruction_class(n: int, a1: int, a2: int):
    """Which degree-2 class enters e_{a1} * e_{a2}: 'ell' below the wrap,
    'em' above it, None when the twists cancel."""
    for a in (a1, a2):
        if not 1 <= a <= n:
            raise ValueError(f"sector index out of range: {a}")
    s = a1 + a2
    if s == n + 1:
        return None
    return "ell" if s < n + 1 else "em"


def orbifold_ee_by_coords(ring, i, j):
    """g_i g_j of `OrbifoldRing` through H*(S) classes: 1/(n+1) sigma
    for inverse twists, else t l or t m in the sector i + j mod n+1."""
    geom, n = ring.geom, ring.geom.n
    obstruction = obstruction_class(n, i, j)
    if obstruction is None:
        return times_generator(geom, 1, one(geom.base).scale(Fraction(1, n + 1)))
    alpha = ell(geom) if obstruction == "ell" else em(geom)
    return times_generator(geom, (i + j) % (n + 1) + 1, alpha.scale(ring.t))


class AtomRing(SectorRing):
    """The resolution ring at given atom values {(r, s): delta_rs}, one for
    every span, with no pole check: `structure_constants(n)` evaluated at
    the geometry's m and k and at those deltas.  At delta_rs = Q/(1 - Q)
    its products are those of `QuantumRing(geom, q)`."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def __init__(self, geom, deltas):
        super().__init__(geom)
        self.deltas = dict(deltas)

    def _compute_ee(self, i, j):
        geom = self.geom
        sigma, slots = structure_constants(geom.n)[(i, j)]
        # m is undefined for n = 1, where every cm is 0
        exc = tuple((em(geom).scale(cm) if cm else zero(geom.base))
                    + kap(geom).scale(evaluate(series, self.deltas))
                    for cm, series in slots)
        return as_row(from_coords(geom, (zero(geom.base), one(geom.base).scale(sigma), *exc)))


def unit_delta_rings(geom):
    """The ring at delta = 0 and, per span in `all_spans` order, the ring at
    that delta = 1 and every other delta = 0."""
    zero = {span: Fraction(0) for span in all_spans(geom.n)}
    return AtomRing(geom, zero), [AtomRing(geom, {**zero, span: Fraction(1)})
                                  for span in all_spans(geom.n)]


def apply_candidate_by_coords(matrix, x):
    """The candidate map on the H*(S) coordinates of x, zeros included: 1 and
    sigma are fixed, and the a-th sector generator goes to sum_l matrix[a][l] E_l."""
    geom = x.geom
    parts = list(coords(x)[:2])
    for column in zip(*matrix):
        terms = [alpha.scale(c) for c, alpha in zip(column, coords(x)[2:]) if not scalar_is_zero(c)]
        parts.append(reduce(add, terms) if terms else zero(geom.base))
    return from_coords(geom, parts)


def components_by_coords(x, letter):
    """(label, scalar) per coefficient, walking the H*(S) coordinates: the
    h^p coefficient of generator g is `g.h^p`, sectors `letter`_a."""
    names = ["pure", "sigma"] + [f"{letter}_{a}" for a in range(1, x.geom.n + 1)]
    for name, alpha in zip(names, coords(x)):
        for j, c in enumerate(alpha.coeffs):
            yield (f"{name}.h^{j}", c)


def pairing(ring, x, y):
    """Poincare pairing: the integral over Y of the product, which only
    its compactly supported sigma coordinate contributes to."""
    return coords(mul_by_table(ring, x, y))[1].integrate()


def reduced_system(geom, matrix, labels, rows):
    """The AffineSystem that `HomChecker.solve` makes of a candidate's
    labelled rows, by the library's one reducer `verify.reduce_system`: the
    rows are the oracle's own."""
    det = _row_reduce(matrix, geom.n).det
    if scalar_is_zero(det):
        return AffineSystem(det, all_spans(geom.n))
    return reduce_system(geom, det, labels, rows)


def library_map(orb, matrix):
    """The library's candidate map as a function of a class x: its sparse row
    mapped by `HomChecker(orb)._apply` through the generator images
    `HomChecker._images`, back as a class; for the sweeps over every basis pair."""
    checker = HomChecker(orb)
    images = checker._images(matrix)
    return lambda x: dense(orb.geom, checker._apply(images, as_row(x)))


def unit_ring_rows(orb, matrix):
    """(labels, rows) of the isomorphism condition from the orbifold ring
    `orb` over every unordered basis pair i <= j, in the order of
    `SectorRing.labels()`, with the delta_beta column of each pair computed
    as a ring product: the product at delta_beta = 1 minus the product at
    delta = 0, one product per pair and span."""
    geom = orb.geom
    basis = labelled_basis(orb)
    origin, units = unit_delta_rings(geom)
    images = [apply_candidate_by_coords(matrix, x) for _, x in basis]
    labels, rows = [], []
    for (i, j), xy in product_table(orb).items():
        xy = dense(geom, xy)
        r0 = mul_by_table(origin, images[i], images[j])
        parts = [difference(mul_by_table(unit, images[i], images[j]), r0) for unit in units]
        parts.append(difference(apply_candidate_by_coords(matrix, xy), r0))
        for entries in zip(*(components_by_coords(part, "E") for part in parts)):
            row = [val for _, val in entries]
            if not all(scalar_is_zero(val) for val in row):
                labels.append((f"{basis[i][0]} * {basis[j][0]}", entries[0][0]))
                rows.append(row)
    return labels, rows


def all_pairs_rows(orb, matrix):
    """(labels, rows) of `HomChecker(orb).solve`'s system built over every
    unordered orbifold basis pair, not only the generator pairs: per pair,
    the classical product of the two images and the root sum
    k (x.beta)(y.beta) sum_{l in beta} E_l per span, read component by
    component."""
    geom, n = orb.geom, orb.geom.n
    spans = all_spans(n)
    basis = labelled_basis(orb)
    classical = ResolutionRing(geom)
    apply = library_map(orb, matrix)
    images = [apply(x) for _, x in basis]
    dots = [[reduce(add, (parts[i + 1].scale(w) for i, w in span_weights(n)[span].items()))
             for span in spans] for parts in (coords(x) for x in images)]
    k = kap(geom)
    kdots = [[k * d for d in row] for row in dots]
    names = _component_names(geom, ResolutionRing.letter)
    labels, rows = [], []
    for (i, j), xy in product_table(orb).items():
        rhs = difference(apply(dense(geom, xy)),
                         mul_by_table(classical, images[i], images[j]))
        roots = [None if kx.is_zero() or y.is_zero() else kx * y
                 for kx, y in zip(kdots[i], dots[j])]
        for m, val in enumerate(rhs.coeffs):
            g, p = divmod(m, geom.base.rank)
            row = [root.coeffs[p] if root is not None and r <= g - 1 <= s else ZERO
                   for (r, s), root in zip(spans, roots)] + [val]
            if not all(scalar_is_zero(v) for v in row):
                labels.append((f"{basis[i][0]} * {basis[j][0]}", names[m]))
                rows.append(row)
    return labels, rows


def check_all_pairs(orb, matrix, quantum):
    """`HomChecker(orb).check` with one difference formed per unordered
    orbifold basis pair, from products and images of every basis element,
    walked in the same order (twisted sectors first)."""
    geom = orb.geom
    basis = labelled_basis(orb)
    report = HomReport(passed=True)
    det = _row_reduce(matrix, geom.n).det
    report.notes["det"] = scalar_to_json(det)
    if scalar_is_zero(det):
        report.passed = False
        report.violations.append(("matrix", "det", det))
        return report
    apply = library_map(orb, matrix)
    images = [apply(x) for _, x in basis]
    names = _component_names(geom, quantum.letter)
    for i in range(len(basis) - 1, -1, -1):
        for j in range(len(basis) - 1, i - 1, -1):
            diff = difference(apply(dense(geom, orb.product(i, j))),
                              mul_by_table(quantum, images[i], images[j]))
            for comp, val in zip(names, diff.coeffs):
                if not scalar_is_zero(val):
                    report.passed = False
                    report.violations.append((f"{basis[i][0]} * {basis[j][0]}", comp, val))
    return report


def associativity_all_triples(ring):
    """`verify.check_associativity` with the difference formed for every
    basis triple i <= j <= k from the structure constants, not only for
    generator triples: sum_m c_ij^m b_m b_k - sum_m c_jk^m b_i b_m, and its
    first nonzero component."""
    report = HomReport(passed=True)
    labels = ring.labels()
    names = _component_names(ring.geom, ring.letter)
    for i, lx in enumerate(labels):
        for j in range(i, len(labels)):
            xy = ring.product(i, j).items()
            for k in range(j, len(labels)):
                lhs = sum_rows((c, ring.product(m, k)) for m, c in xy)
                rhs = sum_rows((c, ring.product(i, m)) for m, c in ring.product(j, k).items())
                for p in sorted(lhs.keys() | rhs.keys()):
                    diff = lhs.get(p, ZERO) - rhs.get(p, ZERO)
                    if not scalar_is_zero(diff):
                        report.passed = False
                        report.violations.append(
                            (f"({lx}, {labels[j]}, {labels[k]})", names[p], diff))
                        break
    return report


def associativity_by_rows(ring):
    """`verify.check_associativity` with each generator triple's difference
    summed as scalars by `sum_rows`, sum_m c_ij^m b_m b_k - sum_m c_jk^m
    b_i b_m, and every basis triple reported by the shift, as the package
    summed it before its integer sweep."""
    report = HomReport(passed=True)
    labels = ring.labels()
    names = _component_names(ring.geom, ring.letter)
    rank = ring.geom.base.rank
    diffs = {}
    for i, j, k in combinations_with_replacement(range(0, ring.size, rank), 3):
        lhs = sum_rows((c, ring.product(m, k)) for m, c in ring.product(i, j).items())
        rhs = sum_rows((c, ring.product(i, m)) for m, c in ring.product(j, k).items())
        diffs[i, j, k] = [(p, d) for p in sorted(lhs.keys() | rhs.keys())
                          if not scalar_is_zero(d := lhs.get(p, ZERO) - rhs.get(p, ZERO))]
    for i, lx in enumerate(labels):
        for j in range(i, len(labels)):
            for k in range(j, len(labels)):
                first = next(_shift(diffs[i - i % rank, j - j % rank, k - k % rank],
                                    i % rank + j % rank + k % rank, rank), None)
                if first is not None:
                    report.passed = False
                    report.violations.append(
                        (f"({lx}, {labels[j]}, {labels[k]})", names[first[0]], first[1]))
    return report


def mul_by_generators(ring, x, y):
    """The product x y of dense classes as a sum over pairs of module
    generators: x_a y_b g_a g_b over the nonzero H*(S) coordinates, with 1
    the identity, sigma g_b = 0 for b > 0 and g_i g_j the ring's generator
    row `product(g_i, g_j)`.  No product of an h-multiple is read."""
    terms = [[] for _ in coords(x)]
    ys = [(b, beta) for b, beta in enumerate(coords(y)) if not beta.is_zero()]
    for a, alpha in enumerate(coords(x)):
        if alpha.is_zero():
            continue
        for b, beta in ys:
            if a == 0 or b == 0:
                terms[a + b].append(alpha * beta)
            elif a > 1 and b > 1:
                coeff = alpha * beta
                for k, e in enumerate(coords(generator_product(ring, a - 1, b - 1))):
                    if not e.is_zero():
                        terms[k].append(e * coeff)
    return from_coords(ring.geom, [reduce(add, t) if t else zero(ring.geom.base) for t in terms])


def associativity_by_mul(ring):
    """`verify.check_associativity` as a sweep of products by
    `mul_by_generators`: b_i b_j, then (x y) z and x (y z), for every basis
    triple."""
    report = HomReport(passed=True)
    basis = labelled_basis(ring)
    products = {(i, j): mul_by_generators(ring, x, basis[j][1])
                for i, (_, x) in enumerate(basis) for j in range(i, len(basis))}
    for i, (lx, x) in enumerate(basis):
        for j in range(i, len(basis)):
            ly, y = basis[j]
            xy = products[(i, j)]
            for k in range(j, len(basis)):
                lz, z = basis[k]
                lhs = mul_by_generators(ring, xy, z)
                rhs = mul_by_generators(ring, x, products[(j, k)])
                if not lhs == rhs:
                    report.passed = False
                    comp, diff = next((c, v) for c, v in components_by_coords(
                        difference(lhs, rhs), ring.letter)
                                      if not scalar_is_zero(v))
                    report.violations.append((f"({lx}, {ly}, {lz})", comp, diff))
    return report


def gram_all_pairs(ring):
    """The Gram matrix of the pairing with every entry the sigma h^dim
    coefficient of `ring.product(i, j)`, over all ordered basis pairs."""
    top = 2 * ring.geom.base.rank - 1
    return [[ring.product(i, j).get(top, ZERO) for j in range(ring.size)]
            for i in range(ring.size)]


def quantum_products_by_gw(geom, q):
    """{(i, j): b_i b_j} of the quantum ring at q, i <= j, by the small
    quantum product's definition: the classical product plus
    sum_beta delta_beta sum_{a,b} <b_i, b_j, b_a>_beta (G^-1)_ab b_b over the
    spans beta, with G the classical Gram matrix (`gram_all_pairs`) and
    <...>_beta `gw_invariant` on beta.  Rows keep only nonzero entries."""
    classical = ResolutionRing(geom)
    size, deltas = classical.size, q.deltas()
    g_inv = inverse_by_elimination(gram_all_pairs(classical))
    basis = [{a: Fraction(1)} for a in range(size)]
    spans = [(curve_class(geom.n, r, s), deltas[(r, s)]) for r, s in all_spans(geom.n)]
    out = {}
    for i in range(size):
        for j in range(i, size):
            row = dict(classical.product(i, j))
            for a in range(size):
                v = sum((gw_invariant(geom, beta, [basis[i], basis[j], basis[a]]) * delta
                         for beta, delta in spans), Fraction(0))
                if scalar_is_zero(v):
                    continue
                for b in range(size):
                    if g_inv[a][b]:
                        row[b] = row.get(b, ZERO) + v * g_inv[a][b]
            out[(i, j)] = {b: c for b, c in row.items() if not scalar_is_zero(c)}
    return out


def pairing_by_gram(ring):
    """`verify.check_pairing_nondegenerate` with every Gram entry the
    integral of a `mul_by_generators` product, over all ordered basis
    pairs."""
    basis = labelled_basis(ring)
    det = _row_reduce([[coords(mul_by_generators(ring, x, y))[1].integrate() for _, y in basis]
                       for _, x in basis], len(basis)).det
    return {"nondegenerate": not scalar_is_zero(det),
            "gram_det": scalar_to_json(det),
            "rank": len(basis)}


# -- the argparse command line the table parser replaced -----------------

# options whose values may be signed exact tokens such as -1/2 or -1,2
SIGNED_OPTIONS = ("--q", "--scalar", "--exponents")


@lru_cache(maxsize=None)
def argparse_parser():
    """The argparse parser of `cli.COMMAND_TABLE`, built as the CLI built
    it: one subparser per command with its options, --output before or
    after the command."""
    parser = argparse.ArgumentParser(prog="crepant", add_help=True)
    parser.add_argument("--output", choices=cli.OUTPUTS, default="json")
    sub = parser.add_subparsers(dest="command")
    for name, cmd in cli.COMMAND_TABLE.items():
        p = sub.add_parser(name, help=cmd.help)
        for opt in cmd.options[1:-1]:  # after -h, before --output
            p.add_argument(opt.name, required=opt.required, default=opt.default,
                           choices=opt.choices, help=opt.help)
        # a default here would overwrite the value given before the command
        p.add_argument("--output", choices=cli.OUTPUTS, default=argparse.SUPPRESS)
    return parser


def _join_signed_values(argv):
    """Rewrite `--q -1/2` as `--q=-1/2`: argparse reads a token that starts
    with '-' as an option, never as the value of the option before it."""
    out = []
    for tok in argv:
        if out and out[-1] in SIGNED_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def command_slot(argv):
    """The token in the command slot of argv, the first token that is not a
    top-level option or `--output`'s spaced value; None where the top level
    stops first: at help, a lone `--`, a bad or missing `--output` value or
    a token `--=...`, a prefix of both top-level options, before any `--`."""
    if any(tok.startswith("--=") for tok in (argv[:argv.index("--")] if "--" in argv else argv)):
        return None
    tokens = iter(argv)
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if tok in ("-h", "--") or (tok.startswith("--") and "--help".startswith(name)):
            return None
        if tok.startswith("--") and "--output".startswith(name):
            if not eq:
                value = next(tokens, "--")
                if value.startswith("--"):
                    return None
            if value not in (*cli.OUTPUTS, "--"):
                return None
        elif not tok.startswith("-"):
            return tok
    return None


def argparse_run(argv, stdout) -> int:
    """`cli.run` with argv read by `argparse_parser`: help and usage as
    argparse prints them, exit 1 for a line with no command name or an
    unknown name in its command slot, 2 after a usage error, and the same
    handlers, JSON errors and output after a parse."""
    parser = argparse_parser()
    if not any(a in cli.COMMAND_TABLE for a in argv):
        if "-h" in argv or "--help" in argv:
            parser.print_help(stdout)
            return 0
        parser.print_usage(stdout)
        return 1
    if command_slot(argv) not in (None, *cli.COMMAND_TABLE):
        parser.print_usage(stdout)
        return 1
    try:
        with contextlib.redirect_stdout(stdout):
            args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    cmd = cli.COMMAND_TABLE[args.command]
    report = {"command": args.command}
    try:
        # argparse 3.10 and 3.11 read the value of `--n=--` as an empty list
        for dest, value in vars(args).items():
            if value == []:
                raise ValueError(f"--{dest.replace('_', '-')}: '--' is not a value")
        conductor_cap()
        context = ()
        if cmd.config:
            geom, flags = cli.load_config(args.config)
            report["geometry"] = geom.to_json()
            report["conventions"] = cli.conventions_block(geom, flags)
            context = (geom, flags)
        report.update(cmd.handler(args, *context))
    except PoleError as exc:
        print(json.dumps({"error": "pole", "span": list(exc.span),
                          "detail": str(exc)}), file=stdout)
        return 3
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=stdout)
        return 2
    print(cli.render(report, args.output), file=stdout)
    return 0
