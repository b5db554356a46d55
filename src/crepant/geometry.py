"""Base surfaces and the square-zero total-space model.

The base S is a point or a projective space P^k, with cohomology basis
1, h, ..., h^k.  The total space Y of the fibration carries the model
H*(Y) = H*(S) + H*(S)*sigma with sigma = i_*(1) of degree 4 and sigma^2 = 0.
This model is exact for dim_C S <= 1; higher-dimensional bases work formally
but results are flagged model-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import CycNum, format_rational, parse_rational, scalar_is_zero, scalar_to_json

POINT = "point"
PROJECTIVE = "projective_space"


@dataclass(frozen=True)
class BaseRing:
    """H*(S) for S a point or P^dim, basis h^0..h^dim.

    top_scale rescales the integration functional; 0 gives a degenerate
    pairing (used to exercise nondegeneracy checks).
    """

    model: str = POINT
    dim: int = 0
    top_scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.model == POINT:
            if self.dim != 0:
                raise ValueError("a point has dimension 0")
        elif self.model == PROJECTIVE:
            if self.dim < 0:
                raise ValueError("projective space needs dim >= 0")
        else:
            raise ValueError(f"unknown base model {self.model!r}")

    @property
    def rank(self) -> int:
        return self.dim + 1

    def zero(self) -> "GradedClass":
        return GradedClass(self, (Fraction(0),) * self.rank)

    def one(self) -> "GradedClass":
        return GradedClass(self, (Fraction(1),) + (Fraction(0),) * self.dim)

    def h_power(self, j: int, coeff=Fraction(1)) -> "GradedClass":
        """coeff * h^j, the zero class when h^j is above the top degree."""
        if j > self.dim:
            return self.zero()
        coeffs = [Fraction(0)] * self.rank
        coeffs[j] = coeffs[j] + coeff
        return GradedClass(self, tuple(coeffs))

    def to_json(self):
        return {"model": self.model, "dim": self.dim}

    @classmethod
    def from_json(cls, data) -> "BaseRing":
        return cls(model=data["model"], dim=int(data.get("dim", 0)))


@dataclass(frozen=True)
class GradedClass:
    """An element of H*(S): coefficients of h^0..h^dim, rationals or
    cyclotomic numbers."""

    ring: BaseRing
    coeffs: tuple

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("classes live over different bases")

    def __add__(self, other):
        self._check(other)
        return GradedClass(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return GradedClass(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return GradedClass(self.ring, tuple(-a for a in self.coeffs))

    def scale(self, scalar) -> "GradedClass":
        return GradedClass(self.ring, tuple(scalar * a for a in self.coeffs))

    def __mul__(self, other):
        """Cup product; scalars also accepted."""
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        self._check(other)
        out = [Fraction(0)] * self.ring.rank
        for i, a in enumerate(self.coeffs):
            if scalar_is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if i + j <= self.ring.dim and not scalar_is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return GradedClass(self.ring, tuple(out))

    __rmul__ = __mul__

    def integrate(self):
        """Integral over S: the h^top coefficient (times top_scale)."""
        return self.coeffs[self.ring.dim] * self.ring.top_scale

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        self._check(other)
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def degrees(self):
        """Real cohomological degrees present, {2j : coeff of h^j nonzero}."""
        return {2 * j for j, c in enumerate(self.coeffs) if not scalar_is_zero(c)}

    def to_json(self):
        return [scalar_to_json(c) for c in self.coeffs]


@dataclass(frozen=True)
class TotalClass:
    """H*(Y) in the square-zero model: pure + pure * sigma.

    sigma = i_*(1) has degree 4, sigma^2 = 0, and i^*(sigma) = 0.
    """

    pure: GradedClass
    sigma: GradedClass

    @classmethod
    def zero(cls, ring: BaseRing) -> "TotalClass":
        return cls(ring.zero(), ring.zero())

    @classmethod
    def one(cls, ring: BaseRing) -> "TotalClass":
        return cls(ring.one(), ring.zero())

    def __add__(self, other):
        return TotalClass(self.pure + other.pure, self.sigma + other.sigma)

    def __sub__(self, other):
        return TotalClass(self.pure - other.pure, self.sigma - other.sigma)

    def __neg__(self):
        return TotalClass(-self.pure, -self.sigma)

    def scale(self, scalar) -> "TotalClass":
        return TotalClass(self.pure.scale(scalar), self.sigma.scale(scalar))

    def __mul__(self, other):
        """(a + b sigma)(a' + b' sigma) = aa' + (ab' + a'b) sigma."""
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        return TotalClass(self.pure * other.pure,
                          self.pure * other.sigma + other.pure * self.sigma)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.pure.is_zero() and self.sigma.is_zero()

    def __eq__(self, other):
        if not isinstance(other, TotalClass):
            return NotImplemented
        return self.pure == other.pure and self.sigma == other.sigma

    __hash__ = None

    def degrees(self):
        return self.pure.degrees() | {d + 4 for d in self.sigma.degrees()}

    def to_json(self):
        return {"pure": self.pure.to_json(), "sigma": self.sigma.to_json()}


def i_push(alpha: GradedClass) -> TotalClass:
    """Pushforward along the zero section: alpha -> alpha * sigma."""
    return TotalClass(alpha.ring.zero(), alpha)

def i_pull(x: TotalClass) -> GradedClass:
    """Restriction to the zero section kills the sigma part."""
    return x.pure

def integrate_total(x: TotalClass):
    """Integral over Y; only the compactly supported sigma part contributes."""
    return x.sigma.integrate()


@dataclass(frozen=True)
class TautClasses:
    """Degree-2 tautological classes on S, as rational multiples of h.

    For n >= 2 the classes l, m, k satisfy l + m = (n+1) k; for n = 1 only
    k is defined (l and m are not separately visible).
    """

    n: int
    l: Fraction | None
    m: Fraction | None
    k: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.n == 1:
            if self.l is not None or self.m is not None:
                raise ValueError("for n = 1 only k is defined")
        else:
            if self.l is None or self.m is None:
                raise ValueError("for n >= 2 both l and m are required")
            if self.l + self.m != (self.n + 1) * self.k:
                raise ValueError("need l + m = (n+1) k")

    def ell(self, ring: BaseRing) -> GradedClass:
        if self.l is None:
            raise ValueError("l is undefined for n = 1")
        return ring.h_power(1, self.l)

    def em(self, ring: BaseRing) -> GradedClass:
        if self.m is None:
            raise ValueError("m is undefined for n = 1")
        return ring.h_power(1, self.m)

    def kap(self, ring: BaseRing) -> GradedClass:
        return ring.h_power(1, self.k)

    def to_json(self):
        if self.n == 1:
            return {"k": format_rational(self.k)}
        return {"l": format_rational(self.l), "m": format_rational(self.m),
                "k": format_rational(self.k)}


@dataclass(frozen=True)
class Geometry:
    """A transversal A_n fibration datum: singularity type n, base S, and
    the tautological degree-2 classes."""

    n: int
    base: BaseRing
    taut: TautClasses

    def __post_init__(self):
        if self.taut.n != self.n:
            raise ValueError("tautological classes built for a different n")

    @property
    def model_dependent(self) -> bool:
        """True when dim_C S >= 2, where the square-zero model is only formal."""
        return self.base.dim >= 2

    def ell(self) -> GradedClass:
        return self.taut.ell(self.base)

    def em(self) -> GradedClass:
        return self.taut.em(self.base)

    def kap(self) -> GradedClass:
        return self.taut.kap(self.base)

    def symplectic(self) -> bool:
        """True when the class k vanishes on S (so all quantum corrections do)."""
        return self.kap().is_zero()

    def to_json(self):
        return {"n": self.n, "base": self.base.to_json(),
                "classes": self.taut.to_json()}

    @classmethod
    def from_json(cls, data) -> "Geometry":
        n = int(data["n"])
        base = BaseRing.from_json(data["base"])
        raw = data.get("classes", {})
        k = parse_rational(raw.get("k", "0"))
        if n == 1:
            taut = TautClasses(n, None, None, k)
        else:
            taut = TautClasses(n, parse_rational(raw["l"]), parse_rational(raw["m"]), k)
        return cls(n=n, base=base, taut=taut)


def default_geometry(n: int, base: BaseRing | None = None) -> Geometry:
    """P^1 base with l = 1, m = n, k = 1 (the relation then holds on the nose);
    for n = 1 just k = 1."""
    if base is None:
        base = BaseRing(PROJECTIVE, 1)
    if n == 1:
        taut = TautClasses(1, None, None, Fraction(1))
    else:
        taut = TautClasses(n, Fraction(1), Fraction(n), Fraction(1))
    return Geometry(n=n, base=base, taut=taut)


@dataclass(frozen=True)
class SectorClass:
    """A class of a sector ring: a class on Y plus one H*(S) coefficient per
    sector.  The sectors are the twisted sectors e_1..e_n of the orbifold or
    the exceptional divisors E_1..E_n of the resolution; each sector
    generator has degree 2."""

    geom: Geometry
    y: TotalClass
    sectors: tuple  # n GradedClass entries

    @classmethod
    def from_y(cls, geom: Geometry, y: TotalClass) -> "SectorClass":
        return cls(geom, y, (geom.base.zero(),) * geom.n)

    @classmethod
    def sector(cls, geom: Geometry, a: int, alpha: GradedClass | None = None) -> "SectorClass":
        """alpha times the a-th sector generator (alpha defaults to 1)."""
        if not 1 <= a <= geom.n:
            raise ValueError(f"sector index out of range: {a}")
        sectors = [geom.base.zero()] * geom.n
        sectors[a - 1] = geom.base.one() if alpha is None else alpha
        return cls(geom, TotalClass.zero(geom.base), tuple(sectors))

    def __add__(self, other):
        return SectorClass(self.geom, self.y + other.y,
                           tuple(a + b for a, b in zip(self.sectors, other.sectors)))

    def __sub__(self, other):
        return SectorClass(self.geom, self.y - other.y,
                           tuple(a - b for a, b in zip(self.sectors, other.sectors)))

    def scale(self, scalar) -> "SectorClass":
        return SectorClass(self.geom, self.y.scale(scalar),
                           tuple(a.scale(scalar) for a in self.sectors))

    def is_zero(self) -> bool:
        return self.y.is_zero() and all(a.is_zero() for a in self.sectors)

    def __eq__(self, other):
        if not isinstance(other, SectorClass):
            return NotImplemented
        return (self.y == other.y
                and all(a == b for a, b in zip(self.sectors, other.sectors)))

    __hash__ = None

    def degrees(self):
        """Real degrees present; sector coefficients are shifted up by 2."""
        out = set(self.y.degrees())
        for alpha in self.sectors:
            out |= {d + 2 for d in alpha.degrees()}
        return out


class SectorRing:
    """H*(Y) plus n sector copies of H*(S), each generated in degree 2.

    The orbifold ring and the classical and quantum resolution rings share
    this shape and differ only in the product of two sector generators.  A
    subclass supplies that product as `_compute_ee(i, j)` for i <= j, and
    sets `letter`, the sector label in the basis, and `json_keys`, the JSON
    names of the Y part and of the sector list."""

    letter: str
    json_keys: tuple

    def __init__(self, geom: Geometry):
        self.geom = geom
        self._ee = {}

    def one(self) -> SectorClass:
        return SectorClass.from_y(self.geom, TotalClass.one(self.geom.base))

    def ee_product(self, i: int, j: int) -> SectorClass:
        """The product of the i-th and j-th sector generators; cached."""
        key = (min(i, j), max(i, j))
        if key not in self._ee:
            self._ee[key] = self._compute_ee(*key)
        return self._ee[key]

    def _compute_ee(self, i: int, j: int) -> SectorClass:
        raise NotImplementedError

    def mul(self, x: SectorClass, y: SectorClass) -> SectorClass:
        """Y parts multiply on Y, a class on Y acts on a sector through its
        restriction to S, and alpha e_i times beta e_j is alpha beta times
        `ee_product(i, j)`."""
        geom = self.geom
        rx, ry = i_pull(x.y), i_pull(y.y)
        out_y = x.y * y.y
        sectors = [rx * b + ry * a for a, b in zip(x.sectors, y.sectors)]
        for i, a in enumerate(x.sectors, start=1):
            if a.is_zero():
                continue
            for j, b in enumerate(y.sectors, start=1):
                if b.is_zero():
                    continue
                coeff = a * b
                ee = self.ee_product(i, j)
                # GradedClass.__mul__ skips zero scalars, so a zero factor
                # gives only rational zeros: skipping it changes no value
                # and no conductor.
                if not ee.y.is_zero():
                    out_y = out_y + TotalClass(ee.y.pure * coeff, ee.y.sigma * coeff)
                for l, e in enumerate(ee.sectors):
                    if not e.is_zero():
                        sectors[l] = sectors[l] + e * coeff
        return SectorClass(geom, out_y, tuple(sectors))

    def pairing(self, x: SectorClass, y: SectorClass):
        """Poincare pairing: integrate the Y part of the product over Y."""
        return integrate_total(self.mul(x, y).y)

    def basis(self):
        """Labelled vector-space basis over the scalars."""
        geom = self.geom
        ring = geom.base
        out = []
        for j in range(ring.rank):
            out.append((f"h^{j}" if j else "1",
                        SectorClass.from_y(geom, TotalClass(ring.h_power(j), ring.zero()))))
        for j in range(ring.rank):
            out.append((f"sigma*h^{j}" if j else "sigma",
                        SectorClass.from_y(geom, TotalClass(ring.zero(), ring.h_power(j)))))
        for a in range(1, geom.n + 1):
            for j in range(ring.rank):
                label = f"h^{j}*{self.letter}_{a}" if j else f"{self.letter}_{a}"
                out.append((label, SectorClass.sector(geom, a, ring.h_power(j))))
        return out

    def to_json(self, x: SectorClass):
        y_key, sectors_key = self.json_keys
        return {y_key: x.y.to_json(), sectors_key: [a.to_json() for a in x.sectors]}
