"""Base surfaces and the sector rings built over them.

The base S is a point or a projective space P^k, with cohomology basis
1, h, ..., h^k.  The total space Y of the fibration carries the square-zero
model H*(Y) = H*(S) + H*(S)*sigma with sigma = i_*(1) of degree 4,
sigma^2 = 0 and i^*(sigma) = 0.  A sector ring adds n generators of degree
2, so its classes are coordinates over 1, sigma, g_1..g_n.  The model is
exact for dim_C S <= 1; higher-dimensional bases work formally but results
are flagged model-dependent.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalars import (ONE, ZERO, format_rational, no_arithmetic, parse_rational, scalar_is_zero,
                      scalar_to_json)

POINT = "point"
PROJECTIVE = "projective_space"


def _json_int(value, name: str) -> int:
    """A config field that must be a JSON integer: a float, a boolean or a
    string is a ValueError, not truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_object(value, name: str) -> dict:
    """A config field that must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def _required(data: dict, key: str, name: str):
    if key not in data:
        raise ValueError(f"{name} is required")
    return data[key]


def _class_token(value, name: str) -> Fraction:
    """A config class l, m or k: a JSON integer or a rational token with
    the grammar of `--q`; the error names the field."""
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ValueError(f"classes.{name}: {exc}") from None


class BaseRing(namedtuple("BaseRing", "model dim", defaults=(POINT, 0))):
    """H*(S) for S a point or P^dim, basis h^0..h^dim."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    def __init__(self, *args, **kwargs):
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

    def to_json(self):
        return {"model": self.model, "dim": self.dim}


class GradedClass(namedtuple("GradedClass", "ring coeffs")):
    """An element of H*(S): coefficients of h^0..h^dim, rationals or
    cyclotomic numbers.  Only the cup product is defined."""

    __slots__ = ()

    def __mul__(self, other):
        """Cup product, truncated above h^dim."""
        if not isinstance(other, GradedClass):
            return no_arithmetic(self, other)
        if self.ring != other.ring:
            raise ValueError("classes live over different bases")
        out = [Fraction(0)] * self.ring.rank
        for i, a in enumerate(self.coeffs):
            if scalar_is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if i + j <= self.ring.dim and not scalar_is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return GradedClass(self.ring, tuple(out))

    __add__ = __radd__ = __rmul__ = no_arithmetic
    __hash__ = None


class Geometry(namedtuple("Geometry", "n base l m k")):
    """A transversal A_n fibration datum: singularity type n, base S, and
    the tautological degree-2 classes l, m, k on S as rational multiples of
    h, with l + m = (n+1) k; for n = 1 only k is defined (l and m are not
    separately visible): l and m are None."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    def __init__(self, *args, **kwargs):
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

    @property
    def model_dependent(self) -> bool:
        """True when dim_C S >= 2, where the square-zero model is only formal."""
        return self.base.dim >= 2

    def symplectic(self) -> bool:
        """True when the class k h vanishes on S (so all quantum corrections
        do): over a point, or at k = 0."""
        return self.base.dim == 0 or self.k == 0

    def to_json(self):
        classes = {"l": self.l, "m": self.m, "k": self.k} if self.n > 1 else {"k": self.k}
        return {"n": self.n, "base": self.base.to_json(),
                "classes": {c: format_rational(v) for c, v in classes.items()}}

    @classmethod
    def from_json(cls, data) -> "Geometry":
        data = _json_object(data, "the config")
        n = _json_int(_required(data, "n", "n"), "n")
        base = _json_object(_required(data, "base", "base"), "base")
        raw = _json_object(data.get("classes", {}), "classes")
        # `flags` is the CLI's ConventionFlags; l and m exist only for n >= 2
        unknown = sorted(prefix + key for prefix, obj, known in (
            ("", data, {"n", "base", "classes", "flags"}), ("base.", base, {"model", "dim"}),
            ("classes.", raw, {"k", "l", "m"} if n >= 2 else {"k"})) for key in obj.keys() - known)
        if unknown:
            raise ValueError(f"{unknown[0]}: unknown key")
        base = BaseRing(_required(base, "model", "base.model"),
                        _json_int(base.get("dim", 0), "dim"))
        k = _class_token(raw.get("k", "0"), "k")
        if n == 1:
            return cls(n, base, None, None, k)
        l, m = (_class_token(_required(raw, c, f"classes.{c}"), c) for c in "lm")
        return cls(n, base, l, m, k)


def default_geometry(n: int, base: BaseRing | None = None) -> Geometry:
    """P^1 base with l = 1, m = n, k = 1 (the relation then holds on the nose);
    for n = 1 just k = 1."""
    if base is None:
        base = BaseRing(PROJECTIVE, 1)
    if n == 1:
        return Geometry(1, base, None, None, Fraction(1))
    return Geometry(n, base, Fraction(1), Fraction(n), Fraction(1))


def sum_rows(terms) -> dict:
    """sum c row over (c, row) pairs of sparse rows {m: v}, exact."""
    out = {}
    for c, row in terms:
        for m, v in row.items():
            out[m] = out[m] + c * v if m in out else c * v
    return out


class SectorRing:
    """The free H*(S)-module on 1, sigma and n sector generators g_a.

    A class is a sparse row {m: c} of its nonzero coefficients c over the
    basis b_m = h^p g, m = g rank + p: g = 0 is 1, g = 1 is sigma and
    g = a + 1 is g_a, a twisted sector e_a or an exceptional divisor E_a.

    The orbifold ring and the classical and quantum resolution rings share
    this shape and differ only in the product of two sector generators.  A
    subclass supplies g_i g_j, for i <= j, as `_compute_ee(i, j)`: the
    sparse row of g_i g_j.  It also sets `letter`, the sector label in the
    basis, and `json_keys`, the JSON names of the (1, sigma) part and of the
    sector list.  That fixes the basis products `product(i, j)`, the one
    store of products."""

    letter: str
    json_keys: tuple

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.size = (geom.n + 2) * geom.base.rank  # the number of basis elements b_m
        self._rows = {}

    def _compute_ee(self, i: int, j: int) -> dict:
        raise NotImplementedError

    def product(self, i: int, j: int) -> dict:
        """b_i b_j as a sparse row {m: c}, c nonzero; built once."""
        key = (min(i, j), max(i, j))
        if key not in self._rows:
            self._rows[key] = self._basis_product(*key)
        return self._rows[key]

    def _basis_product(self, i: int, j: int) -> dict:
        """b_i b_j = h^(p+q) g g' for b_i = h^p g, b_j = h^q g', i <= j, 0 past h^dim:
        1 is the identity, sigma g' = 0 for g' != 1 (i^* sigma = 0), and g_a g_b
        is the row `_compute_ee(a, b)`.  An h-multiple (p + q > 0) of g_a g_b is
        read off the stored row `product(g rank, g' rank)`, one H*(S)
        coordinate at a time."""
        base = self.geom.base
        rank = base.rank
        (g, p), (g2, q) = divmod(i, rank), divmod(j, rank)
        if g == 1 or p + q >= rank:
            return {}
        if g == 0:
            return {g2 * rank + p + q: ONE}
        if p + q == 0:
            return self._compute_ee(g - 1, g2 - 1)
        blocks = {}
        for m, c in self.product(g * rank, g2 * rank).items():
            blocks.setdefault(m - m % rank, [ZERO] * rank)[m % rank] = c
        # an index shift by p + q in effect; ROADMAP G1 writes it as one
        h = GradedClass(base, (ZERO,) * (p + q) + (ONE,) + (ZERO,) * (base.dim - p - q))
        return {k + t: c for k, alpha in blocks.items()
                for t, c in enumerate((GradedClass(base, tuple(alpha)) * h).coeffs)
                if not scalar_is_zero(c)}

    def labels(self) -> list:
        """The label of each basis element b_m = h^p g, in the order of m."""
        names = ["1", "sigma"] + [f"{self.letter}_{a}" for a in range(1, self.geom.n + 1)]
        return [name if p == 0 else {"1": f"h^{p}", "sigma": f"sigma*h^{p}"}.get(
                    name, f"h^{p}*{name}")
                for name in names for p in range(self.geom.base.rank)]

    def to_json(self, row: dict):
        """The class with sparse row `row` as the H*(S) coefficients, zeros
        included, of 1, sigma and each sector generator."""
        y_key, sectors_key = self.json_keys
        rank = self.geom.base.rank
        pure, sigma, *sectors = ([scalar_to_json(row[m]) if m in row else "0"
                                  for m in range(g, g + rank)]
                                 for g in range(0, self.size, rank))
        return {y_key: {"pure": pure, "sigma": sigma}, sectors_key: sectors}
