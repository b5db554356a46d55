"""Known answers for benchmark items, derived from the mathematics.

Nothing here imports `crepant`: every expected value is computed from
closed forms (Cartan matrix, span sums of exponent fractions, the
three-point formula, McKay dimension vectors) with a small cyclotomic
reducer of its own, or looked up in digests recorded at the seed commit.
`check(item, code, out, outputs)` returns None when the item's output is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


# -- a minimal independent cyclotomic reducer ---------------------------------

def _divide_monic(num, den):
    """Quotient of integer polynomials (low degree first), den monic; exact."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Phi_n with integer coefficients, low degree first: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_monic(poly, cyclotomic(d))
    return tuple(poly)


def reduce_mod(coeffs, n: int) -> tuple:
    """Residue of sum c_e x^e modulo Phi_n, as phi(n) Fractions."""
    phi = cyclotomic(n)
    deg = len(phi) - 1
    c = [Fraction(0)] * max(len(coeffs), deg)
    for e, v in enumerate(coeffs):
        c[e % n if e >= n else e] += Fraction(v)
    for i in range(len(c) - 1, deg - 1, -1):
        if c[i]:
            lead = c[i]
            for j in range(deg + 1):
                c[i - deg + j] -= lead * phi[j]
    return tuple(c[:deg])


def embed_scalar(value, n: int) -> tuple:
    """A CLI scalar (rational string or {"conductor", "coeffs"}) as a residue
    in Q(zeta_n); the value's conductor must divide n."""
    if isinstance(value, dict):
        m = value["conductor"]
        if n % m:
            raise ValueError(f"conductor {m} does not divide {n}")
        step = n // m
        coeffs = [Fraction(0)] * n
        for e, c in enumerate(value["coeffs"]):
            coeffs[(e * step) % n] += Fraction(c)
        return reduce_mod(coeffs, n)
    return reduce_mod([Fraction(value)], n)


def scalar_conductor(value) -> int:
    return value["conductor"] if isinstance(value, dict) else 1


@lru_cache(maxsize=None)
def _root_table(m: int) -> dict:
    return {reduce_mod([0] * e + [1], m): Fraction(e, m) for e in range(m)}


def root_angle(value):
    """e/M in [0, 1) when the scalar equals exp(2 pi i e/M), else None.

    A root of unity in Q(zeta_N) has order dividing lcm(N, 2)."""
    n = scalar_conductor(value)
    m = n if n % 2 == 0 else 2 * n
    return _root_table(m).get(embed_scalar(value, m))


def scalars_equal(value, conductor: int, coeffs) -> bool:
    """Does the CLI scalar equal sum coeffs[e] zeta_conductor^e?"""
    a = scalar_conductor(value)
    n = a * conductor // gcd(a, conductor)
    want = [Fraction(0)] * n
    for e, c in enumerate(coeffs):
        want[e * (n // conductor)] += Fraction(c)
    return embed_scalar(value, n) == reduce_mod(want, n)


# -- poles from exponent fractions --------------------------------------------

def pole_spans(angles):
    """Spans (r, s), 1-based, whose product q_r ... q_s is 1.

    q_t = exp(2 pi i a_t) for rational a_t; the product over a span is 1
    exactly when the sum of its a_t is an integer."""
    out = []
    n = len(angles)
    for r in range(1, n + 1):
        total = Fraction(0)
        for s in range(r, n + 1):
            total += angles[s - 1]
            if total.denominator == 1:
                out.append((r, s))
    return out


def rational_pole_spans(values):
    """Spans whose product of rational parameters is exactly 1."""
    out = []
    n = len(values)
    for r in range(1, n + 1):
        prod = Fraction(1)
        for s in range(r, n + 1):
            prod *= values[s - 1]
            if prod == 1:
                out.append((r, s))
    return out


def roots_of_unity(max_order: int):
    """Angles k/d of all roots of unity of order d <= max_order."""
    return [Fraction(k, d) % 1 for d in range(1, max_order + 1)
            for k in range(1, d + 1) if gcd(k, d) == 1]


# -- closed forms for the A_n chain ------------------------------------------

def cartan_entry(i: int, j: int) -> int:
    return -2 if i == j else (1 if abs(i - j) == 1 else 0)


def divisor_dot_span(l: int, i: int, j: int) -> int:
    """E_l . beta_{ij}: -2 for each fiber component of the span at l, +1
    for each span component adjacent to l."""
    return sum(cartan_entry(l, t) for t in range(i, j + 1))


def gw_value(n: int, base_dim: int, k: Fraction, span, divisors) -> Fraction:
    """<E_a, E_b, E_c> in class m * beta_{ij}: the product of E . beta_{ij}
    times the integral of k over the base (zero on a point)."""
    if base_dim == 0:
        return Fraction(0)
    value = Fraction(k)
    for l in divisors:
        value *= divisor_dot_span(l, *span)
    return value


def _det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def gram_det(ring: str, n: int, dim: int) -> Fraction:
    """Gram determinant of the Poincare pairing on the basis h^j, sigma h^j,
    then h^j x_a for a = 1..n (x_a the twisted sector e_a for the orbifold
    ring, the divisor E_a for the resolution).  Over S = P^dim, the integral
    of a + b sigma is the h^dim coefficient of b; e_a pairs with e_(n+1-a)
    with weight 1/(n+1); E_a E_b has untwisted part (c_n)_ab sigma."""
    rank = dim + 1

    def entry(x, y):
        (kx, ax, jx), (ky, ay, jy) = x, y
        if jx + jy != dim:
            return 0
        if {kx, ky} == {"h", "sigma"}:
            return 1
        if kx == ky == "sector":
            if ring == "orb":
                return Fraction(1, n + 1) if ax + ay == n + 1 else 0
            return cartan_entry(ax, ay)
        return 0

    basis = ([("h", 0, j) for j in range(rank)] + [("sigma", 0, j) for j in range(rank)]
             + [("sector", a, j) for a in range(1, n + 1) for j in range(rank)])
    return _det([[entry(x, y) for y in basis] for x in basis])


MCKAY_DIMS = {
    "E6": [1, 1, 1, 2, 2, 2, 3],
    "E7": [1, 1, 2, 2, 2, 3, 3, 4],
    "E8": [1, 2, 2, 3, 3, 4, 4, 5, 6],
}


def mckay_dims(label: str):
    """Dimensions of the irreducible representations, sorted."""
    series, n = label[0], int(label[1:])
    if series == "A":
        return [1] * (n + 1)
    if series == "D":
        return [1] * 4 + [2] * (n - 3)
    return MCKAY_DIMS[label]


def group_order(label: str) -> int:
    series, n = label[0], int(label[1:])
    if series == "A":
        return n + 1
    if series == "D":
        return 4 * (n - 2)
    return {6: 24, 7: 48, 8: 120}[n]


# -- digests ------------------------------------------------------------------

def digest_key(item) -> str:
    """Identity of an item's input: argv without the config path, plus the
    config content."""
    return json.dumps({"argv": item["argv"], "config": item.get("config")},
                      sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=1)
def recorded_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


# -- the checks ---------------------------------------------------------------

def _json(out):
    try:
        return json.loads(out)
    except (TypeError, ValueError):
        return None


def _check_digest(item, out):
    want = recorded_digests().get(digest_key(item))
    if want is None:
        return "no recorded digest for this input"
    if digest(out) != want:
        return "output differs from the digest recorded at the seed commit"
    return None


def _check_solve_a2(expect, data):
    result = data["result"]
    roots = roots_of_unity(expect["max_order"])
    want_excluded = sorted((a, span) for a in roots for span in pole_spans([a, a]))
    got = [(root_angle(e["q"]), tuple(e["span"])) for e in result["excluded"]]
    if any(a is None for a, _ in got) or sorted(got) != want_excluded:
        return "pole exclusions differ from the span sums"
    sols = result["solutions"]
    if expect["kind"] == "solve_a2_pair":
        # the conjugate pair at zeta_3: (a, b) = (2 + z, z - 1) and its conjugate
        want = [((0, 1), (2, 1), (-1, 1)), ((-1, -1), (1, -1), (-2, -1))]
        matched = [w for s in sols for w in want
                   if all(scalars_equal(s[key], 3, coeffs)
                          for key, coeffs in zip(("q", "a", "b"), w))]
        if len(sols) != 2 or sorted(matched) != sorted(want):
            return f"expected exactly the conjugate pair at zeta_3, got {len(sols)} solutions"
        return None
    # k = 0: every pole-free root is accepted, and nothing else
    accepted = {root_angle(s["q"]) for s in sols}
    pole_free = {a for a in roots if not pole_spans([a, a])}
    if accepted != pole_free:
        return f"accepted {len(accepted)} roots, expected the {len(pole_free)} pole-free ones"
    return None


def _check_table_sigma(expect, data):
    """The pullback part of E_i E_j is (c_n)_{ij} sigma on every table."""
    dim = expect["base_dim"]
    for label, entry in data["table"].items():
        i, j = (int(t.strip()[2:]) for t in label.split("*"))
        want_sigma = [str(cartan_entry(i, j))] + ["0"] * dim
        if entry["pullback"]["sigma"] != want_sigma or any(
                c != "0" for c in entry["pullback"]["pure"]):
            return f"{label}: pullback part is not c_ij sigma"
    if len(data["table"]) != expect["n"] * (expect["n"] + 1) // 2:
        return "table has the wrong number of products"
    return None


def check(item, code, out, outputs) -> str | None:
    """None when the output matches the known answer, else the reason.

    `outputs` maps item ids of the same pass to their (code, out)."""
    expect = item["expect"]
    kind = expect["kind"]
    want_code = 3 if kind == "pole" else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    data = _json(out)
    if data is None:
        return "output is not JSON"
    if kind == "pole":
        if data.get("error") != "pole" or data.get("span") != expect["span"]:
            return f"pole span {data.get('span')}, expected {expect['span']}"
        return None
    if kind in ("solve_a2_pair", "solve_a2_all"):
        return _check_solve_a2(expect, data)
    if kind == "verify_a1":
        if data["report"]["passed"] is not expect["passed"]:
            return f"verify-a1 passed={data['report']['passed']}, expected {expect['passed']}"
        return None
    if kind == "assoc":
        return None if data["report"]["passed"] is True else "associativity violated"
    if kind == "pairing":
        if data["nondegenerate"] is not True:
            return "pairing degenerate"
        if data["rank"] != expect["rank"]:
            return f"rank {data['rank']}, expected {expect['rank']}"
        want = gram_det(expect["ring"], expect["n"], expect["dim"])
        if Fraction(data["gram_det"]) != want:
            return f"Gram determinant {data['gram_det']}, expected {want}"
        return None
    if kind == "table":
        return _check_table_sigma(expect, data) or _check_digest(item, out)
    if kind == "same_table_as":
        ref_code, ref_out = outputs[expect["ref"]]
        ref = _json(ref_out)
        if ref_code != 0 or ref is None or ref["table"] != data["table"]:
            return "qc-table at q = 0 differs from res-table"
        return _check_table_sigma(expect, data)
    if kind == "digest":
        return _check_digest(item, out)
    if kind == "mckay":
        label = expect["group"]
        dims = sorted(v["dim"] for v in data["mckay_graph"]["vertices"])
        if data["dynkin"].split(" (")[0] != f"affine {label}":
            return f"McKay graph of {label} classified as {data['dynkin']!r}"
        if data["dimension_vector_in_kernel"] is not True:
            return "dimension vector not in the kernel of 2I - A"
        if dims != mckay_dims(label) or data["order"] != group_order(label):
            return "irreducible dimensions or group order differ"
        return _check_digest(item, out)
    if kind == "cartan":
        n = expect["n"]
        mat = [[int(v) for v in row] for row in data["matrix"]]
        inv = [[Fraction(v) for v in row] for row in data["inverse"]]
        if mat != [[cartan_entry(i, j) for j in range(n)] for i in range(n)]:
            return "Cartan matrix entries differ"
        ident = all(sum(mat[i][t] * inv[t][j] for t in range(n)) == (i == j)
                    for i in range(n) for j in range(n))
        return None if ident else "inverse does not invert the Cartan matrix"
    if kind == "gw":
        if Fraction(data["value"]) != Fraction(expect["value"]):
            return f"gw value {data['value']}, expected {expect['value']}"
        return None
    if kind == "age":
        if Fraction(data["age"]) != Fraction(expect["age"]):
            return f"age {data['age']}, expected {expect['age']}"
        return None
    return f"unknown expectation {kind!r}"
