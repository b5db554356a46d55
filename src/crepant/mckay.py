"""McKay correspondence for finite subgroups of SU(2).

Character tables over exact cyclotomic numbers for the cyclic groups, the
binary dihedral groups, and the three exceptional binary polyhedral groups,
each audited on load: the table is square and its rows are orthonormal.
Both the audit and the McKay graph, a_ij = dim Hom(rho_i, Q (x) rho_j) =
<chi_Q chi_j, chi_i>, read one Gram routine on integer terms.  Removing the
trivial vertex gives the resolution graph of the rational double point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .scalars import CycNum, _check_conductor, _reduce, lift_terms, no_arithmetic, parse_int


class GroupSpec(namedtuple("GroupSpec", "series n")):
    """ADE label: A_n is cyclic of order n+1, D_n binary dihedral of order
    4(n-2), E6/E7/E8 the binary tetrahedral/octahedral/icosahedral groups."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    def __init__(self, *args, **kwargs):
        if self.series == "A":
            # n = 0 is the trivial group, kept for cyclic-family sweeps
            if self.n < 0:
                raise ValueError("A_n needs n >= 0")
        elif self.series == "D":
            if self.n < 4:
                raise ValueError("D_n needs n >= 4")
        elif self.series == "E":
            if self.n not in (6, 7, 8):
                raise ValueError("E_n needs n in {6, 7, 8}")
        else:
            raise ValueError(f"unknown series {self.series!r}")

    @property
    def order(self) -> int:
        if self.series == "A":
            return self.n + 1
        if self.series == "D":
            return 4 * (self.n - 2)
        return {6: 24, 7: 48, 8: 120}[self.n]

    @property
    def label(self) -> str:
        return f"{self.series}{self.n}"

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """A series letter in either case, then unsigned `parse_int` digits:
        a sign, space and a non-ASCII digit are a ValueError."""
        series, digits = text[:1].upper(), text[1:]
        try:
            n = parse_int(digits) if digits[:1] != "-" else None
        except ValueError:
            n = None
        if series not in ("A", "D", "E") or n is None:
            raise ValueError(f"cannot parse group label {text!r}")
        return cls(series, n)


class CharacterTable(namedtuple("CharacterTable",
                                "group class_sizes class_orders values q_character")):
    """Rows are irreducible characters, columns conjugacy classes.

    values[i][c] is chi_i on class c, a CycNum or Fraction; chi_0 is
    trivial and q_character is the character of the defining 2-dimensional
    representation Q.  No `__slots__`: the instance dict holds the lifted
    terms, built on the first `gram` of each table."""

    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    @cached_property
    def _terms(self):
        """(N, D, rows, q, mixed), the `lift_terms` of the table's values:
        rows[i][c] and q[c] are the lifts of chi_i(c) and chi_Q(c)."""
        table = (*self.values, self.q_character)
        n, d, lift, mixed = lift_terms([v for row in table for v in row])
        rows = [tuple(map(lift, row)) for row in table]
        return n, d, rows[:-1], rows[-1], mixed

    def gram(self, twisted=False):
        """<f_i, chi_j> for i <= j, in the order (0, 0), (0, 1), ..., (1, 1),
        ...: f_i is chi_i, or chi_Q chi_i when `twisted`.  Yields (i, j,
        nums, den), the entry sum_e nums[e] zeta_N^e / den.

        |G| D^2 <f_i, chi_j> = sum_c |c| (D f_i(c)) conj(D chi_j(c)) (one more
        D when twisted) is summed on integers with exponents mod N, the
        conjugate taking e to -e, and reduced mod Phi_N once per entry."""
        n, d, rows, q, mixed = self._terms
        if mixed:
            # values of two conductors meet at N: the cap is checked there,
            # on every call, before the accumulators of size N
            _check_conductor(n)
        den = self.group.order * d ** (3 if twisted else 2)
        for i, row in enumerate(rows):
            f = [[((e + e2) % n, size * a * b) for e, a in qc for e2, b in xc] if twisted
                 else [(e, size * a) for e, a in xc]
                 for size, qc, xc in zip(self.class_sizes, q, row)]
            for j in range(i, len(rows)):
                acc = [0] * n
                for fc, xc in zip(f, rows[j]):
                    for e, a in fc:
                        for e2, b in xc:
                            acc[e - e2] += a * b  # a negative index is e - e2 + N
                yield i, j, _reduce(n, enumerate(acc)), den

    def dims(self):
        out = []
        for row in self.values:
            d = row[0]
            if isinstance(d, CycNum):
                d = d.as_rational()
            out.append(Fraction(d))
        return tuple(out)

    def validate(self):
        """Row orthogonality <chi_i, chi_j> = delta_ij of a square table (as
        strong as column orthogonality), deg Q = 2 and the basic sanity
        identities."""
        g = self.group.order
        k = len(self.class_sizes)
        if len(self.values) != k or any(len(row) != k
                                        for row in (*self.values, self.q_character)):
            raise ValueError("the table is not square")
        if sum(self.class_sizes) != g:
            raise ValueError("class sizes do not sum to the group order")
        if sum(int(d) * int(d) for d in self.dims()) != g:
            raise ValueError("squared dimensions do not sum to the group order")
        for i, j, nums, den in self.gram():
            if nums[0] != den * (i == j) or any(nums[1:]):
                raise ValueError(f"row orthogonality fails at ({i},{j})")
        if not self.q_character[0] == 2:
            raise ValueError("Q must be 2-dimensional")


def cyclic_table(m: int) -> CharacterTable:
    """Z_m embedded in SU(2) as diag(zeta, zeta^-1); characters chi_j(g^k) =
    zeta^(jk).  Q = chi_1 + chi_(m-1) is reducible: zeta^k + zeta^-k on g^k
    (twice the trivial character for m = 1)."""
    roots = [CycNum.zeta(m, k) for k in range(m)] if m > 1 else [Fraction(1)]
    values = tuple(tuple(roots[(j * k) % m] for k in range(m)) for j in range(m))
    return CharacterTable(
        group=GroupSpec("A", m - 1),
        class_sizes=(1,) * m,
        class_orders=tuple(m // gcd(m, k) if k else 1 for k in range(m)),
        values=values,
        q_character=tuple(x + y for x, y in zip(values[1 % m], values[-1])))


def binary_dihedral_table(n: int) -> CharacterTable:
    """The binary dihedral group of order 4(n-2): generators a (order
    2(n-2)) and x with x^2 = a^(n-2).  McKay graph is the extended D_n."""
    spec = GroupSpec("D", n)
    m = n - 2  # a has order 2m
    linear = _bd_linear_characters(m)
    # the first root checks the conductor cap, after the zeta_4 of the
    # linear characters, before any other list of size m
    roots = [CycNum.zeta(2 * m, k) for k in range(2 * m)]
    # classes: 1, a^m, {a^k, a^-k} for k=1..m-1, x-coset evens, x-coset odds
    class_sizes = (1, 1) + (2,) * (m - 1) + (m, m)
    class_orders = tuple(
        [1, 2] + [2 * m // gcd(2 * m, k) for k in range(1, m)] + [4, 4])

    rows = []
    # four 1-dimensional characters: lambda(a) = eps, lambda(x)^2 = eps^m
    one = Fraction(1)
    for eps_a, eps_x in linear:
        row = [one]
        row.append(eps_a ** m)
        for k in range(1, m):
            row.append(eps_a ** k)
        row.append(eps_x)
        row.append(eps_x * eps_a)  # eps_a is rational: a CycNum stays on the left
        rows.append(tuple(row))
    # 2-dimensional characters chi_j(a^k) = zeta^(jk) + zeta^(-jk), zero on x
    for j in range(1, m):
        row = [Fraction(2), 2 * Fraction(-1) ** j]
        for k in range(1, m):
            row.append(roots[j * k % (2 * m)] + roots[-j * k % (2 * m)])
        row += [Fraction(0), Fraction(0)]
        rows.append(tuple(row))
    return CharacterTable(group=spec, class_sizes=class_sizes,
                          class_orders=class_orders, values=tuple(rows),
                          q_character=rows[4])


def _bd_linear_characters(m: int):
    """(lambda(a), lambda(x)) for the four 1-dimensional characters."""
    one, mone = Fraction(1), Fraction(-1)
    if m % 2 == 0:
        return [(one, one), (one, mone), (mone, one), (mone, mone)]
    i = CycNum.zeta(4)
    return [(one, one), (one, mone), (mone, i), (mone, -i)]


def _e_tables():
    """Shipped character tables of the binary tetrahedral, octahedral, and
    icosahedral groups (validated against orthogonality on load)."""
    one, two, three = Fraction(1), Fraction(2), Fraction(3)
    w = CycNum.zeta(3)
    w2 = CycNum.zeta(3, 2)

    # binary tetrahedral, order 24; classes e, z, order-4, c, c^2, zc, zc^2
    t_rows = [
        (one, one, one, one, one, one, one),
        (one, one, one, w, w2, w, w2),
        (one, one, one, w2, w, w2, w),
        (two, -two, Fraction(0), -one, -one, one, one),
        (two, -two, Fraction(0), -w, -w2, w, w2),
        (two, -two, Fraction(0), -w2, -w, w2, w),
        (three, three, -one, Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    ]
    e6 = CharacterTable(group=GroupSpec("E", 6),
                        class_sizes=(1, 1, 6, 4, 4, 4, 4),
                        class_orders=(1, 2, 4, 3, 3, 6, 6),
                        values=tuple(t_rows), q_character=t_rows[3])

    # binary octahedral, order 48
    r2 = CycNum.zeta(8) + CycNum.zeta(8, 7)  # sqrt(2)
    z0 = Fraction(0)
    o_rows = [
        (one, one, one, one, one, one, one, one),
        (one, one, -one, -one, one, one, one, -one),
        (two, two, z0, z0, two, -one, -one, z0),
        (two, -two, r2, -r2, z0, one, -one, z0),
        (two, -two, -r2, r2, z0, one, -one, z0),
        (three, three, -one, -one, -one, z0, z0, one),
        (three, three, one, one, -one, z0, z0, -one),
        (Fraction(4), Fraction(-4), z0, z0, z0, -one, one, z0),
    ]
    e7 = CharacterTable(group=GroupSpec("E", 7),
                        class_sizes=(1, 1, 6, 6, 6, 8, 8, 12),
                        class_orders=(1, 2, 8, 8, 4, 6, 3, 4),
                        values=tuple(o_rows), q_character=o_rows[3])

    # binary icosahedral, order 120; mu, nu are the two Galois images of
    # the golden-ratio trace 2cos(2 pi / 5)
    mu = CycNum.zeta(5) + CycNum.zeta(5, 4)
    nu = CycNum.zeta(5, 2) + CycNum.zeta(5, 3)
    i_rows = [
        (one, one, one, one, one, one, one, one, one),
        (two, -two, z0, -one, one, mu, nu, -mu, -nu),
        (two, -two, z0, -one, one, nu, mu, -nu, -mu),
        (three, three, -one, z0, z0, 1 + mu, 1 + nu, 1 + mu, 1 + nu),
        (three, three, -one, z0, z0, 1 + nu, 1 + mu, 1 + nu, 1 + mu),
        (Fraction(4), Fraction(4), z0, one, one, -one, -one, -one, -one),
        (Fraction(4), Fraction(-4), z0, one, -one, -one, -one, one, one),
        (Fraction(5), Fraction(5), one, -one, -one, z0, z0, z0, z0),
        (Fraction(6), Fraction(-6), z0, z0, z0, one, one, -one, -one),
    ]
    e8 = CharacterTable(group=GroupSpec("E", 8),
                        class_sizes=(1, 1, 30, 20, 20, 12, 12, 12, 12),
                        class_orders=(1, 2, 4, 3, 6, 5, 5, 10, 10),
                        values=tuple(i_rows), q_character=i_rows[1])
    return {"E6": e6, "E7": e7, "E8": e8}


@lru_cache(maxsize=None)
def character_table(spec: GroupSpec) -> CharacterTable:
    if spec.series == "A":
        table = cyclic_table(spec.n + 1)
    elif spec.series == "D":
        table = binary_dihedral_table(spec.n)
    else:
        table = _e_tables()[spec.label]
    table.validate()
    return table


class McKayGraph(namedtuple("McKayGraph", "dims adjacency")):
    """Vertices are irreducible representations with their dimensions;
    adjacency[i][j] = dim Hom(rho_i, Q (x) rho_j)."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    def to_json(self):
        return {"vertices": [{"id": i, "dim": int(d)} for i, d in enumerate(self.dims)],
                "edges": [[i, j, int(self.adjacency[i][j])]
                          for i in range(len(self.dims))
                          for j in range(i, len(self.dims))
                          if self.adjacency[i][j]]}


def mckay_graph(spec: GroupSpec) -> McKayGraph:
    """Vertex i is the i-th row of the character table, so vertex 0 is the
    trivial representation."""
    table = character_table(spec)
    r = len(table.values)
    # the multiplicity matrix is symmetric (Q is self-dual), so a_ji =
    # <chi_Q chi_j, chi_i> fills both entries
    entries = [[0] * r for _ in range(r)]
    for j, i, nums, den in table.gram(twisted=True):
        a, rest = divmod(nums[0], den)
        if rest or a < 0 or any(nums[1:]):
            raise ValueError("multiplicity must be a nonnegative integer")
        entries[i][j] = entries[j][i] = a
    return McKayGraph(dims=tuple(int(d) for d in table.dims()),
                      adjacency=tuple(tuple(line) for line in entries))


def resolution_graph(graph: McKayGraph) -> McKayGraph:
    """A McKay graph minus its vertex 0, the trivial representation: the
    dual graph of the exceptional divisors of the minimal resolution."""
    return McKayGraph(dims=graph.dims[1:],
                      adjacency=tuple(row[1:] for row in graph.adjacency[1:]))


def dimension_vector_check(graph: McKayGraph) -> bool:
    """(2 I - A) applied to the dimension vector must vanish."""
    n = len(graph.dims)
    for i in range(n):
        total = 2 * graph.dims[i] - sum(graph.adjacency[i][j] * graph.dims[j]
                                        for j in range(n))
        if total != 0:
            return False
    return True


def dynkin_verdict(graph: McKayGraph) -> str:
    """Classify a McKay graph as an extended Dynkin diagram by its shape."""
    n = len(graph.dims)
    degrees = [sum(graph.adjacency[i][j] for j in range(n) if j != i)
               + 2 * graph.adjacency[i][i] for i in range(n)]
    if n == 1 and graph.adjacency[0][0] == 2:
        return "affine A0 (double self-loop)"
    if n == 2 and graph.adjacency[0][1] == 2:
        return "affine A1 (double edge)"
    if all(d == 2 for d in degrees):
        return f"affine A{n - 1} (cycle)"
    branch = [i for i in range(n) if degrees[i] >= 3]
    if len(branch) == 2 and all(degrees[i] == 3 for i in branch):
        return f"affine D{n - 1}"
    if len(branch) == 1:
        b = branch[0]
        if degrees[b] == 4:
            return "affine D4"
        arms = sorted(_arm_lengths(graph, b))
        if arms == [2, 2, 2]:
            return "affine E6"
        if arms == [1, 3, 3]:
            return "affine E7"
        if arms == [1, 2, 5]:
            return "affine E8"
    return "unrecognized"


def _arm_lengths(graph: McKayGraph, center: int):
    n = len(graph.dims)
    arms = []
    for start in range(n):
        if start == center or not graph.adjacency[center][start]:
            continue
        length = 1
        prev, cur = center, start
        while True:
            nxt = [j for j in range(n)
                   if j != prev and graph.adjacency[cur][j]]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


ADE_EQUATIONS = {
    "A": lambda n: f"x*y - z^{n + 1}",
    "D": lambda n: f"x^2 + y^2*z + z^{n - 1}",
    "E": lambda n: {6: "x^2 + y^3 + z^4",
                    7: "x^2 + y^3 + y*z^3",
                    8: "x^2 + y^3 + z^5"}[n],
}


def ade_equation(spec: GroupSpec) -> str:
    """The defining equation of the corresponding rational double point."""
    return ADE_EQUATIONS[spec.series](spec.n)
