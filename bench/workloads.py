"""Seeded workload generators.

`build(name, seed)` returns the items of one pass: dicts with an `id`, a
`kind` ("cli" for `crepant.cli.run(argv)` with the config written to a
file, "pairing" for a `check_pairing_nondegenerate` library call), the
`argv` without `--config`, the `config` content and the `expect`ed answer
from `oracle`.  The same (name, seed) gives the same items.  Each workload
keeps the same shape for every seed and draws only values from the seed,
so its cost stays close across seeds.

`digest_pool()` lists every item whose output is checked against a digest;
the seeded generators draw those items only from this finite pool, so the
recorded digests cover every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import oracle

P1 = {"model": "projective_space", "dim": 1}
POINT = {"model": "point", "dim": 0}

WORKLOADS = ("solve_a2", "assoc_rational", "tables_cyclotomic")


def _fmt(r) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def config(n, base, l=None, k=1):
    """Geometry config; for n >= 2, m = (n+1) k - l."""
    if n == 1:
        classes = {"k": _fmt(k)}
    else:
        m = (n + 1) * Fraction(k) - Fraction(l)
        classes = {"l": _fmt(l), "m": _fmt(m), "k": _fmt(k)}
    return {"n": n, "base": dict(base), "classes": classes}


def cli_item(item_id, argv, cfg, expect):
    return {"id": item_id, "kind": "cli", "argv": list(argv), "config": cfg,
            "expect": expect}


# -- solve_a2 -------------------------------------------------------------------

A1_P1 = config(1, P1, k=1)
A2_P1 = config(2, P1, l=1, k=1)
A2_SYMPLECTIC = config(2, P1, l=3, k=0)
MAX_ORDER = 12

SCALAR_RATIONALS = [Fraction(v) for v in
                    ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "3/2", "2/3", "-3/4",
                     "5/2", "1/4")]
SCALAR_CONDUCTORS = (1, 3, 4, 5, 7, 8)
SCALARS_PER_CONDUCTOR = 5


def _is_half_i(r: Fraction, n: int, k: int) -> bool:
    """r zeta_n^k = +-i/2 exactly when |r| = 1/2 and the angle is 1/4 or 3/4."""
    angle = (Fraction(k, n) + (Fraction(1, 2) if r < 0 else 0)) % 1
    return abs(r) == Fraction(1, 2) and angle in (Fraction(1, 4), Fraction(3, 4))


def _scalar_token(r: Fraction, n: int, k: int) -> str:
    return _fmt(r) if n == 1 else f"{_fmt(r)}*zeta{n}^{k}"


def solve_a2(rng):
    items = [
        cli_item("solve-a2.a2_p1", ["solve-a2", "--max-order", str(MAX_ORDER)], A2_P1,
                 {"kind": "solve_a2_pair", "max_order": MAX_ORDER}),
        cli_item("solve-a2.symplectic", ["solve-a2", "--max-order", str(MAX_ORDER)],
                 A2_SYMPLECTIC, {"kind": "solve_a2_all", "max_order": MAX_ORDER}),
    ]
    scalars = [("i/2", True), ("-i/2", True)]
    for n in SCALAR_CONDUCTORS:
        units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
        pool = [(r, k) for r in SCALAR_RATIONALS for k in units
                if not _is_half_i(r, n, k)]
        for r, k in rng.sample(pool, SCALARS_PER_CONDUCTOR):
            scalars.append((_scalar_token(r, n, k), False))
    for token, passes in scalars:
        items.append(cli_item(f"verify-a1.{token}",
                              ["verify-a1", "--q=-1", f"--scalar={token}"], A1_P1,
                              {"kind": "verify_a1", "passed": passes}))
    return items


# -- assoc_rational -------------------------------------------------------------

K_CHOICES = [Fraction(v) for v in ("1", "-1", "2", "1/2", "-2/3", "3/2")]
L_CHOICES = [Fraction(v) for v in ("0", "1", "-1", "3", "1/2", "-5/2")]
Q_CHOICES = [Fraction(v) for v in ("2", "-1", "1/2", "-2/3", "3", "5/4", "-3", "1/3")]


def assoc_rational(rng):
    items = []
    for n in range(3, 7):
        for base in (POINT, P1):
            cfg = config(n, base, l=rng.choice(L_CHOICES), k=rng.choice(K_CHOICES))
            while True:
                q = [rng.choice(Q_CHOICES) for _ in range(n)]
                if not oracle.rational_pole_spans(q):
                    break
            q_spec = ",".join(_fmt(v) for v in q)
            tag = f"n{n}.{base['model']}"
            for ring in ("orb", "classical", "quantum"):
                argv = ["check-assoc", "--ring", ring]
                if ring == "quantum":
                    argv.append(f"--q={q_spec}")
                items.append(cli_item(f"check-assoc.{ring}.{tag}", argv, cfg,
                                      {"kind": "assoc"}))
            rank = (n + 2) * (base["dim"] + 1)
            for ring in ("orb", "quantum"):
                items.append({"id": f"pairing.{ring}.{tag}", "kind": "pairing",
                              "ring": ring, "q": q_spec, "argv": [], "config": cfg,
                              "expect": {"kind": "pairing", "rank": rank, "ring": ring,
                                         "n": n, "dim": base["dim"]}})
    return items


# -- tables_cyclotomic ------------------------------------------------------------

# Component orders of the q vectors; every lcm divides 120 or is 84 or 42, so
# span products stay under the default conductor cap of 120.
QC_TEMPLATES = (
    (12, 5, 8, 3, 4), (5, 10, 3, 6, 15), (8, 24, 3, 12, 4), (7, 3, 4, 6, 12),
    (20, 5, 4, 10, 40), (9, 3, 6, 18, 2),
    (12, 5, 8, 3, 4, 6), (15, 5, 3, 10, 6, 30), (7, 14, 3, 21, 6, 42),
    (8, 24, 3, 12, 4, 6), (40, 8, 5, 10, 20, 4), (60, 12, 5, 4, 3, 15),
)
QC_VARIANTS = 4
POLE_ITEMS = 3
# (l, k) per variant; m = (n+1) k - l.  k is never 0, so poles are reached.
CLASS_VARIANTS = ((1, 1), (-1, 2), (Fraction(3, 2), Fraction(-1, 2)))
TABLE_NS = range(2, 7)
MCKAY_GROUPS = ([f"A{n}" for n in range(1, 11)] + [f"D{n}" for n in range(4, 11)]
                + ["E6", "E7", "E8"])


def _units(order):
    return [k for k in range(1, order) if gcd(k, order) == 1]


def _angles(orders, exps):
    return [Fraction(k, o) % 1 for o, k in zip(orders, exps)]


def _q_spec(orders, exps):
    return ",".join(f"zeta{o}^{k}" if k != 1 else f"zeta{o}" for o, k in zip(orders, exps))


def qc_variants(index):
    """The pole-free exponent vectors of template `index`, fixed for all seeds."""
    orders = QC_TEMPLATES[index]
    rng = random.Random(f"qc-variants:{index}")
    out = []
    while len(out) < QC_VARIANTS:
        exps = tuple(rng.choice(_units(o)) for o in orders)
        if exps not in out and not oracle.pole_spans(_angles(orders, exps)):
            out.append(exps)
    return out


def class_config(n, variant):
    l, k = CLASS_VARIANTS[variant]
    return config(n, P1, l=l, k=k)


def _qc_item(index, variant, exps):
    orders = QC_TEMPLATES[index]
    n = len(orders)
    return cli_item(f"qc-table.t{index}", ["qc-table", f"--q={_q_spec(orders, exps)}"],
                    class_config(n, variant), {"kind": "table", "n": n, "base_dim": 1})


def _pole_item(rng, slot):
    """A q vector with exactly one pole span, found by rejection sampling."""
    while True:
        index = rng.randrange(len(QC_TEMPLATES))
        orders = QC_TEMPLATES[index]
        exps = [rng.choice(_units(o)) for o in orders]
        poles = oracle.pole_spans(_angles(orders, exps))
        if len(poles) == 1:
            n = len(orders)
            return cli_item(f"qc-table.pole{slot}",
                            ["qc-table", f"--q={_q_spec(orders, exps)}"],
                            class_config(n, rng.randrange(len(CLASS_VARIANTS))),
                            {"kind": "pole", "span": list(poles[0])})


def _table_items(command, n, variant, kind, slot=""):
    return cli_item(f"{command}{slot}.n{n}.v{variant}", [command], class_config(n, variant),
                    {"kind": kind, "n": n, "base_dim": 1})


def tables_cyclotomic(rng):
    items = [_qc_item(i, rng.randrange(len(CLASS_VARIANTS)), rng.choice(qc_variants(i)))
             for i in range(len(QC_TEMPLATES))]
    items += [_pole_item(rng, slot) for slot in range(POLE_ITEMS)]
    items += [cli_item(f"mckay.{g}", ["mckay", "--group", g], None,
                       {"kind": "mckay", "group": g}) for g in MCKAY_GROUPS]
    for n in rng.sample(range(1, 13), 3):
        items.append(cli_item(f"cartan.{n}", ["cartan", "--n", str(n)], None,
                              {"kind": "cartan", "n": n}))
    for slot in range(4):
        n = rng.choice(TABLE_NS)
        variant = rng.randrange(len(CLASS_VARIANTS))
        cfg = class_config(n, variant)
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        divisors = [rng.randint(1, n) for _ in range(3)]
        multiple = rng.randint(1, 3)
        value = oracle.gw_value(n, 1, Fraction(cfg["classes"]["k"]), (i, j), divisors)
        items.append(cli_item(
            f"gw.{slot}", ["gw", "--span", f"{i},{j}", "--multiple", str(multiple),
                           "--insert", ",".join(f"E{l}" for l in divisors)],
            cfg, {"kind": "gw", "value": _fmt(value)}))
    for slot in range(2):
        n = rng.choice(TABLE_NS)
        variant = rng.randrange(len(CLASS_VARIANTS))
        res = _table_items("res-table", n, variant, "table", slot)
        zero = cli_item(f"qc-table.zero{slot}.n{n}.v{variant}", ["qc-table", "--q=0"],
                        res["config"], {"kind": "same_table_as", "ref": res["id"],
                                        "n": n, "base_dim": 1})
        orb = _table_items("orb-table", rng.choice(TABLE_NS),
                           rng.randrange(len(CLASS_VARIANTS)), "digest", slot)
        items += [res, zero, orb]
    items.append(cli_item("reconcile-6-2", ["reconcile-6-2"], None, {"kind": "digest"}))
    for slot in range(3):
        order = rng.randint(2, 12)
        exps = [rng.randint(-order, 2 * order) for _ in range(rng.randint(2, 4))]
        value = sum(Fraction(k % order, order) for k in exps)
        items.append(cli_item(f"age.{slot}", ["age", "--order", str(order),
                                              "--exponents=" + ",".join(map(str, exps))],
                              None, {"kind": "age", "age": _fmt(value)}))
    return items


GENERATORS = {"solve_a2": solve_a2, "assoc_rational": assoc_rational,
              "tables_cyclotomic": tables_cyclotomic}


def build(name: str, seed: int):
    """The items of one pass of workload `name` for `seed`."""
    items = GENERATORS[name](random.Random(f"{name}:{seed}"))
    if len({item["id"] for item in items}) != len(items):
        raise RuntimeError(f"{name}: item ids are not unique")
    return items


def digest_pool():
    """Every item whose output is checked against a recorded digest."""
    items = [_qc_item(i, v, exps) for i in range(len(QC_TEMPLATES))
             for v in range(len(CLASS_VARIANTS)) for exps in qc_variants(i)]
    for n in TABLE_NS:
        for v in range(len(CLASS_VARIANTS)):
            items.append(_table_items("res-table", n, v, "table"))
            items.append(_table_items("orb-table", n, v, "digest"))
    items += [cli_item(f"mckay.{g}", ["mckay", "--group", g], None,
                       {"kind": "mckay", "group": g}) for g in MCKAY_GROUPS]
    items.append(cli_item("reconcile-6-2", ["reconcile-6-2"], None, {"kind": "digest"}))
    return items
