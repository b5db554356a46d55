"""Command-line front end: exact tables and verification reports as
deterministic JSON (or aligned text)."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .cartan import CurveClass, cartan_inverse, cartan_matrix, curve_class
from .geometry import Geometry, SectorClass
from .gw import gw_invariant, gw_metadata
from .mckay import (
    GroupSpec,
    ade_equation,
    character_table,
    dimension_vector_check,
    dynkin_verdict,
    mckay_graph,
    resolution_graph,
)
from .orbifold import ConventionFlags, OrbifoldRing, age
from .quantum import PoleError, QPoint, QuantumRing
from .resolution import ResolutionRing
from .scalars import conductor_cap, format_rational, parse_scalar, scalar_to_json
from .verify import (
    HomChecker,
    check_associativity,
    check_pairing_nondegenerate,
    reconcile_6_2,
    solve_a2_symmetric,
)

COMMANDS = ("orb-table", "res-table", "gw", "qc-table", "verify-a1", "solve-a2",
            "check-assoc", "reconcile-6-2", "mckay", "cartan", "age")
# options whose values may be signed exact tokens such as -1/2 or -1,2
SIGNED_OPTIONS = ("--q", "--scalar", "--exponents")
OUTPUTS = ("json", "text")
# largest `cartan --n`, config `n` and base `dim`: the Cartan matrix and
# its inverse have n^2 entries each, and a ring's basis has (n + 2)(dim + 1)
MAX_CARTAN_N = 100


class CliError(Exception):
    """Validation failure: maps to exit code 2."""


def parse_q_spec(text: str, n: int) -> QPoint:
    """Comma-separated exact tokens: zetaN, zetaN^k, integer, or p/q.
    Decimal literals are rejected (exactness contract)."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) == 1 and n > 1:
        tokens = tokens * n
    if len(tokens) != n:
        raise CliError(f"expected {n} q components, got {len(tokens)}")
    values = []
    for tok in tokens:
        if "." in tok:
            raise CliError(f"decimal literal {tok!r} not accepted; use exact tokens")
        try:
            values.append(parse_scalar(tok))
        except ValueError as exc:
            raise CliError(str(exc)) from None
    return QPoint(values)


def load_config(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    try:
        geom = Geometry.from_json(data)
        flags = ConventionFlags(**data.get("flags", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid config: {exc}") from None
    if not 1 <= geom.n <= MAX_CARTAN_N:
        raise CliError(f"invalid config: need 1 <= n <= {MAX_CARTAN_N}")
    if not 0 <= geom.base.dim <= MAX_CARTAN_N:
        raise CliError(f"invalid config: need 0 <= dim <= {MAX_CARTAN_N}")
    return geom, flags


def conventions_block(geom: Geometry | None, flags: ConventionFlags):
    block = dict(flags.to_json())
    if geom is not None and geom.model_dependent:
        block["model_dependent"] = True
        block["caveat"] = "square-zero model is only formal for dim_C S >= 2"
    return block


def render(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2, sort_keys=False)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix:<40} {value}")

    walk("", report)
    return "\n".join(lines)


def _geom_arg(parser):
    parser.add_argument("--config", required=True, help="geometry config JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crepant", add_help=True)
    parser.add_argument("--output", choices=OUTPUTS, default="json")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("orb-table", help="orbifold basis multiplication table")
    _geom_arg(p)

    p = sub.add_parser("res-table", help="classical resolution products E_i E_j")
    _geom_arg(p)

    p = sub.add_parser("gw", help="three-point invariant in a fiber curve class")
    _geom_arg(p)
    p.add_argument("--span", required=True, help="curve span i,j (1-based)")
    p.add_argument("--multiple", type=int, default=1)
    p.add_argument("--insert", required=True,
                   help="comma-separated insertions, e.g. E1,E1,E2 (or 'sigma')")

    p = sub.add_parser("qc-table", help="quantum products E_i * E_j at a q point")
    _geom_arg(p)
    p.add_argument("--q", required=True)

    p = sub.add_parser("verify-a1", help="check the scalar A_1 isomorphism ansatz")
    _geom_arg(p)
    p.add_argument("--q", required=True)
    p.add_argument("--scalar", required=True)

    p = sub.add_parser("solve-a2", help="solve the symmetric A_2 ansatz")
    _geom_arg(p)
    p.add_argument("--max-order", type=int, default=12)

    p = sub.add_parser("check-assoc", help="associativity check on basis triples")
    _geom_arg(p)
    p.add_argument("--ring", choices=("orb", "classical", "quantum"), default="orb")
    p.add_argument("--q", help="required for --ring quantum")

    sub.add_parser("reconcile-6-2",
                   help="compare derived A_2 quantum table with the printed one")

    p = sub.add_parser("mckay", help="McKay graph of an ADE subgroup of SU(2)")
    p.add_argument("--group", required=True, help="A<n>, D<n>, E6, E7 or E8")

    p = sub.add_parser("cartan", help="intersection matrix and its inverse")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("age", help="age of a diagonal group element")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--exponents", required=True, help="comma-separated integers")

    # --output is also accepted after the subcommand; a default there would
    # overwrite the value given before it
    for p in sub.choices.values():
        p.add_argument("--output", choices=OUTPUTS, default=argparse.SUPPRESS)
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


def _ee_table(ring) -> dict:
    """Products of two sector generators, i <= j."""
    n = ring.geom.n
    return {f"{ring.letter}_{i} * {ring.letter}_{j}": ring.to_json(ring.ee_product(i, j))
            for i in range(1, n + 1) for j in range(i, n + 1)}


def cmd_orb_table(args) -> dict:
    geom, flags = load_config(args.config)
    ring = OrbifoldRing(geom, flags)
    labels = [label for label, _ in ring.basis()]
    table = {f"{labels[i]} * {labels[j]}": ring.to_json(xy)
             for (i, j), xy in ring.products().items()}
    return {"command": "orb-table", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags), "table": table}


def cmd_res_table(args) -> dict:
    geom, flags = load_config(args.config)
    return {"command": "res-table", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags),
            "table": _ee_table(ResolutionRing(geom))}


def cmd_gw(args) -> dict:
    geom, flags = load_config(args.config)
    try:
        i, j = (int(t) for t in args.span.split(","))
    except ValueError:
        raise CliError("span must be two comma-separated integers") from None
    if args.multiple < 1:
        raise CliError("multiple must be >= 1")
    try:
        base = curve_class(geom.n, i, j)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    beta = CurveClass(geom.n, tuple(args.multiple * m for m in base.mult))
    insertions = []
    for tok in args.insert.split(","):
        tok = tok.strip()
        if tok.upper().startswith("E") and tok[1:].isdigit():
            l = int(tok[1:])
            if not 1 <= l <= geom.n:
                raise CliError(f"divisor index out of range: {l}")
            insertions.append(SectorClass.sector(geom, l))
        elif tok == "sigma":
            insertions.append(SectorClass.generator(geom, 1))
        else:
            raise CliError(f"unknown insertion {tok!r}")
    if len(insertions) != 3:
        raise CliError("exactly three insertions required")
    value = gw_invariant(geom, beta, insertions)
    return {"command": "gw", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags),
            "curve_class": {"span": [i, j], "multiple": args.multiple},
            "insertions": [t.strip() for t in args.insert.split(",")],
            "value": format_rational(value),
            "metadata": gw_metadata(geom)}


def cmd_qc_table(args) -> dict:
    geom, flags = load_config(args.config)
    q = parse_q_spec(args.q, geom.n)
    return {"command": "qc-table", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags),
            "q": q.to_json(), "table": _ee_table(QuantumRing(geom, q))}


def cmd_verify_a1(args) -> dict:
    geom, flags = load_config(args.config)
    if geom.n != 1:
        raise CliError("verify-a1 needs an n = 1 geometry")
    q = parse_q_spec(args.q, 1)
    try:
        c = parse_scalar(args.scalar)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    report = HomChecker(geom, flags).check(((c,),), QuantumRing(geom, q))
    return {"command": "verify-a1", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags),
            "q": q.to_json(), "scalar": scalar_to_json(c),
            "report": report.to_json()}


def cmd_solve_a2(args) -> dict:
    geom, flags = load_config(args.config)
    if geom.n != 2:
        raise CliError("solve-a2 needs an n = 2 geometry")
    # a root of order d meets the Q(zeta_3) candidates in conductor
    # lcm(3, d) <= 3 max_order
    cap = conductor_cap()
    if args.max_order < 1 or 3 * args.max_order > cap:
        raise CliError(f"max-order must be between 1 and {cap // 3} "
                       f"(3 * max-order may not exceed the conductor cap {cap})")
    result = solve_a2_symmetric(geom, max_order=args.max_order, flags=flags)
    return {"command": "solve-a2", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags),
            "max_order": args.max_order, "result": result.to_json()}


def cmd_check_assoc(args) -> dict:
    geom, flags = load_config(args.config)
    if args.ring == "orb":
        ring = OrbifoldRing(geom, flags)
    elif args.ring == "classical":
        ring = ResolutionRing(geom)
    else:
        if not args.q:
            raise CliError("--ring quantum needs --q")
        ring = QuantumRing(geom, parse_q_spec(args.q, geom.n))
    report = check_associativity(ring)
    return {"command": "check-assoc", "geometry": geom.to_json(),
            "conventions": conventions_block(geom, flags),
            "ring": args.ring, "report": report.to_json()}


def cmd_reconcile(args) -> dict:
    return {"command": "reconcile-6-2", "report": reconcile_6_2()}


def cmd_mckay(args) -> dict:
    try:
        spec = GroupSpec.parse(args.group)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    table = character_table(spec)
    graph = mckay_graph(spec)
    res = resolution_graph(graph)
    return {"command": "mckay", "group": spec.label, "order": spec.order,
            "character_table": {
                "class_sizes": list(table.class_sizes),
                "class_orders": list(table.class_orders),
                "rows": [[scalar_to_json(v) for v in row] for row in table.values],
            },
            "mckay_graph": graph.to_json(),
            "dynkin": dynkin_verdict(graph),
            "resolution_graph": res.to_json(),
            "resolution_dynkin": dynkin_verdict(res) if len(res.dims) else "empty",
            "dimension_vector_in_kernel": dimension_vector_check(graph),
            "surface_equation": ade_equation(spec)}


def cmd_cartan(args) -> dict:
    if args.n < 1:
        raise CliError("need n >= 1")
    if args.n > MAX_CARTAN_N:
        raise CliError(f"need n <= {MAX_CARTAN_N}")
    return {"command": "cartan", "n": args.n,
            "matrix": [[str(v) for v in row] for row in cartan_matrix(args.n)],
            "inverse": [[format_rational(v) for v in row]
                        for row in cartan_inverse(args.n)]}


def cmd_age(args) -> dict:
    if args.order < 1:
        raise CliError("order must be >= 1")
    try:
        exps = [int(t) for t in args.exponents.split(",")]
    except ValueError:
        raise CliError("exponents must be comma-separated integers") from None
    return {"command": "age", "order": args.order, "exponents": exps,
            "age": format_rational(age(args.order, exps))}


HANDLERS = {
    "orb-table": cmd_orb_table,
    "res-table": cmd_res_table,
    "gw": cmd_gw,
    "qc-table": cmd_qc_table,
    "verify-a1": cmd_verify_a1,
    "solve-a2": cmd_solve_a2,
    "check-assoc": cmd_check_assoc,
    "reconcile-6-2": cmd_reconcile,
    "mckay": cmd_mckay,
    "cartan": cmd_cartan,
    "age": cmd_age,
}


def run(argv, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    # unknown subcommand: usage text and exit 1 (argparse would use 2)
    if not any(a in COMMANDS for a in argv):
        if "-h" in argv or "--help" in argv:
            parser.print_help(stdout)
            return 0
        parser.print_usage(stdout)
        return 1
    try:
        # argparse prints help to sys.stdout and exits 0 after it, or 2
        # after a usage error
        with contextlib.redirect_stdout(stdout):
            args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        conductor_cap()
        report = HANDLERS[args.command](args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}), file=stdout)
        return 2
    except PoleError as exc:
        print(json.dumps({"error": "pole", "span": list(exc.span),
                          "detail": str(exc)}), file=stdout)
        return 3
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=stdout)
        return 2
    print(render(report, args.output), file=stdout)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
