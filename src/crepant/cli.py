"""Command-line front end: exact tables and verification reports as
deterministic JSON (or aligned text)."""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import os
import sys

from .cartan import CurveClass, cartan_inverse, cartan_matrix, curve_class
from .geometry import Geometry, _json_object
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
from .scalars import ONE, conductor_cap, format_rational, parse_int, parse_scalar, scalar_to_json
from .verify import (
    HomChecker,
    check_associativity,
    reconcile_6_2,
    solve_a2_symmetric,
)

# options whose values may be signed exact tokens such as -1/2 or -1,2
SIGNED_OPTIONS = ("--q", "--scalar", "--exponents")
OUTPUTS = ("json", "text")
# largest `cartan --n`, config `n` and base `dim`: the Cartan matrix and
# its inverse have n^2 entries each, and a ring's basis has (n + 2)(dim + 1)
MAX_CARTAN_N = 100


def parse_q_spec(text: str, n: int) -> QPoint:
    """Comma-separated exact tokens: zetaN, zetaN^k, integer, or p/q.
    Decimal literals and space are rejected (exactness contract)."""
    tokens = text.split(",")
    if len(tokens) == 1 and n > 1:
        tokens = tokens * n
    if len(tokens) != n:
        raise ValueError(f"expected {n} q components, got {len(tokens)}")
    return QPoint([parse_scalar(tok) for tok in tokens])


def load_config(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: json.load recurses once per nested bracket
        raise ValueError(f"cannot read config {path}: {exc}") from None
    try:
        geom = Geometry.from_json(data)
        raw = _json_object(data.get("flags", {}), "flags")
        for key in sorted(raw.keys() - {"twist_self"}):  # the first unknown flag
            raise ValueError(f"flags.{key}: unknown flag")
        flags = ConventionFlags(**raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid config: {exc}") from None
    if not 1 <= geom.n <= MAX_CARTAN_N:
        raise ValueError(f"invalid config: need 1 <= n <= {MAX_CARTAN_N}")
    if not 0 <= geom.base.dim <= MAX_CARTAN_N:
        raise ValueError(f"invalid config: need 0 <= dim <= {MAX_CARTAN_N}")
    return geom, flags


def conventions_block(geom: Geometry, flags: ConventionFlags):
    block = dict(flags.to_json())
    if geom.model_dependent:
        block["model_dependent"] = True
        block["caveat"] = "square-zero model is only formal for dim_C S >= 2"
    return block


_encode_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value, pad: str, out: list) -> None:
    """Append the chunks of `value` as json.dumps(value, indent=2) writes it
    at the indent `pad`: dicts with str keys, lists and tuples here, with
    their str, int, bool and None items written in the loop, any other
    value by json.dumps, indented."""
    kind = type(value)
    if kind is list or kind is tuple or kind is dict and all(type(k) is str for k in value):
        brackets = "{}" if kind is dict else "[]"
        if not value:
            out.append(brackets)
            return
        inner = pad + "  "
        sep = brackets[0] + "\n" + inner
        for item in value:
            if kind is dict:
                out += (sep, _encode_str(item), ": ")
                item = value[item]
            else:
                out.append(sep)
            item_kind = type(item)
            if item_kind is str:
                out.append(_encode_str(item))
            elif item_kind is int:
                out.append(int.__repr__(item))
            elif item is None or item_kind is bool:
                out.append(_JSON_CONSTANTS[item])
            else:
                _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + brackets[1])
    else:
        out.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))


def render(report: dict, output: str) -> str:
    """The report as `--output` asks: json is byte for byte json.dumps(report,
    indent=2), written by `_write_json` without the pure-Python encoder
    that json.dumps runs whenever `indent` is set."""
    if output == "json":
        out = []
        _write_json(report, "", out)
        return "".join(out)
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


# options: (flags, keyword arguments) of each add_argument call; config:
# the command takes --config, and the handler then gets (args, geom, flags)
Command = collections.namedtuple("Command", "help options handler config")


# name -> Command, in declaration order: the subparsers, the known-command
# check in `run` and dispatch all read this one table
COMMAND_TABLE: dict[str, Command] = {}


def option(*flags, **kwargs):
    """One argparse option of a command, as `add_argument` takes it."""
    return flags, kwargs


def command(name: str, help: str, *options, config: bool = True):
    """Declare a subcommand: its name, help, options, whether it reads a
    geometry config, and (decorated) its handler.  A handler returns only
    its own fields; `run` puts the command name and, for a config command,
    the geometry and conventions ahead of them."""
    def declare(handler):
        COMMAND_TABLE[name] = Command(help, options, handler, config)
        return handler
    return declare


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command table, built on the first `run`: parsing
    and printing leave it unchanged (argparse reads sys.stdout, sys.stderr
    and the terminal width when it prints, not when it builds)."""
    parser = argparse.ArgumentParser(prog="crepant", add_help=True)
    parser.add_argument("--output", choices=OUTPUTS, default="json")
    sub = parser.add_subparsers(dest="command")
    for name, cmd in COMMAND_TABLE.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.config:
            p.add_argument("--config", required=True, help="geometry config JSON file")
        for flags, kwargs in cmd.options:
            p.add_argument(*flags, **kwargs)
        # --output is also accepted after the subcommand; a default there
        # would overwrite the value given before it
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
    n, rank = ring.geom.n, ring.geom.base.rank
    return {f"{ring.letter}_{i} * {ring.letter}_{j}":
            ring.to_json(ring.product((i + 1) * rank, (j + 1) * rank))
            for i in range(1, n + 1) for j in range(i, n + 1)}


@command("orb-table", "orbifold basis multiplication table")
def cmd_orb_table(args, geom, flags) -> dict:
    ring = OrbifoldRing(geom, flags)
    labels = ring.labels()
    table = {f"{labels[i]} * {labels[j]}": ring.to_json(ring.product(i, j))
             for i in range(ring.size) for j in range(i, ring.size)}
    return {"table": table}


@command("res-table", "classical resolution products E_i E_j")
def cmd_res_table(args, geom, flags) -> dict:
    return {"table": _ee_table(ResolutionRing(geom))}


@command("gw", "three-point invariant in a fiber curve class",
         option("--span", required=True, help="curve span i,j (1-based)"),
         option("--multiple", default="1"),
         option("--insert", required=True,
                help="comma-separated insertions, e.g. E1,E1,E2 (or 'sigma')"))
def cmd_gw(args, geom, flags) -> dict:
    try:
        i, j = (parse_int(t) for t in args.span.split(","))
    except ValueError:
        raise ValueError("span must be two comma-separated integers") from None
    multiple = parse_int(args.multiple)
    if multiple < 1:
        raise ValueError("multiple must be >= 1")
    base = curve_class(geom.n, i, j)
    beta = CurveClass(tuple(multiple * m for m in base.mult))
    # each insertion as a sparse row: E_l is generator l + 1, sigma generator 1
    rank = geom.base.rank
    insertions = []
    for tok in args.insert.split(","):
        if tok.upper().startswith("E") and tok[1:].isascii() and tok[1:].isdigit():
            l = int(tok[1:])
            if not 1 <= l <= geom.n:
                raise ValueError(f"divisor index out of range: {l}")
            insertions.append({(l + 1) * rank: ONE})
        elif tok == "sigma":
            insertions.append({rank: ONE})
        else:
            raise ValueError(f"unknown insertion {tok!r}")
    if len(insertions) != 3:
        raise ValueError("exactly three insertions required")
    value = gw_invariant(geom, beta, insertions)
    return {"curve_class": {"span": [i, j], "multiple": multiple},
            "insertions": args.insert.split(","),
            "value": format_rational(value),
            "metadata": gw_metadata(geom)}


@command("qc-table", "quantum products E_i * E_j at a q point",
         option("--q", required=True))
def cmd_qc_table(args, geom, flags) -> dict:
    q = parse_q_spec(args.q, geom.n)
    return {"q": q.to_json(), "table": _ee_table(QuantumRing(geom, q))}


@command("verify-a1", "check the scalar A_1 isomorphism ansatz",
         option("--q", required=True),
         option("--scalar", required=True))
def cmd_verify_a1(args, geom, flags) -> dict:
    if geom.n != 1:
        raise ValueError(f"{args.command} needs an n = 1 geometry")
    q = parse_q_spec(args.q, 1)
    c = parse_scalar(args.scalar)
    report = HomChecker(OrbifoldRing(geom, flags)).check(((c,),), QuantumRing(geom, q))
    return {"q": q.to_json(), "scalar": scalar_to_json(c), "report": report.to_json()}


@command("solve-a2", "solve the symmetric A_2 ansatz",
         option("--max-order", default="12"))
def cmd_solve_a2(args, geom, flags) -> dict:
    if geom.n != 2:
        raise ValueError(f"{args.command} needs an n = 2 geometry")
    # a root of order d meets the Q(zeta_3) candidates in conductor
    # lcm(3, d) <= 3 max_order
    cap = conductor_cap()
    max_order = parse_int(args.max_order)
    if max_order < 1 or 3 * max_order > cap:
        raise ValueError(f"max-order must be between 1 and {cap // 3} "
                         f"(3 * max-order may not exceed the conductor cap {cap})")
    result = solve_a2_symmetric(OrbifoldRing(geom, flags), max_order=max_order)
    return {"max_order": max_order, "result": result.to_json()}


@command("check-assoc", "associativity check on basis triples",
         option("--ring", choices=("orb", "classical", "quantum"), default="orb"),
         option("--q", help="required for --ring quantum"))
def cmd_check_assoc(args, geom, flags) -> dict:
    if args.ring != "quantum" and args.q is not None:
        raise ValueError(f"--q applies only to --ring quantum, not --ring {args.ring}")
    if args.ring == "orb":
        ring = OrbifoldRing(geom, flags)
    elif args.ring == "classical":
        ring = ResolutionRing(geom)
    else:
        if not args.q:
            raise ValueError("--ring quantum needs --q")
        ring = QuantumRing(geom, parse_q_spec(args.q, geom.n))
    return {"ring": args.ring, "report": check_associativity(ring).to_json()}


@command("reconcile-6-2", "compare derived A_2 quantum table with the printed one",
         config=False)
def cmd_reconcile(args) -> dict:
    return {"report": reconcile_6_2()}


@command("mckay", "McKay graph of an ADE subgroup of SU(2)",
         option("--group", required=True, help="A<n>, D<n>, E6, E7 or E8"), config=False)
def cmd_mckay(args) -> dict:
    spec = GroupSpec.parse(args.group)
    table = character_table(spec)
    graph = mckay_graph(spec)
    res = resolution_graph(graph)
    return {"group": spec.label, "order": spec.order,
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


@command("cartan", "intersection matrix and its inverse",
         option("--n", required=True), config=False)
def cmd_cartan(args) -> dict:
    n = parse_int(args.n)
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_CARTAN_N:
        raise ValueError(f"need n <= {MAX_CARTAN_N}")
    return {"n": n,
            "matrix": [[str(v) for v in row] for row in cartan_matrix(n)],
            "inverse": [[format_rational(v) for v in row] for row in cartan_inverse(n)]}


@command("age", "age of a diagonal group element",
         option("--order", required=True),
         option("--exponents", required=True, help="comma-separated integers"), config=False)
def cmd_age(args) -> dict:
    order = parse_int(args.order)
    if order < 1:
        raise ValueError("order must be >= 1")
    try:
        exps = [parse_int(t) for t in args.exponents.split(",")]
    except ValueError:
        raise ValueError("exponents must be comma-separated integers") from None
    return {"order": order, "exponents": exps, "age": format_rational(age(order, exps))}


def run(argv, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    # unknown subcommand: usage text and exit 1 (argparse would use 2)
    if not any(a in COMMAND_TABLE for a in argv):
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
    cmd = COMMAND_TABLE[args.command]
    report = {"command": args.command}
    try:
        # argparse 3.10 and 3.11 read the value of `--n=--` as an empty list
        for dest, value in vars(args).items():
            if value == []:
                raise ValueError(f"--{dest.replace('_', '-')}: '--' is not a value")
        conductor_cap()
        context = ()
        if cmd.config:
            geom, flags = load_config(args.config)
            report["geometry"] = geom.to_json()
            report["conventions"] = conventions_block(geom, flags)
            context = (geom, flags)
        report.update(cmd.handler(args, *context))
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`crepant mckay --group E8 | head`):
        # exit 0 with no traceback, and point stdout at devnull so the flush
        # at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
