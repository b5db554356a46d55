"""Command-line front end: exact tables and verification reports as
deterministic JSON (or aligned text)."""

from __future__ import annotations

import collections
import json
import os
import sys
import types

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


# one `--name VALUE` option of a command: whether it must be given, its
# value when it is not, the values it may take and its help line
Option = collections.namedtuple("Option", "name required default choices help",
                                defaults=(False, None, None, None))
HELP = Option("--help", help="show this help message and exit")
CONFIG = Option("--config", required=True, help="geometry config JSON file")
OUTPUT = Option("--output", default="json", choices=OUTPUTS)
# the options before the command
TOP_OPTIONS = (HELP, OUTPUT)

# options: every option the command reads, help first and --output last;
# config: the command takes --config, and the handler then gets (args, geom, flags)
Command = collections.namedtuple("Command", "help options handler config")


# name -> Command, in declaration order: the parser, the help text, the
# known-command check in `run` and dispatch all read this one table
COMMAND_TABLE: dict[str, Command] = {}


def option(name: str, **fields) -> Option:
    """One option of a command: `required`, `default`, `choices`, `help`."""
    return Option(name, **fields)


def command(name: str, help: str, *options, config: bool = True):
    """Declare a subcommand: its name, help, options, whether it reads a
    geometry config, and (decorated) its handler.  A handler returns only
    its own fields; `run` puts the command name and, for a config command,
    the geometry and conventions ahead of them."""
    def declare(handler):
        COMMAND_TABLE[name] = Command(help, (HELP, *(CONFIG,) * config, *options, OUTPUT),
                                      handler, config)
        return handler
    return declare


class ArgvExit(Exception):
    """The command line ends the run before the command: with -h or --help
    (message None), `run` prints the help of `command` (None: of crepant)
    and exits 0; after a usage error it prints the usage of `command` and
    `crepant <command>: error: <message>` to stderr, and exits 2."""

    def __init__(self, command, message=None):
        self.command, self.message = command, message


def _dest(opt: Option) -> str:
    return opt.name[2:].replace("-", "_")


def _lookup(token: str, options, command):
    """(option, text after `=` or None) of a token `--name[=text]`: the
    option called name, else the one option whose name starts with it;
    (None, None) when none does."""
    name, eq, text = token.partition("=")
    matches = [opt for opt in options if opt.name == name] or [
        opt for opt in options if opt.name.startswith(name)]
    if len(matches) > 1:
        raise ArgvExit(command, f"ambiguous option: {token} could match "
                                + ", ".join(opt.name for opt in matches))
    return (matches[0], text if eq else None) if matches else (None, None)


def _read_options(argv, start, options, command, given, strays):
    """Read the options of `argv[start:]` into `given` (option -> value);
    return the index of the first token that is not an option, where the
    top level (command None) finds its command, or len(argv).  A spaced
    value is the next token unless that token starts with `--`; after `=`
    any text is the value.  An unknown option, or a stray token of a
    command, goes to `strays`, reported only after the whole line is read,
    so -h after it still prints help."""
    # an ambiguous prefix is an error wherever it stands, help or not; no
    # token after a lone `--` is an option
    for token in argv[start:]:
        if token == "--":
            break
        if token.startswith("--"):
            _lookup(token, options, command)
    i = start
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "-h":
            raise ArgvExit(command)
        if token == "--":
            raise ArgvExit(command, "unrecognized arguments: --")
        opt, text = _lookup(token, options, command) if token.startswith("--") else (None, None)
        if opt is None:
            if command is None and not token.startswith("-"):
                return i - 1
            strays.append(token)
        elif opt is HELP:
            if text is not None:
                raise ArgvExit(command, f"argument -h/--help: ignored explicit argument {text!r}")
            raise ArgvExit(command)
        else:
            if text is None:
                if i == len(argv) or argv[i].startswith("--"):
                    raise ArgvExit(command, f"argument {opt.name}: expected one argument")
                text = argv[i]
                i += 1
            # `--opt=--` is read, and `run` rejects it after the whole line
            if opt.choices and text != "--" and text not in opt.choices:
                raise ArgvExit(command, f"argument {opt.name}: invalid choice: {text!r} "
                                        f"(choose from {', '.join(map(repr, opt.choices))})")
            given[opt] = text
    return i


def parse_argv(argv) -> types.SimpleNamespace:
    """`[--output FMT] COMMAND [--opt VALUE | --opt=VALUE | -h | --help]...`
    as a namespace: `output`, `command`, then one attribute per option of
    the command (`--max-order` as `max_order`), its default when not given.
    A later option overrides an earlier one; an option may be shortened to
    a prefix of its name that no other option of its level shares."""
    given, strays = {}, []
    i = _read_options(argv, 0, TOP_OPTIONS, None, given, strays)
    if i == len(argv):
        raise ArgvExit(None, "the following arguments are required: command")
    name = argv[i]
    cmd = COMMAND_TABLE.get(name)
    if cmd is None:
        raise ArgvExit(None, f"argument command: invalid choice: {name!r} "
                             f"(choose from {', '.join(map(repr, COMMAND_TABLE))})")
    _read_options(argv, i + 1, cmd.options, name, given, strays)
    missing = [opt.name for opt in cmd.options if opt.required and opt not in given]
    if missing:
        raise ArgvExit(name, f"the following arguments are required: {', '.join(missing)}")
    if strays:
        raise ArgvExit(name, f"unrecognized arguments: {' '.join(strays)}")
    return types.SimpleNamespace(output=given.get(OUTPUT, OUTPUT.default), command=name, **{
        _dest(opt): given.get(opt, opt.default) for opt in cmd.options[1:-1]})


# the help layout argparse gives an 80-column terminal: lines of at most
# WIDTH characters, help text from column HELP_COLUMN
WIDTH = 78
HELP_COLUMN = 24


def _metavar(opt: Option) -> str:
    return "{" + ",".join(opt.choices) + "}" if opt.choices else _dest(opt).upper()


def _options(command):
    return TOP_OPTIONS if command is None else COMMAND_TABLE[command].options


def _usage(command) -> str:
    """The usage line of `command` (None: of crepant), wrapped after the
    program name's indent where it is longer than WIDTH."""
    prog = "crepant" if command is None else f"crepant {command}"
    parts = [("-h" if opt is HELP else f"{opt.name} {_metavar(opt)}", opt.required)
             for opt in _options(command)]
    parts = [part if required else f"[{part}]" for part, required in parts]
    # the command list and "...", each on a line of its own when wrapped:
    # the list alone is wider than WIDTH
    tail = [] if command else ["{" + ",".join(COMMAND_TABLE) + "}", "..."]
    lines = [" ".join(["usage:", prog, *parts, *tail])]
    if len(lines[0]) > WIDTH:
        indent = " " * len(f"usage: {prog} ")
        lines = [f"usage: {prog}"]
        for part in parts:
            if len(lines[-1]) + 1 + len(part) > WIDTH:
                lines.append(indent + part)
            else:
                lines[-1] += " " + part
        lines += [indent + part for part in tail]
    return "\n".join(lines) + "\n"


def _help_entry(invocation: str, text) -> str:
    if not text:
        return invocation + "\n"
    if len(invocation) <= HELP_COLUMN - 2:
        return invocation.ljust(HELP_COLUMN) + text + "\n"
    return invocation + "\n" + " " * HELP_COLUMN + text + "\n"


def _help(command) -> str:
    """The help of `command` (None: of crepant, with the command list)."""
    out = [_usage(command), "\n"]
    if command is None:
        out.append("positional arguments:\n  {" + ",".join(COMMAND_TABLE) + "}\n")
        out += [_help_entry(f"    {name}", cmd.help) for name, cmd in COMMAND_TABLE.items()]
        out.append("\n")
    out.append("options:\n")
    for opt in _options(command):
        invocation = "-h, --help" if opt is HELP else f"{opt.name} {_metavar(opt)}"
        out.append(_help_entry(f"  {invocation}", opt.help))
    return "".join(out)


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
    # unknown subcommand: usage text on stdout and exit 1
    if not any(a in COMMAND_TABLE for a in argv):
        if "-h" in argv or "--help" in argv:
            stdout.write(_help(None))
            return 0
        stdout.write(_usage(None))
        return 1
    try:
        args = parse_argv(argv)
    except ArgvExit as exc:
        if exc.message is None:
            stdout.write(_help(exc.command))
            return 0
        prog = "crepant" if exc.command is None else f"crepant {exc.command}"
        sys.stderr.write(f"{_usage(exc.command)}{prog}: error: {exc.message}\n")
        return 2
    cmd = COMMAND_TABLE[args.command]
    report = {"command": args.command}
    try:
        for dest, value in vars(args).items():
            if value == "--":
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
