import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from crepant import cli, mckay
from crepant.cli import run
from crepant.orbifold import OrbifoldRing
from crepant.scalars import format_rational

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
A1 = os.path.join(CONFIGS, "a1_p1.json")
A2 = os.path.join(CONFIGS, "a2_p1.json")
A2_POINT = os.path.join(CONFIGS, "a2_point.json")


def invoke(argv):
    out = io.StringIO()
    code = run(argv, stdout=out)
    return code, out.getvalue()


def test_unknown_command_exits_1():
    code, _ = invoke(["no-such-command"])
    assert code == 1
    code, _ = invoke([])
    assert code == 1
    # an unknown name in the command slot, the first token that is not an
    # option, exits 1 also when a later token names a command
    for argv in (["foo", "cartan"], ["-5", "foo", "cartan"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = invoke(argv)
        assert (code, err.getvalue()) == (1, ""), argv
        assert text == cli._usage(None)
    # a command name as the value of --output is a bad choice
    with contextlib.redirect_stderr(io.StringIO()):
        assert invoke(["--output", "cartan"])[0] == 2


def test_help_exits_0():
    code, text = invoke(["--help"])
    assert code == 0
    assert "orb-table" in text and "--output" in text
    code, text = invoke(["cartan", "--help"])
    assert code == 0
    assert "--n" in text
    # a usage error still exits 2
    code, _ = invoke(["cartan"])
    assert code == 2


def test_bad_config_exits_2():
    code, text = invoke(["orb-table", "--config", "/no/such/file.json"])
    assert code == 2
    assert "error" in json.loads(text)


def test_deeply_nested_config_exits_2(tmp_path):
    # json.load recurses once per bracket and raises RecursionError here
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, text = invoke(["orb-table", "--config", str(path)])
    assert code == 2
    assert json.loads(text)["error"].startswith(f"cannot read config {path}: ")


def test_decimal_q_rejected():
    code, text = invoke(["qc-table", "--config", A2, "--q", "0.5"])
    assert code == 2
    assert json.loads(text)["error"] == "cannot parse scalar factor '0.5'"


@pytest.mark.parametrize("token", ["1.5", "zeta4*0.5", "1.0/2"])
def test_q_and_scalar_give_one_message_for_a_decimal(token):
    # a --q component is read by the grammar of --scalar, with its message
    q = invoke(["verify-a1", "--config", A1, f"--q={token}", "--scalar=1"])
    scalar = invoke(["verify-a1", "--config", A1, "--q=-1", f"--scalar={token}"])
    assert q == scalar
    assert q[0] == 2 and json.loads(q[1])["error"].startswith("cannot parse scalar factor")


@pytest.mark.parametrize("argv", [
    ["solve-a2", "--config", A2, "--max-order=1.5"],
    ["gw", "--config", A2, "--span", "1,2", "--insert", "E1,E1,E2", "--multiple=1.5"],
    ["age", "--exponents", "1,2", "--order=1.5"],
    ["cartan", "--n=1.5"],
], ids=["max-order", "multiple", "order", "n"])
def test_a_malformed_integer_option_exits_2_with_a_json_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = invoke(argv)
    assert (code, json.loads(text), err.getvalue()) == (
        2, {"error": "not an integer token (-?N): '1.5'"}, "")


def test_pole_exits_3_with_span():
    code, text = invoke(["qc-table", "--config", A2, "--q=-1,-1"])
    assert code == 3
    data = json.loads(text)
    assert data["error"] == "pole"
    assert data["span"] == [1, 2]


# one pole rule for every geometry: a2_point has k = 0, so no correction
# would ever evaluate the pole
@pytest.mark.parametrize("argv", [
    ["qc-table", "--config", A2_POINT, "--q", "1"],
    ["check-assoc", "--config", A2_POINT, "--ring", "quantum", "--q", "1"],
], ids=["qc-table", "check-assoc"])
def test_pole_exits_3_where_k_is_zero(argv):
    code, text = invoke(argv)
    assert code == 3
    data = json.loads(text)
    assert data["error"] == "pole"
    assert data["span"] == [1, 1]


QC_ZETA3 = ["qc-table", "--config", A2, "--q=zeta3"]
CARTAN = ["cartan", "--n", "2"]
AGE = ["age", "--order", "3", "--exponents", "1,2"]


# every command validates the variable, also those that build no CycNum
@pytest.mark.parametrize("value, argv", [
    ("abc", QC_ZETA3), ("0", QC_ZETA3), ("abc", CARTAN), ("0", CARTAN),
    ("abc", AGE), ("0", AGE), (" 1_20", CARTAN), ("+120", CARTAN), ("1_20", QC_ZETA3),
    ("120 ", QC_ZETA3), ("١٢٠", CARTAN),
], ids=["abc", "0", "cartan-abc", "cartan-0", "age-abc", "age-0", "cartan-space-underscore",
        "cartan-plus", "underscore", "trailing-space", "cartan-arabic-digits"])
def test_invalid_conductor_cap_exits_2(monkeypatch, value, argv):
    monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", value)
    code, text = invoke(argv)
    assert code == 2
    error = json.loads(text)["error"]
    assert "CREPANT_MAX_CONDUCTOR" in error and repr(value) in error


def test_help_exits_0_with_invalid_conductor_cap(monkeypatch):
    monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", "abc")
    assert invoke(["cartan", "--help"])[0] == 0


@pytest.mark.parametrize("spaced, joined", [
    (["verify-a1", "--config", A1, "--q", "-1/2", "--scalar", "1"],
     ["verify-a1", "--config", A1, "--q=-1/2", "--scalar", "1"]),
    (["verify-a1", "--config", A1, "--q", "-1", "--scalar", "-i/2"],
     ["verify-a1", "--config", A1, "--q", "-1", "--scalar=-i/2"]),
    (["age", "--order", "3", "--exponents", "-1,2"],
     ["age", "--order", "3", "--exponents=-1,2"]),
], ids=["q", "scalar", "exponents"])
def test_signed_value_after_space(spaced, joined):
    assert invoke(spaced) == invoke(joined)
    assert invoke(spaced)[0] == 0


def test_deterministic_output():
    argv = ["qc-table", "--config", A2, "--q", "zeta3"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second and first[0] == 0


def test_cartan_golden():
    code, text = invoke(["cartan", "--n", "2"])
    assert code == 0
    data = json.loads(text)
    assert data["matrix"] == [["-2", "1"], ["1", "-2"]]
    assert data["inverse"] == [["-2/3", "-1/3"], ["-1/3", "-2/3"]]


def test_age_golden():
    code, text = invoke(["age", "--order", "3", "--exponents", "1,2"])
    assert code == 0
    assert json.loads(text)["age"] == "1"
    code, text = invoke(["age", "--order", "4", "--exponents", "1,1"])
    assert json.loads(text)["age"] == "1/2"
    code, _ = invoke(["age", "--order", "0", "--exponents", "1"])
    assert code == 2


def test_gw_golden():
    code, text = invoke(["gw", "--config", A1, "--span", "1,1",
                         "--insert", "E1,E1,E1"])
    assert code == 0
    assert json.loads(text)["value"] == "-8"
    code, text = invoke(["gw", "--config", A2, "--span", "1,2",
                         "--insert", "E1,E1,E2", "--multiple", "3"])
    assert json.loads(text)["value"] == "-1"
    code, _ = invoke(["gw", "--config", A2, "--span", "1,1",
                      "--insert", "E1,E1"])
    assert code == 2


def test_verify_a1_accepts_half_i():
    code, text = invoke(["verify-a1", "--config", A1, "--q", "-1",
                         "--scalar", "i/2"])
    assert code == 0
    assert json.loads(text)["report"]["passed"]
    code, text = invoke(["verify-a1", "--config", A1, "--q", "-1",
                         "--scalar", "1"])
    assert code == 0
    assert not json.loads(text)["report"]["passed"]


def test_config_flags_reach_the_checker(tmp_path):
    def with_flags(path, name):
        with open(path) as fh:
            config = json.load(fh)
        config["flags"] = {"twist_self": "1"}
        out = tmp_path / name
        out.write_text(json.dumps(config))
        return str(out)

    code, text = invoke(["solve-a2", "--config", with_flags(A2, "a2.json"), "--max-order", "6"])
    assert code == 0
    assert json.loads(text)["result"]["solutions"] == []
    # for n = 1 the twists of e_1 * e_1 cancel, so twist_self never enters
    # the orbifold product and the A_1 map still passes at i/2
    code, text = invoke(["verify-a1", "--config", with_flags(A1, "a1.json"),
                         "--q=-1", "--scalar", "i/2"])
    assert code == 0
    data = json.loads(text)
    assert data["conventions"]["twist_self"] == "1"
    assert data["report"]["passed"]


@pytest.mark.parametrize("argv", [
    ["verify-a1", "--config", A1, "--q=-1", "--scalar", "i/2"],
    ["solve-a2", "--config", A2, "--max-order", "6"],
], ids=["verify-a1", "solve-a2"])
def test_hom_commands_build_one_orbifold_ring(monkeypatch, argv):
    # the command builds the ring with the config's flags and hands it to
    # the check, which builds none of its own
    built = []
    init = OrbifoldRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrbifoldRing, "__init__", counting_init)
    code, _ = invoke(argv)
    assert code == 0
    assert len(built) == 1


def test_solve_a2_golden():
    code, text = invoke(["solve-a2", "--config", A2, "--max-order", "6"])
    assert code == 0
    data = json.loads(text)
    assert len(data["result"]["solutions"]) == 2
    assert any(ex["span"] == [1, 2] for ex in data["result"]["excluded"])


def test_check_assoc_all_rings():
    for extra in (["--ring", "orb"], ["--ring", "classical"],
                  ["--ring", "quantum", "--q", "zeta3"]):
        code, text = invoke(["check-assoc", "--config", A2] + extra)
        assert code == 0
        assert json.loads(text)["report"]["passed"]
    code, _ = invoke(["check-assoc", "--config", A2, "--ring", "quantum"])
    assert code == 2


@pytest.mark.parametrize("q", ["zeta3", "1.5.x", ""])
@pytest.mark.parametrize("ring", ["orb", "classical"])
def test_check_assoc_rejects_q_unless_the_ring_is_quantum(ring, q):
    code, text = invoke(["check-assoc", "--config", A2, "--ring", ring, f"--q={q}"])
    assert code == 2
    assert json.loads(text) == {"error": f"--q applies only to --ring quantum, not --ring {ring}"}


def test_mckay_command():
    code, text = invoke(["mckay", "--group", "D4"])
    assert code == 0
    data = json.loads(text)
    assert data["dynkin"] == "affine D4"
    assert data["dimension_vector_in_kernel"]
    code, _ = invoke(["mckay", "--group", "E9"])
    assert code == 2


# a D_n label over the cap exits 2 with the error of its first conductor
# over the cap, before any list of size n: for odd n - 2 the zeta_4 of the
# linear characters is checked first, then zeta_(2(n-2)).  No label here is
# in `character_table`'s cache.
@pytest.mark.parametrize("label, cap, conductor", [
    ("D2000000", None, 3999996), ("D15", "3", 4), ("D13", "20", 22), ("D14", "20", 24),
])
def test_dihedral_label_over_the_cap_exits_2_before_any_size_n_work(monkeypatch, label,
                                                                     cap, conductor):
    def fail(*args):
        raise AssertionError("a list of size n was built before the cap check")

    if cap is None:
        monkeypatch.delenv("CREPANT_MAX_CONDUCTOR", raising=False)
    else:
        monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", cap)
    # the class orders are the first list of size n that calls gcd
    monkeypatch.setattr(mckay, "gcd", fail)
    code, text = invoke(["mckay", "--group", label])
    assert code == 2
    assert json.loads(text) == {"error": f"conductor {conductor} exceeds cap {cap or 120} "
                                         "(set CREPANT_MAX_CONDUCTOR to raise it)"}


def test_mckay_group_label_spellings():
    # the series letter in either case, then ASCII digits (a leading 0 too)
    reference = invoke(["mckay", "--group", "A3"])
    assert reference[0] == 0
    assert invoke(["mckay", "--group", "a3"]) == reference
    assert invoke(["mckay", "--group", "A03"]) == reference
    code, text = invoke(["mckay", "--group", "A٣"])
    assert (code, json.loads(text)["error"]) == (2, "cannot parse group label 'A٣'")


def _fresh_interpreter(code):
    """(exit code, stdout, stderr) of `code` under `python -S`, where no site
    hook can import a module first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_no_run_loads_argparse_or_gettext():
    # help, usage, a usage error and a command all read argv off the table
    argvs = [CARTAN, AGE, ["--help"], ["cartan", "--help"], ["no-such-command"], ["cartan"],
             ["mckay", "--group", "A2"]]
    code = ("import contextlib, io, sys; from crepant.cli import run\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        print(run(argv, stdout=io.StringIO()))\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert _fresh_interpreter(code) == (0, "0\n0\n0\n0\n1\n2\n0\n[]\n", "")


def test_mckay_command_builds_the_graph_once(monkeypatch):
    calls = []
    build = mckay.mckay_graph

    def counting(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(mckay, "mckay_graph", counting)
    monkeypatch.setattr(cli, "mckay_graph", counting)
    code, _ = invoke(["mckay", "--group", "E8"])
    assert code == 0
    assert len(calls) == 1


def test_reconcile_command():
    code, text = invoke(["reconcile-6-2"])
    assert code == 0
    data = json.loads(text)
    assert data["report"]["best"]["transformation"] == "scale_3_swap_LM"


def test_orb_table_over_point():
    code, text = invoke(["orb-table", "--config", A2_POINT])
    assert code == 0
    table = json.loads(text)["table"]
    # e_1 e_2 = (1/3) sigma over a point base
    assert table["e_1 * e_2"]["untwisted"]["sigma"] == ["1/3"]


def test_text_output_mode():
    code, text = invoke(["--output", "text", "cartan", "--n", "1"])
    assert code == 0
    assert "matrix[0][0]" in text and "{" not in text


def test_output_option_in_either_position():
    before = invoke(["--output", "text", "orb-table", "--config", A1])
    after = invoke(["orb-table", "--config", A1, "--output", "text"])
    assert before == after and before[0] == 0
    assert "{" not in before[1]
    # given after the subcommand only, it overrides the top-level default
    assert invoke(["cartan", "--n", "1", "--output", "json"]) == invoke(["cartan", "--n", "1"])


def test_config_round_trip():
    from crepant.geometry import Geometry
    with open(A2) as fh:
        data = json.load(fh)
    geom = Geometry.from_json(data)
    assert Geometry.from_json(geom.to_json()) == geom


@pytest.mark.parametrize("order", ["0", "-1", "41", str(10**9)])
def test_solve_a2_max_order_bounded_before_computing(monkeypatch, order):
    # 3 * max-order bounds the conductor lcm(3, d) of every root of order d;
    # the default cap 120 allows max-order 1..40
    monkeypatch.delenv("CREPANT_MAX_CONDUCTOR", raising=False)

    def fail(*args, **kwargs):
        raise AssertionError("solve_a2_symmetric ran")

    monkeypatch.setattr("crepant.cli.solve_a2_symmetric", fail)
    code, text = invoke(["solve-a2", "--config", A2, "--max-order", order])
    assert code == 2
    assert "max-order must be between 1 and 40" in json.loads(text)["error"]


def test_solve_a2_max_order_bound_follows_the_cap(monkeypatch):
    monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", "30")
    code, text = invoke(["solve-a2", "--config", A2, "--max-order", "11"])
    assert code == 2
    assert "between 1 and 10" in json.loads(text)["error"]
    code, _ = invoke(["solve-a2", "--config", A2, "--max-order", "2"])
    assert code == 0


@pytest.mark.parametrize("n", ["101", str(10**9)])
def test_cartan_n_bounded_before_computing(monkeypatch, n):
    def fail(*args, **kwargs):
        raise AssertionError("cartan_matrix ran")

    monkeypatch.setattr("crepant.cli.cartan_matrix", fail)
    code, text = invoke(["cartan", "--n", n])
    assert code == 2
    assert json.loads(text)["error"] == "need n <= 100"


# a zero denominator is a malformed token like any other: exit 2, not a
# ZeroDivisionError traceback
@pytest.mark.parametrize("argv", [
    ["qc-table", "--config", A2, "--q", "1/0"],
    ["verify-a1", "--config", A1, "--q", "-1", "--scalar", "1/0"],
    ["verify-a1", "--config", A1, "--q", "-1", "--scalar", "zeta4/0"],
], ids=["q", "scalar", "zeta-scalar"])
def test_zero_denominator_exits_2(argv):
    code, text = invoke(argv)
    assert code == 2
    assert "zero denominator" in json.loads(text)["error"]


@pytest.mark.parametrize("argv", [
    ["qc-table", "--config", A2, "--q=-1/0"],
    ["verify-a1", "--config", A1, "--q=-1", "--scalar=-1/0"],
], ids=["q", "scalar"])
def test_zero_denominator_names_the_signed_token(argv):
    # the whole factor, sign included, as for `-i/0` and a config token
    assert invoke(argv) == (2, '{"error": "zero denominator in \'-1/0\'"}\n')


def _write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_zero_denominator_in_config_exits_2(tmp_path):
    with open(A1) as fh:
        data = json.load(fh)
    data["classes"]["k"] = "1/0"
    code, text = invoke(["res-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert "zero denominator" in json.loads(text)["error"]


@pytest.mark.parametrize("field, value, message", [
    ("n", 2.7, "n must be an integer"),
    ("n", 2.0, "n must be an integer"),
    ("n", True, "n must be an integer"),
    ("n", "2", "n must be an integer"),
    ("n", 101, "need 1 <= n <= 100"),
    ("n", 10**9, "need 1 <= n <= 100"),
    ("dim", 1.9, "dim must be an integer"),
    ("dim", False, "dim must be an integer"),
    ("dim", 101, "need 0 <= dim <= 100"),
    ("dim", 10**9, "need 0 <= dim <= 100"),
])
def test_config_n_and_dim_checked_before_computing(monkeypatch, tmp_path, field, value, message):
    def fail(*args, **kwargs):
        raise AssertionError("a ring was built")

    monkeypatch.setattr("crepant.cli.OrbifoldRing", fail)
    with open(A2) as fh:
        data = json.load(fh)
    if field == "n":
        # l + m = (n + 1) k holds for every n
        data["n"], data["classes"] = value, {"l": "0", "m": "0", "k": "0"}
    else:
        data["base"]["dim"] = value
    code, text = invoke(["orb-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert message in json.loads(text)["error"]


@pytest.mark.parametrize("classes", [["1"], "1", 3, None], ids=["list", "string", "int", "null"])
def test_non_object_classes_exits_2(tmp_path, classes):
    with open(A2) as fh:
        data = json.load(fh)
    data["classes"] = classes
    code, text = invoke(["orb-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert "classes must be a JSON object" in json.loads(text)["error"]


@pytest.mark.parametrize("field, value", [
    ("k", "0.5"), ("k", "1e3"), ("k", " 1_0 "), ("k", "+1"), ("k", 1.5), ("k", 1.0),
    ("k", " 1"), ("k", True), ("k", None), ("l", "2.0"), ("m", "4/2.0"),
], ids=["decimal", "exponent", "underscore", "plus", "float", "integral-float", "space",
        "bool", "null", "l-decimal", "m-decimal-denominator"])
def test_config_class_tokens_follow_the_q_grammar(tmp_path, field, value):
    # the same spellings exit 2 in --q, so they exit 2 in a config too
    with open(A2) as fh:
        data = json.load(fh)
    data["classes"][field] = value
    code, text = invoke(["res-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert json.loads(text)["error"].startswith(f"invalid config: classes.{field}: ")


@pytest.mark.parametrize("classes", [
    {"l": 1, "m": 2, "k": 1},
    {"l": "-3", "m": "6", "k": "1"},
    {"l": "2/3", "m": "7/3", "k": 1},
], ids=["integers", "negative", "fraction"])
def test_config_class_tokens_in_either_spelling(tmp_path, classes):
    # a JSON integer and its string token give the same answer
    with open(A2) as fh:
        data = json.load(fh)
    data["classes"] = classes
    code, text = invoke(["res-table", "--config", _write_config(tmp_path, data)])
    canonical = {key: str(value) for key, value in classes.items()}
    data["classes"] = canonical
    assert code == 0
    assert json.loads(text)["geometry"]["classes"] == canonical
    assert (code, text) == invoke(["res-table", "--config", _write_config(tmp_path, data)])


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["classes"].pop("l"), "invalid config: classes.l is required"),
    (lambda data: data["classes"].pop("m"), "invalid config: classes.m is required"),
    (lambda data: data.update(base="point"),
     "invalid config: base must be a JSON object, got 'point'"),
    (lambda data: data["base"].pop("model"), "invalid config: base.model is required"),
    (lambda data: data.pop("n"), "invalid config: n is required"),
], ids=["no-l", "no-m", "string-base", "no-model", "no-n"])
def test_config_shape_errors_name_the_field(tmp_path, edit, message):
    with open(A2) as fh:
        data = json.load(fh)
    edit(data)
    code, text = invoke(["orb-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert json.loads(text)["error"] == message


@pytest.mark.parametrize("flags, message", [
    ("x", "invalid config: flags must be a JSON object, got 'x'"),
    (["1"], "invalid config: flags must be a JSON object, got ['1']"),
    ({"y": 1}, "invalid config: flags.y: unknown flag"),
    ({"twist_self": "1", "y": 1}, "invalid config: flags.y: unknown flag"),
    ({"z": 1, "y": 1}, "invalid config: flags.y: unknown flag"),
    ({"twist_self": "2"}, "invalid config: twist_self must be one of "
                          "('1', '-1', '1/(n+1)', '-1/(n+1)')"),
    ({"twist_self": 1}, "invalid config: twist_self must be one of "
                        "('1', '-1', '1/(n+1)', '-1/(n+1)')"),
], ids=["string", "list", "unknown", "unknown-beside-known", "two-unknown", "bad-twist",
        "integer-twist"])
def test_config_flags_errors_name_the_field(tmp_path, flags, message):
    with open(A2) as fh:
        data = json.load(fh)
    data["flags"] = flags
    code, text = invoke(["orb-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert json.loads(text)["error"] == message


def test_space_after_a_q_comma_exits_2():
    # a --q component follows the grammar of a config class token: no space
    code, text = invoke(["qc-table", "--config", A2, "--q", "2, 3"])
    assert code == 2
    assert "cannot parse scalar factor ' 3'" in json.loads(text)["error"]


@pytest.mark.parametrize("option, value", [
    ("--q", "1/2/3"), ("--q", " 1 / 2 "), ("--q", "zeta 3"), ("--q", "- 1"),
    ("--q", "1\n*2"), ("--scalar", "1/2 * zeta8"), ("--scalar", "2/3/0"),
    ("--q", " 1/2 "), ("--q", "-1 "), ("--scalar", " i/2"), ("--scalar", "i/2 "),
], ids=["double-denominator", "inner-spaces", "zeta-space", "sign-space", "newline",
        "spaced-product", "double-denominator-zero", "q-surrounding-space",
        "q-trailing-space", "scalar-leading-space", "scalar-trailing-space"])
def test_scalar_grammar_rejects_inner_space_and_second_denominator(option, value):
    argv = ["verify-a1", "--config", A1, "--q", "-1", "--scalar", "1"]
    argv[argv.index(option) + 1] = value
    code, text = invoke(argv)
    assert code == 2
    assert "cannot parse scalar factor" in json.loads(text)["error"]


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["base"].update(dimm=2), "base.dimm: unknown key"),
    (lambda data: data["classes"].update(kk="7"), "classes.kk: unknown key"),
    (lambda data: data.update(z=1), "z: unknown key"),
    (lambda data: (data["base"].update(dimm=2), data["classes"].update(kk="7")),
     "base.dimm: unknown key"),
    (lambda data: (data.update(a=1), data["base"].update(dimm=2)), "a: unknown key"),
], ids=["base", "classes", "top-level", "first-sorted", "top-level-sorted-first"])
def test_unknown_config_keys_exit_2(tmp_path, edit, message):
    with open(A2) as fh:
        data = json.load(fh)
    edit(data)
    code, text = invoke(["res-table", "--config", _write_config(tmp_path, data)])
    assert code == 2
    assert json.loads(text)["error"] == f"invalid config: {message}"


def test_l_and_m_are_unknown_keys_at_n_1(tmp_path):
    # the config of the parent's report: it used to run as P^0 with "dimm"
    # and "kk" ignored, and l is not a class for n = 1
    data = {"n": 1, "base": {"model": "projective_space", "dimm": 2},
            "classes": {"k": "1", "kk": "7"}}
    code, text = invoke(["res-table", "--config", _write_config(tmp_path, data)])
    assert (code, json.loads(text)["error"]) == (2, "invalid config: base.dimm: unknown key")
    for key in "lm":
        data = {"n": 1, "base": {"model": "projective_space", "dim": 1},
                "classes": {"k": "1", key: "5"}}
        code, text = invoke(["res-table", "--config", _write_config(tmp_path, data)])
        assert (code, json.loads(text)["error"]) == (2, f"invalid config: classes.{key}: unknown key")


@pytest.mark.parametrize("argv", [
    ["gw", "--config", A2, "--span", " 1,2", "--insert", "E1,E2,E2"],
    ["gw", "--config", A2, "--span", "+1,2", "--insert", "E1,E2,E2"],
    ["gw", "--config", A2, "--span", "1,2 ", "--insert", "E1,E2,E2"],
    ["gw", "--config", A2, "--span", "1,٢", "--insert", "E1,E2,E2"],
    ["gw", "--config", A2, "--span", "1,2", "--insert", "E1, E2,E2"],
    ["gw", "--config", A2, "--span", "1,2", "--insert", "E1,E2,E2 "],
    ["gw", "--config", A2, "--span", "1,2", "--insert", "E1,E2,E٢"],
    ["gw", "--config", A2, "--span", "1,2", "--multiple", " 2", "--insert", "E1,E2,E2"],
    ["gw", "--config", A2, "--span", "1,2", "--multiple", "1_0", "--insert", "E1,E2,E2"],
    ["age", "--order", "3", "--exponents", " 1,+2"],
    ["age", "--order", "3", "--exponents", "1,+2"],
    ["age", "--order", "+3", "--exponents", "1,2"],
    ["cartan", "--n", " 2"],
    ["cartan", "--n", "٢"],
    ["cartan", "--n", ""],
    ["solve-a2", "--config", A2, "--max-order", "1_2"],
    ["qc-table", "--config", A2, "--q", "٣"],
    ["mckay", "--group", "A٣"],
    ["mckay", "--group", "E８"],
    ["mckay", "--group", " A3"],
    ["mckay", "--group", "E8 "],
    ["mckay", "--group", "A-0"],
], ids=["span-leading-space", "span-plus", "span-trailing-space", "span-arabic-digit",
        "insert-space", "insert-trailing-space", "insert-arabic-digit", "multiple-space",
        "multiple-underscore", "exponents-space-and-plus", "exponents-plus", "order-plus",
        "n-space", "n-arabic-digit", "n-empty", "max-order-underscore", "q-arabic-digit",
        "group-arabic-digit", "group-fullwidth-digit", "group-leading-space",
        "group-trailing-space", "group-sign"])
def test_cli_integers_follow_one_grammar(argv):
    # every CLI integer is -?N in ASCII digits, as parse_int reads it
    assert invoke(argv)[0] == 2


def test_insertions_echo_the_input():
    code, text = invoke(["gw", "--config", A2, "--span", "1,2", "--insert", "e1,E2,sigma"])
    assert code == 0
    assert json.loads(text)["insertions"] == ["e1", "E2", "sigma"]
    code, text = invoke(["age", "--order", "3", "--exponents", "-1,2"])
    assert (code, json.loads(text)["exponents"]) == (0, [-1, 2])


def test_closed_stdout_exits_0_without_a_traceback():
    # the reader goes away before any output (`crepant mckay --group E8 |
    # head -c 20` once head has its bytes): exit 0, nothing on stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-m", "crepant.cli", "mckay", "--group", "E8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_import_loads_no_dataclasses_inspect_or_typing():
    # each adds to every command's start-up; argparse also brings gettext
    code = ("import sys, crepant.cli; print(sorted({'argparse', 'dataclasses', 'gettext', "
            "'inspect', 'typing'} & set(sys.modules)))")
    assert _fresh_interpreter(code) == (0, "[]\n", "")


def _near_tokens(alphabet, max_size):
    """Arbitrary text, or text over `alphabet`, which reaches the option's
    parser past its first character more often."""
    return st.text(max_size=10) | st.text(alphabet=alphabet, max_size=max_size)


# each free-text option of the CLI, with the argv and config around it and
# strings that often come close to its grammar; labels have one digit at
# most, because a valid large McKay label is slow, not wrong
FUZZED_OPTIONS = {
    "--q": (["qc-table"], A2, _near_tokens("0123456789-+/*^,.zetai ", 14)),
    "--scalar": (["verify-a1", "--q=-1"], A1, _near_tokens("0123456789-+/*^,.zetai ", 14)),
    "--group": (["mckay"], None, _near_tokens("ADEFade-+ ", 2)
                | st.from_regex(r"\A[ADEade][0-9]\Z")),
    "--span": (["gw", "--insert", "E1,E1,E2"], A2, _near_tokens("0123456789,- ", 6)),
    "--insert": (["gw", "--span", "1,2"], A2, _near_tokens("Ee0123sigma, ", 12)),
    "--exponents": (["age", "--order", "3"], None, _near_tokens("0123456789,-+_ ", 12)),
    "--max-order": (["solve-a2"], A2, _near_tokens("0123456789-+_ ", 3)),
    "--multiple": (["gw", "--span", "1,2", "--insert", "E1,E1,E2"], A2,
                   _near_tokens("0123456789-+_. ", 3)),
    "--order": (["age", "--exponents", "1,2"], None, _near_tokens("0123456789-+_. ", 3)),
    "--n": (["cartan"], None, _near_tokens("0123456789-+_. ", 3)),
}


def _assert_run_contract(argv):
    """Exit 0, 2 or 3 with one JSON document on stdout, {"error": ...} on
    exit 2, and nothing on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = invoke(argv)
    assert code in (0, 2, 3), (argv, code)
    assert err.getvalue() == "", argv
    report = json.loads(text)
    if code == 2:
        assert list(report) == ["error"], (argv, report)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_keeps_its_contract_on_arbitrary_input(tmp_path_factory, data):
    # arbitrary strings for every free-text option, and arbitrary JSON
    # values for the config field classes.l: no exception escapes `run`
    option = data.draw(st.sampled_from([*FUZZED_OPTIONS, "classes.l"]))
    if option == "classes.l":
        config = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
        config.write_text(json.dumps({"n": 2, "base": {"model": "projective_space", "dim": 1},
                                      "classes": {"l": data.draw(JSON_VALUES), "m": "2",
                                                  "k": "1"}}))
        _assert_run_contract(["orb-table", "--config", str(config)])
        return
    argv, config, values = FUZZED_OPTIONS[option]
    _assert_run_contract([*argv, f"{option}={data.draw(values)}"]
                         + (["--config", config] if config else []))


def _zeros(draw):
    return "0" * draw(st.integers(0, 2))


def _rational(draw, value):
    """The Fraction `value` respelt: leading zeros, `-0` for zero, and a
    fraction scaled by 1 to 3 or over 1."""
    scale = draw(st.integers(1, 3))
    sign = "-" if value < 0 or (value == 0 and draw(st.booleans())) else ""
    num = f"{sign}{_zeros(draw)}{abs(value.numerator) * scale}"
    den = value.denominator * scale
    return num if den == 1 and draw(st.booleans()) else f"{num}/{_zeros(draw)}{den}"


RATIONALS = st.fractions(-4, 4, max_denominator=6)


@st.composite
def _scalar_spellings(draw):
    """(canonical, respelt) tokens of one value, type and conductor: a
    rational, or c zeta_n^k as a product in either order, or as a signed
    unit over D when c = +-1/D; the unit with leading zeros, a power k + jn,
    and `i` for zeta4."""
    c = draw(RATIONALS)
    if c == 0 or draw(st.booleans()):
        return format_rational(c), _rational(draw, c)
    n, k = draw(st.sampled_from([(4, 1), (8, 1), (3, 2), (4, 3), (5, 2), (8, 5)]))
    power = k + n * draw(st.integers(0, 2))
    unit = "i" if (n, k) == (4, 1) and draw(st.booleans()) else (
        f"zeta{_zeros(draw)}{n}" + ("" if power == 1 and draw(st.booleans()) else f"^{power}"))
    canonical = f"{format_rational(c)}*zeta{n}^{k}"
    if abs(c.numerator) == 1 and draw(st.booleans()):
        den = f"/{c.denominator}" if c.denominator > 1 else ""
        return canonical, ("-" if c < 0 else "") + unit + den
    return canonical, "*".join(draw(st.permutations([_rational(draw, c), unit])))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_scalar_spelling_gives_the_canonical_answer(data):
    # one value, type and conductor per `--q` and `--scalar` token, in its
    # canonical and another spelling: the same exit code and stdout
    (a, a2), (b, b2) = data.draw(_scalar_spellings()), data.draw(_scalar_spellings())
    for canonical, respelt in ((["qc-table", "--config", A2, f"--q={a},{b}"],
                                ["qc-table", "--config", A2, f"--q={a2},{b2}"]),
                               (["verify-a1", "--config", A1, f"--q={a}", f"--scalar={b}"],
                                ["verify-a1", "--config", A1, f"--q={a2}", f"--scalar={b2}"])):
        assert invoke(respelt) == invoke(canonical), respelt


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_integer_spelling_gives_the_canonical_answer(data):
    # every CLI integer and a McKay label, canonical and with leading zeros
    # (the label's letter in either case); `gw --insert` is left out, since
    # `gw` echoes its tokens verbatim
    def ints(low, high, count=1):
        values = [data.draw(st.integers(low, high)) for _ in range(count)]
        return ",".join(map(str, values)), ",".join(_zeros(data.draw) + str(v) for v in values)

    series = data.draw(st.sampled_from("ADE"))
    n, n2 = ints(*{"A": (1, 8), "D": (4, 8), "E": (6, 8)}[series])
    commands = {
        "solve-a2": ["--config", A2, ("--max-order", ints(1, 6))],
        "gw": ["--config", A2, ("--span", ints(1, 2, 2)), ("--multiple", ints(1, 3)),
               "--insert=E1,E1,E2"],
        "age": [("--order", ints(1, 6)), ("--exponents", ints(0, 6, 2))],
        "cartan": [("--n", ints(1, 8))],
        "mckay": [("--group", (series + n, data.draw(st.sampled_from([series, series.lower()]))
                               + n2))],
    }
    command = data.draw(st.sampled_from(sorted(commands)))
    canonical, respelt = ([command, *(arg if isinstance(arg, str) else f"{arg[0]}={arg[1][side]}"
                                      for arg in commands[command])] for side in (0, 1))
    assert invoke(respelt) == invoke(canonical), respelt


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_config_class_spelling_gives_the_canonical_answer(tmp_path_factory, data):
    # a JSON integer, its string and any respelling of the string, on
    # classes with l + m = 3k, which A_2 needs
    l, k = data.draw(RATIONALS), data.draw(RATIONALS)
    values = [l, 3 * k - l, k]
    spelt = [v.numerator if v.denominator == 1 and data.draw(st.booleans())
             else _rational(data.draw, v) for v in values]
    outputs = []
    for tokens in ([format_rational(v) for v in values], spelt):
        config = tmp_path_factory.getbasetemp() / "spelt_config.json"
        config.write_text(json.dumps({"n": 2, "base": {"model": "projective_space", "dim": 1},
                                      "classes": dict(zip("lmk", tokens))}))
        outputs.append(invoke(["res-table", "--config", str(config)]))
    assert outputs[0] == outputs[1], spelt


@pytest.mark.parametrize("argv", [
    ["mckay", "--group=--"],
    ["cartan", "--n=--"],
    ["orb-table", "--config=--"],
    ["check-assoc", "--config", A2, "--ring=--"],
    ["--output=--", "cartan", "--n", "2"],
], ids=["group", "n", "config", "ring", "output"])
def test_double_dash_as_a_value_exits_2(argv):
    # after `=` any text is the value, but no handler can take `--`
    code, text = invoke(argv)
    assert code == 2
    assert json.loads(text)["error"].endswith("'--' is not a value")


JSON_STRINGS = st.text(max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é ü", "  ", "\U0001d11e", "E_1 * E_2"])
JSON_LEAVES = (JSON_STRINGS | st.integers() | st.integers(-10**40, 10**40) | st.booleans()
               | st.none() | st.floats())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(JSON_STRINGS, inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=2)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    # nested dicts and lists, str keys and values with quotes, backslashes,
    # control and non-ASCII characters, big ints, floats, empty containers;
    # tuples and int keys go the way json.dumps takes them
    assert cli.render(value, "json") == json.dumps(value, indent=2)
    assert cli.render({"report": value}, "json") == json.dumps({"report": value}, indent=2)


# -- the table parser against the argparse path it replaced -------------------

# argparse reads a token that starts with `-` as an option unless it is `-`,
# a negative number (this pattern, argparse's own) or holds a space
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _spaced_alike(spelling, value):
    """Whether the token `value` after the option token `spelling` is read
    alike on both paths: as its value, or as no value.  The table parser
    takes any token that does not start with `--`.  The argparse path took
    a token that argparse reads as an argument, and a single-dash token
    after --q, --scalar or --exponents spelt out, which it joined to them;
    elsewhere `--n -x` was a usage error, and `--n "--x y"` the value."""
    if value.startswith("--"):
        return " " not in value
    return (not value.startswith("-") or value == "-" or bool(NEGATIVE_NUMBER.match(value))
            or spelling in reference.SIGNED_OPTIONS)


# one line per command whose every value is valid: the options drawn from
# it reach the handlers often, and the paths' stdout is compared there
BASE_LINES = {
    "orb-table": {"--config": A1},
    "res-table": {"--config": A2},
    "gw": {"--config": A2, "--span": "1,2", "--insert": "E1,E2,E2"},
    "qc-table": {"--config": A2, "--q": "zeta3"},
    "verify-a1": {"--config": A1, "--q": "-1", "--scalar": "i/2"},
    "solve-a2": {"--config": A2, "--max-order": "2"},
    "check-assoc": {"--config": A1, "--ring": "quantum", "--q": "-1/2"},
    "reconcile-6-2": {},
    "mckay": {"--group": "A2"},
    "cartan": {"--n": "2"},
    "age": {"--order": "3", "--exponents": "-1,2"},
}
# signed, empty and `--` values, for any option: none names a file, and no
# config path starts with `-`
ANY_VALUES = st.sampled_from(
    ["", "--", "-", "-1", "-1/2", "-1,2", "-i/2", "-x", "0", "1", "zeta3"])
VALUES = {
    "--config": st.sampled_from([A1, A2, A2_POINT, "/no/such/config.json"]),
    "--ring": st.sampled_from(["orb", "classical", "quantum", "ring"]),
    "--output": st.sampled_from(["json", "text", "xml"]),
    **{option: pool for option, (_, _, pool) in FUZZED_OPTIONS.items()},
}
VALUES["--q"] |= st.sampled_from(["1", "-1,-1"])  # poles
STRAYS = ["foo", "1", "", "a b", "cartan", "--", "-", "-5", "-x", "-1/2", "E1"]
UNKNOWN_OPTIONS = ["--bogus", "--bogus=1", "--nope=-1/2", "--=x"]


def _prefixes(options):
    """(unique, ambiguous): each option's name and its prefixes that no
    other option shares, and the prefixes of two or more options."""
    names = [opt.name for opt in options]
    prefixes = {name[:k] for name in names for k in range(3, len(name) + 1)}
    sharing = {p: [name for name in names if name.startswith(p)] for p in prefixes}
    unique = {name: [p for p in sorted(prefixes) if sharing[p] == [name] or p == name]
              for name in names}
    return unique, sorted(p for p, matches in sharing.items() if len(matches) > 1)


@st.composite
def _option_unit(draw, spellings, name, value):
    """An option as `--opt=VALUE`, `--opt VALUE` or `--opt` alone, under one
    of its spellings, with its value or a drawn one."""
    spelling = draw(st.sampled_from(spellings[name]))
    if draw(st.sampled_from([False, False, True])):
        value = draw(VALUES.get(name, ANY_VALUES) | ANY_VALUES)
    style = draw(st.sampled_from(["=", " ", "=", " ", "alone"]))
    if style == "alone":
        return [spelling], spelling
    if style == " " and _spaced_alike(spelling, value):
        return [spelling, value], None
    return [f"{spelling}={value}"], None


@st.composite
def _command_lines(draw):
    """(argv, spellings of the options left without a value): a command,
    or an unknown one, with its base line respelt, restyled, revalued,
    repeated, shuffled or left out, among help, --output, unknown options,
    ambiguous prefixes and stray tokens, and --output and help before the
    command too."""
    name = draw(st.sampled_from(sorted(BASE_LINES)))
    unique, ambiguous = _prefixes(cli.COMMAND_TABLE[name].options)
    top_unique, _ = _prefixes((cli.HELP, cli.OUTPUT))
    extras = _option_unit(unique, "--output", "text") | st.sampled_from(
        ["-h", "--help", "--he", *STRAYS, *UNKNOWN_OPTIONS, *ambiguous,
         "--n=2", "--group=A2", "--q=zeta3", f"--config={A1}"]).map(lambda tok: ([tok], None))
    units = [draw(_option_unit(unique, opt, value)) if isinstance(unit, list) else unit
             for opt, value in BASE_LINES[name].items()
             for unit in [[]] * draw(st.sampled_from([1, 1, 1, 0, 2]))]
    units += draw(st.lists(extras, max_size=3))
    units = draw(st.permutations(units))
    # before the command: --output, help, unknown options and tokens without `-`
    top = draw(st.lists(st.one_of(
        _option_unit(top_unique, "--output", "json"),
        st.sampled_from([["-h"], ["--help"], ["--bogus"], ["--=x"], ["foo"], [""], ["--"]])
        .map(lambda tokens: (tokens, None))), max_size=2))
    command = draw(st.sampled_from([name, name, name, "no-such-command"]))
    argv, alone = [], []
    for tokens, spelling in [*top, ([command], None), *units]:
        if alone:
            assume(_spaced_alike(alone[-1], tokens[0]))
            alone.pop()
        argv += tokens
        if spelling:
            alone.append(spelling)
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_command_lines())
def test_table_parser_answers_as_the_argparse_path(argv):
    # the exit code of the argparse path for every line, and its stdout
    # where it printed any: help, usage, a report, a pole or a JSON error
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()):
        mp.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
        parent = io.StringIO()
        code = reference.argparse_run(argv, parent)
        expected = parent.getvalue()
        got = invoke(argv)
    assert got[0] == code, argv
    if code != 2 or expected:
        assert got[1] == expected, argv


@pytest.mark.parametrize("spaced, joined", [
    (["verify-a1", "--config", A1, "--q", "-1", "--sc", "-i/2"],
     ["verify-a1", "--config", A1, "--q", "-1", "--scalar=-i/2"]),
    (["age", "--order", "3", "--exp", "-1,2"], ["age", "--order", "3", "--exponents=-1,2"]),
    (["cartan", "--n", "-h"], ["cartan", "--n=-h"]),
], ids=["scalar-prefix", "exponents-prefix", "dash-h"])
def test_a_spaced_value_is_any_token_not_starting_with_two_dashes(spaced, joined):
    # a shortened option takes a signed value after a space too, and -h
    # after an option is its value (argparse read both as options)
    assert invoke(spaced) == invoke(joined)


@pytest.mark.parametrize("argv, message", [
    (["age", "--o", "3", "--exponents", "1"],
     "ambiguous option: --o could match --order, --output"),
    (["age", "-h", "--o=3"], "ambiguous option: --o=3 could match --order, --output"),
    (["cartan", "--n"], "argument --n: expected one argument"),
    (["cartan", "--n", "--", "2"], "argument --n: expected one argument"),
    (["cartan", "--n", "2", "--"], "unrecognized arguments: --"),
    (["cartan", "--n", "2", "-", "x"], "unrecognized arguments: - x"),
    (["cartan", "--n", "2", "--bogus"], "unrecognized arguments: --bogus"),
    (["check-assoc", "--config", A2, "--ring", "ring", "-h"],
     "argument --ring: invalid choice: 'ring' (choose from 'orb', 'classical', 'quantum')"),
    (["cartan", "--he=1"], "argument -h/--help: ignored explicit argument '1'"),
    (["--output", "xml", "cartan", "--n", "2"],
     "argument --output: invalid choice: 'xml' (choose from 'json', 'text')"),
    (["qc-table", "--config", A2], "the following arguments are required: --q"),
], ids=["ambiguous", "ambiguous-before-help", "missing-value", "double-dash-value",
        "double-dash", "dash", "unknown", "choice-before-help", "help-value", "top-output",
        "required"])
def test_a_usage_error_names_the_option_on_stderr(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = invoke(argv)
    prog = "crepant" if argv[0].startswith("-") else f"crepant {argv[0]}"
    assert (code, text) == (2, "")
    assert err.getvalue().startswith("usage: ")
    assert err.getvalue().endswith(f"\n{prog}: error: {message}\n")


def test_help_wins_over_a_later_error_and_an_unknown_option():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results = [invoke(argv) for argv in (["cartan", "--bogus", "x", "-h", "--n"],
                                             ["cartan", "--n", "2", "--help=1", "--help"],
                                             ["-h", "cartan", "--=x"])]
    assert [code for code, _ in results] == [0, 2, 2]
    assert results[0][1].startswith("usage: crepant cartan [-h] --n N")
    # a later option overrides an earlier one, --output on either side
    assert invoke(["--output", "json", "cartan", "--n=1", "--output", "text", "--n", "2"]) == \
        invoke(["--output", "text", "cartan", "--n", "2"])
