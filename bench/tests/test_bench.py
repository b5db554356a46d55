"""Tests of the benchmark itself: generators, the oracle, the traced run.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def traced(items, tmp_path, name):
    plan = run.write_plan(items, tmp_path / name)
    report, failures = run.run_pass(plan, items, spans_out=tmp_path / f"{name}.spans.json")
    assert failures == []
    return report["trace"]["stats"]


def test_generators_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)


def test_digests_cover_every_seed():
    recorded = oracle.recorded_digests()
    assert {oracle.digest_key(i) for i in workloads.digest_pool()} == set(recorded)
    for seed in range(50):
        for item in workloads.build("tables_cyclotomic", seed):
            if item["expect"]["kind"] in ("table", "digest", "mckay"):
                assert oracle.digest_key(item) in recorded, item["id"]


def test_pole_items_have_exactly_one_pole():
    for seed in range(20):
        for item in workloads.build("tables_cyclotomic", seed):
            if item["expect"]["kind"] == "pole":
                tokens = item["argv"][1].removeprefix("--q=").split(",")
                angles = []
                for tok in tokens:
                    order, _, power = tok.removeprefix("zeta").partition("^")
                    angles.append(oracle.Fraction(int(power or 1), int(order)))
                assert oracle.pole_spans(angles) == [tuple(item["expect"]["span"])]


def test_oracle_rejects_wrong_answers():
    pole = {"expect": {"kind": "pole", "span": [2, 3]}}
    assert oracle.check(pole, 3, json.dumps({"error": "pole", "span": [2, 3]}), {}) is None
    assert oracle.check(pole, 3, json.dumps({"error": "pole", "span": [1, 3]}), {})
    assert oracle.check(pole, 0, "{}", {})
    a1 = {"expect": {"kind": "verify_a1", "passed": False}}
    assert oracle.check(a1, 0, json.dumps({"report": {"passed": True}}), {})
    age = {"expect": {"kind": "age", "age": "3/2"}}
    assert oracle.check(age, 0, json.dumps({"age": "1/2"}), {})
    cartan = {"expect": {"kind": "cartan", "n": 2}}
    good = {"matrix": [["-2", "1"], ["1", "-2"]], "inverse": [["-2/3", "-1/3"], ["-1/3", "-2/3"]]}
    assert oracle.check(cartan, 0, json.dumps(good), {}) is None
    good["inverse"][0][0] = "2/3"
    assert oracle.check(cartan, 0, json.dumps(good), {})


def test_solve_a2_oracle():
    z3, z3bar = {"conductor": 3, "coeffs": ["0", "1"]}, {"conductor": 3, "coeffs": ["-1", "-1"]}
    excluded = [{"q": "1", "span": s} for s in ([1, 1], [1, 2], [2, 2])]
    excluded.append({"q": "-1", "span": [1, 2]})
    sols = [{"q": z3, "a": {"conductor": 3, "coeffs": ["2", "1"]},
             "b": {"conductor": 3, "coeffs": ["-1", "1"]}},
            {"q": z3bar, "a": {"conductor": 3, "coeffs": ["1", "-1"]},
             "b": {"conductor": 3, "coeffs": ["-2", "-1"]}}]
    item = {"expect": {"kind": "solve_a2_pair", "max_order": 12}}

    def out(solutions, excl):
        return json.dumps({"result": {"solutions": solutions, "excluded": excl}})

    assert oracle.check(item, 0, out(sols, excluded), {}) is None
    assert oracle.check(item, 0, out(sols[:1], excluded), {})
    assert oracle.check(item, 0, out(sols, excluded[:3]), {})
    # the same values written in Q(zeta_6) still match
    z6 = {"conductor": 6, "coeffs": ["-1", "1"]}
    assert oracle.root_angle(z6) == oracle.Fraction(1, 3)


def test_traced_counts_repeat(tmp_path):
    items = ([i for i in workloads.build("solve_a2", 3) if i["argv"][0] == "verify-a1"]
             + workloads.build("tables_cyclotomic", 3)[:8]
             + workloads.build("assoc_rational", 3)[5:10])
    first = run.counts_of(traced(items, tmp_path, "first"))
    second = run.counts_of(traced(items, tmp_path, "second"))
    assert first == second
    assert first["scalars.mul"][0] > 0


def test_assoc_rational_constructs_no_cycnum(tmp_path):
    stats = traced(workloads.build("assoc_rational", 1), tmp_path, "assoc")
    assert stats["scalars.cycnum_new"]["calls"] == 0
    assert stats["geometry.graded_mul"]["calls"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero, printing no result."""
    bench = tmp_path / "bench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve_a2", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
