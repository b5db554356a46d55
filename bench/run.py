"""crepant benchmark: exact-verification workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's items are generated from the
seed (see workloads.py) and run as passes, one after the other.  Each pass
is a fresh child process (child.py) with a fixed environment, so the cold
module caches cost what a CLI user pays.  Every item's output is checked
against a known answer (oracle.py).  Passes repeat until S seconds have
been measured (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics: verdict_s (wall time of one pass,
set-up excluded), setup_s (child start to `crepant` imported and configs
parsed) and peak_rss_mb, each the median over the run.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of tracing.py.
The last line of stdout is one JSON object; a human-readable summary goes to
stderr and the full record to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 2
TIME_LIMIT_S = 170.0
CPUS = sorted(os.sched_getaffinity(0))
# the CLI commands the workloads call; listed here, not imported, so the metric
# names do not depend on the program under test
COMMANDS = ("orb-table", "res-table", "gw", "qc-table", "verify-a1", "solve-a2",
            "check-assoc", "reconcile-6-2", "mckay", "cartan", "age")

# Every child gets this environment and nothing else.  The conductor cap is
# re-read on every CycNum construction, so it is pinned to its default.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "CREPANT_MAX_CONDUCTOR": "120",
    "LC_ALL": "C",
}

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SCALAR_OPS = ("mul", "add", "sub", "inv", "embed", "key")
# conductors 1..12 one by one (solve_a2 reaches order 12), larger ones in ranges
CONDUCTOR_BUCKETS = tuple((c, c) for c in range(1, 13)) + ((13, 30), (31, 60), (61, 120))
TIMED = (
    "geometry.graded_mul", "geometry.graded_add", "geometry.total_mul",
    "orbifold.OrbifoldRing.mul", "resolution.ResolutionRing.mul",
    "quantum.QuantumRing.mul", "gw.gw_invariant", "verify.HomChecker.check",
)
COUNTED = ("cartan.cartan_matrix", "cartan.intersection", "quantum.evaluate",
           "verify.HomChecker.new")
CACHED = ("resolution.ResolutionRing.ee_product", "quantum.QuantumRing.ee_product",
          "quantum.QPoint.atom", "verify.HomChecker.orb_product")
SELF_ONLY = ("verify.solve_a2_symmetric", "verify.check_associativity",
             "verify.check_pairing_nondegenerate", "verify.reconcile_6_2",
             "mckay.character_table", "mckay.mckay_graph", "mckay.resolution_graph")
EMPTY_STAT = {"calls": 0, "hits": 0, "self_s": 0.0, "total_s": 0.0, "by_conductor": {}}


def _stat(stats, layer):
    return stats.get(layer, EMPTY_STAT)


def _field(layer, field):
    return lambda stats, _: _stat(stats, layer)[field]


def _hit_ratio(layer):
    def value(stats, _):
        s = _stat(stats, layer)
        return s["hits"] / s["calls"] if s["calls"] else 0.0
    return value


def _conductor_calls(layer, lo, hi):
    return lambda stats, _: sum(n for c, n in _stat(stats, layer)["by_conductor"].items()
                                if lo <= int(c) <= hi)


def _layer_metric_table():
    """(name, unit, better, value from (trace stats, overhead)) per metric."""
    table = [("scalars.cycnum_new.calls", "count", "lower",
              _field("scalars.cycnum_new", "calls"))]
    for op in SCALAR_OPS:
        table += [(f"scalars.{op}.calls", "count", "lower", _field(f"scalars.{op}", "calls")),
                  (f"scalars.{op}.self_s", "s", "lower", _field(f"scalars.{op}", "self_s"))]
    for op in ("mul", "embed"):
        for lo, hi in CONDUCTOR_BUCKETS:
            bucket = f"c{lo}" if lo == hi else f"c{lo}-{hi}"
            table.append((f"scalars.{op}.calls.{bucket}", "count", "lower",
                          _conductor_calls(f"scalars.{op}", lo, hi)))
    for layer in TIMED:
        table += [(f"{layer}.calls", "count", "lower", _field(layer, "calls")),
                  (f"{layer}.self_s", "s", "lower", _field(layer, "self_s"))]
    table += [(f"{layer}.calls", "count", "lower", _field(layer, "calls"))
              for layer in COUNTED]
    for layer in CACHED:
        table += [(f"{layer}.calls", "count", "lower", _field(layer, "calls")),
                  (f"{layer}.hit_ratio", "ratio", "higher", _hit_ratio(layer))]
    table += [(f"{layer}.self_s", "s", "lower", _field(layer, "self_s"))
              for layer in SELF_ONLY]
    # busy_s is the whole cli.run call; cli.self_s is what the library spans leave
    table += [(f"cli.{cmd}.busy_s", "s", "lower", _field(f"cli.{cmd}", "total_s"))
              for cmd in COMMANDS]
    table.append(("cli.self_s", "s", "lower", lambda stats, _: sum(
        _stat(stats, f"cli.{cmd}")["self_s"] for cmd in COMMANDS)))
    table.append(("trace.overhead_s", "s", "lower", lambda _, overhead: overhead))
    return table


LAYER_METRICS = _layer_metric_table()


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]


def layer_metrics(stats, overhead_s):
    """Per-layer values from one traced pass's counters."""
    return {name: value(stats, overhead_s) for name, _, _, value in LAYER_METRICS}


def counts_of(stats):
    """The exact parts of a traced pass: calls, hits and conductor counts."""
    return {name: [s["calls"], s["hits"], s["by_conductor"]] for name, s in stats.items()}


# -- children ---------------------------------------------------------------------

class Child:
    """A child process running child.py on a plan; set-up is timed from the
    spawn to its READY line."""

    def __init__(self, plan_path, spans_out=None, cpu=None):
        argv = [sys.executable, str(BENCH / "child.py"), str(plan_path)]
        if spans_out is not None:
            argv += ["--trace", str(spans_out)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.close()
            raise RuntimeError("child failed during set-up")

    def finish(self, command, timeout):
        """Send GO or STOP and return the child's stdout after it exits."""
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        finally:
            self.close()
        return out

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_sample(plan_path, cpu=None):
    child = Child(plan_path, cpu=cpu)
    child.finish("STOP", timeout=30.0)
    return child.setup_s


def run_pass(plan_path, items, spans_out=None, timeout=TIME_LIMIT_S, cpu=None):
    """Run one pass in a fresh child; return its report and its failures."""
    child = Child(plan_path, spans_out, cpu)
    report = json.loads(child.finish("GO", timeout=timeout))
    report["setup_s"] = child.setup_s
    # outputs are checked and dropped, so the parent process stays small
    return report, check_pass(items, report.pop("results"))


def write_plan(items, work):
    """Write the items' configs and the plan under `work`; return the plan path."""
    work.mkdir(parents=True, exist_ok=True)
    for item in items:
        argv = list(item["argv"])
        if item["config"] is not None:
            text = json.dumps(item["config"], sort_keys=True)
            path = work / f"cfg-{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
            path.write_text(text)
            item["config_path"] = str(path)
            argv[1:1] = ["--config", item["config_path"]]
        item["full_argv"] = argv
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({"items": items}))
    return plan_path


def check_pass(items, results):
    """(item id, reason) for every item that misses its known answer."""
    if len(results) != len(items):
        return [("pass", "child returned the wrong number of results")]
    outputs = {item["id"]: tuple(r) for item, r in zip(items, results)}
    failures = []
    for item, (code, out) in zip(items, results):
        try:
            reason = oracle.check(item, code, out, outputs)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            failures.append((item["id"], reason))
    return failures


# -- provenance -------------------------------------------------------------------

def provenance():
    files = sorted((SRC / "crepant").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "src_crepant_lines": lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "child_env": {k: v for k, v in CHILD_ENV.items()
                                                   if k != "PATH"}}


# -- main -------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, plan_path, items, tag, started):
    """Run passes until --seconds are measured; return the samples."""
    rec = {"setup_s": [], "untraced": [], "traced": [], "failures": [], "errors": [],
           "attempted": 0}
    measured_start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - measured_start
        done = len(rec["untraced"]) + len(rec["traced"])
        enough = done >= MIN_PASSES and (not args.trace or rec["traced"])
        left = TIME_LIMIT_S - (time.perf_counter() - started)
        if (enough and elapsed + last / 2 >= args.seconds) or left < 1.5 * last + 5:
            break
        t = time.perf_counter()
        trace = bool(args.trace and done % 2)
        spans_out = OUT / f"spans-{tag}-{len(rec['traced'])}.json" if trace else None
        # the vCPUs of a shared host run at different, drifting speeds, so
        # consecutive passes take turns on each one
        cpu = CPUS[(len(rec["untraced"]) + len(rec["traced"])) % len(CPUS)]
        rec["attempted"] += len(items)
        try:
            if not args.trace:
                rec["setup_s"] += [setup_sample(plan_path, cpu)
                                   for _ in range(SETUP_SAMPLES_PER_PASS)]
            report, failures = run_pass(plan_path, items, spans_out, timeout=left, cpu=cpu)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            rec["errors"].append(repr(exc))
            rec["failures"] += [(item["id"], "pass failed: " + repr(exc)) for item in items]
            if len(rec["errors"]) > 2:
                break
            continue
        finally:
            last = time.perf_counter() - t
        report["cpu"] = cpu
        rec["setup_s"].append(report["setup_s"])
        rec["failures"] += failures
        rec["traced" if trace else "untraced"].append(report)
    return rec


def metrics_of(args, rec):
    """The reported metrics, or {} when the passes needed are missing."""
    untraced, traced = rec["untraced"], rec["traced"]
    metrics = {}
    if not args.trace and untraced:
        samples = {"verdict_s": [r["verdict_s"] for r in untraced],
                   "setup_s": rec["setup_s"],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    elif args.trace and traced and untraced:
        counts = [counts_of(r["trace"]["stats"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            rec["errors"].append("traced passes disagree on exact counts")
            return {}
        overhead = (statistics.median(r["verdict_s"] for r in traced)
                    - statistics.median(r["verdict_s"] for r in untraced))
        per_pass = [layer_metrics(r["trace"]["stats"], overhead) for r in traced]
        for name, unit, _ in per_layer_spec():
            # counts repeat exactly; times are the median over traced passes
            values = [p[name] for p in per_pass]
            metrics[name] = {"value": statistics.median(values) if unit == "s"
                             else values[0], "unit": unit}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "crepant" / "__init__.py").is_file():
        print(f"error: no crepant sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    # byte-compile once so no timed child pays for compilation
    if not compileall.compile_dir(str(SRC / "crepant"), quiet=1):
        print("error: crepant does not compile", file=sys.stderr)
        return 2
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    items = workloads.build(args.workload, args.seed)
    plan_path = write_plan(items, OUT / "work" / f"{args.workload}-{args.seed}")
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    rec = measure(args, plan_path, items, tag, started)
    metrics = metrics_of(args, rec)
    correct = bool(metrics) and not rec["failures"] and not rec["errors"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(),
              "attempted": rec["attempted"], "failed": len(rec["failures"]),
              "failures": rec["failures"][:50], "errors": rec["errors"],
              "samples": {"setup_s": rec["setup_s"],
                          "verdict_s": [r["verdict_s"] for r in rec["untraced"]],
                          "cpu_s": [r["cpu_s"] for r in rec["untraced"]],
                          "pinned_cpu": [r["cpu"] for r in rec["untraced"]],
                          "item_s": [r["item_s"] for r in rec["untraced"]],
                          "traced_verdict_s": [r["verdict_s"] for r in rec["traced"]],
                          "peak_rss_mb": [r["peak_rss_mb"] for r in rec["untraced"]]},
              "metrics": metrics}
    if rec["traced"]:
        record["trace_summary"] = rec["traced"][0]["trace"]
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    summary(record)
    print(json.dumps({"correct": correct, "attempted": max(rec["attempted"], 1),
                      "failed": len(rec["failures"]), "metrics": metrics}))
    return 0


def summary(record):
    err = sys.stderr
    prov = record["provenance"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"python {prov['python']}, nproc {prov['nproc']}, "
          f"src/crepant {prov['src_crepant_lines']} lines, commit {prov['commit']}",
          file=err)
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  fail_ratio {ratio:.4g} ({record['failed']} of {record['attempted']} items)",
          file=err)
    for item_id, reason in record["failures"][:10] + [("run", e) for e in record["errors"]]:
        print(f"  FAIL {item_id}: {reason}", file=err)
    for name, m in record["metrics"].items():
        n = len(record["samples"].get(name, []))
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}"
              + (f"  (median of {n})" if n > 1 else ""), file=err)


if __name__ == "__main__":
    sys.exit(main())
