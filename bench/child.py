"""One pass of a workload in a fresh process.

    python3 bench/child.py PLAN [--trace SPANS_OUT]

Set-up imports `crepant`, reads the plan and parses every config, then
prints READY and waits for one line on stdin: STOP ends the process (a
set-up sample), GO runs the items.  Each item is timed as a user would
wait for it; the result goes to stdout as one JSON line holding every
item's exit code and output, the pass's wall time and peak RSS, and with
--trace the per-layer counters (spans are written to SPANS_OUT).
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback


def peak_rss_kb():
    """This process's own peak RSS.  ru_maxrss is not used first: Linux
    carries the parent's high-water mark across fork and exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    plan_path, *rest = argv
    spans_out = rest[1] if rest[:1] == ["--trace"] else None

    from crepant import cli, verify
    from crepant.geometry import Geometry
    from crepant.orbifold import ConventionFlags, OrbifoldRing
    from crepant.quantum import QPoint, QuantumRing
    from crepant.scalars import parse_scalar

    with open(plan_path) as fh:
        plan = json.load(fh)
    geometries = {item["config_path"]: Geometry.from_json(item["config"])
                  for item in plan["items"] if item["config"] is not None}

    def pairing(item):
        geom = geometries[item["config_path"]]
        if item["ring"] == "orb":
            ring = OrbifoldRing(geom, ConventionFlags())
        else:
            ring = QuantumRing(geom, QPoint([parse_scalar(t) for t in item["q"].split(",")]))
        return 0, json.dumps(verify.check_pairing_nondegenerate(ring))

    def run_cli(item):
        buf = io.StringIO()
        code = cli.run(item["full_argv"], stdout=buf)
        return code, buf.getvalue()

    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "GO":
        return 0

    tracer = None
    if spans_out:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    results, item_s = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for index, item in enumerate(plan["items"]):
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            if item["kind"] == "pairing":
                code, out = pairing(item)
            elif tracer is None:
                code, out = run_cli(item)
            else:
                code, out = tracer.span("cli." + item["argv"][0], run_cli, item)
        except Exception:  # an unexpected raise is a failed item, not a crash
            code, out = None, traceback.format_exc(limit=3)
        results.append([code, out])
        item_s.append(time.perf_counter() - t0)
    verdict_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = peak_rss_kb() / 1024

    report = {"verdict_s": verdict_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
              "item_s": item_s, "results": results}
    if tracer is not None:
        report["trace"] = tracer.summary()
        with open(spans_out, "w") as fh:
            json.dump({"fields": ["id", "name", "item", "parent", "start", "end"],
                       "t0": start, "items": [item["id"] for item in plan["items"]],
                       "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
