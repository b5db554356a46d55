"""Record the output digests that table items are checked against.

    python3 bench/record_digests.py

Runs every item of `workloads.digest_pool()` in-process through
`crepant.cli.run` and writes bench/digests.json, keyed by the item's
argv and config content.  Run it only at a commit whose outputs are known
to be right: the digests stand in for golden files.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent


def main():
    os.environ["CREPANT_MAX_CONDUCTOR"] = "120"
    sys.path.insert(0, str(BENCH.parent / "src"))
    from crepant import cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for item in workloads.digest_pool():
            argv = list(item["argv"])
            if item["config"] is not None:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(item["config"]))
                argv[1:1] = ["--config", str(path)]
            buf = io.StringIO()
            code = cli.run(argv, stdout=buf)
            if code != 0:
                raise SystemExit(f"{item['id']}: exit code {code}")
            digests[oracle.digest_key(item)] = oracle.digest(buf.getvalue())
    with open(oracle.DIGESTS_PATH, "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
