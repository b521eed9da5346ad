"""Record the golden digests the correctness gate compares against.

    python3 perfbench/record_expected.py > perfbench/expected.json

Run it only on a commit whose outputs are known to be right (the file in
the repository was recorded at the commit that introduced the benchmark):
the gate exists to catch changed verdicts, certificates and CLI bytes, so
re-recording to make a failing gate pass defeats it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from fractions import Fraction  # noqa: E402

import groupcut as gc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    cases = wl.staircase({}) + wl.fine_grid({})
    expected = {"library": {c.id: wl.verdict_digest(c.op(*c.args)) for c in cases}}
    expected["baseline"] = {
        "psi_4": wl.verdict_digest(gc.extremality_test(wl.psi_stages_45()[4])),
        "gmic_1999_2000": wl.verdict_digest(gc.extremality_test(gc.gmic(Fraction(1999, 2000)))),
    }
    workdir = os.path.join(run.OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = wl.CliRunner(workdir)
        expected["cli"] = {}
        for case in wl.cli_workload(0, {}, runner):
            _rc, stdout = case.op()
            extra = dict((c[0], c[3]) for c in wl.cli_commands())[case.id]
            expected["cli"][case.id] = wl.cli_digest(runner, stdout, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    json.dump(expected, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
