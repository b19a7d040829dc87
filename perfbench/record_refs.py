"""Record the reference digests of the fixed-input workloads into refs.json.

    python3 perfbench/record_refs.py

The fixed-input workloads (bundled-report, solver-ladder, bracket-table)
compare each output's sha256 against these references.  Record them only
from a commit whose outputs are known to be right; a later run that differs
by one byte counts the case as failed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HERE, import_supervec

FIXED = ("bundled-report", "solver-ladder", "bracket-table")


def main():
    workloads = import_supervec()
    if workloads is None:
        print("error: no supervec source", file=sys.stderr)
        return 2
    refs = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in FIXED:
            workload = workloads.WORKLOADS[name](0, workdir)
            for case in workload.cases:
                refs[case.name] = workloads.digest(case.run())
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d references" % len(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
