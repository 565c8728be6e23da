"""Record the expected output digests in perfbench/expected.json.

Runs every op any seed can draw (every certify and oracle op, and every
pool entry of the perturbed workload) once, requires its closed-form checks
to pass, and stores the SHA-256 of its output bytes.  The table is recorded
from the seed code; CLI reports must stay byte-identical, so re-record only
for a change that is meant to alter the outputs, and say so.

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    ops = workloads.certify_ops() + workloads.oracle_ops()
    ops += workloads.perturbed_ops(workloads.all_perturbed_picks())
    digests = {}
    for op in ops:
        if op.key in digests:
            continue
        out = op.run()
        problem = op.closed_form(out)
        if problem:
            raise SystemExit(f"{op.key}: {problem}")
        digests[op.key] = workloads.digest(op.text(out))
        print(op.key, digests[op.key][:16], flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
