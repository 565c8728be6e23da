"""Every report digest recorded in perfbench/expected.json still matches.

Runs each op of the three benchmark workloads' full input pools once, in
this process, from the repository root: the `verify` and `symmetrize`
reports echo their relative file paths.  Only reads expected.json; the
recording script is never run here.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def test_every_recorded_digest_matches(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = workloads.load_expected()
    ops = (
        workloads.certify_ops()
        + workloads.oracle_ops()
        + workloads.perturbed_ops(workloads.all_perturbed_picks())
    )
    # the oracle pass repeats some cells; each key is one recorded output
    unique = {op.key: op for op in ops}
    assert sorted(unique) == sorted(expected)
    failures = {}
    for key, op in unique.items():
        problem = workloads.check_output(op, op.run(), expected)
        if problem:
            failures[key] = problem
    assert failures == {}
