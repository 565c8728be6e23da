"""Benchmark of the demuskin library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: an op starts only when the previous
one has returned.  Untraced runs report the end-to-end metrics, traced runs
(`--trace 1`) the per-layer ones.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Workloads, metrics and exclusions are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from workloads import EXCLUDED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("perfbench", "_out")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "class2_words.self_s": "s",
    "class2_words.element_builds": "count",
    "class2_words.mul_calls": "count",
    "class2_words.pow_calls": "count",
    "class2_words.endo_apply_calls": "count",
    "class2_words.endo_apply_s": "s",
    "class2_words.compose_calls": "count",
    "class2_words.invert_auto_s": "s",
    "class2_words.inclusive_share": "ratio",
    "zq_linalg.self_s": "s",
    "zq_linalg.submodule_builds": "count",
    "zq_linalg.kernel_calls": "count",
    "zq_linalg.intersect_calls": "count",
    "zq_linalg.intersect_calls_in_free_quotient": "count",
    "zq_linalg.inv_mod_calls": "count",
    "zq_linalg.oracle_s": "s",
    "zq_linalg.oracle_found": "count",
    "zq_linalg.oracle_yield": "ratio",
    "zq_linalg.inclusive_share": "ratio",
    "demushkin_core.self_s": "s",
    "demushkin_core.transform_presentation_s": "s",
    "demushkin_core.involution_build_s": "s",
    "demushkin_core.lift_involution_s": "s",
    "demushkin_core.symmetrize_basis_s": "s",
    "demushkin_core.coinvariants_s": "s",
    "quotient_builder.self_s": "s",
    "quotient_builder.build_V_s": "s",
    "quotient_builder.free_quotient_s": "s",
    "quotient_builder.uniqueness_check_s": "s",
    "quotient_builder.certificates": "count",
    "quotient_builder.green_ratio": "ratio",
    "cli.self_s": "s",
    "cli.render_s": "s",
    "trace.overhead_ratio": "ratio",
}


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Outcome:
    """Latencies and failures of the ops a run executed."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.latencies: dict[str, list[float]] = {}  # op key -> timed latencies
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None  # paused while outputs are checked

    def run(self, op, timed: bool) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crashing op is a failed op, never dropped
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.failures.append(f"{op.key}: raised {exc!r}")
        else:
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.enabled = False
            try:
                problem = workloads.check_output(op, out, self.expected)
            finally:
                if self.tracer:
                    self.tracer.enabled = True
            if problem:
                self.failures.append(f"{op.key}: {problem}")
        if timed:
            self.latencies.setdefault(op.key, []).append(elapsed)
        return elapsed


def run_pass(plan, outcome: Outcome) -> float:
    return sum(outcome.run(op, timed=True) for op in plan.ops)


def run_timed(plan, outcome: Outcome, seconds: float) -> int:
    """One whole pass, then the op list again and again, op by op, until
    `seconds` have elapsed.  Returns the number of timed ops."""
    start = time.perf_counter()
    done = 0
    while done < len(plan.ops) or time.perf_counter() - start < seconds:
        outcome.run(plan.ops[done % len(plan.ops)], timed=True)
        done += 1
    return done


def percentile(values, pct):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _setup(workload, seed, smoke):
    """Import the library and load the workload's inputs, timing each part."""
    if not os.path.isdir(os.path.join(SRC, "demuskin")):
        raise SystemExit(f"error: no library sources at {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import demuskin  # noqa: F401  (the timed import)

    import_s = time.perf_counter() - start
    if not os.path.abspath(demuskin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: demuskin was imported from {demuskin.__file__}, not {SRC}")

    loads = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        expected = workloads.load_expected()
        plan = workloads.build_plan(workload, seed, smoke=smoke)
        loads.append(time.perf_counter() - start)
    return plan, expected, import_s + statistics.median(loads)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload in this process and return its result record."""
    plan, expected, setup_s = _setup(workload, seed, smoke)
    outcome = Outcome(expected)
    for op in plan.warmup:
        outcome.run(op, timed=False)
    result = {
        "workload": workload,
        "seed": seed,
        "pass_ops": len(plan.ops),
        "machine": machine_info(),
    }
    if trace:
        metrics, notes = _traced(plan, outcome, workload, seed)
        result["notes"] = notes
    else:
        timed_ops = run_timed(plan, outcome, seconds)
        # Each op's latency is its mean over the run's repeats.  The host's
        # speed has slow phases of tens of seconds; a quantile over all the
        # samples of a block of like ops jumps with the share of slow time,
        # while a mean moves with it smoothly.
        mean = [statistics.fmean(outcome.latencies[op.key]) for op in plan.ops]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(mean) / sum(mean),
            "op_p50_s": statistics.median(mean),
            "op_tail_s": percentile(mean, plan.tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        every = [x for xs in outcome.latencies.values() for x in xs]
        result["wall"] = {
            "timed_ops": timed_ops,
            "ops_per_s": len(every) / sum(every),
            "op_p50_s": statistics.median(every),
            "op_tail_s": percentile(every, plan.tail_pct),
        }
        result["tail"] = {
            "percentile": round(plan.tail_pct, 2),
            "samples": len(mean),
            "fewest_repeats": min(len(xs) for xs in outcome.latencies.values()),
        }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    result["attempted"] = outcome.attempted
    result["failed"] = len(outcome.failures)
    result["error_rate"] = len(outcome.failures) / outcome.attempted
    result["failures"] = outcome.failures
    result["correct"] = not outcome.failures and not result.get("notes", {}).get("problems")
    return result


def _traced(plan, outcome, workload, seed):
    """One untraced pass, then two traced passes whose counts must agree."""
    from tracing import Tracer

    untraced = run_pass(plan, outcome)
    tracer = Tracer()
    tracer.install()
    outcome.tracer = tracer
    try:
        runs = []
        for k in range(2):
            tracer.reset()
            wall = sum(outcome.run(op, timed=False) for op in plan.ops)
            runs.append((wall, tracer.counts()))
            if k == 0:
                first = _layer_metrics(tracer, runs[0][0])
                os.makedirs(OUT_DIR, exist_ok=True)
                tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz"))
    finally:
        outcome.tracer = None
        tracer.restore()
    problems = []
    if runs[0][1] != runs[1][1]:
        diff = sorted(k for k in runs[0][1] if runs[0][1][k] != runs[1][1].get(k))
        problems.append(f"per-layer counts differ between two traced passes: {diff}")
    first["trace.overhead_ratio"] = runs[0][0] / untraced
    return first, {"problems": problems}


def _layer_metrics(t, wall: float) -> dict:
    found = t.oracle_found
    builds_in_oracle = t.nested[("zq_linalg.Submodule.__init__", "zq_linalg.isotropic_free_submodules")]
    certs = t.count("quotient_builder.free_quotient")
    m = {f"{layer}.self_s": ns / 1e9 for layer, ns in t.layer_self_ns.items()}
    m.update({
        "class2_words.element_builds": t.count("class2_words.ClassTwoElement.__init__"),
        "class2_words.mul_calls": t.count("class2_words.ClassTwoElement.__mul__"),
        "class2_words.pow_calls": t.count("class2_words.ClassTwoElement.__pow__"),
        "class2_words.endo_apply_calls": t.count("class2_words.ClassTwoEndo.__call__"),
        "class2_words.endo_apply_s": t.inclusive_s("class2_words.ClassTwoEndo.__call__"),
        "class2_words.compose_calls": t.count("class2_words.compose"),
        "class2_words.invert_auto_s": t.inclusive_s("class2_words.invert_auto"),
        "class2_words.inclusive_share": t.layer_inclusive_ns["class2_words"] / 1e9 / wall,
        "zq_linalg.submodule_builds": t.count("zq_linalg.Submodule.__init__"),
        "zq_linalg.kernel_calls": t.count("zq_linalg.kernel"),
        "zq_linalg.intersect_calls": t.count("zq_linalg.Submodule.intersect"),
        "zq_linalg.intersect_calls_in_free_quotient":
            t.nested[("zq_linalg.Submodule.intersect", "quotient_builder.free_quotient")],
        "zq_linalg.inv_mod_calls": t.count("zq_linalg.inv_mod"),
        "zq_linalg.oracle_s": t.inclusive_s("zq_linalg.isotropic_free_submodules"),
        "zq_linalg.oracle_found": found,
        "zq_linalg.oracle_yield": found / builds_in_oracle if builds_in_oracle else 0.0,
        "zq_linalg.inclusive_share": t.layer_inclusive_ns["zq_linalg"] / 1e9 / wall,
        "demushkin_core.transform_presentation_s": t.inclusive_s("demushkin_core.transform_presentation"),
        "demushkin_core.involution_build_s": t.inclusive_s("demushkin_core.InvolutionAction.build"),
        "demushkin_core.lift_involution_s": t.inclusive_s("demushkin_core.lift_involution"),
        "demushkin_core.symmetrize_basis_s": t.inclusive_s("demushkin_core.symmetrize_basis"),
        "demushkin_core.coinvariants_s": t.inclusive_s("demushkin_core.coinvariants"),
        "quotient_builder.build_V_s": t.inclusive_s("quotient_builder.build_V"),
        "quotient_builder.free_quotient_s": t.inclusive_s("quotient_builder.free_quotient"),
        "quotient_builder.uniqueness_check_s": t.inclusive_s("quotient_builder.uniqueness_check"),
        "quotient_builder.certificates": certs,
        "quotient_builder.green_ratio": t.green / certs if certs else 0.0,
        "cli.render_s": t.inclusive_s("cli.render"),
    })
    return m


def _print_result(result):
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:>9}  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"{result['workload']:>9}  {'error_rate':<44} {result['error_rate']:.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    if "tail" in result:
        tail, wall = result["tail"], result["wall"]
        print(f"{result['workload']:>9}  op_tail_s is p{tail['percentile']} of the {tail['samples']} ops "
              f"of a pass, each the mean of {tail['fewest_repeats']}+ timed runs")
        print(f"{result['workload']:>9}  over all {wall['timed_ops']} timed ops: "
              f"{wall['ops_per_s']:.6g} ops/s, p50 {wall['op_p50_s']:.6g} s, "
              f"p{tail['percentile']} {wall['op_tail_s']:.6g} s")
    for failure in result["failures"]:
        print(f"{result['workload']:>9}  FAILED {failure}")
    for problem in result.get("notes", {}).get("problems", []):
        print(f"{result['workload']:>9}  PROBLEM {problem}")


def _run_all(args) -> dict:
    """Each workload in a fresh process, so setup and memory are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        final = _run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"machine: {json.dumps(result['machine'])}")
        print(f"excluded: {json.dumps(EXCLUDED)}")
        _print_result(result)
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
