"""The three benchmark workloads, their seeded inputs and their output checks.

An op is one `cli.main(argv)` call or, for the frame-builder path that no
CLI command reaches, one library call sequence.  Each op carries the key of
its expected report digest (recorded from the seed code in
`expected.json`) and a closed-form check.  A workload's pass is its fixed
op list; the workload seed picks the perturbations and V bases from a fixed
pool (so every input has a recorded digest) and the order of the pass.

All paths are relative to the checkout root, which is the working directory:
the `verify` and `symmetrize` reports echo their file arguments, so the
report bytes depend on the path strings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

WORK_DIR = os.path.join("perfbench", "_work")
EXPECTED_PATH = os.path.join("perfbench", "expected.json")

# certify: one sweep cell per (n, q), plus quotient ops where applying an
# endomorphism grows steeply with d.  Seven n=40 ops put the median and the
# tail percentile inside the dense run of ~0.7-1 s ops (n >= 8 cells and
# n=40), not on the gap between the n=6 and n=8 cells.
CERTIFY_N = (2, 4, 6, 8, 10, 12)
CERTIFY_Q = (3, 5, 7, 9, 25)
CERTIFY_QUOTIENTS = (  # (n, q, u+)
    (20, 9, 5),
    (40, 3, 0), (40, 3, 10), (40, 3, 20), (40, 9, 5), (40, 9, 20), (40, 25, 10), (40, 25, 15),
)

# oracle: (p, f, n) -> copies per pass.  Only cells that finish in seconds
# on the seed code; the excluded ones are listed in EXCLUDED.  The (3,1,2)
# copies hold the median and the tail percentile.
ORACLE_CELLS = {(3, 1, 0): 2, (5, 1, 0): 2, (7, 1, 0): 2, (3, 2, 0): 2, (3, 1, 2): 30, (5, 1, 2): 2}

# perturbed: (n, q) shapes.  Each symmetrize shape gets SYMMETRIZE_SLOTS
# perturbations per pass, and a verify op on the exact lift of the first.
SYMMETRIZE_SHAPES = ((2, 3), (2, 5), (2, 9), (4, 3), (4, 5), (4, 9), (6, 3))
SYMMETRIZE_SLOTS = 2
FRAME_SHAPES = ((4, 3), (4, 9), (4, 25), (8, 3), (8, 9), (8, 25), (12, 3), (12, 9), (12, 25), (20, 3))
POOL = 8  # seeded variants per shape with a recorded digest

EXCLUDED = [
    {"op": "oracle --p 3 --f 2 --n 2", "what": "oracle over Z/9 at d=4", "seconds": 182,
     "reason": "too slow for a run; add after the oracle is made tractable"},
    {"op": "oracle --p 3 --f 1 --n 4", "what": "oracle over Z/3 at d=6", "seconds": "78-95",
     "reason": "too slow, and its time spreads by more than a tenth"},
    {"op": "oracle --p 7 --f 1 --n 2", "what": "oracle over Z/7 at d=4", "seconds": 36,
     "reason": "too slow for a run; add after the oracle is made tractable"},
    {"op": "pytest (tier-1 suite)", "what": "tier-1 wall time", "seconds": "70-78",
     "reason": "every check runs each workload 22 times"},
]


class InputError(Exception):
    """A generated input failed validation; the benchmark stops."""


@dataclass
class Op:
    key: str
    kind: str
    run: Callable[[], object]
    closed_form: Callable[[object], str | None]  # None when the output is right
    text: Callable[[object], str]  # the output bytes whose digest is recorded


def check_output(op: Op, out, expected: dict[str, str]) -> str | None:
    """None when the op's output passes its checks and matches its digest."""
    problem = op.closed_form(out)
    if problem:
        return problem
    if digest(op.text(out)) != expected.get(op.key):
        return "output bytes differ from the digest recorded from the seed code"
    return None


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[Op]
    tail_pct: float


def pf(q: int) -> tuple[int, int]:
    for p in (3, 5, 7):
        f, m = 0, q
        while m % p == 0:
            m //= p
            f += 1
        if m == 1 and f:
            return p, f
    raise ValueError(f"q={q} is not a supported odd prime power")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["digests"]


def tail_percentile(pass_len: int) -> float:
    """Highest percentile with at least ten ops of one pass beyond it,
    never below the median."""
    return 100.0 * max(pass_len - 10, pass_len / 2) / pass_len


def _cli_call(argv):
    from demuskin import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_op(key, kind, argv, closed_form) -> Op:
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report["all_pass"] is not True:
            return "all_pass is false"
        return closed_form(report["results"])

    return Op(key, kind, lambda: _cli_call(argv), check, lambda out: out[1])


def _want(label, got, want):
    return None if got == want else f"{label}: expected {want}, got {got}"


# -- certify -----------------------------------------------------------------


def certify_ops():
    ops = []
    for n in CERTIFY_N:
        for q in CERTIFY_Q:
            # one (n, q) cell per op, so summing these per-op counts over
            # the pass gives the closed form sum_n (n/2 + 1) |Q|
            def closed(res, n=n):
                if not all(row["green"] for row in res["certificates"]):
                    return "red certificate"
                return _want("certificate count", res["count"], n // 2 + 1)

            argv = ("sweep", "--sweep-n", str(n), "--sweep-q", str(q))
            ops.append(_cli_op(f"sweep n={n} q={q}", "sweep", argv, closed))
    for n, q, up in CERTIFY_QUOTIENTS:
        p, f = pf(q)
        argv = ("quotient", "--p", str(p), "--f", str(f), "--n", str(n),
                "--signature", str(up), str(n // 2 - up))

        def closed(res, n=n):
            return _want("kept generators", len(res["certificate"]["kept"]), n // 2 + 1)

        key = f"quotient n={n} q={q} sig={up}+{n // 2 - up}"
        ops.append(_cli_op(key, "quotient", argv, closed))
    return ops


# -- oracle ------------------------------------------------------------------


def oracle_ops():
    ops = []
    for (p, f, n), copies in ORACLE_CELLS.items():
        def closed(res, n=n):
            return _want("maximal ranks",
                         (res["max_isotropic_rank"], res["max_isotropic_rank_in_bockstein_kernel"]),
                         (n // 2 + 1, n // 2 + 1))

        argv = ("oracle", "--p", str(p), "--f", str(f), "--n", str(n))
        op = _cli_op(f"oracle p={p} f={f} n={n}", "oracle", argv, closed)
        ops.extend([op] * copies)
    return ops


# -- perturbed: input generator ------------------------------------------------


def _labels(n):
    return ["g"] + [f"x{i}" for i in range(n + 1)]


def _signs(n):
    """The standard involution: g and even x fixed, x0 and odd x negated."""
    return [1, -1] + [-1 if i % 2 else 1 for i in range(1, n + 1)]


def _standard_relator_word(n, q):
    return " ".join([f"x0^{q}", "[x0,g]"] + [f"[x{k},x{k + 1}]" for k in range(1, n, 2)])


def _perturbation_words(n, q, j):
    """Generator images of the standard involution, each times a random
    element of F^2/F^3 with every coordinate nonzero (a fixed support keeps
    the cost of an op nearly the same from seed to seed), written in the
    word grammar."""
    rng = random.Random(f"perturbation n={n} q={q} j={j}")
    labels = _labels(n)
    images = {}
    for lab, s in zip(labels, _signs(n)):
        parts = [lab if s == 1 else f"{lab}^-1"]
        parts += [f"{other}^{q * rng.randrange(1, q)}" for other in labels]
        parts += [
            f"[{labels[k]},{labels[i]}]^{rng.randrange(1, q)}"
            for i in range(len(labels))
            for k in range(i + 1, len(labels))
        ]
        images[lab] = " ".join(parts)
    return images


def _unit(rng, q, p):
    while True:
        a = rng.randrange(1, q)
        if a % p:
            return a


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


class PerturbedInputs:
    """Writes and validates the perturbed workload's files and V bases."""

    def __init__(self):
        import demuskin as dm

        self.dm = dm
        self.frames = {}  # (n, q) -> (pres, action)
        os.makedirs(WORK_DIR, exist_ok=True)

    def presentation(self, n, q):
        path = os.path.join(WORK_DIR, f"pres-n{n}-q{q}.json")
        p, f = pf(q)
        _write_json(path, {"p": p, "f": f, "n": n, "relator": _standard_relator_word(n, q)})
        return path

    def perturbation(self, n, q, j):
        """The perturbation file; its linear part must be the standard one."""
        dm = self.dm
        path = os.path.join(WORK_DIR, f"act-n{n}-q{q}-j{j}.json")
        images = _perturbation_words(n, q, j)
        _write_json(path, {"images": images})
        pres, _ = self.frame(n, q)
        endo = dm.ClassTwoEndo.from_json({"images": images}, pres.gens, pres.mod)
        linear = [[(s if i == k else 0) % q for k in range(n + 2)] for i, s in enumerate(_signs(n))]
        if endo.linear_matrix.tolist() != linear:
            raise InputError(f"{path}: linear part is not the standard involution")
        return path, endo

    def lift(self, n, q, j):
        """The file of the perturbation's exact lift, an involution."""
        dm = self.dm
        path = os.path.join(WORK_DIR, f"lift-n{n}-q{q}-j{j}.json")
        _, endo = self.perturbation(n, q, j)
        pres, _ = self.frame(n, q)
        lift = dm.lift_involution(pres, endo.linear_matrix, endo)
        if dm.compose(lift.endo, lift.endo) != dm.ClassTwoEndo.identity(pres.gens, pres.mod):
            raise InputError(f"{path}: the lifted action does not square to the identity")
        _write_json(path, lift.endo.to_json())
        return path

    def frame(self, n, q):
        if (n, q) not in self.frames:
            pres = self.dm.DemushkinPresentation.standard(n, self.dm.Modulus(*pf(q)))
            self.frames[(n, q)] = (pres, self.dm.standard_involution(pres))
        return self.frames[(n, q)]

    def mixed_V(self, n, q, j):
        """Rows g*, a x2* + b x4* and c x1* + e x3* per block of four x's,
        with random units a, b, c and e = -ac/b, so that the pairing
        <a x2 + b x4, c x1 + e x3> vanishes: maximal, invariant, totally
        isotropic, in the Bockstein kernel, and not a coordinate span.

        The x_i dual sits at index i + 1."""
        import numpy as np

        dm = self.dm
        pres, action = self.frame(n, q)
        p, _ = pf(q)
        rng = random.Random(f"mixed V n={n} q={q} j={j}")
        d = n + 2
        rows = [np.eye(d, dtype=np.int64)[0]]
        for first in range(1, n, 4):
            a, b, c = (_unit(rng, q, p) for _ in range(3))
            plus = np.zeros(d, dtype=np.int64)
            plus[[first + 2, first + 4]] = a, b
            minus = np.zeros(d, dtype=np.int64)
            minus[[first + 1, first + 3]] = c, (-a * c * pow(b, -1, q)) % q
            rows += [plus, minus]
        V = dm.Submodule(np.array(rows), d, q)
        iso = dm.validate_V(pres, action, V)
        if not iso.ok or iso.gamma_contained is not True or iso.rank != n // 2 + 1:
            raise InputError(f"mixed V n={n} q={q} j={j} fails validation: {iso.flag_dict()}")
        return V, n // 4


def perturbed_ops(picks):
    """Ops for the chosen pool entries; `picks` holds (kind, n, q, j)."""
    gen = PerturbedInputs()
    ops = []
    for kind, n, q, j in picks:
        p, f = pf(q)
        half = n // 2
        key = f"{kind} n={n} q={q} j={j}"
        if kind == "symmetrize":
            path, _ = gen.perturbation(n, q, j)
            clean = {lab: lab if s == 1 else f"{lab}^{q * q - 1}" for lab, s in zip(_labels(n), _signs(n))}
            argv = ("symmetrize", "--p", str(p), "--f", str(f), "--n", str(n), "--action", path)
            ops.append(_cli_op(key, kind, argv,
                               lambda res, clean=clean: _want("clean action", res["clean_action"], clean)))
        elif kind == "verify":
            argv = ("verify", "--presentation", gen.presentation(n, q), "--action", gen.lift(n, q, j))

            def closed(res, half=half):
                got = (res["h2_scalar"], res["eigen_ranks"], res["coinvariants"])
                want = (-1, [half + 1, half + 1], {"kind": "free", "rank": half + 1})
                return _want("verify results", got, want)

            ops.append(_cli_op(key, kind, argv, closed))
        else:
            pres, action = gen.frame(n, q)
            ops.append(_frame_op(key, pres, action, *gen.mixed_V(n, q, j)))
    return ops


def _frame_op(key, pres, action, V, r) -> Op:
    """validate_V -> free_quotient -> signature_of, the frame-builder path."""
    import demuskin as dm

    half = pres.n // 2

    def run():
        iso = dm.validate_V(pres, action, V)
        cert = dm.free_quotient(pres, action, iso)
        return cert, dm.signature_of(cert, action)

    def closed_form(out):
        cert, sig = out
        if not cert.all_green:
            return "red certificate"
        if cert.V_realized != V:
            return "certificate realizes a different V"
        return _want("kept generators", len(cert.kept), half + 1) or _want(
            "signature", tuple(sig), (r, half - r)
        )

    def text(out):
        cert, sig = out
        return json.dumps({"certificate": cert.to_json(), "signature": list(sig)}, sort_keys=True)

    return Op(key, "frame", run, closed_form, text)


def perturbed_picks(rng):
    picks = []
    for n, q in SYMMETRIZE_SHAPES:
        js = rng.sample(range(POOL), SYMMETRIZE_SLOTS)
        picks += [("symmetrize", n, q, j) for j in js] + [("verify", n, q, js[0])]
    return picks + [("frame", n, q, rng.randrange(POOL)) for n, q in FRAME_SHAPES]


def all_perturbed_picks():
    return [
        (kind, n, q, j)
        for kind, shapes in (("symmetrize", SYMMETRIZE_SHAPES), ("verify", SYMMETRIZE_SHAPES),
                             ("frame", FRAME_SHAPES))
        for n, q in shapes
        for j in range(POOL)
    ]


# -- plans -------------------------------------------------------------------

WORKLOADS = ("certify", "oracle", "perturbed")


def _first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def build_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    """The pass in seeded order, its warm-up ops and its tail percentile.

    `smoke` keeps the first op of each kind only, for the smoke test.
    """
    rng = random.Random(seed)
    if workload == "certify":
        ops = certify_ops()
    elif workload == "oracle":
        ops = oracle_ops()
    elif workload == "perturbed":
        picks = perturbed_picks(rng)
        if smoke:
            picks = [picks[0], picks[SYMMETRIZE_SLOTS], picks[-len(FRAME_SHAPES)]]
        ops = perturbed_ops(picks)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warmup = _first_of_each_kind(ops)
    if smoke:
        ops = list(warmup)
    rng.shuffle(ops)
    return Plan(ops, warmup, tail_percentile(len(ops)))
