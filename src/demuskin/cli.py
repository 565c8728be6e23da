"""Command-line front end: deterministic JSON/text reports over the library.

Exit codes: 0 when every named check passes, 1 when a mathematical check
fails, 2 for unusable input (bad arguments, unreadable or unparsable files).
Reports carry no timestamps and use fixed key order, so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from demuskin import __version__
from demuskin.class2_words import ClassTwoEndo, format_word
from demuskin.demushkin_core import (
    DemushkinPresentation,
    InvolutionAction,
    NotAnInvolutionError,
    RelatorNotPreservedError,
    bockstein_kernel,
    check_rank,
    coinvariants,
    delta_map,
    gamma_line,
    invariants,
    lift_involution,
    standard_involution,
    standard_relator,
    symmetrize_basis,
)
from demuskin.quotient_builder import (
    Signature,
    build_V,
    free_quotient,
    uniqueness_check,
)
from demuskin.zq_linalg import (
    Modulus,
    isotropic_oracle,
    matrix_json,
    oracle_guard,
    orthogonal_complement,
)

ENGINE = {
    "name": "demuskin",
    "version": __version__,
    "convention": "[a,b] = a^-1 b^-1 a b; coordinate (i,j), i<j, holds [g_j,g_i]",
}

SWEEP_N_DEFAULT = "2,4,6"
SWEEP_Q_DEFAULT = "3,9,5"
SWEEP_MAX_N = 12
SWEEP_MAX_Q = 25


class InputError(Exception):
    """Unusable input: maps to exit code 2."""


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _report(config: dict, results: dict, checks: list[dict]) -> dict:
    return {
        "schema": "v1",
        "engine": ENGINE,
        "config": config,
        "results": results,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def _config(args, **extra) -> dict:
    """The config of a command run on the standard presentation at --p, --f, --n."""
    return {"command": args.command, "p": args.p, "f": args.f, "n": args.n, **extra}


@functools.cache
def _standard_presentation(p: int, f: int, n: int) -> DemushkinPresentation:
    """The standard presentation at (p, f, n), built once per process with
    its invariants (it is never changed: its arrays are read-only and its
    cohomology is filled once); bad input is an InputError, never cached."""
    try:
        return DemushkinPresentation.standard(check_rank(n), Modulus(p, f))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_presentation(path: str) -> DemushkinPresentation:
    data = _load_json(path)
    try:
        return DemushkinPresentation.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad presentation file {path}: {exc}") from None


def _load_action_endo(path: str, pres: DemushkinPresentation) -> ClassTwoEndo:
    data = _load_json(path)
    try:
        return ClassTwoEndo.from_json(data, pres.gens, pres.mod)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad action file {path}: {exc}") from None


def cmd_present(args) -> dict:
    pres = _standard_presentation(args.p, args.f, args.n)
    config = _config(args)
    results = {
        "presentation": pres.to_json(),
        "relator_coordinates": pres.relator.to_json(),
    }
    checks = [
        _check("relator_central", pres.relator.is_central),
        _check(
            "relator_shape",
            pres.relator == standard_relator(pres.n, pres.mod),
            "collected standard relator",
        ),
    ]
    return _report(config, results, checks)


def cmd_invariants(args) -> dict:
    if args.presentation:
        pres = _load_presentation(args.presentation)
    else:
        pres = _standard_presentation(args.p, args.f, args.n)
    config = {
        "command": "invariants",
        "p": pres.mod.p,
        "f": pres.mod.f,
        "n": pres.n,
        "presentation_file": args.presentation,
    }
    coh = invariants(pres)
    results = {
        "gram": matrix_json(coh.cup.gram, coh.cup.modulus),
        "bockstein": [int(x) for x in coh.bockstein],
        "gamma_line": gamma_line(pres).to_json(),
        "is_demushkin": coh.is_demushkin,
    }
    return _report(config, results, _demushkin_checks(coh))


def _demushkin_checks(coh) -> list[dict]:
    """The two checks that make the cohomology that of a Demushkin group."""
    return [
        _check("cup_nondegenerate", coh.cup_nondegenerate),
        _check("bockstein_surjective", coh.bockstein_surjective),
    ]


def _eigen_ranks(pres: DemushkinPresentation, action: InvolutionAction) -> tuple[list[int], bool | None]:
    """The ranks of the H^1 eigenspaces (plus, minus) and, when the action
    negates H^2, whether both are n/2 + 1 (None otherwise)."""
    plus, minus = action.h1_eigenspaces()
    ranks = [plus.rank, minus.rank]
    return ranks, (ranks == [pres.n // 2 + 1] * 2) if action.h2_scalar == -1 else None


def _action_checks(pres: DemushkinPresentation, endo: ClassTwoEndo):
    """Build the involution, returning (action or None, named checks)."""
    checks = []
    try:
        action = InvolutionAction.build(pres, endo)
    except NotAnInvolutionError as exc:
        checks.append(_check("action_squares_to_identity", False, str(exc)))
        return None, checks
    except RelatorNotPreservedError as exc:
        checks.append(_check("action_squares_to_identity", True))
        checks.append(_check("relator_carried_to_power", False, str(exc)))
        return None, checks
    checks.append(_check("action_squares_to_identity", True))
    checks.append(_check("relator_carried_to_power", True, f"h2_scalar = {action.h2_scalar}"))
    checks.append(
        _check(
            "cup_coherence",
            action.coherence_ok,
            "(h1_matrix)^T . gram . h1_matrix = h2_scalar . gram",
        )
    )
    return action, checks


def cmd_involution(args) -> dict:
    pres = _standard_presentation(args.p, args.f, args.n)
    config = _config(args, action_file=args.action)
    if args.action:
        endo = _load_action_endo(args.action, pres)
    else:
        endo = standard_involution(pres).endo
    action, checks = _action_checks(pres, endo)
    results = {}
    if action is not None:
        ranks, balanced = _eigen_ranks(pres, action)
        results = {
            "h1_matrix": matrix_json(action.h1_matrix, pres.mod.q),
            "h2_scalar": action.h2_scalar,
            "eigen_ranks": ranks,
        }
        if balanced is not None:
            expected = pres.n // 2 + 1
            checks.append(
                _check(
                    "eigen_ranks_balanced",
                    balanced,
                    f"expected ({expected}, {expected}), got ({ranks[0]}, {ranks[1]})",
                )
            )
    return _report(config, results, checks)


def cmd_symmetrize(args) -> dict:
    pres = _standard_presentation(args.p, args.f, args.n)
    if not args.action:
        raise InputError("symmetrize needs --action FILE")
    endo = _load_action_endo(args.action, pres)
    config = _config(args, action_file=args.action)
    checks = []
    results = {}
    try:
        action = lift_involution(pres, endo.linear_matrix, endo)
        checks.append(_check("lift_to_exact_involution", True))
    except ValueError as exc:
        checks.append(_check("lift_to_exact_involution", False, str(exc)))
        return _report(config, results, checks)
    try:
        basis, clean_endo = symmetrize_basis(pres, action)
    except ValueError as exc:
        checks.append(_check("clean_diagonal_action", False, str(exc)))
        return _report(config, results, checks)
    results = {
        "basis_change": basis.to_json()["images"],
        "relator": format_word(pres.relator),
        "clean_action": clean_endo.to_json()["images"],
    }
    checks.append(_check("clean_diagonal_action", True))
    # the new basis keeps the standard relator exactly when the basis change fixes it
    image = basis(pres.relator)
    kept = image == pres.relator
    witness = "" if kept else f"the basis change carries the relator to {format_word(image)}"
    checks.append(_check("relator_shape_preserved", kept, witness))
    return _report(config, results, checks)


def _certify(pres: DemushkinPresentation, action: InvolutionAction, sig: Signature):
    """(certificate, measured signature or None when it is red) for the
    target V of signature `sig`; a signature with no target is an InputError."""
    try:
        iso = build_V(pres, action, sig)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    cert = free_quotient(pres, action, iso)
    return cert, (cert.signature if cert.all_green else None)


def cmd_quotient(args) -> dict:
    pres = _standard_presentation(args.p, args.f, args.n)
    if args.signature is None:
        raise InputError("quotient needs --signature U+ U-")
    sig = Signature(*args.signature)
    config = _config(args, signature=list(sig))
    cert, measured = _certify(pres, standard_involution(pres), sig)
    results = {"certificate": cert.to_json()}
    checks = [_check(name, ok) for name, ok in cert.flags.items()]
    checks.append(
        _check(
            "signature_matches",
            measured == sig,
            f"requested {tuple(sig)}, measured {tuple(measured) if measured else None}",
        )
    )
    checks.append(
        _check(
            "quotient_rank",
            len(cert.kept) == pres.n // 2 + 1,
            f"rank {len(cert.kept)}",
        )
    )
    return _report(config, results, checks)


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"bad {what} list: {text!r}") from None
    for k, value in enumerate(values):
        if value in values[:k]:
            raise InputError(f"{what}={value} is repeated in the {what} list {text!r}")
    return values


def _modulus_for_q(q: int) -> Modulus:
    try:
        return Modulus.from_q(q)
    except ValueError:
        raise InputError(f"q={q} is not an odd prime power") from None


def cmd_sweep(args) -> dict:
    n_list = _parse_int_list(args.sweep_n, "n")
    q_list = _parse_int_list(args.sweep_q, "q")
    for n in n_list:
        if n < 0 or n % 2 or n > SWEEP_MAX_N:
            raise InputError(f"sweep needs even n with 0 <= n <= {SWEEP_MAX_N}, got {n}")
    for q in q_list:
        if q > SWEEP_MAX_Q:
            raise InputError(f"sweep modulus guard exceeded: q={q} > {SWEEP_MAX_Q}")
    config = {"command": "sweep", "n": n_list, "q": q_list}
    rows = []
    checks = []
    for n in n_list:
        for q in q_list:
            mod = _modulus_for_q(q)
            pres = _standard_presentation(mod.p, mod.f, n)
            action = standard_involution(pres)
            for u_plus in range(n // 2 + 1):
                sig = Signature(u_plus, n // 2 - u_plus)
                cert, measured = _certify(pres, action, sig)
                green = cert.all_green
                label = f"n{n}_q{q}_sig{u_plus}+{n // 2 - u_plus}"
                rows.append(
                    {
                        "n": n,
                        "q": q,
                        "signature": list(sig),
                        "rank": len(cert.kept),
                        "killed": list(cert.killed),
                        "green": green,
                    }
                )
                checks.append(
                    _check(
                        f"certificate_green_{label}",
                        green and measured == sig and len(cert.kept) == n // 2 + 1,
                    )
                )
                if sig == Signature(n // 2, 0) and green:
                    checks.append(
                        _check(
                            f"coinvariants_agree_{label}",
                            uniqueness_check(pres, action, cert),
                        )
                    )
    results = {"certificates": rows, "count": len(rows)}
    return _report(config, results, checks)


def cmd_oracle(args) -> dict:
    try:
        # a cell past the search guards is refused before its presentation
        # and cup form are built; a bad p, f or n is named as every command
        # names it, and an odd or negative n by the presentation
        d, q = check_rank(args.n) + 2, Modulus(args.p, args.f).q
        if args.n % 2 == 0:
            oracle_guard(q, d)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    pres = _standard_presentation(args.p, args.f, args.n)
    config = _config(args)
    coh = invariants(pres)
    # one search: ker B is cut out by the Bockstein vector, and gamma is the
    # dual vector of the cyclotomic line
    found = isotropic_oracle(coh.cup, coh.bockstein, delta_map(pres, 1))
    expected = pres.n // 2 + 1
    missing = found.first_missing
    witness = "" if missing is None else f"the maximal V with normal basis {missing.tolist()} misses gamma"
    results = {
        "max_isotropic_rank": found.max_rank,
        "max_isotropic_rank_in_bockstein_kernel": found.max_rank_in_kernel,
        "maximal_count_in_bockstein_kernel": found.maximal_count_in_kernel,
    }
    checks = [
        _check("max_rank_bound", found.max_rank == expected, f"expected {expected}"),
        _check("kernel_max_rank", found.max_rank_in_kernel == expected, f"expected {expected}"),
        _check("maximal_contain_cyclotomic_line", found.all_contain_vec, witness),
    ]
    return _report(config, results, checks)


def cmd_preset_local_field(args) -> dict:
    p = args.p
    if p == 2:
        raise InputError("the local-field preset needs an odd prime")
    pres = _standard_presentation(p, 1, p - 1)
    config = {"command": "preset", "p": p, "f": 1, "n": pres.n}
    sig = Signature(0, (p - 1) // 2)
    cert, measured = _certify(pres, standard_involution(pres), sig)
    rank = len(cert.kept)
    eigen = [measured.u_plus + 1, measured.u_minus] if measured else None
    results = {
        "rank": rank,
        "eigen_ranks": eigen,
        "signature": list(sig),
        "certificate": cert.to_json(),
        "note": (
            "group-theoretic shadow of the totally real subfield situation: "
            "rank p+1 presentation, invariant q = p, involution acting by "
            "-1 on H^2; arithmetic hypotheses on the field (such as "
            "regularity of p) are outside this computation and not checked"
        ),
    }
    checks = [
        _check("certificate_green", cert.all_green),
        _check("rank_half_plus_one", rank == (p + 1) // 2, f"expected {(p + 1) // 2}"),
        _check(
            "eigen_ranks_match",
            eigen == [1, (p - 1) // 2],
            f"expected [1, {(p - 1) // 2}]",
        ),
    ]
    return _report(config, results, checks)


def cmd_verify(args) -> dict:
    if not args.presentation or not args.action:
        raise InputError("verify needs --presentation FILE and --action FILE")
    pres = _load_presentation(args.presentation)
    endo = _load_action_endo(args.action, pres)
    config = {
        "command": "verify",
        "presentation_file": args.presentation,
        "action_file": args.action,
    }
    coh = invariants(pres)
    checks = _demushkin_checks(coh)
    line_ok = gamma_line(pres) == orthogonal_complement(coh.cup, bockstein_kernel(pres))
    checks.append(_check("cyclotomic_line_matches_orthocomplement", line_ok))
    action, action_checks = _action_checks(pres, endo)
    checks.extend(action_checks)
    results = {"invariants": {"bockstein": [int(x) for x in coh.bockstein]}}
    if action is not None:
        ranks, balanced = _eigen_ranks(pres, action)
        results["h2_scalar"] = action.h2_scalar
        results["eigen_ranks"] = ranks
        if balanced is not None:
            checks.append(_check("eigen_ranks_balanced", balanced))
        try:
            res = coinvariants(pres, action)
            expected_kind = "free" if action.h2_scalar == -1 else "demushkin"
            checks.append(
                _check(
                    "coinvariants_dichotomy",
                    res.kind == expected_kind,
                    f"kind={res.kind}, rank={res.rank}",
                )
            )
            results["coinvariants"] = {"kind": res.kind, "rank": res.rank}
        except ValueError as exc:
            checks.append(_check("coinvariants_dichotomy", False, str(exc)))
    return _report(config, results, checks)


def render_text(report: dict) -> str:
    lines = [
        f"demuskin {report['engine']['version']} :: {report['config']['command']}",
    ]
    for key, val in report["config"].items():
        if key != "command" and val is not None:
            lines.append(f"  {key} = {val}")
    lines.append("checks:")
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        detail = f"  ({c['detail']})" if c.get("detail") else ""
        lines.append(f"  [{mark}] {c['name']}{detail}")
    lines.append("all checks pass" if report["all_pass"] else "CHECK FAILURES")
    return "\n".join(lines) + "\n"


# the JSON text of each scalar type, exactly as json.dumps writes it with
# ensure_ascii; a subclass (a numpy str, an IntEnum) is not looked up
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value, pad: str) -> str:
    """`value` as json.dumps(value, indent=2) writes it, at the indent `pad`.
    A list whose items share one scalar type is one str.join; any value
    that is not a dict, list, str, int, bool or None, and any dict key
    that is not a str, is a TypeError."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is not list and kind is not dict:
        raise TypeError(f"a report holds no {kind.__name__}: {value!r}")
    if not value:
        return "[]" if kind is list else "{}"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list:
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        body = sep.join(map(scalar, value) if scalar else [_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    for key in value:
        if type(key) is not str:
            raise TypeError(f"a report key must be a str, got {type(key).__name__}: {key!r}")
    body = sep.join([f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()])
    return f"{{\n{inner}{body}\n{pad}}}"


def render(report: dict, fmt: str) -> str:
    """The report as text, or as the bytes of json.dumps(report, indent=2)
    and a newline, written with the C string escaper."""
    if fmt == "text":
        return render_text(report)
    return _json(report, "") + "\n"


_OPTIONS = {
    "--p": dict(type=int, default=3, help="odd prime p"),
    "--f": dict(type=int, default=1, help="exponent f with q = p^f"),
    "--n": dict(type=int, default=2, help="even rank parameter"),
    "--signature": dict(type=int, nargs=2, metavar=("U+", "U-")),
    "--presentation": dict(help="presentation JSON file"),
    "--action": dict(help="action JSON file"),
    "--sweep-n": dict(default=SWEEP_N_DEFAULT),
    "--sweep-q": dict(default=SWEEP_Q_DEFAULT),
    "--format": dict(choices=("json", "text"), default="json"),
    "--output": dict(help="write the report here instead of stdout"),
}

# each subcommand, its function and the options it reads; every subcommand
# also takes --format and --output
_PFN = ("--p", "--f", "--n")
_COMMANDS = {
    "present": (cmd_present, _PFN),
    "invariants": (cmd_invariants, _PFN + ("--presentation",)),
    "involution": (cmd_involution, _PFN + ("--action",)),
    "symmetrize": (cmd_symmetrize, _PFN + ("--action",)),
    "quotient": (cmd_quotient, _PFN + ("--signature",)),
    "sweep": (cmd_sweep, ("--sweep-n", "--sweep-q")),
    "oracle": (cmd_oracle, _PFN),
    "preset": (cmd_preset_local_field, ("--p",)),
    "verify": (cmd_verify, ("--presentation", "--action")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demuskin",
        description=(
            "exact class-2 computations with Demushkin groups under an "
            "involution: invariants, symmetrization, and certified "
            "equivariant free quotients"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        # no prefixes: --f must not stand for --format where --f is not taken
        cmd = sub.add_parser(name, allow_abbrev=False)
        for option in options + ("--format", "--output"):
            cmd.add_argument(option, **_OPTIONS[option])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command][0](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(report, args.format)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
