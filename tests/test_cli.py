import contextlib
import copy
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demuskin import cli, zq_linalg
from demuskin.class2_words import ClassTwoEndo
from demuskin.cli import main
from demuskin.demushkin_core import DemushkinPresentation, invariants, standard_involution, standard_sign_pattern
from demuskin.zq_linalg import BilinearForm, Modulus
from test_zq_linalg import ADMITTED_CELLS, watch_submodule_builds


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "demuskin", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_inproc(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestExitCodes:
    def test_success_is_zero(self):
        proc = run_cli("present", "--p", "3", "--f", "1", "--n", "2")
        assert proc.returncode == 0

    def test_bad_usage_is_two(self):
        proc = run_cli("nosuchcommand")
        assert proc.returncode == 2

    def test_bad_prime_is_two(self):
        proc = run_cli("present", "--p", "4")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_file_is_two(self, tmp_path):
        proc = run_cli("verify", "--presentation", str(tmp_path / "nope.json"), "--action", str(tmp_path / "nope2.json"))
        assert proc.returncode == 2

    def test_unparsable_file_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("invariants", "--presentation", str(bad))
        assert proc.returncode == 2

    def test_failed_math_check_is_one(self, tmp_path):
        # a relator with no commutator part has a degenerate pairing
        pres = tmp_path / "pres.json"
        pres.write_text(
            json.dumps({"p": 3, "f": 1, "n": 2, "relator": "x0^3"})
        )
        proc = run_cli("invariants", "--presentation", str(pres))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "cup_nondegenerate" in failed


# a valid relator at p = 3, n = 2 (d = 4), spoiled one way per case
GOOD_RELATOR = {"gen_exp": [0, 3, 0, 0], "comm_exp": [[0, 1, 1], [2, 3, 2]]}
# the standard involution there
GOOD_IMAGES = {"g": "g", "x0": "x0^-1", "x1": "x1^-1", "x2": "x2"}
MALFORMED = {
    "lower-triangle-pair": {"relator": {**GOOD_RELATOR, "comm_exp": [[3, 2, 5]]}},
    "negative-coordinate": {"relator": {**GOOD_RELATOR, "comm_exp": [[0, -1, 1]]}},
    "coordinate-out-of-range": {"relator": {**GOOD_RELATOR, "comm_exp": [[0, 7, 1]]}},
    "float-generator-exponent": {"relator": {**GOOD_RELATOR, "gen_exp": [0, 3.7, 0, 0]}},
    "float-character-value": {"relator": GOOD_RELATOR, "chi": [4.9, 1, 1, 1]},
    "float-parameters": {"p": 3.9, "f": 1.5, "n": 2.2},
    "bool-parameter": {"f": True},
    # labels must be a list of names of the word grammar
    "labels-as-one-string": {"labels": "gabc", "relator": "a^3 [a,g] [b,c]"},
    "integer-labels": {"labels": [1, 2, 3, 4], "relator": GOOD_RELATOR},
    # the standard relator is a word in g, x0, x1, x2, not in the file's labels
    "own-labels-without-relator": {"labels": ["a", "b", "c", "d"]},
    "wrong-label-count-without-relator": {"labels": ["a", "b", "c"]},
    # an action file whose images name a generator outside g, x0, x1, x2
    "unknown-image-label": {"images": {**GOOD_IMAGES, "x9": "g"}},
    # a JSON value of the wrong type where an object belongs
    "relator-not-an-object": {"relator": 5},
    "images-as-a-list": {"images": list(GOOD_IMAGES.values())},
    # labels and chi are lists; an object's keys are not labels
    "labels-as-an-object": {"labels": {"g": 0, "a": 0, "b": 0, "c": 0}, "relator": "a^3 [a,g] [b,c]"},
    "chi-not-a-list": {"relator": GOOD_RELATOR, "chi": 1},
    # comm_exp is a list of [i, j, c] lists, and an image is a word string
    "comm-exp-not-a-list": {"relator": {**GOOD_RELATOR, "comm_exp": 5}},
    "short-commutator-triple": {"relator": {**GOOD_RELATOR, "comm_exp": [[0, 1]]}},
    # a pair given twice, of which the last triple used to win silently
    "repeated-commutator-coordinate": {"relator": {**GOOD_RELATOR, "comm_exp": [[0, 1, 1], [0, 1, 2]]}},
    # chi of d rows: one column passed as a flat chi, two columns died with a traceback
    "chi-as-a-column": {"relator": GOOD_RELATOR, "chi": [[4], [1], [1], [1]]},
    "chi-as-rows": {"relator": GOOD_RELATOR, "chi": [[4, 1], [1, 1], [1, 1], [1, 1]]},
    "image-not-a-string": {"images": {**GOOD_IMAGES, "x0": 5}},
    # a coordinate given as a one-element list, which used to reach the slot
    # arithmetic as an array; ragged chi, which used to print numpy's message
    "commutator-coordinate-as-lists": {"relator": {**GOOD_RELATOR, "comm_exp": [[[0], [1], 1]]}},
    "chi-ragged-rows": {"relator": GOOD_RELATOR, "chi": [[4], [1, 1], [1], [1]]},
    "chi-ragged-entry": {"relator": GOOD_RELATOR, "chi": [4, [1], 1, 1]},
    # words nested past the parser's bound, which overflowed its recursion
    "deeply-nested-relator": {"relator": "(" * 1000 + "x0" + ")" * 1000},
    "deeply-nested-image": {"images": {**GOOD_IMAGES, "g": "(" * 400 + "g" + ")" * 400}},
}
# what the error line must name, where a case has a word for it
NAMED_IN_ERROR = {
    "own-labels-without-relator": "labels ['a', 'b', 'c', 'd'] need a relator: the standard relator is written in g, x0, ..., x2",
    "wrong-label-count-without-relator": "generator count must be n + 2",
    "unknown-image-label": "'x9'",
    "relator-not-an-object": "got int",
    "images-as-a-list": "got list",
    "labels-as-an-object": "labels must be a JSON list, got dict",
    "chi-not-a-list": "chi must be a JSON list, got int",
    "comm-exp-not-a-list": "comm_exp must be a JSON list of [i, j, c] lists, got int 5",
    "short-commutator-triple": "comm_exp must be a JSON list of [i, j, c] lists, got list [0, 1]",
    "repeated-commutator-coordinate": "commutator coordinate (0, 1) is given twice in comm_exp",
    "chi-as-a-column": "character values must be a flat list, got an array of shape (4, 1)",
    "chi-as-rows": "character values must be a flat list, got an array of shape (4, 2)",
    "image-not-a-string": "image for generator 'x0' must be a word string, got int",
    "commutator-coordinate-as-lists": "commutator coordinate ([0], [1]) is not a pair of integers",
    "chi-ragged-rows": "character values must be integers in a rectangular array",
    "chi-ragged-entry": "character values must be integers in a rectangular array",
    "deeply-nested-relator": "deeper than the bound 100",
    "deeply-nested-image": "deeper than the bound 100",
}


class TestMalformedJson:
    def test_the_unspoiled_file_passes(self, tmp_path, capsys):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 2, "relator": GOOD_RELATOR, "chi": [4, 1, 1, 1]}))
        assert main(["invariants", "--presentation", str(pres)]) == 0

    def test_a_list_of_labels_passes(self, tmp_path, capsys):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 2, "labels": ["g", "a", "b", "c"], "relator": "a^3 [a,g] [b,c]"}))
        assert main(["invariants", "--presentation", str(pres)]) == 0
        # the standard labels need no relator
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 2, "labels": ["g", "x0", "x1", "x2"]}))
        assert main(["invariants", "--presentation", str(pres)]) == 0

    @pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
    def test_exits_two(self, tmp_path, capsys, case):
        pres = tmp_path / "pres.json"
        if "images" not in MALFORMED[case]:
            pres.write_text(json.dumps({"p": 3, "f": 1, "n": 2, **MALFORMED[case]}))
            assert main(["invariants", "--presentation", str(pres)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: bad presentation file") and NAMED_IN_ERROR.get(case, "") in err
            assert err.count("\n") == 1
            return
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 2, "relator": GOOD_RELATOR}))
        act, kept = tmp_path / "act.json", tmp_path / "kept.json"
        act.write_text(json.dumps(MALFORMED[case]))
        kept.write_text(json.dumps({"images": GOOD_IMAGES}))
        for argv in (["verify", "--presentation", str(pres)], ["symmetrize", "--p", "3", "--n", "2"]):
            assert main([*argv, "--action", str(act)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: bad action file") and NAMED_IN_ERROR[case] in err
            assert main([*argv, "--action", str(kept), "--output", str(tmp_path / "out.json")]) == 0


    @pytest.mark.parametrize("text, kind", [("[3, 1, 2]", "list"), ("null", "NoneType"), ('"p=3"', "str")])
    def test_a_file_that_is_not_an_object(self, tmp_path, capsys, text, kind):
        pres = tmp_path / "pres.json"
        pres.write_text(text)
        assert main(["invariants", "--presentation", str(pres)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad presentation file") and f"must be a JSON object, got {kind}" in err


def mostly(common, rare):
    """`common` nine times in ten, `rare` otherwise (at a k inside the range:
    hypothesis draws its ends more often)."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 4 else common)


# integers of every kind an option meets: negative, zero, small primes and
# composites, primes past 2^31 and 2^61, and ranks past MAX_N = 960.  Ranks
# 13 to 960 are left out: there an admitted command takes seconds.
INTEGERS = mostly(
    st.integers(-3, 13),
    st.sampled_from([961, 967, 1000, 2**31 - 1, 2**31 + 11, 2**32 + 15, 2**61 - 1, 10**30]),
)
NOT_INTEGERS = st.sampled_from(["", " ", "x", "1.5", "3e2", "0x10"])
WORDS = st.sampled_from(
    ["x0^3 [x0,g] [x2,x1]", "x0^-1", "x0^99999999999999999999", "[x0,x0]", "", "x9", "(", "x0^", "[x0,g", "(" * 200 + "g" + ")" * 200]
)
LABELS = st.sampled_from([["g", "a", "b", "c"], ["g", "g", "a", "b"], ["g", "a b", "c", "d"], ["1", "2", "3", "4"], ["g", "a"]])
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from([2**70, 1.5, "", "x0", "g g"])),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(["p", "gen_exp", "x0", "g"]), kids, max_size=3)),
    max_leaves=6,
)
# a valid file of each kind, and the keys at which one is spoiled
PRESENTATION = {"p": 3, "f": 1, "n": 2, "relator": GOOD_RELATOR, "chi": [4, 1, 1, 1]}
PRESENTATION_KEYS = [("p",), ("f",), ("n",), ("relator",), ("relator", "gen_exp"), ("relator", "comm_exp"), ("chi",), ("labels",)]
ACTION = {"images": GOOD_IMAGES}
ACTION_KEYS = [("images",), ("images", "g"), ("images", "x0"), ("images", "x9")]
WRONG_TYPES = [None, True, 5, -1, 2**70, 1.5, "x0", "", [], [1, "g"], {}, {"g": [None]}]
# values of the right length but the wrong shape, put at one key only
SHAPED = {("chi",): [[[4], [1], [1], [1]], [[4, 1], [1, 1], [1, 1], [1, 1]], [[4], [1, 1], [1], [1]], [4, [1], 1, 1]]}
DROPPED = object()


def spoiled(data, path, value):
    """`data` as JSON text with `value` at the key `path`, or that key
    dropped for DROPPED."""
    data = copy.deepcopy(data)
    *path, key = path
    at = data
    for k in path:
        at = at[k]
    if value is DROPPED:
        at.pop(key, None)
    else:
        at[key] = value
    return json.dumps(data)


@st.composite
def file_texts(draw, data, keys):
    """`data` as JSON text, kept, or with one key dropped or set to a value
    of any type, or text that is not a JSON object at all."""
    how = draw(st.sampled_from(["spoiled", "kept", "dropped", "kept", "not-json", "kept", "not-an-object", "spoiled"]))
    if how == "not-json":
        return draw(st.sampled_from(["{not json", "", "[1, 2", '{"p": 3,}']))
    if how == "not-an-object":
        return json.dumps(draw(JUNK))
    if how == "kept":
        return json.dumps(data)
    key = draw(st.sampled_from(keys))
    shaped = [st.sampled_from(SHAPED[key])] if key in SHAPED else []
    value = DROPPED if how == "dropped" else draw(st.one_of(INTEGERS, WORDS, LABELS, JUNK, *shaped))
    return spoiled(data, key, value)


def option_tokens(usual):
    """A usual value or any integer, and now and then a token that is not one."""
    return mostly(st.one_of(st.sampled_from(usual), INTEGERS).map(str), NOT_INTEGERS)


def int_lists(usual):
    """Comma-separated lists, well formed or not, for --sweep-n and --sweep-q."""
    return st.lists(option_tokens(usual), max_size=3).map(",".join)


VALUES = {
    "--p": option_tokens([3, 5, 7]).map(lambda v: [v]),
    "--f": option_tokens([1, 2]).map(lambda v: [v]),
    "--n": option_tokens([0, 2]).map(lambda v: [v]),
    "--signature": st.lists(option_tokens([0, 1]), min_size=2, max_size=2),
    "--sweep-n": int_lists([2, 4]).map(lambda v: [v]),
    "--sweep-q": int_lists([3, 5, 9, 25]).map(lambda v: [v]),
    "--format": mostly(st.sampled_from([["json"], ["text"]]), st.just(["xml"])),
}
COMMAND_OPTIONS = {
    "present": ("--p", "--f", "--n"),
    "invariants": ("--p", "--f", "--n", "--presentation"),
    "involution": ("--p", "--f", "--n", "--action"),
    "symmetrize": ("--p", "--f", "--n", "--action"),
    "quotient": ("--p", "--f", "--n", "--signature"),
    "sweep": ("--sweep-n", "--sweep-q"),
    "oracle": ("--p", "--f", "--n"),
    "preset": ("--p",),
    "verify": ("--presentation", "--action"),
}


@st.composite
def cli_inputs(draw):
    """An argv for one of the nine subcommands, each option given or not,
    now and then with a stray argument, and the text of the files it names."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv, files = [command], {}
    for option in COMMAND_OPTIONS[command] + ("--format",):
        if draw(st.booleans()):
            continue
        if option in ("--presentation", "--action"):
            name = option[2:] + ".json"
            if draw(st.integers(0, 9)):
                data, keys = (PRESENTATION, PRESENTATION_KEYS) if name == "presentation.json" else (ACTION, ACTION_KEYS)
                files[name] = draw(file_texts(data, keys))
            argv += [option, name]
        else:
            argv += [option, *draw(VALUES[option])]
    if not draw(st.integers(0, 9)):
        argv += draw(st.sampled_from([["--bogus"], ["--p"], ["extra"], ["--signature", "1"], ["--help-me"]]))
    return argv, files


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process call, an argparse
    refusal read as 2; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = "usage"
    assert time.perf_counter() - start < 5, argv
    return code, out.getvalue(), err.getvalue()


def assert_reports_or_exits_two(argv):
    """The property of every input: a report (exit 0 or 1) that a second
    call repeats byte for byte, or exit 2, through an InputError with one
    error line and no report, or through argparse."""
    code, out, err = run_main(argv)
    assert code in (0, 1, 2, "usage"), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and out == "", (argv, err)
    elif code in (0, 1):
        assert run_main(argv) == (code, out, err), argv


class TestFuzzedInput:
    """Any argv and any file contents either compute a report or exit 2."""

    @settings(
        max_examples=500,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=cli_inputs())
    def test_every_input_reports_or_exits_two(self, tmp_path, case):
        argv, files = case
        for name in ("presentation.json", "action.json"):
            (tmp_path / name).unlink(missing_ok=True)
            if name in files:
                (tmp_path / name).write_text(files[name])
        assert_reports_or_exits_two([str(tmp_path / a) if a in ("presentation.json", "action.json") else a for a in argv])

    def test_a_wrong_type_at_each_key(self, tmp_path):
        pres, act = tmp_path / "presentation.json", tmp_path / "action.json"
        for path in PRESENTATION_KEYS:
            for value in WRONG_TYPES + SHAPED.get(path, []) + [DROPPED]:
                pres.write_text(spoiled(PRESENTATION, path, value))
                assert_reports_or_exits_two(["invariants", "--presentation", str(pres)])
        pres.write_text(json.dumps(PRESENTATION))
        for path in ACTION_KEYS:
            for value in WRONG_TYPES + [DROPPED]:
                act.write_text(spoiled(ACTION, path, value))
                for argv in (["verify", "--presentation", str(pres)], ["involution"], ["symmetrize"]):
                    assert_reports_or_exits_two([*argv, "--action", str(act)])


class TestRankBound:
    def test_largest_accepted_rank(self, tmp_path):
        code, text = run_inproc(tmp_path, "present", "--n", "960")
        assert code == 0 and json.loads(text)["config"]["n"] == 960

    # n is checked before any generator, relator or array is built, so each
    # input exits 2 at once; the timeout leaves room for interpreter start-up
    @pytest.mark.parametrize(
        "argv",
        [
            ["present", "--n", "962"],
            ["quotient", "--p", "3", "--n", "1000000", "--signature", "1", "0"],
            ["preset", "--p", "967"],
            ["invariants", "--presentation", "BIG_N_FILE"],
        ],
        ids=["present", "quotient", "preset", "presentation-file"],
    )
    def test_exits_two_naming_the_bound(self, tmp_path, argv):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 1000000}))
        argv = [str(pres) if a == "BIG_N_FILE" else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "demuskin", *argv], capture_output=True, text=True, timeout=3)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "past the bound n <= 960" in proc.stderr


class TestDeterminism:
    def test_sweep_reports_are_byte_identical(self, tmp_path):
        code1, text1 = run_inproc(tmp_path, "sweep", "--sweep-n", "2,4", "--sweep-q", "3,5")
        code2, text2 = run_inproc(tmp_path, "sweep", "--sweep-n", "2,4", "--sweep-q", "3,5")
        assert code1 == code2 == 0
        assert text1 == text2

    def test_preset_reports_are_byte_identical(self, tmp_path):
        code1, text1 = run_inproc(tmp_path, "preset", "--p", "5")
        code2, text2 = run_inproc(tmp_path, "preset", "--p", "5")
        assert code1 == code2 == 0
        assert text1 == text2


class TestParserReuse:
    def test_consecutive_calls_give_identical_reports(self, capsys):
        argv = ["quotient", "--p", "3", "--n", "4", "--signature", "1", "1", "--format", "text"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert cli._parser() is cli._parser()

    def test_unknown_flag_still_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["present", "--no-such-flag"])
        assert exc.value.code == 2
        # the shared parser is still usable after the error
        assert main(["present", "--p", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["all_pass"]


class TestSubcommandOptions:
    """Each subcommand takes only the options it reads, plus --format and
    --output; an option it ignores, or a prefix of another, exits 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["preset", "--p", "5", "--f", "2", "--n", "8"],
            ["preset", "--p", "5", "--f", "json"],
            ["oracle", "--action", "nothing.json"],
            ["sweep", "--p", "3"],
            ["verify", "--n", "2"],
            ["present", "--signature", "1", "1"],
        ],
    )
    def test_unread_option_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_subcommand_takes_format_and_output(self):
        reads = {
            "present": {"p", "f", "n"},
            "invariants": {"p", "f", "n", "presentation"},
            "involution": {"p", "f", "n", "action"},
            "symmetrize": {"p", "f", "n", "action"},
            "quotient": {"p", "f", "n", "signature"},
            "sweep": {"sweep_n", "sweep_q"},
            "oracle": {"p", "f", "n"},
            "preset": {"p"},
            "verify": {"presentation", "action"},
        }
        for name, options in reads.items():
            args = cli._parser().parse_args([name, "--format", "text", "--output", "out.txt"])
            assert (args.format, args.output) == ("text", "out.txt"), name
            assert set(vars(args)) == {"command", "format", "output"} | options, name


class TestActionWords:
    def test_surrounding_whitespace_is_accepted(self, tmp_path):
        images = {"g": "g [x1,x0]^2", "x0": "x0^-1 [x2,x1]", "x1": "x1^-1", "x2": "x2"}
        act = tmp_path / "act.json"
        reports = []
        for pad in ("", " ", "\n", " \t\n"):
            act.write_text(json.dumps({"images": {lab: pad + w + pad for lab, w in images.items()}}))
            reports.append(run_inproc(tmp_path, "symmetrize", "--n", "2", "--action", str(act)))
        assert reports[0][0] == 0
        assert reports == [reports[0]] * 4


class TestModulusBound:
    @pytest.mark.parametrize("f", [20, 40])
    def test_q_squared_beyond_int64_is_rejected(self, capsys, f):
        assert main(["present", "--p", "3", "--f", str(f)]) == 2
        assert "does not fit in int64" in capsys.readouterr().err

    def test_largest_accepted_exponent(self, capsys):
        assert main(["present", "--p", "3", "--f", "19"]) == 0

    # the size checks run before the trial division, and q^2 is never formed
    # for a huge f, so each input exits 2 at once; the timeout leaves room for
    # interpreter start-up (about 0.3 s on a 2-core Xeon)
    @pytest.mark.parametrize(
        "argv",
        [
            ["quotient", "--p", str(2**61 - 1), "--n", "2", "--signature", "1", "0"],
            ["present", "--p", "3", "--f", "100000000"],
            ["invariants", "--presentation", "BIG_P_FILE"],
        ],
        ids=["prime-p-past-int64", "huge-f", "presentation-file"],
    )
    def test_exits_two_without_hanging(self, tmp_path, argv):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 2**61 - 1, "f": 1, "n": 2}))
        argv = [str(pres) if a == "BIG_P_FILE" else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "demuskin", *argv], capture_output=True, text=True, timeout=3)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "does not fit in int64" in proc.stderr


class TestLargeModulusVerify:
    """g -> g, x0 -> x0^-1, x1 -> x2^-1, x2 -> x1^-1 is not diagonal, so
    its coinvariants go through a basis change inverted mod q^2."""

    @pytest.mark.parametrize("f", [1, 12, 19])
    def test_swap_involution_passes(self, tmp_path, f):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": f, "n": 2}))
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1", "x1": "x2^-1", "x2": "x1^-1"}}))
        code, text = run_inproc(tmp_path, "verify", "--presentation", str(pres), "--action", str(act))
        report = json.loads(text)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == []
        assert code == 0
        assert report["results"]["coinvariants"] == {"kind": "free", "rank": 2}


class TestFreeEigenspaceVerify:
    """The standard involution over Z/9 conjugated by x1 -> x1 g^3: its -1
    eigenspace on F/F^2 is free of rank 2, yet its Howell form has the three
    rows (3,0,2,0), (0,1,0,0) and (0,0,3,0), so the clean frame starts from
    a free basis of it rather than from the Howell rows."""

    def test_conjugated_standard_involution_passes(self, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(
            {"p": 3, "f": 2, "n": 2, "relator": "x0^9 [x0,g] [x2,g]^3 [x2,x1]^8", "chi": [10, 1, 28, 1]}
        ))
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1", "x1": "g^6 x1^-1 [x1,g]^6", "x2": "x2"}}))
        code, text = run_inproc(tmp_path, "verify", "--presentation", str(pres), "--action", str(act))
        report = json.loads(text)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == []
        assert code == 0
        assert report["results"]["coinvariants"] == {"kind": "free", "rank": 2}


class TestPreset:
    @pytest.mark.parametrize(
        "p,rank,eigen",
        [(3, 2, [1, 1]), (5, 3, [1, 2]), (7, 4, [1, 3])],
    )
    def test_local_field_shadow(self, tmp_path, p, rank, eigen):
        code, text = run_inproc(tmp_path, "preset", "--p", str(p))
        assert code == 0
        report = json.loads(text)
        assert report["results"]["rank"] == rank
        assert report["results"]["eigen_ranks"] == eigen

    def test_even_prime_rejected(self):
        proc = run_cli("preset", "--p", "2")
        assert proc.returncode == 2


class TestSweep:
    def test_counts(self, tmp_path):
        code, text = run_inproc(tmp_path, "sweep", "--sweep-n", "2", "--sweep-q", "3")
        assert code == 0
        report = json.loads(text)
        assert report["results"]["count"] == 2
        code, text = run_inproc(tmp_path, "sweep", "--sweep-n", "4", "--sweep-q", "3")
        report = json.loads(text)
        assert report["results"]["count"] == 3

    def test_empty_sweep_passes(self, tmp_path):
        code, text = run_inproc(tmp_path, "sweep", "--sweep-n", "", "--sweep-q", "")
        assert code == 0
        report = json.loads(text)
        assert report["results"]["count"] == 0
        assert report["checks"] == []

    @pytest.mark.parametrize("n, q, what", [("2,2", "3", "n=2"), ("2", "3,5,3", "q=3"), ("4,2,04", "5", "n=4")])
    def test_repeated_value_rejected(self, capsys, n, q, what):
        # a repeated n or q would run its cells twice and list each check twice
        assert main(["sweep", "--sweep-n", n, "--sweep-q", q]) == 2
        assert f"{what} is repeated" in capsys.readouterr().err

    def test_guard(self):
        proc = run_cli("sweep", "--sweep-n", "14", "--sweep-q", "3")
        assert proc.returncode == 2
        proc = run_cli("sweep", "--sweep-n", "2", "--sweep-q", "27")
        assert proc.returncode == 2

    @pytest.mark.parametrize("q", ["1", "4", "15"])
    def test_modulus_not_an_odd_prime_power(self, capsys, q):
        assert main(["sweep", "--sweep-n", "2", "--sweep-q", q]) == 2
        assert f"q={q} is not an odd prime power" in capsys.readouterr().err


class TestQuotientCommand:
    def test_green_run(self, tmp_path):
        code, text = run_inproc(
            tmp_path, "quotient", "--p", "3", "--n", "2", "--signature", "1", "0"
        )
        assert code == 0
        report = json.loads(text)
        cert = report["results"]["certificate"]
        assert cert["killed"] == ["x0", "x1"]
        assert cert["signature"] == [1, 0]
        assert all(cert["flags"].values())

    def test_large_rank_report_is_pinned(self, tmp_path):
        # the report at n = 160 (d = 162) is fixed byte for byte; building the
        # standard involution there composes nothing, so this stays well
        # under a second, and a return of the d^4 check shows in its time
        code, text = run_inproc(tmp_path, "quotient", "--p", "3", "--n", "160", "--signature", "40", "40")
        assert code == 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "d2ae66ba502f5ae170d48334351c74f9217572ea916b8186f5d08c413eafe1d2"

    def test_larger_rank_report_is_pinned(self, tmp_path):
        # n = 480 (d = 482), recorded before the standard frame's closed
        # forms for the cup form, the coherence check and the image words
        code, text = run_inproc(tmp_path, "quotient", "--p", "3", "--n", "480", "--signature", "120", "120")
        assert code == 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "daef063c594e53cd58e8ac0c684f9cb214c4b7514afc9346207793a3707d27d9"

    def test_largest_rank_report_is_pinned_and_small(self, tmp_path):
        # n = 960 (d = 962), the rank bound, recorded while the certificate
        # still copied the killed rows of the action's images (2.2 GB peak
        # RSS); the child reports its own peak, which must stay below 1 GB
        out = tmp_path / "report.json"
        child = (
            "import resource, sys; from demuskin.cli import main; code = main(sys.argv[1:]); "
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )
        argv = ["quotient", "--p", "3", "--n", "960", "--signature", "240", "240", "--output", str(out)]
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=30)
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "f29aff6934c03d1c17ccd34f5abecdb0d88f2b4173cb992f25ff95e0d1f3a7d4"
        assert peak_kb < 1024 * 1024

    def test_missing_signature_is_two(self):
        proc = run_cli("quotient", "--p", "3", "--n", "2")
        assert proc.returncode == 2

    def test_bad_signature_sum_is_two(self):
        proc = run_cli("quotient", "--p", "3", "--n", "2", "--signature", "2", "1")
        assert proc.returncode == 2


# sha256 of the reports that no benchmark digest covers, recorded before
# the certify path became one `_certify` in the CLI
PINNED_REPORTS = {
    (("preset", "--p", "3"), "json"): "1b2b1db55c12e08c4b70af50f894af97cbe13bc715a66b4b182dd74e30d05096",
    (("preset", "--p", "3"), "text"): "34441315e4b28ad6eeac838a139f7470fb7b2123a4ce31edc5ab889d8eef5134",
    (("preset", "--p", "5"), "json"): "d49d03fabd1aa8fdea54740e3f0a3583ec8c320a794de885878fad2c91691f0a",
    (("preset", "--p", "5"), "text"): "817b4592cd4fe40719db309a73b839a292088451b9b91d3f9fe04ad89b9ba2a9",
    (("preset", "--p", "7"), "json"): "7a685dc2c40732f25175f70992b9861796c4719b91aacd00e62188664413dd4f",
    (("preset", "--p", "7"), "text"): "5635122c23d4f74d2f1a466d2c9db061fc59b18ec635a4a2a2def06042c84040",
    (("preset", "--p", "11"), "json"): "ac22afa1c5a6a535043c89dfc2eefae3b27a985de000a99e53c8aabcd8496d7a",
    (("preset", "--p", "11"), "text"): "98250d217e98e07388bef1000c805d314b0a37b6bc4349363fe71b1b783191fc",
    (("preset", "--p", "13"), "json"): "c2b2b95ce49149872c81e0fe9062b8ffa69c8596ccbdf45cd614150aead5e524",
    (("preset", "--p", "13"), "text"): "b77d6e116a8811e2e0512dc9c2f09e1adeebde27a3406f50e5755f19cf874968",
    (("involution",), "json"): "5d7f1887c95215d6a3babfcbf97f707bbdaa80b62b77a9436f9a6392181ef841",
    (("involution",), "text"): "7f0510b4f37cba75d60690d9d82d589eefc6dfa9c616d676adbc315f0cfc90aa",
    (("involution", "--p", "5", "--n", "4"), "json"): "db2e9cc8543d73051555fc95916694883d60fcd7a86a6af17d0043b95159f824",
    (("involution", "--p", "5", "--n", "4"), "text"): "0d717ff1203293d8ce73658e17454f409759fbb73ee303d516007a2ff221349f",
    (("invariants",), "json"): "a3d6c3f7613b31cf4fdfa9bc355b1e5bcd7e84c437fcd990e861bc4833cafae7",
    (("invariants",), "text"): "7b5511a063571d587ae4db632458232ac970fdbd463fcce4bf5eeb432579fe5f",
    (("present",), "json"): "02e39f50b101149fd502f9482813d19d33f113cb200516bc8e19b81484ef890e",
    (("present",), "text"): "a5602580c9aca7d42c676808b24511bd149c670810a9f128004c5c75b2f6631a",
}


class TestPinnedReports:
    @pytest.mark.parametrize("argv, fmt", PINNED_REPORTS, ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
    def test_report_is_pinned(self, tmp_path, argv, fmt):
        code, text = run_inproc(tmp_path, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[argv, fmt]


# sha256 of the JSON `oracle` report of each admitted cell (p, f, n),
# recorded before the search read its free lines from a per-constraint table
PINNED_ORACLE_REPORTS = {
    (3, 1, 0): "613a672f7bc03227b38e25056429ea04a680e36c25cc396f5591aa534acab482",
    (3, 1, 2): "6b715e8ff02bb857de5ea26f4d99dc668871144cd146fd72639d43d776238692",
    (3, 1, 4): "62d3a69874fbf8f0479973e101e44f140af83a7cc2d69d1d775d6b5c3e8cfc9e",
    (3, 2, 0): "e03d7e8e9731822067c5270c1ee1016f2157e0a2d9f127dcaa807bd522e3188f",
    (3, 2, 2): "05364304c211cb230939e2480ef510baf35c1a6bcbb82de7a50717fe4a21ef3d",
    (3, 3, 0): "0806f06fc1ab65e99ad13e3d944a1c2db6fb3d5ba6af892b109669793bb659c5",
    (3, 4, 0): "a23b8aa3c99a071783754566a3429f5e8d83b5916de4d35eb41663d1c34069c3",
    (5, 1, 0): "b311d681b47458fd1a33ba60a3b8e8ea4ad2eac02631f4670c382a75c7fb8108",
    (5, 1, 2): "01c532f7fadebfd9898475bdcab9f1d24da2e5c0238cb7c952447fd611a97db3",
    (5, 1, 4): "fd0b3d42ffca5c0177cd9959205b8545ae18d01d0a539902972cda86d146aed3",
    (5, 2, 0): "b56052183bb87def56865eb2938173e8e1eb9aa56b2acb45586847de44e27f8a",
    (5, 3, 0): "ab29788b152d8bf3e32b29b832c653a0345ef18ff445b77cb2a3b1a221a11400",
    (7, 1, 0): "1a4a9fa657613ae0e117605da54f6a84e99e725926201faa1e49ba251e8110a6",
    (7, 1, 2): "5a3b01fdc45c6805d12eabac17bbfbdf299ccbdb28a53e09ca2bfbb7b3612e25",
    (7, 2, 0): "46d835d5c6fc47ce377fe3963d5b1cdfba22dc87742eff25d941d8b09e15b38a",
    (11, 1, 0): "bcb333f58871390e3a9c1dc5a708c5014c167528469e32eee54f0b029e6bfa8c",
    (11, 1, 2): "ac0c5c24b6081311f04f2d97bbcf03961041cb820985189d85bd3e9cf431b524",
    (11, 2, 0): "244cead47efbcc9162693a3363fa51cfe18b857356cbec17e33892901526cdc5",
    (13, 1, 0): "b6ac400e55271f9e3e28ed0bdf05b49f62899180b9e6edac77b09e3acab8c216",
    (17, 1, 0): "7465987459a097e8ea0eed5aad42e68394f4e7238d6e72fa511309306c37b3e6",
    (19, 1, 0): "90abe8cf472ddf614e2cffc83cbb24b5a5e4f5fbc7c4419ebfebdd26be2232d7",
    (23, 1, 0): "432635c95606dca3ce782715a37c47009e4d113fa35570939da94886d2927d2a",
    (29, 1, 0): "7dbe1b10346ddf204334a091cb6d660e3cee7e5f46b44e4078f48018a85eb526",
    (31, 1, 0): "ce303b29633ab18c9663d796504b158eb414b636fda2e0a55fbdf241da8ce48b",
    (37, 1, 0): "e0cb9eef6a3bf7a90c17ec63fe1b108653b21837fcaa760d786bf1ccd0cb8063",
    (41, 1, 0): "da294f1d1bd9e84a7f9dc9ee882e7ccdf5bb3761d10e58b378277267d4ffeb9b",
    (43, 1, 0): "e4aad56592ab277bb32c918bfe629d4b27b92610b4f6302a10a4cb0c8cbd4ab4",
    (47, 1, 0): "4718e955202c2f845e5ac159d9c7c0a0fb607f1b9bf82f6cf265e8b9d60e5c8d",
    (53, 1, 0): "2ec225e6adfc40de98ff83c1e8dceba6bb891e20c9534d60bd27691b20a6cdd2",
    (59, 1, 0): "3b731b7d5a8fd96406fb7cb101c61cf232de11b8155c0b6db2fbcca5def87119",
    (61, 1, 0): "c2399dffcde8217389555752c6398b86ba5e27e498dea721d74b6f014d4a8daf",
    (67, 1, 0): "5cbc83bc57f2ab07e001f37c01fe02066cd8bc4ffe4a68702aee6e94b807fbf1",
    (71, 1, 0): "919d3cd3b0c5e9bf391db6da7aa6d1b02f0e6dd7278aef32637645fb055b7210",
    (73, 1, 0): "3f99651d5dda47edb610c8947fe81483edbc32a4e0bd410cc314ee4050df119e",
    (79, 1, 0): "e0fb9d96428a45be8e720a5e63d6b397735f5e9d5311e61a2a6e9eb644ba9e6e",
    (83, 1, 0): "cf24edb250a641e5c040783da8ad0bb14556adcb1b7b8806652b078f24a783d1",
    (89, 1, 0): "f95b2c7dd43723861e95a6b832fdd168601f2e144fe932fc729035ff4e20d7d6",
    (97, 1, 0): "49575c77f2516b877acffc23e1987249ddf119ecdd5d2c4df4b9cdaaecb97491",
    (101, 1, 0): "7eeee49d18f22f19695de36beb2f38e9ad1c0b50b05645041003d97ee3a08145",
    (103, 1, 0): "f55059f25b163ab6cdb1a95e6a47a97481033d2e84dd58135a4f64a95c7ffe44",
    (107, 1, 0): "e071d646115fb6cd83da7ba263d29cb3c9616843f99830cb9bcd7e93f95da74d",
    (109, 1, 0): "79fe4855614f3d1e07c240b3c03fba9bfc2f1bc171d13a63ebf68c733ebfaba3",
    (113, 1, 0): "9efc53d76906217b85c4fad2586898af3f2715a0fd52043a27086d720eec332b",
}


class TestPinnedOracleReports:
    def test_every_admitted_cell_is_pinned(self):
        assert sorted(PINNED_ORACLE_REPORTS) == sorted(ADMITTED_CELLS)

    @pytest.mark.parametrize("cell", PINNED_ORACLE_REPORTS, ids=lambda c: "-".join(map(str, c)))
    def test_report_is_pinned(self, tmp_path, cell):
        p, f, n = map(str, cell)
        code, text = run_inproc(tmp_path, "oracle", "--p", p, "--f", f, "--n", n, "--format", "json")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ORACLE_REPORTS[cell]


class TestVerify:
    def write_inputs(self, tmp_path, relator=None, images=None):
        pres_data = {"p": 3, "f": 1, "n": 2}
        if relator:
            pres_data["relator"] = relator
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(pres_data))
        if images is None:
            images = {"g": "g", "x0": "x0^-1", "x1": "x1^-1", "x2": "x2"}
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": images}))
        return str(pres), str(act)

    def test_standard_pair_passes(self, tmp_path):
        pres, act = self.write_inputs(tmp_path)
        code, text = run_inproc(tmp_path, "verify", "--presentation", pres, "--action", act)
        assert code == 0
        report = json.loads(text)
        names = [c["name"] for c in report["checks"]]
        assert "cup_nondegenerate" in names
        assert "cyclotomic_line_matches_orthocomplement" in names
        assert "coinvariants_dichotomy" in names
        assert report["results"]["h2_scalar"] == -1

    def test_degenerate_relator_fails(self, tmp_path):
        pres, act = self.write_inputs(tmp_path, relator="x0^3")
        code, text = run_inproc(tmp_path, "verify", "--presentation", pres, "--action", act)
        assert code == 1

    def test_wrong_action_fails_order_or_relator(self, tmp_path):
        # swapping x1 and x2 inverts one relator commutator but fixes the
        # rest, so the relator is not carried to any single power
        pres, act = self.write_inputs(
            tmp_path, images={"g": "g", "x0": "x0", "x1": "x2", "x2": "x1"}
        )
        code, text = run_inproc(tmp_path, "verify", "--presentation", pres, "--action", act)
        assert code == 1
        report = json.loads(text)
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert failed & {"action_squares_to_identity", "relator_carried_to_power"}

    def test_relator_of_order_below_q_is_carried_to_its_inverse(self, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": 2, "n": 0, "relator": "x0^27 [x0,g]^3"}))
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1"}}))
        code, text = run_inproc(
            tmp_path, "verify", "--presentation", str(pres), "--action", str(act)
        )
        report = json.loads(text)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["action_squares_to_identity"]["pass"]
        assert checks["relator_carried_to_power"]["pass"]
        assert checks["relator_carried_to_power"]["detail"] == "h2_scalar = -1"
        assert report["results"]["h2_scalar"] == -1
        # the pairing is 3 times a unimodular one, degenerate mod p
        assert not checks["cup_nondegenerate"]["pass"]
        assert code == 1

    def test_trivial_relator_fails_the_line_check(self, tmp_path):
        # the relator 1 has a zero cup form and a zero Bockstein, so the
        # orthocomplement of the Bockstein kernel is the whole space and not
        # the cyclotomic line: the check reads false and raises nothing
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 0, "relator": "1"}))
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1"}}))
        code, text = run_inproc(tmp_path, "verify", "--presentation", str(pres), "--action", str(act))
        checks = {c["name"]: c["pass"] for c in json.loads(text)["checks"]}
        assert code == 1 and checks["cyclotomic_line_matches_orthocomplement"] is False

    def test_missing_action_argument(self, tmp_path):
        pres, _ = self.write_inputs(tmp_path)
        proc = run_cli("verify", "--presentation", pres)
        assert proc.returncode == 2


class TestSymmetrizeCommand:
    def test_non_central_perturbation_fails_with_exit_1(self, tmp_path):
        # g -> g x1 is not g times a central element; the lift rejects it
        # before symmetrization (a product-shape action has central defects)
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g x1", "x0": "x0^-1", "x1": "x1^-1", "x2": "x2"}}))
        code, text = run_inproc(tmp_path, "symmetrize", "--p", "3", "--n", "2", "--action", str(act))
        assert code == 1
        report = json.loads(text)
        assert report["all_pass"] is False and report["results"] == {}
        assert report["checks"] == [
            {
                "name": "lift_to_exact_involution",
                "pass": False,
                "detail": "relator is not carried to a power of itself; "
                "the action does not descend to the one-relator quotient",
            }
        ]

    def test_perturbed_action_is_cleaned(self, tmp_path):
        act = tmp_path / "act.json"
        act.write_text(
            json.dumps(
                {
                    "images": {
                        "g": "g [x2,x1]",
                        "x0": "x0^-1 [x2,x1]",
                        "x1": "x1^-1",
                        "x2": "x2",
                    }
                }
            )
        )
        code, text = run_inproc(
            tmp_path, "symmetrize", "--p", "3", "--n", "2", "--action", str(act)
        )
        assert code == 0
        report = json.loads(text)
        clean = report["results"]["clean_action"]
        assert clean == {"g": "g", "x0": "x0^8", "x1": "x1^8", "x2": "x2"}
        assert report["results"]["relator"] == "x0^3 [x0,g] [x2,x1]^2"
        assert report["checks"][-1] == {"name": "relator_shape_preserved", "pass": True, "detail": ""}

    def test_basis_that_moves_the_relator_fails_with_its_image(self, tmp_path, monkeypatch):
        # swapping x1 and x2 inverts [x2,x1]: the new basis does not keep the
        # standard relator, and the check names the image
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1", "x1": "x1^-1", "x2": "x2"}}))
        real = cli.symmetrize_basis

        def swapped(pres, action):
            swap = ClassTwoEndo.linear(pres.gens, pres.mod, np.eye(4, dtype=np.int64)[[0, 1, 3, 2]])
            return swap, real(pres, action)[1]

        monkeypatch.setattr(cli, "symmetrize_basis", swapped)
        code, text = run_inproc(tmp_path, "symmetrize", "--p", "3", "--n", "2", "--action", str(act))
        check = json.loads(text)["checks"][-1]
        assert code == 1 and check["name"] == "relator_shape_preserved" and not check["pass"]
        assert check["detail"] == "the basis change carries the relator to x0^3 [x0,g] [x2,x1]"


# the engine call behind each guarded check, the subcommand that makes it and the check it feeds
GUARDED_CHECKS = [
    ("lift_involution", "symmetrize", "lift_to_exact_involution"),
    ("symmetrize_basis", "symmetrize", "clean_diagonal_action"),
    ("coinvariants", "verify", "coinvariants_dichotomy"),
]


class TestEngineFaults:
    """A ValueError from the engine is a mathematical failure and becomes
    a red check naming it; an AssertionError is an engine inconsistency
    and leaves `main` as it is."""

    def argv(self, tmp_path, command):
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1", "x1": "x1^-1", "x2": "x2"}}))
        if command == "symmetrize":
            return ["symmetrize", "--p", "3", "--n", "2", "--action", str(act)]
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": 1, "n": 2}))
        return ["verify", "--presentation", str(pres), "--action", str(act)]

    def plant(self, monkeypatch, name, error):
        def broken(*args):
            raise error("planted fault")

        monkeypatch.setattr(cli, name, broken)

    @pytest.mark.parametrize("name, command, check", GUARDED_CHECKS)
    def test_value_error_is_a_red_check(self, tmp_path, monkeypatch, name, command, check):
        argv = self.argv(tmp_path, command)
        self.plant(monkeypatch, name, ValueError)
        code, text = run_inproc(tmp_path, *argv)
        assert code == 1
        assert json.loads(text)["checks"][-1] == {"name": check, "pass": False, "detail": "planted fault"}

    @pytest.mark.parametrize("name, command, check", GUARDED_CHECKS)
    def test_assertion_error_propagates(self, tmp_path, monkeypatch, name, command, check):
        argv = self.argv(tmp_path, command)
        self.plant(monkeypatch, name, AssertionError)
        with pytest.raises(AssertionError, match="planted fault"):
            main([*argv, "--output", str(tmp_path / "report.json")])
        assert not (tmp_path / "report.json").exists()


class TestOracleCommand:
    def test_guard_is_two(self):
        # (Z/3)^8 took 18 s and 435 MB with the guards lifted
        proc = run_cli("oracle", "--p", "3", "--n", "6")
        assert proc.returncode == 2
        assert proc.stderr == "error: exhaustive search limited to ambient rank <= 6; got rank 8\n"

    def test_guard_table(self, capsys, monkeypatch):
        # every odd prime power q <= 125 and n in 0..6: a refused cell exits 2
        # at once naming its bound, with no cup form built; an admitted one
        # counts the maximal V in ker B as p^((f-1)m(m+1)/2) prod_{i<=m}
        # (p^i + 1), m = n/2.  (5,1,4) takes 1.5 s and is counted in the tests
        # of the search itself
        read = []
        real = cli.invariants
        monkeypatch.setattr(cli, "invariants", lambda pres: read.append((pres.mod.p, pres.mod.f, pres.n)) or real(pres))
        admitted = {(5, 1, 4)}
        for q in range(3, 126, 2):
            try:
                mod = Modulus.from_q(q)
            except ValueError:
                continue
            p, f = mod.p, mod.f
            for n in (0, 2, 4, 6):
                if (p, f, n) == (5, 1, 4):
                    continue
                cell, m = (p, f, n), n // 2
                start = time.perf_counter()
                code = main(["oracle", "--p", str(p), "--f", str(f), "--n", str(n)])
                out, err = capsys.readouterr()
                if code == 2:
                    bound = "ambient rank <= 6" if n + 2 > 6 else "a span of q^d <= 15625 vectors"
                    assert f"error: exhaustive search limited to {bound}" in err, cell
                    assert time.perf_counter() - start < 1, cell
                    continue
                count = p ** ((f - 1) * m * (m + 1) // 2) * prod(p**i + 1 for i in range(1, m + 1))
                assert code == 0, cell
                assert json.loads(out)["results"]["maximal_count_in_bockstein_kernel"] == count, cell
                admitted.add(cell)
        # all 36 cells at n = 0, and q^(n+2) <= 5^6 past it
        assert len(admitted) == 43 and set(read) == admitted - {(5, 1, 4)}
        assert {(p**f, n) for p, f, n in admitted if n} == {(3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (3, 4), (5, 4)}

    @pytest.mark.parametrize("p,f,n,span", [(7, 1, 4, "7^6 = 117649"), (3, 2, 4, "9^6 = 531441")])
    def test_span_guard_refuses_cells_that_do_not_finish(self, p, f, n, span):
        # (7,1,4) took 86 s and (3,2,4) did not finish in 900 s; the span
        # bound refuses both before the search starts
        proc = run_cli("oracle", "--p", str(p), "--f", str(f), "--n", str(n))
        assert proc.returncode == 2
        assert proc.stderr == f"error: exhaustive search limited to a span of q^d <= 15625 vectors; got {span}\n"
        start = time.perf_counter()
        assert main(["oracle", "--p", str(p), "--f", str(f), "--n", str(n)]) == 2
        assert time.perf_counter() - start < 1

    def test_a_refused_cell_builds_no_presentation(self, capsys, monkeypatch):
        # the guard runs first: a refused cell caches no presentation, and one
        # already cached keeps its cohomology unset
        read = []
        monkeypatch.setattr(cli, "invariants", read.append)
        cli._standard_presentation.cache_clear()
        assert main(["oracle", "--n", "960"]) == 2
        assert capsys.readouterr().err == "error: exhaustive search limited to ambient rank <= 6; got rank 962\n"
        assert cli._standard_presentation.cache_info().currsize == 0
        pres = cli._standard_presentation(3, 1, 6)
        assert main(["oracle", "--n", "6"]) == 2
        assert pres._cohomology is None and read == []

    @pytest.mark.parametrize("argv", [
        ["--n", "7"], ["--n", "-2"], ["--n", "-1"], ["--n", "962"], ["--n", "963"],
        ["--p", "9", "--n", "8"], ["--p", "4", "--n", "7"], ["--f", "0", "--n", "962"],
    ])
    def test_bad_input_is_named_as_the_presentation_names_it(self, capsys, argv):
        # an input both bad and past the guards names what is bad, as
        # `present` does
        assert main(["present", *argv]) == 2
        want = capsys.readouterr().err
        assert main(["oracle", *argv]) == 2
        assert capsys.readouterr().err == want

    def test_searches_each_space_once(self, tmp_path, monkeypatch):
        # one search of the whole space, masked by the Bockstein column, gives
        # both maximal ranks, the count in ker B and the containment of gamma;
        # no Submodule is built and no Howell form is taken
        real = zq_linalg._isotropic_normal_bases
        columns, built = [], []
        monkeypatch.setattr(zq_linalg, "_isotropic_normal_bases", lambda *a: columns.append(a[1]) or real(*a))
        watch_submodule_builds(monkeypatch, built)
        code, _ = run_inproc(tmp_path, "oracle", "--p", "3", "--n", "2")
        bockstein = invariants(cli._standard_presentation(3, 1, 2)).bockstein
        assert code == 0 and len(columns) == 1 and np.array_equal(columns[0], bockstein[:, None])
        assert built == []

    def test_fault_in_search_is_not_an_input_error(self, monkeypatch):
        def broken(form, columns, vec):
            raise ValueError("fault inside the search")

        monkeypatch.setattr(cli, "isotropic_oracle", broken)
        with pytest.raises(ValueError, match="fault inside the search"):
            main(["oracle", "--p", "3", "--n", "0"])

    def test_red_containment_names_its_witness(self, tmp_path, monkeypatch):
        # with the dual of x0 in place of gamma, the first maximal V in ker B
        # that misses it is named by its normal basis; green detail is empty
        code, text = run_inproc(tmp_path, "oracle", "--p", "3", "--n", "2")
        assert code == 0 and json.loads(text)["checks"][2]["detail"] == ""
        monkeypatch.setattr(cli, "delta_map", lambda pres, i: np.eye(pres.d, dtype=np.int64)[1])
        code, text = run_inproc(tmp_path, "oracle", "--p", "3", "--n", "2")
        check = json.loads(text)["checks"][2]
        assert code == 1 and check["name"] == "maximal_contain_cyclotomic_line" and not check["pass"]
        assert check["detail"] == "the maximal V with normal basis [[1, 0, 0, 0], [0, 0, 0, 1]] misses gamma"

    @pytest.mark.parametrize("p,f,n,count", [(7, 1, 2, 8), (3, 2, 2, 12), (3, 1, 4, 40)])
    def test_largest_cells(self, tmp_path, p, f, n, count):
        code, text = run_inproc(tmp_path, "oracle", "--p", str(p), "--f", str(f), "--n", str(n))
        assert code == 0
        assert json.loads(text)["results"] == {
            "max_isotropic_rank": n // 2 + 1,
            "max_isotropic_rank_in_bockstein_kernel": n // 2 + 1,
            "maximal_count_in_bockstein_kernel": count,
        }


class TestInvolutionCommand:
    def test_standard_involution_report(self, tmp_path):
        code, text = run_inproc(tmp_path, "involution", "--p", "5", "--n", "4")
        assert code == 0
        report = json.loads(text)
        assert report["results"]["h2_scalar"] == -1
        assert report["results"]["eigen_ranks"] == [3, 3]

    def test_text_format_renders(self):
        proc = run_cli("involution", "--p", "3", "--n", "2", "--format", "text")
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout


class TestLargeModuli:
    # products of two exponents mod q^2 pass 2^63 here, so the collection
    # formulas must run on Python ints
    @pytest.mark.parametrize("f", ["12", "19"])
    def test_reports_pass(self, tmp_path, f):
        for command in ("present", "invariants", "involution"):
            code, text = run_inproc(tmp_path, command, "--p", "3", "--f", f, "--n", "2")
            assert code == 0 and json.loads(text)["all_pass"], command
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"p": 3, "f": int(f), "n": 2}))
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"images": {"g": "g", "x0": "x0^-1", "x1": "x1^-1", "x2": "x2"}}))
        code, text = run_inproc(tmp_path, "verify", "--presentation", str(pres), "--action", str(act))
        report = json.loads(text)
        assert code == 0 and report["all_pass"]
        assert report["results"]["coinvariants"] == {"kind": "free", "rank": 2}


# strings that need escaping, or that json.dumps writes as \u escapes
AWKWARD_CHARS = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ", "\ud800", "\udfff", "\U0001f600"])
REPORT_STRINGS = st.text(st.one_of(st.characters(), AWKWARD_CHARS), max_size=8)
REPORT_VALUES = st.recursive(
    st.one_of(
        REPORT_STRINGS,
        st.integers(),
        st.integers(2**63 - 2, 2**100),
        st.integers(-(2**100), -(2**63) + 2),
        st.booleans(),
        st.none(),
    ),
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.dictionaries(REPORT_STRINGS, kids, max_size=5)),
    max_leaves=30,
)


class TestRender:
    """The JSON writer gives the bytes of json.dumps(report, indent=2) and a
    newline, and refuses every value that json.dumps would have to convert."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(report=REPORT_VALUES)
    def test_equals_json_dumps(self, report):
        assert cli.render(report, "json") == json.dumps(report, indent=2) + "\n"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(size=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1))
    def test_int_lists_equal_json_dumps(self, size, seed):
        # small, negative and past 2^63, as a list of ints is written by its str
        rng = random.Random(seed)
        values = [rng.choice([rng.randint(-9, 9), rng.randint(-(2**64), 2**64), rng.randint(0, 10**30)]) for _ in range(size)]
        report = {"results": {"V": values, "rows": [values[:3], [True, *values[:2]]]}}
        assert cli.render(report, "json") == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value, kind",
        [(1.5, "float"), ((1, 2), "tuple"), (np.int64(3), "int64"), ({1: "one"}, "int")],
        ids=["float", "tuple", "numpy-scalar", "non-str-key"],
    )
    def test_other_types_raise(self, value, kind):
        with pytest.raises(TypeError, match=kind):
            cli.render({"results": {"rows": [0, value]}}, "json")


def reachable_arrays(root):
    """Every numpy array reachable from `root` through slots, instance
    dicts and containers (the base of a view is not followed)."""
    arrays, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (str, int, float, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple)):
            todo += obj
        else:
            for klass in type(obj).__mro__:
                todo += [getattr(obj, slot) for slot in getattr(klass, "__slots__", ()) if hasattr(obj, slot)]
            todo += list(getattr(obj, "__dict__", {}).values())
    return arrays


class TestStandardPresentationCache:
    """The CLI builds one standard presentation, and its invariants, per
    (p, f, n) and process; bad input is refused every time."""

    def test_a_repeated_cell_gives_the_same_object(self):
        pres = cli._standard_presentation(3, 1, 4)
        assert cli._standard_presentation(3, 1, 4) is pres
        assert cli._standard_presentation(3, 2, 4) is not pres

    def test_a_second_oracle_op_builds_nothing(self, capsys, monkeypatch):
        argv = ["oracle", "--p", "3", "--n", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        built = []
        for klass in (DemushkinPresentation, BilinearForm):
            real = klass.__init__
            monkeypatch.setattr(klass, "__init__", lambda self, *a, real=real, **k: built.append(self) or real(self, *a, **k))
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert built == []

    @pytest.mark.parametrize("argv", [["present", "--n", "3"], ["present", "--p", "9"]], ids=["odd-n", "prime-power-p"])
    def test_bad_input_is_refused_each_time(self, capsys, argv):
        errors = []
        for _ in range(2):
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: ") and errors[0] == errors[1]

    def test_sweep_and_quotient_share_the_presentation(self, capsys, monkeypatch):
        seen = []
        real = cli.standard_involution
        monkeypatch.setattr(cli, "standard_involution", lambda pres: seen.append(pres) or real(pres))
        assert main(["sweep", "--sweep-n", "2", "--sweep-q", "3"]) == 0
        assert main(["quotient", "--p", "3", "--n", "2", "--signature", "1", "0"]) == 0
        capsys.readouterr()
        assert len(seen) == 2 and seen[0] is seen[1] is cli._standard_presentation(3, 1, 2)

    @pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 2, 4), (3, 12, 2)])
    def test_the_memos_hold_read_only_arrays(self, p, f, n):
        # the standard action kept on the presentation, the shared identity
        # and the cached sign pattern are read by every later op
        pres = cli._standard_presentation(p, f, n)
        action = standard_involution(pres)
        ident = ClassTwoEndo.identity(pres.gens, pres.mod)
        signs = standard_sign_pattern(n)
        named = [
            action.h1_matrix, action.signs, action.endo.images.gen_exp, action.endo.images.comm, action.endo.diagonal,
            ident.images.gen_exp, ident.images.comm, ident.diagonal, signs,
        ]
        arrays = reachable_arrays([pres, ident, signs])
        assert pres._standard_action is action
        assert all(any(a is b for b in arrays) for a in named)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]

    @pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 2, 4), (3, 12, 2)])
    def test_every_reachable_array_is_read_only(self, p, f, n):
        pres = cli._standard_presentation(p, f, n)
        coh = invariants(pres)
        arrays = reachable_arrays(pres)
        named = [pres.chi.values, pres.relator.gen_exp, pres.relator.comm, coh.cup.gram, coh.bockstein]
        assert all(any(a is b for b in arrays) for a in named)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]
