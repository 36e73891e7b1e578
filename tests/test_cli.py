"""End-to-end CLI behavior through main(argv)."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import quantlogic
from quantlogic import FormulaSyntaxError, parse
from quantlogic.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")

ENV_DOC = {
    "mode": "mul",
    "spaces": {
        "I": {"points": ["a", "b", "c", "d"], "weights": [1, 1, 1, 1]},
        "K": {"points": ["u", "v"], "weights": [0.5, 0.5]},
    },
    "atoms": {
        "phi": {"context": ["I"], "values": [0.25, 0.25, 0.25, 0.25]},
        "f": {"context": ["I"], "values": [3, 1, 0.5, 2]},
        "r": {"context": ["I", "K"], "values": [1, 2, 3, 4, 5, 6, 7, 8]},
    },
}


@pytest.fixture
def envfile(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(ENV_DOC))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_closed_formula(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "true")
    assert rc == 0
    assert out == "# true [mul]\n()\tinf\n"


def test_eval_quantified(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "E^2 (x in I). f(x)")
    assert rc == 0
    header, row, _ = out.split("\n")
    assert header == "# E^2.0 (x in I). f(x) [mul]"
    assert row == "()\t" + "%.12g" % math.sqrt(9 + 1 + 0.25 + 4)


def test_eval_free_variable_rows(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "f(x)")
    assert rc == 0
    assert out.split("\n")[1:5] == ["a\t3", "b\t1", "c\t0.5", "d\t2"]


def test_eval_two_variables_row_major(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "r(x, k)")
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert rows[0] == "a,u\t1" and rows[1] == "a,v\t2" and rows[2] == "b,u\t3"


def test_eval_separator_column(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "f(x)",
                     "--separator", "t=2")
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert rows == ["a\t3\ttrue", "b\t1\tfalse", "c\t0.5\tfalse", "d\t2\ttrue"]


def test_eval_mode_translation(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "f(x)", "--mode", "add")
    assert rc == 0
    rows = out.strip().split("\n")
    assert rows[0] == "# f(x) [add]"
    assert rows[1] == "a\t" + "%.12g" % -math.log(3.0)
    assert rows[2] == "b\t0"  # -log 1, with the negative zero scrubbed


def test_eval_separator_threshold_zero_rejected(envfile, capsys):
    rc, _, err = run(capsys, "eval", "--env", envfile, "f(x)", "--separator", "t=0")
    assert rc == 1
    assert err.startswith("error[INVALID_THRESHOLD]")


@pytest.mark.parametrize("formula", [
    "one" + "^*" * 5000,
    " (x) ".join(["one"] * 5000),
], ids=["dual-chain", "tensor-chain"])
def test_eval_deep_formula(envfile, capsys, formula):
    rc, out, _ = run(capsys, "eval", "--env", envfile, formula)
    assert rc == 0
    assert out.split("\n")[1:] == ["()\t1", ""]


def test_eval_too_deeply_nested_is_a_syntax_error(envfile, capsys):
    text = "(" * 5000 + "one" + ")" * 5000
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert err.value.code == "SYNTAX_ERROR"
    rc, _, err = run(capsys, "eval", "--env", envfile, text)
    assert rc == 1
    assert err.startswith("error[SYNTAX_ERROR]")


ONE_POINT = {"points": ["a"], "weights": [1]}


@pytest.mark.parametrize("doc", [
    {"spaces": [1]},
    {"atoms": [1]},
    {"spaces": {"I": {"points": 5, "weights": [1]}}},
    {"spaces": {"I": ONE_POINT}, "atoms": {"f": {"context": ["I"], "values": 5}}},
    {"spaces": {"I": ONE_POINT, "J": ONE_POINT},
     "atoms": {"f": {"context": "IJ", "values": [1]}}},
], ids=["spaces-list", "atoms-list", "points-number", "values-number",
        "context-string"])
def test_eval_malformed_environment(tmp_path, capsys, doc):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "eval", "--env", str(path), "true")
    assert rc == 1
    assert err.startswith("error[ENV_FORMAT]")


@pytest.mark.parametrize("key", ["spaces", "atoms"])
@pytest.mark.parametrize("value", [[], 0, "", False], ids=["list", "zero", "string", "false"])
def test_eval_environment_sections_must_be_objects(tmp_path, capsys, key, value):
    doc = {"mode": "mul", "spaces": {}, "atoms": {}}
    path = tmp_path / "env.json"
    for doc[key], rc_want in ((None, 0), (value, 1)):  # null reads as empty
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "eval", "--env", str(path), "true")
        assert rc == rc_want
    assert err.startswith("error[ENV_FORMAT]")


def test_eval_unknown_atom(envfile, capsys):
    rc, _, err = run(capsys, "eval", "--env", envfile, "zeta(x)")
    assert rc == 1
    assert err.startswith("error[UNKNOWN_ATOM]")


def test_eval_uninferrable_context(envfile, capsys):
    rc, _, err = run(capsys, "eval", "--env", envfile, "f(x, y)")
    assert rc == 1
    assert err.startswith("error[ATOM_ARITY]")


def test_eval_reports_the_first_fault_in_pre_order(envfile, capsys):
    # the quantifier's unknown space comes before the unknown atom zz
    rc, out, err = run(capsys, "eval", "--env", envfile, "E^1 (x in Nope). f(x) (x) zz(y)")
    assert rc == 1
    assert err.startswith("error[UNKNOWN_SPACE]")
    assert out == ""


BIG_WEIGHTS_DOC = {
    "mode": "mul",
    "spaces": {"I": {"points": ["a", "b"], "weights": [1e308, 1e308]}},
    "atoms": {"f": {"context": ["I"], "values": [1, 2]},
              "g": {"context": ["I"], "values": [1e300, 1e300]}},
}


@pytest.fixture
def bigfile(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_WEIGHTS_DOC))
    return str(path)


@pytest.mark.parametrize("formula, value", [
    # sqrt(1e308 * 1 + 1e308 * 4): the sum of the weighted squares overflows,
    # the mean does not
    ("E^2 (x in I). f(x)", "%.12g" % (math.sqrt(5.0) * 1e154)),
    # (2e308 * 1e150) ** 2 is beyond the double range
    ("E^0.5 (x in I). g(x)", "inf"),
])
def test_eval_overflowing_weights(bigfile, capsys, formula, value):
    rc, out, err = run(capsys, "eval", "--env", bigfile, formula)
    assert rc == 0, err
    assert out.split("\n")[1] == "()\t" + value


def test_doctrine_overflowing_weights(bigfile, capsys):
    rc, out, err = run(capsys, "doctrine", "--env", bigfile, "reflexivity", "--space", "I")
    assert rc == 0 or (rc == 1 and err.startswith("error[")), (rc, out, err)
    assert "nan" not in out + err and "Traceback" not in out + err


def test_doctrine_adjunction_overflowing_weights(bigfile, capsys):
    # normalizing [1e308, 1e308] gives [0.5, 0.5], not [0, 0]
    rc, out, err = run(capsys, "doctrine", "--env", bigfile, "adjunction", "--space", "I")
    assert rc == 0, err
    assert out.endswith("verdict=holds\n")


@pytest.mark.parametrize("weights, p, line", [
    # entails(phi, phi) is 1/(2e308) on both sides, not 1/inf = 0
    ([1e308, 1e308], "1", "check=reflexivity lhs=5e-309 rhs=5e-309 gap=0 verdict=holds"),
    # (2e-300) ** (-1/0.1) is beyond the double range on both sides
    ([1e-300, 1e-300], "0.1", "check=reflexivity lhs=inf rhs=inf gap=0 verdict=holds"),
])
def test_doctrine_reflexivity_extreme_mass(tmp_path, capsys, weights, p, line):
    path = tmp_path / "mass.json"
    path.write_text(json.dumps({"mode": "mul", "atoms": {},
                                "spaces": {"I": {"points": ["a", "b"], "weights": weights}}}))
    rc, out, err = run(capsys, "doctrine", "--env", str(path), "reflexivity", "--p", p)
    assert rc == 0, err
    assert out.split("\n")[0] == line


def test_plot_data_shape_and_bounds(envfile, capsys):
    rc, out, _ = run(capsys, "plot-data", "--env", envfile, "f",
                     "--grid", "1:4:4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,psum_pos,psum_neg,pmean_pos,pmean_neg,max,min"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        p, psum_pos, psum_neg, pmean_pos, pmean_neg, hi, lo = cells
        assert hi == 3.0 and lo == 0.5
        # with unit weights the sums bracket the extrema; the means sit
        # between the sums (this space has mass 4, so they can leave [lo, hi])
        assert psum_neg <= lo and hi <= psum_pos
        assert psum_neg - 1e-12 <= pmean_neg <= pmean_pos <= psum_pos + 1e-12
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]


def test_plot_data_is_deterministic(envfile, capsys):
    _, first, _ = run(capsys, "plot-data", "--env", envfile, "f")
    _, second, _ = run(capsys, "plot-data", "--env", envfile, "f")
    assert first == second


def test_plot_data_empty_support(tmp_path, capsys):
    doc = {"mode": "mul",
           "spaces": {"Z": {"points": ["a", "b"], "weights": [0, 0]}},
           "atoms": {"g": {"context": ["Z"], "values": [1, 2]}}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "plot-data", "--env", str(path), "g")
    assert rc == 1
    assert err.startswith("error[EMPTY_SUPPORT]")
    assert out == ""


@pytest.mark.parametrize("grid, code", [(["--grid", "0:1:3"], "P_ZERO_SUM"),
                                        (["--grid=-1:1:3"], "INVALID_P"),
                                        (["--grid", "-1:1:3"], "INVALID_P"),
                                        (["--grid", "-inf:1:3"], "GRID_FORMAT")])
def test_plot_data_failing_grid_point_prints_nothing(envfile, capsys, grid, code):
    rc, out, err = run(capsys, "plot-data", "--env", envfile, "f", *grid)
    assert rc == 1
    assert err.startswith(f"error[{code}]")
    assert out == ""


def test_plot_data_bad_grid(envfile, capsys):
    rc, _, err = run(capsys, "plot-data", "--env", envfile, "f",
                     "--grid", "1:2")
    assert rc == 1
    assert err.startswith("error[GRID_FORMAT]")


def test_softmax_output(envfile, capsys):
    rc, out, _ = run(capsys, "softmax", "--env", envfile, "phi")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[:4] == ["a\t0.25", "b\t0.25", "c\t0.25", "d\t0.25"]
    assert lines[4] == "integral=1"


def test_softmax_sharp(envfile, capsys):
    rc, out, _ = run(capsys, "softmax", "--env", envfile, "f", "--p", "inf")
    assert rc == 0
    assert out.split("\n")[0] == "a\t1"


def test_entropy_uniform(envfile, capsys):
    rc, out, _ = run(capsys, "entropy", "--env", envfile, "phi")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "H=1.386294361120, D=4.000000000000"
    assert lines[1].startswith("check exp(H)=") and lines[1].endswith("gap=0")


def test_entropy_near_order_zero(envfile, capsys):
    rc, out, _ = run(capsys, "entropy", "--env", envfile, "phi", "--p", "0.0001")
    assert rc == 0
    assert out.split("\n")[0] == "H=1.386294361120, D=4.000000000000"


def test_entropy_rejects_non_unitary(envfile, capsys):
    rc, _, err = run(capsys, "entropy", "--env", envfile, "f")
    assert rc == 1
    assert err.startswith("error[NOT_UNITARY]")


def test_doctrine_reflexivity(envfile, capsys):
    rc, out, _ = run(capsys, "doctrine", "--env", envfile, "reflexivity",
                     "--space", "I", "--p", "2")
    assert rc == 0
    first = out.split("\n")[0]
    assert first.startswith("check=reflexivity")
    assert "rhs=0.5" in first and "verdict=holds" in first


def test_doctrine_adjunction(envfile, capsys):
    rc, out, _ = run(capsys, "doctrine", "--env", envfile, "adjunction",
                     "--trials", "5")
    assert rc == 0
    assert out.startswith("check=adjunction trials=5 max|gap|=")
    assert "verdict=holds" in out


def test_doctrine_transitivity_search(envfile, capsys):
    rc, out, _ = run(capsys, "doctrine", "--env", envfile, "transitivity-search",
                     "--trials", "50")
    assert rc == 0  # finding the violation is the expected outcome
    assert "check=transitivity" in out and "verdict=violated" in out


def test_doctrine_transitivity_search_near_p_inf(envfile, capsys):
    # any true gap here is a few ulp, below the search's tolerance
    rc, out, err = run(capsys, "doctrine", "--env", envfile, "transitivity-search",
                       "--p", "1e15")
    assert (rc, out) == (1, "")
    assert err.startswith("error[NO_VIOLATION_FOUND]: 100 trials and the canned witness ")
    assert "tolerance" in err and "unexpected" not in err and "Traceback" not in err


def test_doctrine_laxity(envfile, capsys):
    rc, out, _ = run(capsys, "doctrine", "--env", envfile, "laxity")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("instance=lax check=laxity")
    assert any(line.startswith("instance=colax check=laxity") for line in lines)


def test_translate_round_trip(capsys):
    rc, out, _ = run(capsys, "translate", "0.5", "--mode", "add")
    assert rc == 0
    assert out.strip() == repr(-math.log(0.5))
    rc, back, _ = run(capsys, "translate", out.strip(), "--mode", "mul")
    assert rc == 0
    assert float(back.strip()) == pytest.approx(0.5, abs=1e-15)


def test_eval_invalid_literal_in_other_mode(envfile, capsys):
    rc, out, err = run(capsys, "eval", "--env", envfile, "--mode", "add", "f(x) (x) -2")
    assert rc == 1 and out == ""
    assert err.startswith("error[INVALID_VALUE]")


def test_translate_invalid_literal(capsys):
    rc, out, err = run(capsys, "translate", "--mode", "add", "f(x) (x) -2")
    assert rc == 1 and out == ""
    assert err.startswith("error[INVALID_VALUE]")


@pytest.mark.parametrize("argv, out", [
    (["eval", "--env", "ADD", "-inf"], "# -inf [add]\n()\t-inf\n"),
    (["eval", "-1e3", "--env", "ADD"], "# -1000.0 [add]\n()\t-1000\n"),
    (["translate", "--mode", "mul", "-0.5"], "1.6487212707001282\n"),
])
def test_formula_may_begin_with_minus(tmp_path, capsys, argv, out):
    path = tmp_path / "add.json"
    path.write_text(json.dumps({"mode": "add", "atoms": {},
                                "spaces": {"I": {"points": ["a"], "weights": [1]}}}))
    rc, got, err = run(capsys, *[str(path) if a == "ADD" else a for a in argv])
    assert (rc, got, err) == (0, out, "")


def test_consecutive_calls_share_no_state(envfile, capsys):
    # each call sees only its own subcommand and options, whatever ran before it
    calls = [
        ["eval", "--env", envfile, "--mode", "add", "--separator", "unitary", "one"],
        ["eval", "--env", envfile, "one"],
        ["plot-data", "--env", envfile, "f", "--grid", "1:2:2"],
        ["softmax", "--env", envfile, "f", "--p", "1"],
        ["entropy", "--env", envfile, "phi", "--p", "2"],
        ["doctrine", "--env", envfile, "reflexivity", "--space", "K"],
        ["translate", "0.5", "--mode", "add"],
        ["eval", "--env", envfile],
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert first[0][:2] == (0, "# one [add]\n()\t0\ttrue\n")
    assert first[1][:2] == (0, "# one [mul]\n()\t1\n")
    assert first[2][0] == 0 and first[2][1].startswith("p,psum_pos,")
    assert first[3][0] == 0 and first[3][1].endswith("integral=1\n")
    assert first[4][0] == 0 and first[4][1].startswith("H=1.386294361120, D=4.0")
    rc, out, _ = first[5]
    assert rc == 0 and "rhs=1 " in out and "p: 1.0" in out
    assert first[6][:2] == (0, repr(math.log(2.0)) + "\n")
    rc, _, err = first[7]
    assert rc == 1 and "the following arguments are required: formula" in err
    # between any two calls, a help text and an unknown command change nothing
    for argv, before in zip(calls[::-1], first[::-1]):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, *argv) == before


COMMANDS = ("eval", "plot-data", "softmax", "entropy", "doctrine", "translate")


def test_usage_and_help_read_as_from_the_whole_tree(envfile, capsys, monkeypatch):
    # main reuses one parser for every call; each text must be the one a
    # parser built afresh for that call prints, in this interpreter
    from quantlogic import cli

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    bogus = ("eval", "--env", envfile, "x", "--bogus")
    argvs = [(), ("--help",), ("bogus",), bogus,
             ("doctrine", "--env", envfile, "adjunction", "--trials", "0")]
    argvs += [(cmd, "--help") for cmd in COMMANDS] + [(cmd,) for cmd in COMMANDS]
    lazy = {argv: outcome(list(argv)) for argv in argvs}
    # main reads its parser from cli._parser, which reuses it: replace that,
    # so that this pass builds a new parser for every call
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert {argv: outcome(list(argv)) for argv in argvs} == lazy
    usage = "usage: quantlogic [-h] {eval,plot-data,softmax,entropy,doctrine,translate} ..."
    assert lazy[bogus] == (1, "", usage + "\nerror[USAGE]: unrecognized arguments: --bogus\n")
    # argparse names the subcommand argument by its dest, "command"
    assert lazy[()][2].endswith("error[USAGE]: the following arguments are required: command\n")
    assert "error[USAGE]: argument command: invalid choice: 'bogus'" in lazy[("bogus",)][2]
    for cmd in COMMANDS:
        rc, _, err = lazy[(cmd,)]
        assert rc == 1 and "error[USAGE]: the following arguments are required" in err


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every parser and subparser cli builds from here on, starting
    with no parser kept."""
    from quantlogic import cli

    built = []

    class Spy(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Spy)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def test_each_parser_is_built_once_per_process(envfile, capsys, parsers_built):
    calls = [
        ["eval", "--env", envfile, "one"],
        ["plot-data", "--env", envfile, "f", "--grid", "1:2:2"],
        ["softmax", "--env", envfile, "f"],
        ["entropy", "--env", envfile, "phi"],
        ["doctrine", "--env", envfile, "reflexivity"],
        ["translate", "0.5", "--mode", "add"],
    ]
    assert run(capsys, *calls[0])[0] == 0
    # the first call builds the parser with all six subcommands
    assert parsers_built == ["quantlogic"] + ["quantlogic " + cmd for cmd in COMMANDS]
    del parsers_built[:]
    for _ in range(3):
        assert [run(capsys, *argv)[0] for argv in calls] == [0] * 6
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert run(capsys)[0] == run(capsys, "bogus")[0] == 1
    for i in range(100):
        assert run(capsys, f"unknown{i}")[0] == 1
        assert run(capsys, "--p", str(i))[0] == 1
    # every later call, whatever its argv, reuses that parser
    assert parsers_built == []


def test_help_is_laid_out_at_each_call(capsys, monkeypatch):
    from quantlogic import cli

    def help_text(parse_args):
        with pytest.raises(SystemExit):
            parse_args(["eval", "--help"])
        return capsys.readouterr().out

    monkeypatch.setenv("COLUMNS", "80")
    wide = help_text(main)
    monkeypatch.setenv("COLUMNS", "40")
    narrow = help_text(main)  # from the parser the call at 80 columns used
    assert narrow == help_text(cli.build_parser().parse_args) != wide


def test_shared_parsers_parse_alike_in_threads(envfile):
    # 4 threads start from no kept parser, so they also race to build it
    from concurrent.futures import ThreadPoolExecutor

    from quantlogic import cli

    argvs = [
        ["eval", "--env", envfile, "--mode", "add", "--separator", "t=2", "f(x)"],
        ["plot-data", "--env", envfile, "f", "I", "--grid", "-1:1:3"],
        ["softmax", "--env", envfile, "f", "--p", "-inf"],
        ["entropy", "--env", envfile, "phi", "--p", "2"],
        ["doctrine", "--env", envfile, "adjunction", "--seed", "-3", "--trials", "7"],
        ["translate", "-0.5", "--mode", "mul"],
    ]
    jobs = [[argvs[(i + j) % len(argvs)] for j in range(50)] for i in range(4)]
    serial = [[cli.build_parser().parse_args(argv) for argv in job] for job in jobs]
    cli._parser.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda job: [cli._parser().parse_args(argv)
                                                for argv in job], job) for job in jobs]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert {ns.command for job in serial for ns in job} == set(COMMANDS)


def test_usage_errors_map_to_exit_one(envfile, capsys):
    rc, _, err = run(capsys, "eval", "true")  # --env missing
    assert rc == 1
    assert "error[USAGE]" in err


def test_missing_env_file(capsys):
    rc, _, err = run(capsys, "eval", "--env", "/no/such/file.json", "true")
    assert rc == 1
    assert err.startswith("error[") and ("ENV_IO" in err or "USAGE" in err)


def test_installed_entry_point(envfile, tmp_path):
    # Build the wrapper an installer would generate for the declared console
    # script, so the command runs this checkout's code with nothing installed.
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(PYPROJECT, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["quantlogic"]
    ep = EntryPoint("quantlogic", value, "console_scripts")
    assert ep.load() is main
    exe = tmp_path / "quantlogic"
    exe.write_text(f"#!{sys.executable}\n"
                   "import sys\n"
                   f"from {ep.module} import {ep.attr}\n"
                   f"sys.exit({ep.attr}())\n")
    exe.chmod(0o755)
    env = dict(os.environ,
               PYTHONPATH=str(Path(quantlogic.__file__).resolve().parents[1]))
    proc = subprocess.run([str(exe), "eval", "--env", envfile, "true"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "# true [mul]\n()\tinf\n"


def test_the_package_imports_only_the_standard_library():
    # compare before and after, since site hooks may preload other packages
    code = ("import sys; before = set(sys.modules); import quantlogic, quantlogic.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(quantlogic.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    new = proc.stdout.split()
    assert "quantlogic" in new
    assert [m for m in new if m != "quantlogic" and m not in sys.stdlib_module_names] == []


def test_eval_definite_separator(envfile, capsys):
    rc, out, _ = run(capsys, "eval", "--env", envfile, "f(x) \\/ true",
                     "--separator", "definite")
    assert rc == 0
    assert out.split("\n")[1] == "a\tinf\ttrue"
    rc, out, _ = run(capsys, "eval", "--env", envfile, "f(x)", "--separator", "definite")
    assert rc == 0
    assert out.split("\n")[1] == "a\t3\tfalse"


def test_eval_unknown_separator(envfile, capsys):
    rc, out, err = run(capsys, "eval", "--env", envfile, "f(x)", "--separator", "strict")
    assert rc == 1
    assert err.startswith("error[INVALID_SEPARATOR]")
    assert out == ""


@pytest.mark.parametrize("grid", ["a:1:3", "0.5:1:x", "0.5:1:0", "0.5:inf:3", "-inf:1:3"])
def test_plot_data_grid_formats(envfile, capsys, grid):
    rc, out, err = run(capsys, "plot-data", "--env", envfile, "f", f"--grid={grid}")
    assert rc == 1
    assert err.startswith("error[GRID_FORMAT]")
    assert out == ""


@pytest.mark.parametrize("argv", [["softmax", "f", "--p"], ["entropy", "phi", "--p"],
                                  ["eval", "f(x)", "--separator"]])
@pytest.mark.parametrize("text", ["Infinity", "1_0", "+1", ".5", "\u0661", "nan"])
def test_values_are_read_by_the_literal_grammar(envfile, capsys, argv, text):
    if argv[0] == "eval":
        text = "t=" + text
    rc, out, err = run(capsys, argv[0], "--env", envfile, *argv[1:], text)
    assert rc == 1
    assert err.startswith("error[INVALID_VALUE]")
    assert out == ""


@pytest.mark.parametrize("argv", [["adjunction", "--trials", "0"],
                                  ["adjunction", "--trials", "-5"],
                                  ["transitivity-search", "--trials", "-3"],
                                  ["adjunction", "--trials", "x"]])
def test_trial_counts_are_positive(envfile, capsys, argv):
    rc, out, err = run(capsys, "doctrine", "--env", envfile, *argv)
    assert rc == 1
    assert err.splitlines()[-1].startswith("error[USAGE]: argument --trials")
    assert out == ""


@pytest.mark.parametrize("grid", ["0.5:2:\u0663", "0.5:2:+3", "0.5:2:1_0", "0.5:2: 3",
                                  "0.5:2:3.0"])
def test_grid_counts_are_ascii_digits(envfile, capsys, grid):
    rc, out, err = run(capsys, "plot-data", "--env", envfile, "f", f"--grid={grid}")
    assert rc == 1
    assert err.startswith("error[GRID_FORMAT]")
    assert out == ""


@pytest.mark.parametrize("option, check", [("--trials", "adjunction"),
                                           ("--seed", "adjunction"),
                                           ("--trials", "transitivity-search"),
                                           ("--seed", "transitivity-search")])
@pytest.mark.parametrize("text", ["\u0663", "+3", "1_0", " 3", "3.0"])
def test_counts_and_seeds_are_ascii_digits(envfile, capsys, option, check, text):
    rc, out, err = run(capsys, "doctrine", "--env", envfile, check, option, text)
    assert rc == 1
    assert err.splitlines()[-1].startswith(f"error[USAGE]: argument {option}")
    assert out == ""


def test_a_seed_may_be_negative(envfile, capsys):
    rc, out, _ = run(capsys, "doctrine", "--env", envfile, "adjunction",
                     "--trials", "2", "--seed", "-7")
    assert rc == 0
    assert out.startswith("check=adjunction trials=2 ")


@pytest.mark.parametrize("p", ["2", "inf"])
def test_entropy_of_a_point_mass_prints_one_zero(tmp_path, capsys, p):
    doc = {"mode": "mul", "spaces": {"I": {"points": ["a", "b"], "weights": [1, 1]}},
           "atoms": {"phi": {"context": ["I"], "values": [1, 0]}}}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "entropy", "--env", str(path), "phi", "--p", p)
    assert rc == 0
    assert out.split("\n")[0] == "H=0.000000000000, D=1.000000000000"


def _readme_block(lang: str, containing: str) -> str:
    blocks = re.findall(r"```%s\n(.*?)```" % lang, README.read_text(), re.DOTALL)
    return next(b for b in blocks if containing in b)


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    (tmp_path / "env.json").write_text(_readme_block("json", '"atoms"'))
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _readme_block("sh", "quantlogic ").splitlines()
             if line.startswith("quantlogic ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_library_example_shows_its_results():
    # each line that ends in "# <value>" must evaluate to that value
    source = re.sub(r"^(.+?)\s+# (.+)$", r"shown.append((\1, \2))",
                    _readme_block("python", "from quantlogic import"), flags=re.MULTILINE)
    shown: list = []
    exec(source, {"shown": shown})
    assert shown == [(5.0, 5.0), ((5.0,), (5.0,))]


def test_plot_data_grid_of_one_point(envfile, capsys):
    rc, out, _ = run(capsys, "plot-data", "--env", envfile, "f", "--grid", "2:3:1")
    assert rc == 0
    header, *rows = out.strip().split("\n")
    assert len(rows) == 1 and rows[0].startswith("2,")


@pytest.mark.parametrize("argv, code", [
    (["softmax", "zeta"], "UNKNOWN_ATOM"),
    (["entropy", "zeta"], "UNKNOWN_ATOM"),
    (["plot-data", "zeta"], "UNKNOWN_ATOM"),
    (["softmax", "r"], "ATOM_ARITY"),
    (["entropy", "r"], "ATOM_ARITY"),
    (["plot-data", "r"], "ATOM_ARITY"),
    (["plot-data", "f", "K"], "ATOM_ARITY"),
])
def test_atom_commands_check_the_atom(envfile, capsys, argv, code):
    rc, out, err = run(capsys, argv[0], "--env", envfile, *argv[1:])
    assert rc == 1
    assert err.startswith(f"error[{code}]")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["plot-data", "f", "K"], "error[ATOM_ARITY]: atom 'f' expects a 'I' variable, "
                              "but 'x' ranges over 'K'"),
    (["plot-data", "f", "Nope"], "error[UNKNOWN_SPACE]: space 'Nope' not in environment"),
    (["plot-data", "zeta", "Nope"], "error[UNKNOWN_SPACE]: space 'Nope' not in environment"),
    (["softmax", "r"], "error[ATOM_ARITY]: atom 'r' takes 2 arguments, got 1"),
])
def test_atom_commands_report_the_library_error(envfile, capsys, argv, message):
    rc, out, err = run(capsys, argv[0], "--env", envfile, *argv[1:])
    assert (rc, out, err) == (1, "", message + "\n")


def test_doctrine_reflexivity_unknown_space(envfile, capsys):
    rc, _, err = run(capsys, "doctrine", "--env", envfile, "reflexivity", "--space", "Nope")
    assert rc == 1
    assert err.startswith("error[UNKNOWN_SPACE]")


def test_doctrine_reflexivity_without_spaces(tmp_path, capsys):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"mode": "mul"}))
    rc, _, err = run(capsys, "doctrine", "--env", str(path), "reflexivity")
    assert rc == 1
    assert err.startswith("error[UNKNOWN_SPACE]")


def test_doctrine_reflexivity_of_an_atom(envfile, capsys):
    rc, out, _ = run(capsys, "doctrine", "--env", envfile, "reflexivity",
                     "--space", "I", "--atom", "f")
    assert rc == 0
    first = out.split("\n")[0]
    assert "lhs=0.25 rhs=0.25" in first and "verdict=holds" in first


def test_a_failed_output_write_is_output_io(envfile, capsys, monkeypatch):
    # the environment was read, so the error names the output, not the file
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    rc = main(["eval", "--env", envfile, "f(x)"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error[OUTPUT_IO]") and "Broken pipe" in err
    assert "Traceback" not in err
