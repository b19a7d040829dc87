import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bundled_manifold_names
import supervec
from supervec import cli, derivations, liealg
from supervec.cli import main
from supervec.errors import FileFormatError
from supervec.files import (
    load_bundled_manifold,
    load_manifold,
    load_pullback,
    manifold_text,
    parse_manifold_text,
    parse_pullback_text,
    pullback_text,
    resolve_manifold,
)
from supervec.geometry import CHART0, SuperManifoldData
from supervec.grassmann import PullbackData
from supervec.scalars import Polynomial


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_bundled_manifolds_roundtrip():
    names = bundled_manifold_names()
    assert names == sorted(
        ["k-1", "k0", "k1", "k2", "k3", "k5", "split-2-2", "split-3-1", "nonsplit-2-2", "c01"]
    )
    from importlib import resources

    for name in names:
        manifold = load_bundled_manifold(name)
        raw = resources.files("supervec").joinpath("manifolds", name + ".smf").read_text()
        assert manifold_text(manifold) == raw
        assert parse_manifold_text(manifold_text(manifold)) == manifold


def test_manifold_file_errors(tmp_path):
    bad = tmp_path / "bad.smf"
    bad.write_text("[manifold]\nname = x\n")
    with pytest.raises(FileFormatError):
        load_manifold(bad)
    bad.write_text("[manifold]\nname = x\nodd_dim = 1\n")
    with pytest.raises(FileFormatError):
        load_manifold(bad)
    bad.write_text("[manifold]\nname = x\nodd_dim = 1\nkind = weird\n")
    with pytest.raises(FileFormatError):
        load_manifold(bad)
    bad.write_text("[manifold]\nname = x\nodd_dim = 2\n\n[transition]\nw = z^-1\neta1 = z*t1\n")
    with pytest.raises(FileFormatError):
        load_manifold(bad)
    with pytest.raises(FileFormatError):
        load_manifold(tmp_path / "missing.smf")
    with pytest.raises(FileFormatError):
        resolve_manifold("no-such-bundle")


def test_pullback_roundtrip(tmp_path):
    text = "[pullback]\nz = z + 2*z^3*t1*t2\nt1 = t1\nt2 = t2\n"
    p = parse_pullback_text(text)
    assert p.source_chart == CHART0 and p.target_chart == CHART0
    assert pullback_text(p) == text
    path = tmp_path / "p.spb"
    path.write_text(text)
    assert load_pullback(path) == p


def test_pullback_file_errors(tmp_path):
    with pytest.raises(FileFormatError):
        parse_pullback_text("[pullback]\nz = z\nt2 = t2\n")
    with pytest.raises(FileFormatError):
        parse_pullback_text("[pullback]\nt1 = t1\n")
    with pytest.raises(FileFormatError):
        # odd image with even parity
        parse_pullback_text("[pullback]\nz = z\nt1 = 1\n")


def test_cli_vec_bundled():
    code, out, err = run(["vec", "--manifold", "k2"])
    assert code == 0 and not err
    assert "dim even: 4" in out and "dim odd: 4" in out


def test_cli_vec_machine_deterministic():
    runs = [run(["vec", "--manifold", "nonsplit-2-2", "--machine"]) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    assert "dim_even=6" in out and "dim_odd=6" in out


def test_cli_gr_emits_split_file():
    code, out, err = run(["gr", "--manifold", "nonsplit-2-2"])
    assert code == 0
    assert "w = z^-1\n" in out
    assert "even 6" in out and "even 7" in out
    assert "total 12 <= 13: holds" in out


def test_cli_check_bad_file(tmp_path):
    bad = tmp_path / "bad.smf"
    bad.write_text("[manifold]\nname = bad\nodd_dim = 1\n\n[transition]\nw = z\neta1 = t1\n")
    code, out, err = run(["check", "--manifold", str(bad)])
    assert code == 2
    assert "BadReducedMap" in err
    assert not out


def test_cli_check_ok(tmp_path):
    code, out, err = run(["check", "--manifold", "c01"])
    assert code == 0 and "ok: c01" in out


def test_cli_syntax_error_exit_2(tmp_path):
    bad = tmp_path / "bad.smf"
    bad.write_text("[manifold]\nname = bad\nodd_dim = 1\n\n[transition]\nw = z^-1\neta1 = t1*t1\n")
    code, out, err = run(["check", "--manifold", str(bad)])
    assert code == 2
    assert "RepeatedOddVariable" in err


def test_cli_math_error_exit_3():
    code, out, err = run(["vec", "--manifold", "k5", "--cap", "3"])
    assert code == 3
    assert "CapNotSaturated" in err


def test_cli_negative_cap_exit_2():
    # below -2 both kernels are empty and the saturation check cannot see it
    for name in ("k2", "c01"):
        for cap in ("-1", "-3"):
            code, out, err = run(["vec", "--manifold", name, "--cap", cap])
            assert code == 2
            assert not out and "NegativeCap" in err


def test_cli_cap_only_on_the_commands_that_solve():
    code, out, err = run(["check", "--manifold", "k2", "--cap", "1"])
    assert (code, out) == (2, "")
    assert err.endswith("supervec: error: unrecognized arguments: --cap 1\n")
    assert run(["vec", "--manifold", "k2", "--cap", "-1"]) == (
        2, "", "error: NegativeCap: degree cap must be non-negative, got -1\n"
    )
    assert run(["check", "--manifold", "k2"]) == (0, "ok: k2 (odd_dim 1, kind p1)\n", "")
    assert run(["check", "--manifold", "k2", "--machine"]) == (0, "name=k2\nvalid=true\n", "")


def test_cli_huge_bundle_degree_exit_3(tmp_path):
    # the default cap of this transition is about 1e20: refused before any row
    huge = tmp_path / "huge.smf"
    huge.write_text(
        "[manifold]\nname = huge\nodd_dim = 1\n\n[transition]\nw = z^-1\n"
        "eta1 = z^-99999999999999999999*t1\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(supervec.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "supervec", "vec", "--manifold", str(huge), "--machine"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 3 and not done.stdout
    assert "SystemTooLarge" in done.stderr and "150000" in done.stderr
    assert "Traceback" not in done.stderr
    code, out, err = run(["vec", "--manifold", "k2", "--cap", "99999999999999999999"])
    assert code == 3 and not out and "SystemTooLarge" in err


def test_cli_gr_inequality_violation_exit_3(monkeypatch):
    # pretend the split model is k5, whose 10 fields are fewer than the 12 of
    # nonsplit-2-2, so the inequality check in gr_comparison must fire
    k5 = load_bundled_manifold("k5")
    monkeypatch.setattr(SuperManifoldData, "gr", lambda self: k5)
    for argv in (["report", "--manifold", "nonsplit-2-2"], ["gr", "--manifold", "nonsplit-2-2"]):
        code, out, err = run(argv)
        assert code == 3
        assert not out
        assert "GrInequalityViolated" in err and "12" in err and "10" in err


def test_cli_decompose_postconditions_exit_3(monkeypatch, tmp_path):
    # a recombination that always returns the identity breaks both checks:
    # with n = 1 only the final comparison runs, with n = 2 the degree-2
    # residual survives first
    def identity(parts):
        return PullbackData.identity(CHART0, parts.degree_zero.odd_dim)

    monkeypatch.setattr(derivations, "recombine", identity)
    cases = (
        ("[pullback]\nz = 2*z\nt1 = t1\n", "RecombinationMismatch"),
        ("[pullback]\nz = z + z^2*t1*t2\nt1 = 2*t1\nt2 = 1/2*t2\n", "ResidualNotCleared"),
    )
    for text, code_name in cases:
        p = tmp_path / "p.spb"
        p.write_text(text)
        code, out, err = run(["decompose", "--pullback", str(p)])
        assert code == 3
        assert not out and code_name in err


def test_cli_weights_inexact_root_division_exit_3(monkeypatch):
    monkeypatch.setattr(liealg, "divmod", lambda p, q: (p, Polynomial.one()), raising=False)
    code, out, err = run(["weights", "--manifold", "k1", "--cartan", "1"])
    assert code == 3
    assert not out and "InexactRootDivision" in err


def test_report_under_python_O_matches():
    # the postconditions are coded checks, not asserts, so -O changes nothing
    argv = ["report", "--manifold", "nonsplit-2-2", "--machine"]
    env = dict(os.environ, PYTHONPATH=str(Path(supervec.__file__).parents[1]))
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "supervec", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, out, err = run(argv)
    assert code == 0
    assert optimized.stdout == out and not optimized.stderr


def test_cli_flow_rejects_decimal_time():
    for time in ("0.5", "1e3", "1_0"):
        code, out, err = run(["flow", "--field", "z^3*t1*t2", "--time", time])
        assert code == 2
        assert not out and "SyntaxError" in err


def test_cli_weights():
    code, out, err = run(["weights", "--manifold", "k1", "--cartan", "1"])
    assert code == 0
    assert "multiplicity" in out
    code, out, err = run(["weights", "--manifold", "k1", "--cartan", "5"])
    assert code == 3 and "OddCartan" in err


def test_cli_weights_checks_cartan_before_brackets(monkeypatch):
    def no_brackets(basis):
        raise AssertionError("structure constants built before the --cartan check")

    monkeypatch.setattr(cli, "structure_constants", no_brackets)
    code, out, err = run(["weights", "--manifold", "k1", "--cartan", "5"])
    assert code == 3
    assert not out and "OddCartan" in err


@pytest.mark.parametrize("odd_dim", ["-1", "10"])
def test_cli_flow_rejects_odd_dim_outside_t1_t9(odd_dim):
    code, out, err = run(["flow", "--field", "0", "--time", "1", "--odd-dim", odd_dim])
    assert code == 2
    assert not out and "BadOddDim" in err


def test_cli_flow_odd_dim_zero_infers():
    code, out, err = run(["flow", "--field", "z^3*t1*t2", "--time", "2", "--odd-dim", "0"])
    assert code == 0
    assert out == "[pullback]\nz = z + 2*z^3*t1*t2\nt1 = t1\nt2 = t2\n"


def test_files_reject_odd_dim_above_9(tmp_path):
    etas = "".join("eta%d = z^-1*t%d\n" % (j, min(j, 9)) for j in range(1, 11))
    bad = tmp_path / "big.smf"
    bad.write_text("[manifold]\nname = big\nodd_dim = 10\n\n[transition]\nw = z^-1\n" + etas)
    with pytest.raises(FileFormatError, match="t1..t9"):
        load_manifold(bad)
    code, out, err = run(["check", "--manifold", str(bad)])
    assert code == 2
    assert not out and "BadFile" in err and "at most 9" in err
    odd = "".join("t%d = t%d\n" % (j, min(j, 9)) for j in range(1, 11))
    pullback = tmp_path / "big.spb"
    pullback.write_text("[pullback]\nz = z\n" + odd)
    code, out, err = run(["invert", "--pullback", str(pullback)])
    assert code == 2
    assert not out and "BadFile" in err and "t1..t9" in err


def test_cli_brackets_point():
    code, out, err = run(["brackets", "--manifold", "c01"])
    assert code == 0
    assert "[b0,b1] = -1*b1" in out
    assert "jacobi: pass" in out


def test_cli_flow_and_files(tmp_path):
    code, out, err = run(["flow", "--field", "z^3*t1*t2", "--time", "2"])
    assert code == 0
    assert out == "[pullback]\nz = z + 2*z^3*t1*t2\nt1 = t1\nt2 = t2\n"
    p = tmp_path / "p.spb"
    p.write_text(out)
    code, inv_text, err = run(["invert", "--pullback", str(p)])
    assert code == 0
    assert inv_text == "[pullback]\nz = z - 2*z^3*t1*t2\nt1 = t1\nt2 = t2\n"
    q = tmp_path / "q.spb"
    q.write_text(inv_text)
    code, composed, err = run(["compose", str(p), str(q)])
    assert code == 0
    assert composed == "[pullback]\nz = z\nt1 = t1\nt2 = t2\n"


def test_cli_compose_names_an_odd_dimension_mismatch(tmp_path):
    p, q = tmp_path / "p.spb", tmp_path / "q.spb"
    p.write_text("[pullback]\nz = z\nt1 = t1\n")
    q.write_text("[pullback]\nz = z\nt1 = t1\nt2 = t2\n")
    code, out, err = run(["compose", str(p), str(q)])
    assert code == 3
    assert not out
    assert err == "error: ChartMismatch: cannot compose: outer odd dimension 1 != inner 2\n"


def test_cli_decompose(tmp_path):
    p = tmp_path / "p.spb"
    p.write_text("[pullback]\nz = z + z^2*t1*t2\nt1 = 2*t1\nt2 = 1/2*t2\n")
    code, out, err = run(["decompose", "--pullback", str(p)])
    assert code == 0
    assert "z = z\nt1 = 2*t1\nt2 = 1/2*t2" in out
    assert "generator" in out and "d/dz" in out


def test_cli_report_machine():
    code, out, err = run(["report", "--manifold", "k3", "--machine"])
    assert code == 0
    assert "split_supergroup=true" in out
    assert "jacobi=true" in out
    code, out, err = run(["report", "--manifold", "k1", "--machine"])
    assert "split_supergroup=false" in out


def test_cli_report_human_deterministic():
    a = run(["report", "--manifold", "split-3-1"])
    b = run(["report", "--manifold", "split-3-1"])
    assert a == b and a[0] == 0


def test_cli_missing_args_exit_2():
    code, out, err = run(["vec"])
    assert code == 2
    assert "usage:" in err and not out


def test_cli_help_goes_to_out():
    code, out, err = run(["--help"])
    assert code == 0
    assert "usage:" in out and not err


def test_cli_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_call_sequence_in_one_process():
    # the cached parser carries nothing from one call to the next
    golden = (Path(__file__).parent / "golden" / "report-k2.machine.txt").read_text()
    report = ["report", "--manifold", "k2", "--machine"]
    results = [
        run(["vec", "--cap"]),
        run(["vec", "--manifold", "k5", "--cap", "3"]),
        run(["--help"]),
        run(report),
        run(["vec", "--manifold", "k2", "--cap", "6", "--machine"]),
        run(report),
    ]
    assert [code for code, _, _ in results] == [2, 3, 0, 0, 0, 0]
    assert results[3] == results[5] == (0, golden, "")
    for code, out, err in results:
        if code:
            assert not out and err


@pytest.mark.parametrize(
    "text, where",
    [("name = x\n", "line: 1"), ("[manifold]\nname\n", "[line 2]")],
    ids=["no-section-header", "no-equals-sign"],
)
def test_cli_bad_file_diagnostic_is_one_line(tmp_path, text, where):
    bad = tmp_path / "a.smf"
    bad.write_text(text)
    code, out, err = run(["check", "--manifold", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: BadFile: cannot parse %s: " % bad)
    assert err.count("\n") == 1 and err.endswith("\n") and where in err


SECTIONS = "[manifold]\nname = x\nodd_dim = 1\n\n[transition]\n"
CODED_INPUT_ERRORS = {
    "no-manifold-section": (
        "check", "[transition]\nw = z^-1\n", 2, "BadFile", "missing [manifold] section"
    ),
    "no-name": ("check", "[manifold]\nodd_dim = 1\n", 2, "BadFile", "missing manifold name"),
    # a name is one line, so it cannot forge the --machine lines that follow it
    "name-continuation-line": (
        "vec --machine", "[manifold]\nname = a\n  dim_even=99\nodd_dim = 1\n\n[transition]\n"
        "w = z^-1\neta1 = t1\n", 2, "BadFile", "manifold name must be one line",
    ),
    "name-line-separator": (
        "vec --machine", SECTIONS.replace("= x", "= a\u2028dim_even=99") + "w = z^-1\neta1 = t1\n",
        2, "BadFile", "manifold name must be one line",
    ),
    "name-next-line": (
        "vec --machine", SECTIONS.replace("= x", "= a\u0085dim_even=99") + "w = z^-1\neta1 = t1\n",
        2, "BadFile", "manifold name must be one line",
    ),
    "point-with-transition": (
        "check", "[manifold]\nname = x\nodd_dim = 1\nkind = c01\n\n[transition]\nw = z\n",
        2, "BadFile", "the single-chart point takes no transition",
    ),
    "extra-transition-entry": (
        "check", SECTIONS + "w = z^-1\neta1 = t1\neta2 = t1\n",
        2, "BadFile", "unexpected transition entries: ['eta2']",
    ),
    "no-pullback-section": (
        "invert", "[pull]\nz = z\n", 2, "BadFile", "missing [pullback] section"
    ),
    "t-without-digit": (
        "check", SECTIONS + "w = z^-1\neta1 = t\n",
        2, "SyntaxError", "odd variable needs a digit index (at position 0)",
    ),
    "t0-field": (
        "flow", "t0*t1", 2, "SyntaxError", "odd variables start at t1, not t0 (at position 0)"
    ),
    "t0-transition": (
        "check", SECTIONS + "w = z^-1\neta1 = z*t0\n",
        2, "SyntaxError", "odd variables start at t1, not t0 (at position 2)",
    ),
    "unexpected-character": (
        "check", SECTIONS + "w = z$\neta1 = t1\n",
        2, "SyntaxError", "unexpected character '$' (at position 1)",
    ),
    "flow-nested-parentheses": (
        "flow", "(" * 250 + "z" + ")" * 250,
        2, "SyntaxError", "parentheses nested deeper than 100 levels (at position 100)",
    ),
    "transition-nested-parentheses": (
        "check", SECTIONS + "w = %sz^-1%s\neta1 = t1\n" % ("(" * 300, ")" * 300),
        2, "SyntaxError", "parentheses nested deeper than 100 levels (at position 100)",
    ),
    "superscript-exponent": (
        "flow", "z^\u00b2", 2, "SyntaxError", "unexpected character '\u00b2' (at position 2)"
    ),
    "superscript-odd-index": (
        "flow", "t\u00b2", 2, "SyntaxError", "odd variable needs a digit index (at position 0)"
    ),
    "arabic-indic-digit": (
        "flow", "\u0663*t1*t2",
        2, "SyntaxError", "unexpected character '\u0663' (at position 0)",
    ),
    "constant-reduced-map": (
        "decompose", "[pullback]\nz = 1\nt1 = t1\n",
        3, "NotInvertible", "reduced even map has vanishing differential",
    ),
    # integers are ASCII digits in files and options alike
    "arabic-indic-odd-dim": (
        "check", SECTIONS.replace("= 1", "= \u0661") + "w = z^-1\neta1 = t1\n",
        2, "BadFile", "odd_dim must be an integer",
    ),
    "arabic-indic-cap": (
        "vec --cap=\u0661", SECTIONS + "w = z^-1\neta1 = t1\n",
        2, "SyntaxError", "not an integer: '\u0661' (at position 0)",
    ),
    "arabic-indic-cartan": (
        "weights --cartan=\u0661", SECTIONS + "w = z^-1\neta1 = t1\n",
        2, "SyntaxError", "not an integer: '\u0661' (at position 0)",
    ),
    "arabic-indic-odd-dim-option": (
        "flow --odd-dim=\u0661", "z*t1*t2",
        2, "SyntaxError", "not an integer: '\u0661' (at position 0)",
    ),
    # literals are bounded by MAX_DIGITS = 4300, Python's int <-> str limit
    "long-literal-field": (
        "flow", "z + " + "7" * 4301 + "*t1*t2",
        2, "SyntaxError", "integer literal longer than 4300 digits (at position 4)",
    ),
    "long-literal-time": (
        "flow --time=-1/" + "7" * 4301, "z*t1*t2",
        2, "SyntaxError", "integer literal longer than 4300 digits (at position 3)",
    ),
    "long-literal-transition": (
        "check", SECTIONS + "w = z^-1\neta1 = %s*t1\n" % ("7" * 5000),
        2, "SyntaxError", "integer literal longer than 4300 digits (at position 0)",
    ),
    # and so is every printed integer: the square of a 3000-digit literal is not
    "long-printed-coefficient": (
        "flow", "%s*%s*t1*t2" % ("7" * 3000, "7" * 3000),
        3, "NumberTooLong", "cannot print an integer longer than 4300 digits",
    ),
}


@pytest.mark.parametrize("case", sorted(CODED_INPUT_ERRORS))
def test_cli_coded_input_errors(tmp_path, case):
    command, text, exit_code, code, message = CODED_INPUT_ERRORS[case]
    command, *options = command.split()
    if command == "flow":
        argv = [command, "--field=" + text, "--time=1"]  # a later --time wins
    else:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = [command, "--pullback" if command in ("invert", "decompose") else "--manifold", str(path)]
    argv += options
    diagnostic = "error: %s: %s\n" % (code, message)
    assert run(argv) == (exit_code, "", diagnostic)


def test_repeated_odd_variable_keeps_its_code(tmp_path):
    # RepeatedOddVariable is an ExprSyntaxError with its own code, and the
    # odd_dim reader, whose ExprSyntaxError becomes BadFile, cannot raise it
    assert run(["flow", "--field", "t1*t1", "--time", "1"]) == (
        2, "", "error: RepeatedOddVariable: odd variable t1 repeated (at position 3)\n"
    )
    path = tmp_path / "m.smf"
    path.write_text(SECTIONS.replace("= 1", "= 1/2") + "w = z^-1\neta1 = t1\n")
    assert run(["check", "--manifold", str(path)]) == (
        2, "", "error: BadFile: odd_dim must be an integer\n"
    )


def test_cli_exponent_with_plus_sign_reads_like_unsigned(tmp_path):
    outputs = []
    for power in ("z^+2", "z^2"):
        path = tmp_path / "m.smf"
        path.write_text(SECTIONS + "w = z^-1\neta1 = %s*t1\n" % power)
        outputs.append(run(["gr", "--manifold", str(path), "--machine"]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_point_file_rejects_higher_odd_dim(tmp_path):
    bad = tmp_path / "bad.smf"
    bad.write_text("[manifold]\nname = pt\nodd_dim = 2\nkind = c01\n")
    with pytest.raises(FileFormatError):
        load_manifold(bad)


def test_cli_gr_machine():
    code, out, err = run(["gr", "--manifold", "nonsplit-2-2", "--machine"])
    assert code == 0
    assert "dim_even=6" in out and "gr.dim_even=7" in out and "split=false" in out


def test_cli_report_echoes_transition():
    code, out, err = run(["report", "--manifold", "nonsplit-2-2", "--machine"])
    assert code == 0
    assert "transition.w=z^-1 + z^-3*t1*t2" in out
    assert "gr.inequality=holds" in out
    code, out, err = run(["report", "--manifold", "k2"])
    assert "w = z^-1" in out
    assert "gr inequality (total 8 <= 8): holds" in out


def _line_bundle_text(k):
    return "[manifold]\nname = k%d\nodd_dim = 1\n\n[transition]\nw = z^-1\neta1 = z^-%d*t1\n" % (k, k)


def _machine_weights(out):
    return {
        int(key[len("weight."):]): int(value)
        for key, value in (line.split("=") for line in out.splitlines())
        if key.startswith("weight.")
    }


@pytest.mark.parametrize("k", [6, 10, 14])
def test_cli_weights_on_line_bundles_unchanged(tmp_path, k):
    # the weights of b1 are k, k-1, ..., 0, each once, as the divisor search printed
    path = tmp_path / ("k%d.smf" % k)
    path.write_text(_line_bundle_text(k))
    code, out, err = run(["weights", "--manifold", str(path), "--cartan", "1", "--machine"])
    assert code == 0 and not err
    expected = "name=k%d\nodd_dim=1\nkind=p1\ncartan=1\n" % k
    expected += "".join("weight.%d=1\n" % w for w in range(k, -1, -1))
    assert out == expected


@pytest.mark.parametrize("k", [18, 30])
def test_cli_weights_on_large_line_bundles(tmp_path, k):
    # the constant term is k!, whose divisors the search no longer enumerates
    path = tmp_path / ("k%d.smf" % k)
    path.write_text(_line_bundle_text(k))
    code, out, err = run(["weights", "--manifold", str(path), "--cartan", "1", "--machine"])
    assert code == 0 and not err
    code, vec_out, err = run(["vec", "--manifold", str(path), "--machine"])
    assert code == 0
    dim_odd = int(next(l for l in vec_out.splitlines() if l.startswith("dim_odd="))[8:])
    assert sum(_machine_weights(out).values()) == dim_odd
    assert _machine_weights(out) == dict.fromkeys(range(k + 1), 1)
