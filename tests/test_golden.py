"""Byte-for-byte golden outputs of the CLI.

The files under ``tests/golden`` pin ``report`` (human and ``--machine``) and
``gr --machine`` on every bundled manifold, ``vec --machine`` on the
synthetic manifolds of ``test_solver_oracle`` at their default cap and at
cap + 2, and ``brackets --machine`` on the same synthetic manifolds at their
default cap.  Regenerate one only for an intended output change, with
``python -m supervec report --manifold NAME [--machine] > tests/golden/...``
(likewise ``gr``, ``vec`` and ``brackets``).
"""

import io
from pathlib import Path

import pytest

from supervec.cli import main
from supervec.files import bundled_manifold_names, parse_manifold_text
from supervec.liealg import default_cap
from test_solver_oracle import SYNTHETIC

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out, err) == 0
    assert err.getvalue() == ""
    return out.getvalue()


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
@pytest.mark.parametrize("name", bundled_manifold_names())
def test_report_matches_golden(name, machine):
    argv = ["report", "--manifold", name] + (["--machine"] if machine else [])
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out, err) == 0
    suffix = ".machine.txt" if machine else ".txt"
    expected = (GOLDEN / ("report-" + name + suffix)).read_text()
    assert out.getvalue() == expected
    assert err.getvalue() == ""


@pytest.mark.parametrize("name", bundled_manifold_names())
def test_gr_matches_golden(name):
    expected = (GOLDEN / ("gr-" + name + ".machine.txt")).read_text()
    assert run_cli(["gr", "--manifold", name, "--machine"]) == expected


def write_synthetic(tmp_path, name):
    text = "[manifold]\nname = %s\n%s" % (name, SYNTHETIC[name])
    path = tmp_path / (name + ".smf")
    path.write_text(text)
    return text, path


@pytest.mark.parametrize("extra", [0, 2], ids=["cap", "cap+2"])
@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_vec_on_synthetic_matches_golden(tmp_path, name, extra):
    text, path = write_synthetic(tmp_path, name)
    argv = ["vec", "--manifold", str(path), "--machine"]
    stem = "vec-" + name
    if extra:
        cap = default_cap(parse_manifold_text(text)) + extra
        argv += ["--cap", str(cap)]
        stem += "-cap%d" % cap
    expected = (GOLDEN / (stem + ".machine.txt")).read_text()
    assert run_cli(argv) == expected


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_brackets_on_synthetic_matches_golden(tmp_path, name):
    _, path = write_synthetic(tmp_path, name)
    expected = (GOLDEN / ("brackets-" + name + ".machine.txt")).read_text()
    assert run_cli(["brackets", "--manifold", str(path), "--machine"]) == expected
