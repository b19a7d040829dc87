"""Byte-for-byte golden outputs of ``report`` on every bundled manifold.

The files under ``tests/golden`` pin both the human and the ``--machine``
format.  Regenerate one only for an intended output change, with
``python -m supervec report --manifold NAME [--machine] > tests/golden/...``.
"""

import io
from pathlib import Path

import pytest

from supervec.cli import main
from supervec.files import bundled_manifold_names

GOLDEN = Path(__file__).parent / "golden"


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
