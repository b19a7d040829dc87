"""Fuzz the CLI boundary with small manifold, pullback and flow inputs.

Each entry is at most seven tokens over a fixed alphabet, so most inputs are
rejected by the expression parser or the file checks, and the rest are tiny
manifolds and pullbacks.  Whatever the input, ``main`` must return 0, 2 or 3
without raising; on a nonzero exit stdout stays empty and stderr holds one
diagnostic (``error: <Code>: ...`` or argparse's ``usage:``); and a second
run in the same process, through the cached parser, gives the same result.
``weights`` is left out: its eigenvalue search has no bound on these inputs.
"""

import io
import re

from hypothesis import event, given, settings, strategies as st

from supervec.cli import main

TOKENS = ["z", "z^-2", "z^2", "t0", "t1", "t2", "t3", "3/2", "0.5", "i"] + list("()+-*/^")
ENTRY = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7).map(" ".join)
ODD_DIM = st.integers(min_value=0, max_value=2)
FUZZ = settings(max_examples=100, deadline=None)
DIAGNOSTIC = re.compile(r"(error: \w+: |usage:)")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    first = run(argv)
    code, out, err = first
    event("%s exit %d" % (argv[0], code))
    assert code in (0, 2, 3)
    if code:
        assert not out and DIAGNOSTIC.match(err), first
    else:
        assert out.endswith("\n") and not err, first
    assert run(argv) == first


@st.composite
def manifold_texts(draw):
    odd_dim = draw(ODD_DIM)
    entries = draw(st.lists(ENTRY, min_size=odd_dim + 1, max_size=odd_dim + 1))
    names = ["w"] + ["eta%d" % (j + 1) for j in range(odd_dim)]
    body = "".join("%s = %s\n" % pair for pair in zip(names, entries))
    return "[manifold]\nname = fuzz\nodd_dim = %d\n\n[transition]\n%s" % (odd_dim, body)


@st.composite
def pullback_texts(draw):
    odd_dim = draw(ODD_DIM)
    entries = draw(st.lists(ENTRY, min_size=odd_dim + 1, max_size=odd_dim + 1))
    names = ["z"] + ["t%d" % (j + 1) for j in range(odd_dim)]
    return "[pullback]\n" + "".join("%s = %s\n" % pair for pair in zip(names, entries))


@FUZZ
@given(
    text=manifold_texts(),
    command=st.sampled_from(["check", "vec", "gr", "brackets", "report"]),
    machine=st.booleans(),
)
def test_manifold_commands(tmp_path_factory, text, command, machine):
    path = tmp_path_factory.getbasetemp() / "fuzz.smf"
    path.write_text(text)
    check([command, "--manifold", str(path)] + (["--machine"] if machine else []))


@FUZZ
@given(text=pullback_texts(), command=st.sampled_from(["invert", "decompose"]), machine=st.booleans())
def test_pullback_commands(tmp_path_factory, text, command, machine):
    path = tmp_path_factory.getbasetemp() / "fuzz.spb"
    path.write_text(text)
    machine = machine and command == "decompose"
    check([command, "--pullback", str(path)] + (["--machine"] if machine else []))


@FUZZ
@given(field=ENTRY, time=ENTRY)
def test_flow(field, time):
    check(["flow", "--field=" + field, "--time=" + time])
