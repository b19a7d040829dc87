"""Fuzz the CLI boundary with small manifold, pullback and flow inputs.

Each entry is at most seven tokens over a fixed alphabet, so most inputs are
rejected by the expression parser or the file checks, and the rest are tiny
manifolds and pullbacks.  A manifold's ``w`` is one of a few valid reduced
maps and only its odd images are fuzzed, half of them as a fuzzed
coefficient of their own odd variable, so the manifold commands also run
their solve, bracket and report bodies.  Whatever the input, ``main`` must
return 0, 2 or 3 without raising; on a nonzero exit stdout stays empty and
stderr holds one diagnostic line, ``error: <Code>: ...``; and a second run
in the same process, through the cached parser, gives the same result.
``weights`` runs with ``--cartan 0``, and exits 0 on under 1% of fuzzed
manifolds, so a pinned (1|1) manifold runs every manifold command, and
``weights --cartan 1``, to exit 0 in both output forms on every run.
"""

import io
import re

import pytest
from hypothesis import event, given, settings, strategies as st

from supervec.cli import main

TOKENS = ["z", "z^-2", "z^2", "z^+2", "t", "t0", "t1", "t2", "t3", "3/2", "0.5", "i"]
TOKENS += ["\u00b2", "\u0663"]  # superscript two and Arabic-Indic three: not ASCII digits
TOKENS += list("()+-*/^")
ENTRY = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7).map(" ".join)
# even coefficients of an odd variable: a valid one-token term, or up to
# three tokens without odd variables or decimals
EVEN_TERMS = ["z", "z^-2", "z^2", "3/2", "i"]
COEFF = st.one_of(
    st.sampled_from(EVEN_TERMS),
    st.lists(st.sampled_from(EVEN_TERMS + list("()+-*/^")), min_size=1, max_size=3).map(" ".join),
)
REDUCED_MAPS = ["z^-1", "1/z", "z / z^2"]
ODD_DIM = st.integers(min_value=0, max_value=2)
FUZZ = settings(max_examples=100, deadline=None)
DIAGNOSTIC = re.compile(r"error: \w+: [^\n]*\n\Z")
MANIFOLD_COMMANDS = ["check", "vec", "gr", "brackets", "report"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    first = run(argv)
    code, out, err = first
    assert code in (0, 2, 3)
    if code:
        assert not out and DIAGNOSTIC.match(err), first
    else:
        assert out.endswith("\n") and not err, first
    assert run(argv) == first
    return code


def manifold_text(odd_dim, w, etas):
    body = "w = %s\n" % w + "".join("eta%d = %s\n" % (j + 1, eta) for j, eta in enumerate(etas))
    return "[manifold]\nname = fuzz\nodd_dim = %d\n\n[transition]\n%s" % (odd_dim, body)


@st.composite
def manifold_texts(draw):
    odd_dim = draw(ODD_DIM)
    etas = [
        draw(st.one_of(ENTRY, COEFF.map(lambda c, j=j: "(%s) * t%d" % (c, j + 1))))
        for j in range(odd_dim)
    ]
    return manifold_text(odd_dim, draw(st.sampled_from(REDUCED_MAPS)), etas)


@st.composite
def pullback_texts(draw):
    odd_dim = draw(ODD_DIM)
    entries = draw(st.lists(ENTRY, min_size=odd_dim + 1, max_size=odd_dim + 1))
    names = ["z"] + ["t%d" % (j + 1) for j in range(odd_dim)]
    return "[pullback]\n" + "".join("%s = %s\n" % pair for pair in zip(names, entries))


@FUZZ
@given(
    text=manifold_texts(),
    command=st.sampled_from(MANIFOLD_COMMANDS + ["weights"]),
    machine=st.booleans(),
)
def test_manifold_commands(tmp_path_factory, text, command, machine):
    path = tmp_path_factory.getbasetemp() / "fuzz.smf"
    path.write_text(text)
    cartan = ["--cartan", "0"] if command == "weights" else []
    code = check([command, "--manifold", str(path)] + cartan + (["--machine"] if machine else []))
    event("%s exit %d" % (command, code))


@pytest.mark.parametrize("command", MANIFOLD_COMMANDS + ["weights"])
def test_pinned_manifold_reaches_every_command(tmp_path, command):
    path = tmp_path / "pinned.smf"
    path.write_text(manifold_text(1, "z^-1", ["z^-2*t1"]))
    cartan = ["--cartan", "1"] if command == "weights" else []
    for machine in ([], ["--machine"]):
        assert check([command, "--manifold", str(path)] + cartan + machine) == 0


@FUZZ
@given(text=pullback_texts(), command=st.sampled_from(["invert", "decompose"]), machine=st.booleans())
def test_pullback_commands(tmp_path_factory, text, command, machine):
    path = tmp_path_factory.getbasetemp() / "fuzz.spb"
    path.write_text(text)
    machine = machine and command == "decompose"
    code = check([command, "--pullback", str(path)] + (["--machine"] if machine else []))
    event("%s exit %d" % (command, code))


@FUZZ
@given(field=ENTRY, time=ENTRY)
def test_flow(field, time):
    event("flow exit %d" % check(["flow", "--field=" + field, "--time=" + time]))
