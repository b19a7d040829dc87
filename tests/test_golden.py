"""Byte-for-byte golden outputs of the CLI.

The files under ``tests/golden`` pin ``report`` (human and ``--machine``) and
``gr --machine`` on every bundled manifold, ``vec --machine`` on the
synthetic manifolds of ``test_solver_oracle`` at their default cap and at
cap + 2 and on its ``ISO`` manifold, and ``brackets --machine`` on the same synthetic manifolds at their
default cap.  The synthetic ``k2i``, whose answers have non-real
coefficients, also has ``gr --machine`` and ``report`` in both forms pinned.
``weights --machine`` is pinned on every bundled manifold at
every even index and one past the last (``OddCartan``), on ``s222`` and
``s1111`` at the even indices the ``bracket-table`` benchmark uses, on every
even index of ``k2i``, and on a (1|1) manifold whose weight is -10^7 at
index 0; each of
those files concatenates, per index, a ``--cartan I: exit C`` line and that
run's stdout and stderr, so an index that exits 3 (``NotDiagonalizable``)
pins its exit code and its one-line error.  The pullback commands are pinned on the fixed ``.spb`` texts of
``PULLBACKS`` (n = 1 to 4, including Mobius lifts of ``k2`` and
``nonsplit-2-2``, a dense n = 3 case, a dense n = 4 case with cubic
coefficients, an n = 1 case with a coefficient over 998244353 and an n = 2
case with non-real coefficients):
``invert`` and ``decompose``
(human and ``--machine``) on each, ``compose`` on one pair per odd
dimension, and ``flow`` on two nilpotent fields with non-monomial
denominators.  Regenerate one only for an intended
output change, with
``python -m supervec report --manifold NAME [--machine] > tests/golden/...``
(likewise ``gr``, ``vec``, ``brackets`` and the pullback commands, given the
file names and arguments below).

No command prints a conjugation matrix, so ``conjugation.txt`` pins the
library's ``conjugation_action`` directly: the matrices of the Mobius lifts
of ``rand_sl2(random.Random(seed))`` for seeds 1 to 3 on ``nonsplit-2-2``
(``nonsplit`` family), ``k2`` and ``split-3-1`` (``diagonal``), and of the
scaling pullback theta -> 3 theta on ``c01``, one row per line with
``scalar_text`` entries.  Regenerate it only for an intended output change,
by writing ``conjugation_text()`` to that file.
"""

import io
import random
from pathlib import Path

import pytest

from supervec.cli import main
from conftest import bundled_manifold_names, rand_sl2
from supervec.expressions import scalar_text
from supervec.files import load_bundled_manifold, parse_manifold_text, resolve_manifold
from supervec.geometry import mobius_lift
from supervec.grassmann import PullbackData, SuperFunction
from supervec.liealg import conjugation_action, default_cap, solve_global_fields
from supervec.scalars import RationalFunction
from test_liealg import S1111
from test_solver_oracle import ISO, SYNTHETIC

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


def test_vec_on_iso_matches_golden(tmp_path):
    path = tmp_path / "iso.smf"
    path.write_text(ISO)
    expected = (GOLDEN / "vec-iso.machine.txt").read_text()
    assert run_cli(["vec", "--manifold", str(path), "--machine"]) == expected


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_brackets_on_synthetic_matches_golden(tmp_path, name):
    _, path = write_synthetic(tmp_path, name)
    expected = (GOLDEN / ("brackets-" + name + ".machine.txt")).read_text()
    assert run_cli(["brackets", "--manifold", str(path), "--machine"]) == expected


@pytest.mark.parametrize("argv", [["gr", "--machine"], ["report"], ["report", "--machine"]],
                         ids=["gr", "report-human", "report-machine"])
def test_gaussian_synthetic_matches_golden(tmp_path, argv):
    _, path = write_synthetic(tmp_path, "k2i")
    suffix = ".machine.txt" if "--machine" in argv else ".txt"
    expected = (GOLDEN / (argv[0] + "-k2i" + suffix)).read_text()
    assert run_cli([argv[0], "--manifold", str(path)] + argv[1:]) == expected


def weights_text(manifold, indices):
    chunks = []
    for i in indices:
        out, err = io.StringIO(), io.StringIO()
        code = main(["weights", "--manifold", manifold, "--cartan", str(i), "--machine"], out, err)
        chunks.append("--cartan %d: exit %d\n%s%s" % (i, code, out.getvalue(), err.getvalue()))
    return "".join(chunks)


@pytest.mark.parametrize("name", bundled_manifold_names())
def test_weights_matches_golden(name):
    n_even = len(solve_global_fields(resolve_manifold(name)).even_basis)
    expected = (GOLDEN / ("weights-" + name + ".machine.txt")).read_text()
    assert weights_text(name, range(n_even + 1)) == expected


# the even indices whose adjoint action the bracket-table benchmark decomposes,
# and every even index of k2i, whose index 0 has the non-real root -i
CARTANS = {"s1111": (1, 3, 8, 13, 18), "s222": (1, 3, 7, 11), "k2i": (0, 1, 2)}


@pytest.mark.parametrize("name", sorted(CARTANS))
def test_weights_on_synthetic_matches_golden(tmp_path, name):
    path = tmp_path / (name + ".smf")
    path.write_text("[manifold]\nname = %s\n%s" % (name, dict(SYNTHETIC, s1111=S1111)[name]))
    expected = (GOLDEN / ("weights-" + name + ".machine.txt")).read_text()
    assert weights_text(str(path), CARTANS[name]) == expected


# a 1x1 odd block with characteristic polynomial x + 10^7, whose root a search
# by increasing magnitude reaches only after 10^7 candidates
LARGE_ROOT = "odd_dim = 1\n\n[transition]\nw = z^-1\neta1 = z^-2*t1 + 10000000*z^-1*t1\n"


def test_weights_with_a_large_root_matches_golden(tmp_path):
    path = tmp_path / "large-root.smf"
    path.write_text("[manifold]\nname = large-root\n" + LARGE_ROOT)
    expected = (GOLDEN / "weights-large-root.machine.txt").read_text()
    assert weights_text(str(path), [0]) == expected


# chart-0 automorphisms with non-monomial denominators; the two Mobius lifts
# are mobius_lift(k2, "diagonal", M) and mobius_lift(nonsplit-2-2, "nonsplit",
# M) for M = ((2, 1), (1, 1))
PULLBACKS = {
    "n1": "[pullback]\nz = (2*z - 1)/(z + 3)\nt1 = (z^2 + 1)/(z + 3)*t1\n",
    "mobius-k2": "[pullback]\nz = (z + 1)/(z + 2)\nt1 = 1/(z^2 + 4*z + 4)*t1\n",
    "n2": (
        "[pullback]\n"
        "z = (z + 1)/(2*z - 1) + (z^2 + 1)/(z - 3)*t1*t2\n"
        "t1 = (z + 1)*t1 + 1/(z^2 + 1)*t2\n"
        "t2 = 2*t1 - z*t2\n"
    ),
    "mobius-nonsplit-2-2": (
        "[pullback]\n"
        "z = (z + 1)/(z + 2) - 1/(z^3 + 6*z^2 + 12*z + 8)*t1*t2\n"
        "t1 = 1/(z^2 + 4*z + 4)*t1\n"
        "t2 = 1/(z^2 + 4*z + 4)*t2\n"
    ),
    "n3": (
        "[pullback]\n"
        "z = (3*z + 1)/(z + 2) + z*t1*t2 + 1/(z + 1)*t2*t3\n"
        "t1 = t1 + z*t2 + 1/(z - 1)*t1*t2*t3\n"
        "t2 = (z + 1)*t2 - t3\n"
        "t3 = 2*t1 + 1/z*t3 + z^2*t1*t2*t3\n"
    ),
    # every odd linear entry a degree-1 polynomial, every even-nilpotent and
    # odd-cubic term present
    "n3-dense": (
        "[pullback]\n"
        "z = (2*z + 1)/(z + 1) + 1/(z - 2)*t1*t2 + z*t1*t3 + (z + 1)/(z^2 + 1)*t2*t3\n"
        "t1 = (z + 1)*t1 + (2*z - 1)*t2 + (z + 3)*t3 + 1/(z + 2)*t1*t2*t3\n"
        "t2 = (1 - z)*t1 + (z + 2)*t2 + (3*z + 1)*t3 + z*t1*t2*t3\n"
        "t3 = (2*z + 1)*t1 + (z - 2)*t2 + (z + 1)*t3 + (z^2 + 1)/(z - 1)*t1*t2*t3\n"
    ),
    # the one input whose generator has a Rothstein stage at degree 4
    "n4": (
        "[pullback]\n"
        "z = (z + 1)/(z + 2) + z*t1*t2 + 1/(z + 1)*t3*t4 + z^2*t1*t2*t3*t4\n"
        "t1 = t1 + t2 + z*t1*t2*t3\n"
        "t2 = (z + 1)*t2 + t2*t3*t4\n"
        "t3 = t3 - t4\n"
        "t4 = z*t4 + t1*t2*t4\n"
    ),
    # workloads.random_automorphism(random.Random(5), 4, 3) of perfbench:
    # every coefficient a dense cubic, so the gcds meet operands of degree up to 9
    "n4-dense": (
        "[pullback]\n"
        "z = (1/2*z - 3/2)/(z - 1) + (2*z^3 + 3*z^2 + 3/2*z + 3/2)*t1*t2"
        " + (3*z^3 - z^2 + 1/2*z - 3)*t1*t3 - (1/2*z^3 + 3/2*z^2 + 2*z + 3)*t2*t3"
        " + (2*z^3 + z^2 - z + 1/2)*t1*t4 - (3*z^3 + z^2 - z + 3/2)*t2*t4"
        " - (z^3 - z^2 + z - 3/2)*t3*t4 - (3/2*z^3 + 2*z^2 - z + 2)*t1*t2*t3*t4\n"
        "t1 = (1/2*z^3 + z^2 + z - 2)*t1 - (3*z^3 + 3*z^2 + 2*z + 2)*t2"
        " - (2*z^3 + 2*z^2 + z + 1)*t3 + (2*z^3 - z^2 - 1/2*z - 1)*t4"
        " + (3/2*z^3 - 3*z^2 + 1/2*z - 3)*t1*t2*t3 - (3/2*z^3 + z^2 - z + 2)*t1*t2*t4"
        " + (2*z^3 - 1/2*z^2 + 1/2*z - 1)*t1*t3*t4 + (1/2*z^3 - z^2 + 2*z - 1/2)*t2*t3*t4\n"
        "t2 = -1*(2*z^3 + z^2 - 3*z - 3)*t1 - (z^3 - z^2 + z - 3/2)*t2"
        " - (2*z^3 - z^2 + 1/2*z + 3)*t3 - (1/2*z^3 + 3/2*z^2 + z + 2)*t4"
        " - (1/2*z^3 - 3/2*z^2 - z + 3/2)*t1*t2*t3 - (3/2*z^3 - z^2 + 3*z + 1)*t1*t2*t4"
        " + (z^3 + 2*z^2 - 1/2*z - 1)*t1*t3*t4 - (z^3 + 1/2*z^2 + 2*z + 1/2)*t2*t3*t4\n"
        "t3 = -1*(3*z^3 - z^2 - z + 1)*t1 - (1/2*z^3 - 3/2*z^2 - 3*z - 1)*t2"
        " - (z^3 + 1/2*z^2 + z + 3/2)*t3 - (2*z^3 + 1/2*z^2 - 3/2*z - 1/2)*t4"
        " - (z^3 + 3/2*z^2 - 2*z - 3/2)*t1*t2*t3 - (2*z^3 + z^2 + 1/2*z - 3)*t1*t2*t4"
        " + (3/2*z^3 - 2*z^2 + 3*z - 3/2)*t1*t3*t4 - (2*z^3 - 1/2*z^2 + z - 3/2)*t2*t3*t4\n"
        "t4 = -1*(2*z^3 - 3/2*z^2 - 1/2*z - 1/2)*t1 + (3/2*z^3 - 3*z^2 - z - 3)*t2"
        " + (2*z^3 - 3*z^2 + z - 1/2)*t3 + (z^3 + z^2 - 1/2*z + 1)*t4"
        " + (z^3 - 3/2*z^2 - 3*z + 3/2)*t1*t2*t3 - (z^3 + 3*z^2 - z - 2)*t1*t2*t4"
        " - (z^3 + 1/2*z^2 - z - 3/2)*t1*t3*t4 - (2*z^3 - z^2 - 3*z - 1/2)*t2*t3*t4\n"
    ),
    # a coefficient with denominator 998244353, the prime of Polynomial.gcd's
    # coprimality certificate, which it must decline
    "n1-mod-p": "[pullback]\nz = (2*z - 1)/(z + 3)\nt1 = (z^2 + 1/998244353)/(z + 3)*t1\n",
    # non-real coefficients in every coordinate image and in the generator
    "n2-gaussian": (
        "[pullback]\n"
        "z = (i*z + 1)/(z + i) + i*z*t1*t2\n"
        "t1 = (1 + i*z)*t1 + z^2*t2\n"
        "t2 = i*t2\n"
    ),
}

COMPOSE_PAIRS = [("mobius-k2", "n1"), ("mobius-nonsplit-2-2", "n2"), ("n3", "n3")]

FLOWS = {
    "n2": ["--field", "1/(z + 1)*t1*t2", "--time", "3/2"],
    "n3": ["--field", "(1 - 2*z)*t1*t2 + z^2/(z^2 + 1)*t2*t3 + 3*t1*t3", "--time", "-2"],
}


def write_pullback(tmp_path, name):
    path = tmp_path / (name + ".spb")
    path.write_text(PULLBACKS[name])
    return str(path)


@pytest.mark.parametrize("name", sorted(PULLBACKS))
def test_invert_matches_golden(tmp_path, name):
    expected = (GOLDEN / ("invert-" + name + ".txt")).read_text()
    assert run_cli(["invert", "--pullback", write_pullback(tmp_path, name)]) == expected


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
@pytest.mark.parametrize("name", sorted(PULLBACKS))
def test_decompose_matches_golden(tmp_path, name, machine):
    argv = ["decompose", "--pullback", write_pullback(tmp_path, name)]
    argv += ["--machine"] if machine else []
    suffix = ".machine.txt" if machine else ".txt"
    expected = (GOLDEN / ("decompose-" + name + suffix)).read_text()
    assert run_cli(argv) == expected


def test_gaussian_pullback_inverse_composes_to_identity(tmp_path):
    path = write_pullback(tmp_path, "n2-gaussian")
    inverse = tmp_path / "inverse.spb"
    inverse.write_text(run_cli(["invert", "--pullback", path]))
    identity = "[pullback]\nz = z\nt1 = t1\nt2 = t2\n"
    assert run_cli(["compose", path, str(inverse)]) == identity
    assert run_cli(["compose", str(inverse), path]) == identity


@pytest.mark.parametrize("outer, inner", COMPOSE_PAIRS)
def test_compose_matches_golden(tmp_path, outer, inner):
    argv = ["compose", write_pullback(tmp_path, outer), write_pullback(tmp_path, inner)]
    expected = (GOLDEN / ("compose-%s-%s.txt" % (outer, inner))).read_text()
    assert run_cli(argv) == expected


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flow_matches_golden(name):
    expected = (GOLDEN / ("flow-" + name + ".txt")).read_text()
    assert run_cli(["flow"] + FLOWS[name]) == expected


# (manifold, lift family) pairs whose seeded Mobius lifts conjugation.txt pins
CONJUGATIONS = [("nonsplit-2-2", "nonsplit"), ("k2", "diagonal"), ("split-3-1", "diagonal")]


def conjugation_text():
    chunks = []

    def put(title, matrix):
        rows = ("  " + " ".join(scalar_text(c) for c in row) + "\n" for row in matrix)
        chunks.append(title + ":\n" + "".join(rows))

    for name, family in CONJUGATIONS:
        manifold = load_bundled_manifold(name)
        basis = solve_global_fields(manifold)
        for seed in (1, 2, 3):
            matrix = rand_sl2(random.Random(seed))
            put("%s %s seed %d" % (name, family, seed),
                conjugation_action(basis, mobius_lift(manifold, family, matrix)))
    manifold = load_bundled_manifold("c01")
    chart = manifold.chart0
    scale = PullbackData(
        chart, chart, SuperFunction.coordinate(chart, 1),
        [SuperFunction(chart, 1, {1: RationalFunction.constant(3)})],
    )
    put("c01 scale 3", conjugation_action(solve_global_fields(manifold), scale))
    return "".join(chunks)


def test_conjugation_matches_golden():
    assert conjugation_text() == (GOLDEN / "conjugation.txt").read_text()
