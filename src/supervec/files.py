"""Manifold (.smf) and pullback file formats.

A manifold file is flat INI-style text with a ``[manifold]`` section (name,
odd_dim, optional ``kind = c01`` for the single-chart point) and, for the
two-chart kind, a ``[transition]`` section holding one expression per
coordinate image (``w``, ``eta1`` .. ``etan``) in the variables ``z``,
``t1`` .. ``tn``.

A pullback file has a single ``[pullback]`` section with entries ``z`` and
``t1`` .. ``tn`` describing a chart-0 self-map.

Canonical output is LF-terminated and byte-deterministic; the bundled
example files are stored in canonical form, so load/save round-trips them
exactly.
"""

from __future__ import annotations

import configparser
import os
from importlib import resources

from .errors import ExprSyntaxError, FileFormatError, MixedParity
from .expressions import MAX_ODD_DIM, parse_integer, parse_superfunction, superfunction_text
from .geometry import CHART0, CHART1, KIND_C01, SuperManifoldData
from .grassmann import PullbackData


def _read_config(text, path="<text>"):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        # configparser spreads its path, line number and line over several lines
        raise FileFormatError("cannot parse %s: %s" % (path, " ".join(str(exc).split())))
    return parser


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FileFormatError("cannot read %s: %s" % (path, exc))


def _images(section, keys, odd_dim, target, what):
    """The chart-0 pullback whose images are ``section[key]`` for ``keys``."""
    even, *odds = [parse_superfunction(section[key], odd_dim, CHART0) for key in keys]
    try:
        return PullbackData(CHART0, target, even, odds)
    except MixedParity as exc:
        raise FileFormatError("bad %s parity: %s" % (what, exc.message))


def image_pairs(pullback, even_name, odd_prefix):
    """``(name, text)`` of the even image, then of each odd image numbered from 1."""
    return [("%s%d" % (odd_prefix, u) if u else even_name, superfunction_text(img))
            for u, img in enumerate(pullback.images)]


def parse_manifold_text(text, path="<text>"):
    config = _read_config(text, path)
    if not config.has_section("manifold"):
        raise FileFormatError("missing [manifold] section")
    section = config["manifold"]
    name = section.get("name")
    if not name:
        raise FileFormatError("missing manifold name")
    if name.splitlines() != [name]:
        raise FileFormatError("manifold name must be one line")
    try:
        odd_dim = parse_integer(section.get("odd_dim", ""))
    except ExprSyntaxError:
        raise FileFormatError("odd_dim must be an integer")
    if odd_dim < 1:
        raise FileFormatError("odd_dim must be positive")
    if odd_dim > MAX_ODD_DIM:
        raise FileFormatError(
            "odd_dim must be at most %d: the odd variables are t1..t%d"
            % (MAX_ODD_DIM, MAX_ODD_DIM)
        )
    kind = section.get("kind", "p1")
    if kind == KIND_C01:
        if odd_dim != 1:
            raise FileFormatError("the single-chart point has odd_dim 1")
        if config.has_section("transition"):
            raise FileFormatError("the single-chart point takes no transition")
        return SuperManifoldData.point(name)
    if kind != "p1":
        raise FileFormatError("unknown manifold kind %r" % kind)
    if not config.has_section("transition"):
        raise FileFormatError("missing [transition] section")
    transition = config["transition"]
    keys = ["w"] + ["eta%d" % (j + 1) for j in range(odd_dim)]
    for key in keys:
        if key not in transition:
            raise FileFormatError("missing transition entry %r" % key)
    extra = set(transition) - set(keys)
    if extra:
        raise FileFormatError("unexpected transition entries: %s" % sorted(extra))
    pullback = _images(transition, keys, odd_dim, CHART1, "transition")
    return SuperManifoldData.from_transition(name, odd_dim, pullback)


def load_manifold(path):
    return parse_manifold_text(_read(path), str(path))


def manifold_text(manifold):
    lines = ["[manifold]", "name = %s" % manifold.name, "odd_dim = %d" % manifold.odd_dim]
    if manifold.kind == KIND_C01:
        lines.append("kind = c01")
        return "\n".join(lines) + "\n"
    lines += ["", "[transition]"]
    lines += ["%s = %s" % pair for pair in image_pairs(manifold.transition, "w", "eta")]
    return "\n".join(lines) + "\n"


def parse_pullback_text(text, path="<text>"):
    config = _read_config(text, path)
    if not config.has_section("pullback"):
        raise FileFormatError("missing [pullback] section")
    section = config["pullback"]
    if "z" not in section:
        raise FileFormatError("missing pullback entry 'z'")
    odd_keys = sorted(k for k in section if k != "z")
    odd_dim = len(odd_keys)
    if odd_dim > MAX_ODD_DIM:
        raise FileFormatError(
            "a pullback has at most %d odd entries, t1..t%d" % (MAX_ODD_DIM, MAX_ODD_DIM)
        )
    expected = ["t%d" % (j + 1) for j in range(odd_dim)]
    if odd_keys != sorted(expected):
        raise FileFormatError("pullback odd entries must be t1..t%d" % odd_dim)
    return _images(section, ["z"] + expected, odd_dim, CHART0, "pullback")


def load_pullback(path):
    return parse_pullback_text(_read(path), str(path))


def pullback_text(pullback):
    lines = ["[pullback]"] + ["%s = %s" % pair for pair in image_pairs(pullback, "z", "t")]
    return "\n".join(lines) + "\n"


def load_bundled_manifold(name):
    root = resources.files("supervec").joinpath("manifolds")
    entry = root.joinpath(name + ".smf")
    if not entry.is_file():
        raise FileFormatError("no bundled manifold named %r" % name)
    return parse_manifold_text(entry.read_text(encoding="utf-8"), "bundled:%s" % name)


def resolve_manifold(source):
    """Load a manifold from a path, falling back to bundled names."""
    if os.path.exists(source):
        return load_manifold(source)
    try:
        return load_bundled_manifold(source)
    except FileFormatError:
        raise FileFormatError("no manifold file or bundled manifold %r" % source)
