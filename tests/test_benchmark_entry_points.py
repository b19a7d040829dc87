"""Every supervec name the benchmark reaches for still exists.

``perfbench/spans.py`` wraps each entry of its ``TARGETS``, a plain name
through its module and a ``Class.method`` through the class's own
``__dict__``; ``perfbench/workloads.py`` calls supervec through module
attributes and a few imported names.  A renamed or deleted name breaks the
benchmark, which otherwise shows only when its self-test runs.  Both files
are read with ``ast``, without running them.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_span_targets_resolve():
    [targets] = [
        ast.literal_eval(node.value)
        for node in parse("spans.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    missing = []
    for module, attr, _groups in targets:
        home = importlib.import_module("supervec." + module)
        cls_name, _, method = attr.rpartition(".")
        if method not in vars(getattr(home, cls_name) if cls_name else home):
            missing.append("%s.%s" % (module, attr))
    assert targets and missing == []


def test_workload_names_exist():
    tree = parse("workloads.py")
    modules, wanted = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "supervec":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("supervec."):
            wanted += [(node.module, alias.name) for alias in node.names]
    wanted += [
        ("supervec." + node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert {"cli", "derivations", "files", "geometry", "grassmann", "liealg", "linalg"} <= modules
    missing = [
        "%s.%s" % (module, name)
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
