"""Checks on the package source itself."""

import ast
import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import posicat

MODULES = sorted(Path(posicat.__file__).parent.rglob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently vanish; every check in the package raises a typed error
    assert {p.name for p in MODULES} >= {"__init__.py", "affine.py", "invsets.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_hand_written_attribute_guards():
    # the value types refuse assignment through read-only properties whose
    # setter and deleter are affine._refuse; a __setattr__ or __delattr__
    # guard, or an object.__setattr__ write past one, is a second mechanism
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}:{item.lineno} {node.name}.{name}"
                    for item in node.body
                    for name in _bound_names(item)
                    if name in ("__setattr__", "__delattr__")
                ]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("__setattr__", "__delattr__")
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{path.name}:{node.lineno} object.{node.attr}")
    assert found == []


def _bound_names(statement):
    """The names a class-body statement defines: a def's name, or the
    plain names an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_exports_resolve_once():
    # a deletion that leaves its name behind in __all__ fails here
    names = posicat.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(posicat, name)]
    assert missing == []


# added to sys.modules by the import alone, so a site that preloads a module
# does not count against the package
IMPORT_PROBE = (
    "import sys\n"
    "sys.path[0] = sys.argv[1]\n"
    "before = set(sys.modules)\n"
    "import posicat\n"
    "print(posicat.__file__)\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, which the package
    # never uses; every fresh `posicat` process would pay for them
    src = ROOT / "src"
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    imported, added = done.stdout.splitlines()
    assert Path(imported).resolve() == (src / "posicat" / "__init__.py").resolve()
    assert {"dataclasses", "inspect"} & set(added.split()) == set()
    # `python -m posicat` runs posicat.__main__; the import alone does not
    assert "posicat.__main__" not in added.split()


def _named(tree):
    """Every name a module mentions: names, attributes, imported names and
    string constants (the benchmark's tracer names its targets by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_referenced():
    # a function, class or method that nothing in the package, the tests or
    # the benchmark names is dead code; perfbench/ is parsed, never imported
    others = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES + others}
    named = {name for tree in trees.values() for name in _named(tree)}
    unnamed = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert unnamed == []


def _definitions():
    """Every function and method the package defines, by the key of its code
    object, (file, first line); a decorated definition starts at its first
    decorator, as its code object does."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(os.path.realpath(path), first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")

    for path in MODULES:
        visit(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.")
    return found


WHATS = ["catalan", "rpoly", "rtilde", "inversions", "fset", "lambda", "nu"]
SUITES = ["main", "synthesis", "engine", "structure", "census"]
FIG3 = "cycle:(0,3,2,5,1,4)"

# every CLI feature once, with the exit code it must give
CLI_TOUR = (
    [(["compute", "--perm", FIG3, "--what", what], 0) for what in WHATS]
    + [(["verify", "--suite", suite, "--n-max", "5"], 0) for suite in SUITES]
    + [
        (["compute", "--perm", FIG3, "--what", "rtilde", "--trace", "--stats"], 0),
        (["compute", "--perm", "cycle:(1,4,6,2,5,7,3)", "--what", "catalan", "--one-based"], 0),
        # an R~ class search that visits a normal member before it succeeds
        (["compute", "--perm", "cycle:(0,3,7,5,2,6,1,4)", "--what", "rtilde"], 0),
        (["compute", "--perm", '{"window": [3, 6, 4, 5, 7, 8, 9]}', "--what", "fset"], 0),
        (["dyck", "--k", "3", "--n", "7", "--forbid", "1,1;2,3", "--coords", "rect"], 0),
        (["dyck", "--k", "3", "--n", "7", "--forbid", "1,2;2,5", "--coords", "sheared"], 0),
        (["dyck", "--k", "3", "--n", "7", "--forbid", "", "--list"], 0),
        (["synthesize", "--k", "4", "--n", "8", "--forbid", "1,1;2,2;3,3"], 0),
        (["synthesize", "--k", "3", "--n", "7", "--forbid", "1,2;2,5", "--coords", "sheared"], 0),
        (["enumerate", "--n", "5", "--format", "json"], 0),
        (["enumerate", "--n", "6", "--k", "3", "--repetition-free", "--format", "csv"], 0),
        # refused: a permutation off Theta, and a range with no instance
        (["compute", "--perm", "window:1,4,3,6", "--what", "nu"], 2),
        (["verify", "--suite", "main", "--n-max", "1"], 2),
    ]
)


def _tour(workloads):
    """The real entry points on small inputs: the CLI, two suites at the
    sizes the benchmark runs, each benchmark workload's smoke pass and
    check, and the README's library example."""
    from posicat.cli import main

    for argv, code in CLI_TOUR:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code, argv
    assert posicat.verify_main_theorem(7, jobs=1).passed
    assert posicat.verify_engine(6, jobs=1).passed
    for workload in workloads.WORKLOADS.values():
        state = workload.prepare(posicat, workload.make_inputs(posicat, 1, True))
        result = workload.run_pass(posicat, state, posicat.Engine)
        assert workload.check(posicat, state, [result])[0] == 0, workload.name
    [example] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(example, {})


DUNDER = "data-model dunder"
TRACED = "perfbench/tracing.py names it"

# what the tour never runs, each with the reason it stays
NEVER_RUN = {
    "affine.BoundedAffinePerm.__eq__": DUNDER,
    "affine.BoundedAffinePerm.__hash__": DUNDER,
    "affine.BoundedAffinePerm.__reduce__": DUNDER,
    "dyck.ConcaveProfile.__eq__": DUNDER,
    "dyck.ConcaveProfile.__hash__": DUNDER,
    "dyck.ConcaveProfile.__repr__": DUNDER,
    "dyck.ConcaveProfile.__reduce__": DUNDER,
    "invsets.LatticeMultiset.__eq__": DUNDER,
    "invsets.LatticeMultiset.__repr__": DUNDER,
    "invsets.LatticeMultiset.__reduce__": DUNDER,
    "polynomial.IntPoly.__bool__": DUNDER,
    "polynomial.IntPoly.__hash__": DUNDER,
    "polynomial.IntPoly.__repr__": DUNDER,
    "polynomial.IntPoly.__str__": DUNDER,
    "polynomial.IntPoly.__reduce__": DUNDER,
    "affine._refuse": "runs only on a refused assignment",
    "harness._fail": "runs only when a check fails",
    "polynomial.IntPoly.exact_div": TRACED + " as its polynomial-layer span",
}


def test_the_tour_runs_everything_but_the_allowlist(monkeypatch):
    # a definition that no entry point runs is surface nothing uses, unless
    # NEVER_RUN gives its reason; an entry that starts to run is stale
    definitions = _definitions()
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _tour(workloads)
    finally:
        sys.setprofile(previous)
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    never_run = {name for key, name in definitions.items() if key not in ran}
    assert never_run == set(NEVER_RUN)


def test_report_header_names_a_shadowed_tree(monkeypatch, tmp_path):
    import conftest

    (tmp_path / "posicat").mkdir()
    (tmp_path / "posicat" / "__init__.py").write_text("")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(tmp_path)]))
    line = conftest.pytest_report_header(None)
    assert str(tmp_path / "posicat") in line
    assert str(Path(posicat.__file__).resolve().parent) in line
    assert 'pythonpath = ["src"]' in line
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert conftest.pytest_report_header(None) is None
    monkeypatch.delenv("PYTHONPATH")
    assert conftest.pytest_report_header(None) is None
