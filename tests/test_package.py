"""The package as installed: its modules and their dependencies."""

import ast
import os
import pkgutil
import re
import subprocess
import sys

import motzeta


def test_modules_import_without_numpy():
    # numpy is not a dependency: every module imports with it blocked
    names = sorted(m.name for m in pkgutil.iter_modules(motzeta.__path__, "motzeta."))
    assert "motzeta.zeta" in names
    code = (
        "import importlib, sys\n"
        "sys.modules['numpy'] = None\n"
        "for name in %r:\n"
        "    importlib.import_module(name)\n" % names
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(motzeta.__path__[0])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr


def test_no_bare_python_errors_are_raised():
    # every refusal is a MotzetaError that names the limit it hit; a bare
    # ValueError and its kin would slip past callers that catch MotzetaError
    bare = re.compile(
        r"raise (ValueError|TypeError|KeyError|IndexError|NotImplementedError|ZeroDivisionError|AttributeError|ArithmeticError)\("
    )
    src = motzeta.__path__[0]
    hits = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                hits += ["%s:%d: %s" % (name, i, line.strip()) for i, line in enumerate(fh, 1) if bare.search(line)]
    assert not hits, hits


def _nested_def_cycles(tree):
    """Names of the outermost functions in tree whose nested defs reach
    themselves: one edge where a nested def loads the name of another,
    self-loops included."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    funcs = [n for n in ast.walk(tree) if isinstance(n, defs)]
    inner = {id(d) for f in funcs for d in ast.walk(f) if d is not f and isinstance(d, defs)}
    out = []
    for f in funcs:
        if id(f) in inner:
            continue
        nested = {d.name: d for d in ast.walk(f) if d is not f and isinstance(d, defs)}
        edges = {
            name: {
                n.id
                for n in ast.walk(d)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in nested
            }
            for name, d in nested.items()
        }
        on_cycle = []
        for start in sorted(edges):
            seen, todo = set(), list(edges[start])
            while todo:
                name = todo.pop()
                if name not in seen:
                    seen.add(name)
                    todo.extend(edges[name])
            if start in seen:
                on_cycle.append(start)
        if on_cycle:
            out.append("%s (%s)" % (f.name, ", ".join(on_cycle)))
    return out


def test_no_nested_function_reaches_itself():
    # a closure that calls itself, or two that call each other, hold each
    # other's cells: every call leaves a reference cycle that only the
    # cyclic garbage collector frees
    src = motzeta.__path__[0]
    hits = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            hits += ["%s: %s" % (name, h) for h in _nested_def_cycles(tree)]
    assert not hits, hits


def _bench_text():
    """The code of the benchmark's non-test files, one string."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    text = ""
    for name in sorted(os.listdir(bench)):
        if name.endswith(".py") and not name.startswith("test_"):
            with open(os.path.join(bench, name)) as fh:
                text += fh.read()
    return text


# Public names that need no caller in the package or the benchmark, each
# with the reason it stays.
ENTRY_POINTS = {
    "zeta_closed": "the closed zeta series of one germ, a pipeline entry point",
    "series_to_json": "the series format a command line reads and writes",
    "series_from_json": "the series format a command line reads and writes",
    "fermat_pair": "a Binding presentation, and the DFS side of the Fermat kernel",
    "extend_const": "cell and substitution calculus, kept until the identity suite names what it needs",
    "monomial_substitute": "cell and substitution calculus, as extend_const",
    "cell_decompose": "cell and substitution calculus, as extend_const",
    "project": "cell and substitution calculus, as extend_const",
}


def test_every_public_name_has_a_caller():
    # a public module-level function or class is loaded by another
    # top-level statement of the package, or named in the benchmark's code
    # (its tracing targets are strings), or listed above; anything else is
    # API that nothing uses
    src = motzeta.__path__[0]
    bench_text = _bench_text()
    defined, used = [], set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.append((name, own))
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    used.add((own, n.id))
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    used.add((own, n.attr))
    callers = {loaded for own, loaded in used if own != loaded}
    uncalled = [
        "%s: %s" % (module, fn)
        for module, fn in defined
        if fn not in callers and fn not in ENTRY_POINTS and not re.search(r"\b%s\b" % fn, bench_text)
    ]
    assert not uncalled, uncalled
    assert set(ENTRY_POINTS) <= {fn for _, fn in defined}


# Public methods that need no caller in the package or the benchmark, each
# with the reason it stays.
METHOD_ENTRY_POINTS = {
    "ClosedSeries.classify": "the one integrability test, kept for the closed products of rational series",
}


def test_every_public_method_has_a_caller():
    # a public method or property of a top-level class is loaded as an
    # attribute, or named in a string constant (a getattr dispatch), by
    # another function of the package, or named in the benchmark's code,
    # or listed above; the check goes by name alone, so a method that
    # shares its name with a called one passes
    src = motzeta.__path__[0]
    bench_text = _bench_text()
    defined, owners = [], {}  # owners: attribute or string -> who loads it
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        # each node with its owner: the method (Class.name) or the
        # top-level statement it sits in
        owned = []
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    owned.append(("%s.%s" % (stmt.name, getattr(item, "name", "")), item))
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined.append((name, "%s.%s" % (stmt.name, item.name), item.name))
            else:
                owned.append((getattr(stmt, "name", None), stmt))
        for own, node in owned:
            for n in ast.walk(node):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    owners.setdefault(n.attr, set()).add(own)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    owners.setdefault(n.value, set()).add(own)
    uncalled = [
        "%s: %s" % (module, qual)
        for module, qual, attr in defined
        if not owners.get(attr, set()) - {qual}
        and qual not in METHOD_ENTRY_POINTS
        and not re.search(r"\b%s\b" % attr, bench_text)
    ]
    assert not uncalled, uncalled
    assert set(METHOD_ENTRY_POINTS) <= {qual for _, qual, _ in defined}


def test_every_parameter_is_read():
    # every parameter of a function or lambda in the package, self and cls
    # aside, is loaded somewhere in its body: one that nothing reads is an
    # option that does nothing
    src = motzeta.__path__[0]
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for fn in ast.walk(tree):
            if not isinstance(fn, funcs):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {
                n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            label = getattr(fn, "name", "lambda")
            unread += [
                "%s:%d: %s(%s)" % (name, fn.lineno, label, p) for p in params if p not in ("self", "cls") and p not in loaded
            ]
    assert not unread, unread
