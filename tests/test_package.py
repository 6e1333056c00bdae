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


def _trees(path, keep=lambda name: True):
    """(file name, parsed module) of each .py file in path that keep takes."""
    out = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".py") and keep(name):
            with open(os.path.join(path, name)) as fh:
                out.append((name, ast.parse(fh.read(), name)))
    return out


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
    hits = ["%s: %s" % (name, h) for name, tree in _trees(motzeta.__path__[0]) for h in _nested_def_cycles(tree)]
    assert not hits, hits


BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _bench_text():
    """The code of the benchmark's non-test files, one string."""
    text = ""
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py") and not name.startswith("test_"):
            with open(os.path.join(BENCH, name)) as fh:
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
    bench_text = _bench_text()
    defined, used = [], set()
    for name, tree in _trees(motzeta.__path__[0]):
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
    bench_text = _bench_text()
    defined, owners = [], {}  # owners: attribute or string -> who loads it
    for name, tree in _trees(motzeta.__path__[0]):
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
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for name, tree in _trees(motzeta.__path__[0]):
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


def public_options():
    """The defaulted parameters of the package's public API: of each public
    module-level function, and of each public method and the __init__ of
    each public class.  Each is (label, callee, node, parameter, position):
    the label is "fn(p)", "Class.method(p)" or "Class(p)" for __init__, a
    call reaches it by the callee's name (the class name for __init__),
    and position counts the positional arguments before it, self or cls
    aside, or is None for a keyword-only parameter."""
    out = []
    for _, tree in _trees(motzeta.__path__[0]):
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                fns = [(stmt.name, stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                fns = [
                    (stmt.name, stmt.name, item, 1) if item.name == "__init__"
                    else ("%s.%s" % (stmt.name, item.name), item.name, item, 1)
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_"))
                ]
            else:
                continue
            for label, callee, fn, skip in fns:
                a = fn.args
                pos = (a.posonlyargs + a.args)[skip:]
                first = len(pos) - len(a.defaults)
                out += [("%s(%s)" % (label, p.arg), callee, fn, p.arg, i) for i, p in enumerate(pos) if i >= first]
                out += [
                    ("%s(%s)" % (label, p.arg), callee, fn, p.arg, None)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                ]
    return out


def _sets(call, param, position):
    """Whether call passes param: by keyword, by enough positional
    arguments to reach its position, or through *args or **kwargs."""
    if any(isinstance(x, ast.Starred) for x in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


# Options that no call in the package or the benchmark sets, each with the
# reason it stays.
OPTION_ENTRY_POINTS = {
    "Binding(budget)": "a work cap that the caller sets",
    "sum_zeta_pullback(budget)": "a work cap that the caller sets",
    "bind_and_count(s)": "the twists of a class's count, which the identity suite checks",
    "hadamard_conv(kind)": "the *0 and *1 terms of a convolution, which the Thom-Sebastiani check reads",
    "sum_zeta_pullback(split)": "the A1/A2/A3/Bpair split of the Thom-Sebastiani right-hand side",
    "monomial_substitute(bound)": "cell and substitution calculus, kept as its entry in ENTRY_POINTS",
    "zeta_trunc(base)": "the global zeta of a germ, summed over its zeros",
    "ConePieces(origin)": "resolution data's cone sums, kept until dl_eval has a producer",
    "dl_eval(cone)": "resolution data's cone sums, kept until dl_eval has a producer",
    "dl_eval(binding)": "the counts of resolution data's atoms, kept until dl_eval has a producer",
}


def test_every_option_has_a_caller():
    # an option of the public API is set by a call elsewhere in the package
    # (not in its own body) or in the benchmark's code, or listed above:
    # an option with one value in use is a constant.  Calls match by the
    # callee's name alone; a benchmark call through an expression, such as
    # getattr(module, name)(...), sets its keywords for every function
    calls = [n for _, tree in _trees(motzeta.__path__[0]) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    bench = [
        n
        for _, tree in _trees(BENCH, lambda name: not name.startswith("test_"))
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
    ]
    options = public_options()
    unset = []
    for label, callee, fn, param, position in options:
        own = {id(n) for n in ast.walk(fn)}
        in_package = any(_callee(c) == callee and id(c) not in own and _sets(c, param, position) for c in calls)
        in_bench = any(
            _callee(c) == callee and _sets(c, param, position)
            or _callee(c) is None and any(k.arg == param for k in c.keywords)
            for c in bench
        )
        if not in_package and not in_bench and label not in OPTION_ENTRY_POINTS:
            unset.append(label)
    assert not unset, unset
    assert set(OPTION_ENTRY_POINTS) <= {label for label, *_ in options}
