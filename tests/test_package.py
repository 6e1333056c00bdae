"""The package as installed: its modules and their dependencies."""

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
    bare = re.compile(r"raise (ValueError|TypeError|KeyError|IndexError|NotImplementedError)\(")
    src = motzeta.__path__[0]
    hits = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                hits += ["%s:%d: %s" % (name, i, line.strip()) for i, line in enumerate(fh, 1) if bare.search(line)]
    assert not hits, hits
