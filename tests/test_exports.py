"""The public names of the package, and what loads when."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qhopf


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails here
    modules = [qhopf] + [importlib.import_module(f"qhopf.{info.name}")
                         for info in pkgutil.iter_modules(qhopf.__path__)]
    assert len(modules) > 10
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module.__name__}: {missing}"


# the 30 names the package exports, by the submodule that defines each
HOMES = {
    "scalars": ["ONE", "P", "Q", "ZERO", "ParamScalar", "ppow", "qbinomial",
                "qpow"],
    "s3core": ["AlgElement", "BasisMonomial", "iota_image", "mul"],
    "hopf": ["CotensorElement", "LaurentElement", "coaction"],
    "gluing": ["DiscElement", "TrivializedElement", "boundary", "chi",
               "gluing_check", "phi12"],
    "galois": ["TensorElement", "connection_defects", "lifted_can",
               "strong_connection", "strong_connection_closed"],
    "chern": ["CoinvariantMatrix", "idempotent", "pairing",
              "trace_functional"],
}


def test_package_exports_the_objects_of_their_home_modules():
    names = [n for group in HOMES.values() for n in group]
    assert len(names) == 30
    assert sorted(qhopf.__all__) == sorted(names)
    listed = dir(qhopf)
    for home, group in HOMES.items():
        module = importlib.import_module(f"qhopf.{home}")
        for name in group:
            assert getattr(qhopf, name) is getattr(module, name), name
            assert name in listed, name


def test_unknown_names_fail_and_submodules_still_import():
    with pytest.raises(AttributeError, match="nosuch"):
        qhopf.nosuch  # noqa: B018
    # in a fresh process the package has loaded no submodule yet, so
    # both the name and the submodule go through the first-read path
    code = ("import sys, qhopf\n"
            "from qhopf import chern\n"
            "assert chern is sys.modules['qhopf.chern']\n"
            "assert qhopf.pairing is chern.pairing\n"
            "assert 'qhopf.exprs' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# the imports inside a function, (module, function, imported module): each
# keeps a module out of a process that does not need it
LAZY_IMPORTS = {
    *(("cli", "run_command", m) for m in (
        "chern", "exprs", "galois", "gluing", "hopf", "s3core", "scalars",
        "verify")),                        # each command loads what it calls
    ("cli", "main", "traceback"),          # only for an unexpected error
    ("verify", "_trace_agreement", "numrep"),      # numpy
    ("verify", "suite_numeric", "numrep"),
    ("verify", "suite_classical", "numrep"),
    ("chern", "_legs", "galois"),          # the trace command needs no legs
}


def _imports_in_functions(path):
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Import) and func:
                found.update((path.stem, func, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and func:
                names = ([child.module] if child.module else
                         [a.name for a in child.names])
                found.update((path.stem, func, n) for n in names)
            else:
                visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_imports_inside_functions_are_the_listed_lazy_ones():
    # an import inside a function runs on every call, and a module first
    # imported there is compiled inside that call; only the imports that
    # keep a module out of a command that does not need it belong there
    found = set()
    for path in sorted(Path(qhopf.__file__).parent.glob("*.py")):
        found |= _imports_in_functions(path)
    assert sorted(found - LAZY_IMPORTS) == []
    assert sorted(LAZY_IMPORTS - found) == []
