"""qhopf: exact symbolic engine for a glued quantum 3-sphere.

The package models the coordinate *-algebra of the quantum 3-sphere
obtained by gluing two quantum solid tori, its circle coaction, the
two-disc base algebra sitting inside it, a strong connection for the
fibration with its Gauss-binomial closed form, the idempotents of the
associated line modules, and the exact trace pairing that certifies the
fibration nontrivial.  A truncated-operator layer, ``qhopf.numrep``,
provides an independent numeric oracle for every symbolic identity; it
is the only module that needs numpy.  Importing the package loads no
submodule: a public name's home module is imported when the name is
first read, so a process compiles only the modules it uses.
"""

import importlib

# every public name, by the submodule that defines it
_HOME = {name: module for module, names in (
    ("scalars", "ONE P Q ZERO ParamScalar ppow qbinomial qpow"),
    ("s3core", "AlgElement BasisMonomial iota_image mul"),
    ("hopf", "CotensorElement LaurentElement coaction"),
    ("gluing", "DiscElement TrivializedElement boundary chi gluing_check "
               "phi12"),
    ("galois", "TensorElement connection_defects lifted_can "
               "strong_connection strong_connection_closed"),
    ("chern", "CoinvariantMatrix idempotent pairing trace_functional"),
) for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                    name)
    globals()[name] = value   # later reads find it without this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
