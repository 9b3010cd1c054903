"""qhopf: exact symbolic engine for a glued quantum 3-sphere.

The package models the coordinate *-algebra of the quantum 3-sphere
obtained by gluing two quantum solid tori, its circle coaction, the
two-disc base algebra sitting inside it, a strong connection for the
fibration with its Gauss-binomial closed form, the idempotents of the
associated line modules, and the exact trace pairing that certifies the
fibration nontrivial.  A truncated-operator layer, ``qhopf.numrep``,
provides an independent numeric oracle for every symbolic identity; it
is the only module that needs numpy, and importing the package does not
load it.
"""

from .scalars import ONE, P, Q, ZERO, ParamScalar, ppow, qbinomial, qpow
from .s3core import AlgElement, BasisMonomial, iota_image, mul
from .hopf import CotensorElement, LaurentElement, coaction
from .gluing import (DiscElement, TrivializedElement, boundary, chi,
                     gluing_check, phi12)
from .galois import (TensorElement, connection_defects, lifted_can,
                     strong_connection, strong_connection_closed)
from .chern import CoinvariantMatrix, idempotent, pairing, trace_functional

__version__ = "0.1.0"
