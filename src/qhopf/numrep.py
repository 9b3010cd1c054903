"""Truncated operator models: the independent numeric oracle.

The two infinite-dimensional representation families act on the span of
an orthonormal basis e_0, e_1, ... by a phase times the identity on one
generator and a weighted shift on the other:

    family 1:  a e_k = e^(i theta) e_k,      b e_k = sqrt(1-p^(k+1)) e_(k+1)
    family 2:  a e_k = sqrt(1-q^(k+1)) e_(k+1),  b e_k = e^(i theta) e_k

plus a two-phase family of one-dimensional classical points.  Truncation
keeps the first N basis vectors and sends the top one to 0 under the
shift, so all identity checks restrict to the sub-block the boundary
cannot reach.

Every operator here is held as a band map {offset: vector}: the
operator sends e_k to the sum over offsets s of vector_s[k] e_(k+s),
and vector_s[k] is 0 wherever k+s leaves [0, N).  Each generator is a
single weighted diagonal (the phase has offset 0, the shift +1, its
adjoint -1), and a product of single-offset operators again has one
offset:

    (s1, v1)(s2, v2) = (s1 + s2, k -> v1[k+s2] v2[k]),

zero wherever k+s2 leaves [0, N), which is exactly the truncation.  An
offset-0 right band is one elementwise product, a shifted one is
written straight into its zero-padded result, and sums add in place.  A
monomial image is the product of the generator and flag bands along
its word (:func:`qhopf.s3core.substitute`), folded from the band of its
first letter (only the unit monomial takes the identity band), so it
costs O(N) and is computed from the generator definitions alone, never
from the symbolic trace formula.

:func:`numeric_trace` images only the words that can reach the offset-0
band, and takes its two zero-phase representations from a memo keyed
by (N, p, q) that keeps the 4 most recently used keys.  A
key holds 12 read-only vectors of N complex128 numbers, 192 N bytes:
about 48 KB for N = 48 and 200 together, and 19 MB at the command
line's largest N = 100,000.  The representations are frozen values, so
every caller may share them.

The defect checks read operator norms off the bands: the part of one
band on the first ``cols`` basis vectors maps them to distinct basis
vectors, so its norm is the largest |weight| there, and a sum of bands
is bounded by the sum of these norms.  The flag spectra, the polar
parts, the shift-tensor-projection witness and the faithfulness
witness are read off the bands as well; no check forms an N x N
matrix, and dense matrices come only from the public ``gen`` and
``evaluate``.  numpy is imported with this module, which the rest of
the package loads only inside the numeric verification suites.

Also here: spectra of the flag operators, polar-isometry and
shift-tensor-projection witnesses, the defect of the classical
coordinate maps, and a randomized separation probe for nonzero algebra
elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .s3core import FLAG_A, FLAG_B, AlgElement, _word, substitute

__all__ = [
    "TruncatedRep",
    "build_rep",
    "evaluate",
    "relation_defects",
    "homomorphism_defect",
    "numeric_trace",
    "trace_tail_bound",
    "TraceResult",
    "spectrum_check",
    "polar_isometry_check",
    "mvn_witness_check",
    "classical_maps_check",
    "faithfulness_probe",
]

FAMILIES = ("rho1theta", "rho2theta", "classical")


# ---------------------------------------------------------------------------
# band maps {offset: vector}
# ---------------------------------------------------------------------------

def _band_mul(x: dict, y: dict) -> dict:
    """Product of two band maps, band by band.

    (s1, v1)(s2, v2) = (s1 + s2, k -> v1[k+s2] v2[k]), zero wherever
    k+s2 leaves [0, N); a band whose offset reaches N is zero and drops
    out.  An offset-0 right band is one elementwise product; a shifted
    one is multiplied straight into its zero-padded result.
    """
    out: dict = {}
    for s2, v2 in y.items():
        dim = len(v2)
        for s1, v1 in x.items():
            s = s1 + s2
            if abs(s) >= dim:
                continue
            if s2 == 0:
                w = v1 * v2
            else:
                lo, hi = max(0, -s2), min(dim, dim - s2)
                w = np.zeros(dim, dtype=complex)
                np.multiply(v1[lo + s2:hi + s2], v2[lo:hi], out=w[lo:hi])
            out[s] = out[s] + w if s in out else w
    return out


def _band_comb(*pairs) -> dict:
    """Sum c * x over (c, x) pairs of band maps, added up in place."""
    out: dict = {}
    for c, x in pairs:
        for s, v in x.items():
            if s in out:
                out[s] += c * v
            else:
                out[s] = c * v
    return out


def _band_identity(dim: int) -> dict:
    return {0: np.ones(dim, dtype=complex)}


def _band_adjoint(x: dict) -> dict:
    """Conjugate transpose; an offset-0 band needs no zero fill."""
    out = {}
    for s, v in x.items():
        if s == 0:
            out[0] = v.conj()
            continue
        w = np.zeros(len(v), dtype=complex)
        if s >= 0:
            w[s:] = v[:len(v) - s].conj()
        else:
            w[:len(v) + s] = v[-s:].conj()
        out[-s] = w
    return out


def _band_dense(x: dict, dim: int) -> np.ndarray:
    """The dim x dim matrix of a band map, built at O(dim * bands)."""
    out = np.zeros((dim, dim), dtype=complex)
    k = np.arange(dim)
    for s, v in x.items():
        if s >= 0:
            out[k[s:], k[:dim - s]] = v[:dim - s]
        else:
            out[k[:dim + s], k[-s:]] = v[-s:]
    return out


def _band_norm(x: dict, cols: int) -> float:
    """Bound on the operator norm of x on the first ``cols`` basis vectors.

    The sum over bands of the largest |weight| on those columns: exact
    for a single band, an upper bound by the triangle inequality
    otherwise.
    """
    if cols <= 0:
        raise ValueError("no safe block at this truncation")
    return float(sum(np.abs(v[:cols]).max() for v in x.values()))


@dataclass(frozen=True)
class TruncatedRep:
    """Banded generator images of one truncated irreducible representation.

    ``bands`` maps each of the six letters of a monomial word, "a",
    "a*", "b", "b*" and the flags FLAG_A = ("a", "a*") for 1 - aa* and
    FLAG_B = ("b", "b*") for 1 - bb*, to its band map.  The value is
    frozen: ``bands`` and each band map are read-only mappings and the
    vectors are read-only, and equality and hash read the other fields,
    which determine the bands.  ``gen`` returns a fresh dense matrix
    each call.
    """

    family: str
    phases: tuple
    N: int
    p: float
    q: float
    bands: Mapping = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(next(iter(self.bands["a"].values())))

    def gen(self, name: str) -> np.ndarray:
        return _band_dense(self.bands[name], self.dim)


def _weighted_shift(N: int, r: float) -> dict:
    w = np.zeros(N, dtype=complex)
    w[:N - 1] = np.sqrt(1.0 - r ** np.arange(1, N))
    return {1: w}


def build_rep(family: str, phases, N: int, p_val: float,
              q_val: float) -> TruncatedRep:
    """Assemble the banded generators of one representation truncation."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not (0.0 < p_val < 1.0 and 0.0 < q_val < 1.0):
        raise ValueError("parameters must lie in (0, 1)")
    phases = tuple(float(t) for t in phases)
    if family == "classical":
        if len(phases) != 2:
            raise ValueError("the classical family takes two phases")
        a = {0: np.array([cmath.exp(1j * phases[0])])}
        b = {0: np.array([cmath.exp(1j * phases[1])])}
    else:
        if len(phases) != 1:
            raise ValueError("the shift families take one phase")
        if N < 2:
            raise ValueError("truncation dimension must be at least 2")
        phase = {0: np.full(N, cmath.exp(1j * phases[0]))}
        if family == "rho1theta":
            a, b = phase, _weighted_shift(N, p_val)
        else:
            a, b = _weighted_shift(N, q_val), phase
    bands = {"a": a, "a*": _band_adjoint(a), "b": b, "b*": _band_adjoint(b)}
    one = _band_identity(len(next(iter(a.values()))))
    for g, gst in (FLAG_A, FLAG_B):
        bands[g, gst] = _band_comb((1.0, one),
                                   (-1.0, _band_mul(bands[g], bands[gst])))
    for x in bands.values():
        for v in x.values():
            v.flags.writeable = False
    return TruncatedRep(family, phases, N, p_val, q_val, MappingProxyType(
        {g: MappingProxyType(x) for g, x in bands.items()}))


def _word_image(word: tuple, rep: TruncatedRep) -> Mapping:
    """Band map of a word, folded from the band of its first letter."""
    if not word:
        return _band_identity(rep.dim)
    return substitute(word[1:], rep.bands, rep.bands[word[0]], _band_mul)


def _image(x: AlgElement, rep: TruncatedRep) -> dict:
    """Band map of an element: substitute the banded generators."""
    return _band_comb(*((complex(c.evaluate(rep.p, rep.q)),
                         _word_image(_word(t), rep))
                        for t, c in x.terms.items()))


def _trace_image(x: AlgElement, rep: TruncatedRep) -> dict:
    """Image of the words of x that can reach the offset-0 band: those
    with a letter of several bands, and those whose one-band letters'
    offsets in ``rep.bands`` sum to 0.  Its offset-0 band is _image's."""
    shift = {g: next(iter(b)) for g, b in rep.bands.items() if len(b) == 1}

    def reaches(t):
        offsets = [shift.get(g) for g in _word(t)]
        return None in offsets or sum(offsets) == 0
    return _image(AlgElement._raw(
        {t: c for t, c in x.terms.items() if reaches(t)}), rep)


def evaluate(x: AlgElement, rep: TruncatedRep) -> np.ndarray:
    """Matrix image of an element: substitute the generator images."""
    return _band_dense(_image(x, rep), rep.dim)


def relation_defects(rep: TruncatedRep) -> dict[str, float]:
    """Defects of the four defining relations on the safe block."""
    a, ast = rep.bands["a"], rep.bands["a*"]
    b, bst = rep.bands["b"], rep.bands["b*"]
    one = _band_identity(rep.dim)
    cols = rep.dim - 1 if rep.dim > 1 else 1
    rels = {
        "a*a - q aa* - (1-q)": _band_comb(
            (1.0, _band_mul(ast, a)), (-rep.q, _band_mul(a, ast)),
            (-(1 - rep.q), one)),
        "b*b - p bb* - (1-p)": _band_comb(
            (1.0, _band_mul(bst, b)), (-rep.p, _band_mul(b, bst)),
            (-(1 - rep.p), one)),
        "ab - ba": _band_comb((1.0, _band_mul(a, b)),
                              (-1.0, _band_mul(b, a))),
        "(1-aa*)(1-bb*)": _band_mul(rep.bands[FLAG_A], rep.bands[FLAG_B]),
    }
    return {name: _band_norm(m, cols) for name, m in rels.items()}


def homomorphism_defect(x: AlgElement, y: AlgElement,
                        rep: TruncatedRep) -> float:
    """Compare the image of a product with the product of the images.

    Both sides agree exactly on basis vectors the shifts cannot push
    across the truncation boundary; the defect is measured there.  The
    difference may have several bands, so the value is the band-norm
    upper bound on its operator norm (exact when one band remains).
    """
    from .s3core import mul
    d = x.shift_reach() + y.shift_reach()
    cols = rep.dim - d
    lhs = _image(mul(x, y), rep)
    rhs = _band_mul(_image(x, rep), _image(y, rep))
    return _band_norm(_band_comb((1.0, lhs), (-1.0, rhs)), cols)


class TraceResult(NamedTuple):
    """Value and rigorous geometric tail bound of a truncated trace."""

    value: complex
    tail_bound: float


def trace_tail_bound(x: AlgElement, N: int, p_val: float,
                     q_val: float) -> float:
    """Rigorous bound on the trace mass beyond the first N basis vectors.

    The diagonal of a winding-zero monomial is a geometric sequence, so
    the discarded tail is bounded by q^(N m)/(1-q^m) resp.
    p^(N n)/(1-p^n) per monomial, weighted by the coefficient evaluated
    at (p, q); monomials with a net shift have zero diagonal and
    contribute no tail at all.
    """
    bound = 0.0
    for t, c in x.terms.items():
        if t.mu != 0:
            continue
        w = abs(c.evaluate(p_val, q_val))
        if t.m:
            r = q_val ** t.m
            bound += w * r ** N / (1 - r)
        elif t.n:
            r = p_val ** t.n
            bound += w * r ** N / (1 - r)
    return bound


@lru_cache(maxsize=4)
def _trace_pair(N: int, p_val: float,
                q_val: float) -> tuple[TruncatedRep, TruncatedRep]:
    # the zero-phase pair of numeric_trace; 192 N bytes per key
    return (build_rep("rho1theta", (0.0,), N, p_val, q_val),
            build_rep("rho2theta", (0.0,), N, p_val, q_val))


def numeric_trace(x: AlgElement, N: int, p_val: float,
                  q_val: float) -> TraceResult:
    """Trace difference of the two shift representations, truncated at N.

    Only winding-zero elements are accepted.  The zero-phase pair comes
    from the memo of the module docstring, built once per (N, p, q)
    among the 4 most recent keys.
    """
    if not x.is_coinvariant():
        raise ValueError("numeric trace needs a coinvariant element")
    rho1, rho2 = _trace_pair(N, p_val, q_val)
    # the trace of a band map is the sum of its offset-0 vector
    value = complex(np.sum(_trace_image(x, rho2).get(0, 0))
                    - np.sum(_trace_image(x, rho1).get(0, 0)))
    return TraceResult(value, trace_tail_bound(x, N, p_val, q_val))


def spectrum_check(rep: TruncatedRep) -> dict:
    """Eigenvalues of the flag operator against the geometric sequence.

    In family 1 the operator 1 - bb* is diagonal with simple eigenvalues
    p^k, k < N; family 2 mirrors this with 1 - aa* and q.  The
    eigenvalues are read off the diagonal band; by Weyl's inequality
    they move by at most the norm of the other bands, which is added to
    the error (it is 0 for these families).
    """
    if rep.family == "rho1theta":
        flag, base = rep.bands[FLAG_B], rep.p
    elif rep.family == "rho2theta":
        flag, base = rep.bands[FLAG_A], rep.q
    else:
        raise ValueError("spectrum check applies to the shift families")
    eig = np.sort(flag[0].real)
    off = _band_norm({s: v for s, v in flag.items() if s}, rep.dim)
    want = np.sort(np.array([base ** k for k in range(rep.dim)]))
    # multiplicity one is only resolvable where the geometric gaps beat
    # the floating tolerance; below that the values agree with 0 anyway
    simple = True
    for k in range(rep.dim):
        if want[k] <= 1e-8:
            continue
        lo = want[k - 1] if k > 0 else -math.inf
        hi = want[k + 1] if k + 1 < rep.dim else math.inf
        window = 0.4 * min(want[k] - lo, hi - want[k])
        hits = int(np.sum(np.abs(eig - want[k]) < window))
        if hits != 1:
            simple = False
    return {
        "max_error": float(np.max(np.abs(eig - want))) + off,
        "simple": simple,
    }


def polar_isometry_check(rep: TruncatedRep, which: str = "a") -> dict:
    """Positivity of g*g and the isometry defect of g |g|^(-1).

    g*g is bounded below by 1-q (for g = a) resp. 1-p (for g = b), so
    the polar part is a well-defined isometry; both facts are checked on
    the block away from the truncation boundary.  g is one band, so g*g
    is its squared weights and the polar part rescales it by gram^(-1/2).
    """
    if which not in ("a", "b"):
        raise ValueError("which must be 'a' or 'b'")
    (w,) = rep.bands[which].values()
    m = rep.dim - 1 if rep.dim > 1 else 1
    gram = (w.conj() * w).real[:m]
    v = w[:m] * gram ** -0.5
    defect = float(np.abs(v.conj() * v - 1.0).max())
    bound = 1 - (rep.q if which == "a" else rep.p)
    return {"min_eig": float(gram.min()), "lower_bound": bound,
            "isometry_defect": defect}


def mvn_witness_check(N: int) -> dict:
    """Shift-tensor-projection equivalence witness on a finite block.

    With s the truncated unilateral shift and e = 1 - s s* (a rank-one
    projection), the partial isometry s (x) e satisfies
    (s (x) e)*(s (x) e) = 1 (x) e and (s (x) e)(s (x) e)* = (1-e) (x) e;
    both identities are exact away from the top shift index.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    shift = np.zeros(N, dtype=complex)
    shift[:N - 1] = 1.0
    s, one = {1: shift}, _band_identity(N)
    proj = _band_comb((1.0, one), (-1.0, _band_mul(s, _band_adjoint(s))))
    rank = int(round(float(np.sum(proj[0]).real)))

    def tensor_e(x: dict) -> dict:
        # x (x) e on the index kN + l: band s of x becomes band sN
        return {k * N: np.outer(w, proj[0]).ravel() for k, w in x.items()}

    v = tensor_e(s)
    vst = _band_adjoint(v)
    cols = (N - 1) * N  # drop the top shift index on the first leg
    defect1 = _band_norm(_band_comb((1.0, _band_mul(vst, v)),
                                    (-1.0, tensor_e(one))), cols)
    defect2 = _band_norm(_band_comb(
        (1.0, _band_mul(v, vst)),
        (-1.0, tensor_e(_band_comb((1.0, one), (-1.0, proj))))), cols)
    pi = _band_norm(_band_comb((1.0, _band_mul(_band_mul(v, vst), v)),
                               (-1.0, v)), N * N)
    return {"projection_rank": rank, "defect_vstar_v": defect1,
            "defect_v_vstar": defect2, "partial_isometry_defect": pi,
            "max_defect": max(defect1, defect2)}


# ---------------------------------------------------------------------------
# classical coordinate maps
# ---------------------------------------------------------------------------

def _f_map(z1: complex, z2: complex) -> tuple[complex, complex]:
    norm = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    return (z1 / norm, z2.conjugate() / norm)


def _g_map(c1: complex, c2: complex) -> tuple[complex, complex]:
    scale = math.sqrt(2.0) / math.sqrt(1.0 + abs(2.0 * abs(c1) ** 2 - 1.0))
    return (scale * c1, scale * c2.conjugate())


def classical_maps_check(samples: int, seed: int = 0) -> dict:
    """Round-trip, membership, and equivariance defects of the two maps.

    The glued space X consists of pairs with one coordinate on the unit
    circle and the other in the closed disc; the circle acts on X with
    opposite phases on the two legs and on the unit sphere of C^2 with
    equal phases.  The forward map conjugates the second coordinate and
    normalizes; the inverse rescales by the function of |c1| above.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0

    def circle():
        return cmath.exp(2j * math.pi * rng.random())

    def disc():
        return math.sqrt(rng.random()) * circle()

    for _ in range(samples):
        # a point of X: one leg on the circle, the other in the disc
        if rng.random() < 0.5:
            z = (circle(), disc())
        else:
            z = (disc(), circle())
        c = _f_map(*z)
        worst = max(worst, abs(abs(c[0]) ** 2 + abs(c[1]) ** 2 - 1.0))
        back = _g_map(*c)
        worst = max(worst, abs(back[0] - z[0]), abs(back[1] - z[1]))

        # a point of the 3-sphere
        raw = rng.normal(size=4)
        nrm = math.sqrt(float(np.sum(raw ** 2)))
        if nrm < 1e-6:
            continue
        c = (complex(raw[0], raw[1]) / nrm, complex(raw[2], raw[3]) / nrm)
        z = _g_map(*c)
        worst = max(worst,
                    abs((1 - abs(z[0]) ** 2) * (1 - abs(z[1]) ** 2)),
                    max(abs(z[0]), abs(z[1])) - 1.0)
        fwd = _f_map(*z)
        worst = max(worst, abs(fwd[0] - c[0]), abs(fwd[1] - c[1]))

        # equivariance of the forward map
        phase = circle()
        lhs = _f_map(z[0] * phase, z[1] / phase)
        rhs = (fwd[0] * phase, fwd[1] * phase)
        worst = max(worst, abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))
    return {"samples": samples, "seed": seed, "max_error": worst}


def faithfulness_probe(x: AlgElement, seed: int = 0) -> bool:
    """Search for a numeric witness that a symbolic element is nonzero.

    Separation strategy matching the monomial-basis argument: family 1
    sees every monomial without an a-flag, family 2 every monomial
    without a b-flag, and the phases separate the a-powers (resp.
    b-powers) as Fourier modes.  Both the phase and the deformation
    parameters are sampled per trial: a coefficient is a rational
    function and may vanish at isolated parameter values without the
    element being zero.  Returns True when x is zero (nothing to
    witness) or when some sampled evaluation has norm above the
    threshold.  No matrix entry exceeds the operator norm, so the largest
    |weight| on the bands is a rigorous lower bound on it.
    """
    if x.is_zero():
        return True
    N = max(abs(t.mu) + abs(t.nu) + t.m + t.n for t in x.terms) + 10
    trials, threshold = 8, 1e-8
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        theta = 2.0 * math.pi * rng.random()
        p_val = 0.2 + 0.6 * rng.random()
        q_val = 0.2 + 0.6 * rng.random()
        for family in ("rho1theta", "rho2theta"):
            rep = build_rep(family, (theta,), N, p_val, q_val)
            # band s holds the entries (k + s, k) for 0 <= k, k + s < N
            if any(np.abs(v[max(0, -s):N - max(0, s)]).max(initial=0.0)
                   > threshold for s, v in _image(x, rep).items()):
                return True
    return False
