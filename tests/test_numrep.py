"""Truncated representations and the numeric witnesses."""

import dataclasses
import math
import random
from types import MappingProxyType

import numpy as np
import pytest

from qhopf.scalars import Q
from qhopf.s3core import FLAG_A, FLAG_B, AlgElement, BasisMonomial, mul
from qhopf import numrep
from qhopf.numrep import (build_rep, classical_maps_check, evaluate,
                          faithfulness_probe, homomorphism_defect,
                          mvn_witness_check, numeric_trace,
                          polar_isometry_check, relation_defects,
                          spectrum_check, trace_tail_bound)
from qhopf.verify import SUITES, random_coinvariant, random_element

P_VAL, Q_VAL = 0.5, 1.0 / 3.0


def test_build_rep_weights():
    rep = build_rep("rho1theta", (0.0,), 3, P_VAL, Q_VAL)
    b = rep.gen("b")
    assert b[1, 0] == pytest.approx(math.sqrt(1 - P_VAL))
    assert b[2, 1] == pytest.approx(math.sqrt(1 - P_VAL ** 2))
    assert np.allclose(rep.gen("a"), np.eye(3))
    assert np.allclose(rep.gen("a*"), rep.gen("a").conj().T)
    assert np.allclose(rep.gen("b*"), b.conj().T)
    # the adjoint of the b* band (offset -1) is the b band
    back = numrep._band_adjoint(rep.bands["b*"])
    assert back.keys() == {1} and np.allclose(back[1], rep.bands["b"][1])
    # offsets -2..2: the adjoint's dense matrix is the conjugate transpose
    rng = np.random.default_rng(5)
    x = {s: _random_band(rng, 6, s) for s in range(-2, 3)}
    assert np.allclose(numrep._band_dense(numrep._band_adjoint(x), 6),
                       numrep._band_dense(x, 6).conj().T)


def test_build_rep_families_and_errors():
    rep = build_rep("classical", (0.4, 1.3), 2, P_VAL, Q_VAL)
    assert rep.dim == 1
    assert rep.gen("a")[0, 0] == pytest.approx(np.exp(0.4j))
    assert rep.gen("b")[0, 0] == pytest.approx(np.exp(1.3j))
    rep2 = build_rep("rho2theta", (0.7,), 8, P_VAL, Q_VAL)
    bbs = rep2.gen("b") @ rep2.gen("b*")
    assert np.allclose(bbs, np.eye(8))
    with pytest.raises(ValueError):
        build_rep("rho3", (0.0,), 4, P_VAL, Q_VAL)
    with pytest.raises(ValueError):
        build_rep("rho1theta", (0.0,), 4, 1.5, Q_VAL)
    with pytest.raises(ValueError):
        build_rep("rho1theta", (0.0,), 1, P_VAL, Q_VAL)
    with pytest.raises(ValueError):
        build_rep("classical", (0.0,), 4, P_VAL, Q_VAL)


def test_evaluate_flag_diagonal():
    rep = build_rep("rho1theta", (0.0,), 6, P_VAL, Q_VAL)
    flag = AlgElement.from_monomial(BasisMonomial(0, 0, 1, 0))
    got = np.diag(evaluate(flag, rep)).real
    assert np.allclose(got, [P_VAL ** k for k in range(6)])
    assert np.allclose(evaluate(AlgElement.zero(), rep), 0.0)


def test_relation_defects_small_on_safe_blocks():
    rng = random.Random(31)
    for n in (10, 50, 200):
        for family in ("rho1theta", "rho2theta"):
            for _ in range(5):
                rep = build_rep(family, (2 * math.pi * rng.random(),), n,
                                P_VAL, Q_VAL)
                assert max(relation_defects(rep).values()) <= 1e-12
    rep = build_rep("classical", (0.1, 0.7), 2, P_VAL, Q_VAL)
    assert max(relation_defects(rep).values()) <= 1e-12


def test_homomorphism_oracle():
    rng = random.Random(37)
    rep = build_rep("rho2theta", (1.9,), 30, P_VAL, Q_VAL)
    for _ in range(60):
        x, y = random_element(rng), random_element(rng)
        assert homomorphism_defect(x, y, rep) <= 1e-10


def test_numeric_trace_anchors():
    one = AlgElement.one()
    res = numeric_trace(one, 300, P_VAL, Q_VAL)
    assert abs(res.value) == 0.0
    beta = AlgElement.from_monomial(BasisMonomial(0, 1, 0, 0))
    res = numeric_trace(beta, 300, P_VAL, Q_VAL)
    assert res.value.real == pytest.approx(1.0 / (1.0 - Q_VAL), abs=1e-9)
    assert res.tail_bound <= 1e-9
    with pytest.raises(ValueError):
        numeric_trace(AlgElement.generator("a"), 10, P_VAL, Q_VAL)


def test_numeric_trace_of_the_idempotent_trace():
    from qhopf.chern import idempotent
    tr = idempotent(-1).trace()
    res = numeric_trace(tr, 300, P_VAL, Q_VAL)
    assert res.value.real == pytest.approx(-1.0, abs=1e-9)


def test_tail_bound_is_honest():
    # compare the N = 40 truncation against N = 400 ("converged") values
    rng = random.Random(41)
    for _ in range(10):
        x = random_coinvariant(rng)
        small = numeric_trace(x, 40, P_VAL, Q_VAL)
        big = numeric_trace(x, 400, P_VAL, Q_VAL)
        assert abs(small.value - big.value) <= small.tail_bound + 1e-9
        assert trace_tail_bound(x, 40, P_VAL, Q_VAL) == small.tail_bound


@pytest.mark.parametrize("flag", [(1, 0), (0, 1)], ids=["1-aa*", "1-bb*"])
def test_tail_bound_is_the_truncation_error_of_a_flag_power(flag):
    # the diagonal of a single flag power is geometric with positive terms,
    # so the truncated trace misses exactly the tail that the bound states
    from qhopf.chern import trace_functional
    for k in (1, 2):
        x = AlgElement.from_monomial(BasisMonomial(0, k * flag[0],
                                                   k * flag[1], 0))
        exact = trace_functional(x).evaluate(P_VAL, Q_VAL)
        for N in range(3, 7):
            got = numeric_trace(x, N, P_VAL, Q_VAL)
            assert abs(abs(got.value - exact) - got.tail_bound) <= 1e-12


def test_spectrum_checks():
    for n in (2, 10, 50, 200):
        rep = build_rep("rho1theta", (0.0,), n, P_VAL, Q_VAL)
        res = spectrum_check(rep)
        assert res["max_error"] <= 1e-10
        assert res["simple"]
        rep = build_rep("rho2theta", (0.5,), n, P_VAL, Q_VAL)
        res = spectrum_check(rep)
        assert res["max_error"] <= 1e-10
        assert res["simple"]
    with pytest.raises(ValueError):
        spectrum_check(build_rep("classical", (0, 0), 2, P_VAL, Q_VAL))


def test_polar_isometry():
    rep = build_rep("rho2theta", (0.0,), 100, P_VAL, 0.3)
    res = polar_isometry_check(rep, "a")
    assert res["min_eig"] >= 0.7 - 1e-10
    assert res["isometry_defect"] <= 1e-10
    # a is a phase in family 1: exactly isometric already
    rep = build_rep("rho1theta", (1.1,), 100, P_VAL, 0.3)
    res = polar_isometry_check(rep, "a")
    assert res["min_eig"] >= 1.0 - 1e-12
    assert res["isometry_defect"] <= 1e-10
    res = polar_isometry_check(rep, "b")
    assert res["min_eig"] >= 1 - P_VAL - 1e-10
    assert res["isometry_defect"] <= 1e-10
    with pytest.raises(ValueError):
        polar_isometry_check(rep, "c")


def test_mvn_witness():
    res = mvn_witness_check(10)
    assert res["max_defect"] <= 1e-12
    assert res["projection_rank"] == 1
    assert res["partial_isometry_defect"] <= 1e-12
    with pytest.raises(ValueError):
        mvn_witness_check(1)


def test_classical_maps():
    res = classical_maps_check(1000, seed=7)
    assert res["max_error"] <= 1e-12
    with pytest.raises(ValueError):
        classical_maps_check(0)


def test_classical_maps_pole_points():
    from qhopf.numrep import _f_map, _g_map
    assert _g_map(1.0, 0.0) == (pytest.approx(1.0), pytest.approx(0.0))
    assert _f_map(1.0, 0.0) == (pytest.approx(1.0), pytest.approx(0.0))


def test_faithfulness_probe():
    assert faithfulness_probe(AlgElement.zero())
    # an element that normalizes to zero offers no witness at all
    a, ast = AlgElement.generator("a"), AlgElement.generator("a*")
    one = AlgElement.one()
    beta = one - mul(a, ast)
    rel = mul(ast, a) - one + Q * beta
    assert rel.is_zero()
    assert faithfulness_probe(rel)
    rep = build_rep("rho2theta", (0.77,), 20, P_VAL, Q_VAL)
    assert np.linalg.norm(evaluate(rel, rep), 2) <= 1e-12
    # random nonzero elements always get a witness
    rng = random.Random(43)
    for i in range(60):
        x = random_element(rng)
        if x.is_zero():
            continue
        assert faithfulness_probe(x, seed=i)


# ---------------------------------------------------------------------------
# banded images against a dense reference built here from gen() matrices
# ---------------------------------------------------------------------------

def _dense_monomial(t, rep):
    # a^mu (1-aa*)^m (1-bb*)^n b^nu from dense matrix powers
    power = np.linalg.matrix_power
    a, ast, b, bst = (rep.gen(g) for g in ("a", "a*", "b", "b*"))
    eye = np.eye(rep.dim, dtype=complex)
    return (power(a if t.mu >= 0 else ast, abs(t.mu))
            @ power(eye - a @ ast, t.m) @ power(eye - b @ bst, t.n)
            @ power(b if t.nu >= 0 else bst, abs(t.nu)))


def _dense_element(x, rep):
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for t, c in x.terms.items():
        out += complex(c.evaluate(rep.p, rep.q)) * _dense_monomial(t, rep)
    return out


def _reps(N, rng):
    theta = 2 * math.pi * rng.random()
    return [build_rep("rho1theta", (theta,), N, P_VAL, Q_VAL),
            build_rep("rho2theta", (theta,), N, P_VAL, Q_VAL),
            build_rep("classical", (theta, 2 * math.pi * rng.random()), N,
                      P_VAL, Q_VAL)]


# every flag exponent up to 4 on either side
FLAGS = ([(0, 0)] + [(k, 0) for k in range(1, 5)]
         + [(0, k) for k in range(1, 5)])


@pytest.mark.parametrize("N", [2, 3, 12, 40])
def test_banded_images_match_dense_reference(N):
    rng = random.Random(1000 + N)
    shifts = sorted({0, 1, 2, N - 1, N, N + 1} | {-1, -2, 1 - N, -N, -N - 1})
    for rep in _reps(N, rng):
        for mu in shifts:
            for nu in shifts:
                for m, n in FLAGS:
                    t = BasisMonomial(mu, m, n, nu)
                    x = AlgElement.from_monomial(t)
                    got = evaluate(x, rep)
                    assert np.abs(got - _dense_monomial(t, rep)).max() <= 1e-13
                    # a shift of N or more steps leaves the truncation
                    reach = {"rho1theta": abs(nu), "rho2theta": abs(mu)}
                    if reach.get(rep.family, 0) >= N:
                        assert not got.any()
        for _ in range(40):
            x = random_element(rng, max_shift=N + 1, max_flag=4, max_terms=4)
            assert np.abs(evaluate(x, rep) - _dense_element(x, rep)).max() \
                <= 1e-13


@pytest.mark.parametrize("N", [2, 3, 12, 40])
def test_banded_traces_and_defects_match_dense_reference(N):
    rng = random.Random(2000 + N)
    rho1 = build_rep("rho1theta", (0.0,), N, P_VAL, Q_VAL)
    rho2 = build_rep("rho2theta", (0.0,), N, P_VAL, Q_VAL)
    for _ in range(20):
        x = random_coinvariant(rng, max_flag=4)
        want = (np.trace(_dense_element(x, rho2))
                - np.trace(_dense_element(x, rho1)))
        got = numeric_trace(x, N, P_VAL, Q_VAL)
        assert abs(got.value - want) <= 1e-13
    for rep in _reps(N, rng):
        a, ast = rep.gen("a"), rep.gen("a*")
        b, bst = rep.gen("b"), rep.gen("b*")
        eye = np.eye(rep.dim, dtype=complex)
        cols = rep.dim - 1 if rep.dim > 1 else 1
        want = {
            "a*a - q aa* - (1-q)":
                ast @ a - rep.q * (a @ ast) - (1 - rep.q) * eye,
            "b*b - p bb* - (1-p)":
                bst @ b - rep.p * (b @ bst) - (1 - rep.p) * eye,
            "ab - ba": a @ b - b @ a,
            "(1-aa*)(1-bb*)": (eye - a @ ast) @ (eye - b @ bst),
        }
        got = relation_defects(rep)
        assert set(got) == set(want)
        for name, m in want.items():
            assert got[name] == pytest.approx(
                np.linalg.norm(m[:, :cols], 2), abs=1e-13)
        if rep.family == "classical":
            continue
        for _ in range(10):
            x = random_element(rng, max_shift=1, max_flag=2)
            y = random_element(rng, max_shift=1, max_flag=2)
            cols = rep.dim - x.shift_reach() - y.shift_reach()
            if cols <= 0:
                continue
            diff = (_dense_element(mul(x, y), rep)
                    - _dense_element(x, rep) @ _dense_element(y, rep))
            assert homomorphism_defect(x, y, rep) == pytest.approx(
                np.linalg.norm(diff[:, :cols], 2), abs=1e-13)


def test_generator_matrices_are_values():
    rep = build_rep("rho1theta", (0.3,), 12, P_VAL, Q_VAL)
    x = AlgElement({BasisMonomial(0, 1, 0, 0): Q,
                    BasisMonomial(0, 0, 2, 0): Q * Q,
                    BasisMonomial(1, 0, 1, 1): Q})
    trace = numeric_trace(x, 12, P_VAL, Q_VAL)
    # the shared pair that numeric_trace read
    reps = numrep._trace_pair(12, P_VAL, Q_VAL)
    defects = relation_defects(rep)
    for r in (rep, *reps):
        for g in ("a", "a*", "b", "b*"):
            m = r.gen(g)
            m[1, 0] = 0
            m[0, 0] = 5
            assert r.gen(g)[0, 0] != 5
    assert numeric_trace(x, 12, P_VAL, Q_VAL) == trace
    assert relation_defects(rep) == defects
    # the banded generators themselves are read-only
    for v in rep.bands["b"].values():
        with pytest.raises(ValueError):
            v[0] = 0
    # the two flag bands are 1 - g g*, copied by gen() and read-only too
    for r in (rep, *reps):
        eye = np.eye(r.dim)
        for f in (FLAG_A, FLAG_B):
            m = r.gen(f)
            assert np.abs(m - (eye - r.gen(f[0]) @ r.gen(f[1]))).max() \
                <= 1e-15
            m[0, 0] = 5
            assert r.gen(f)[0, 0] != 5
            for v in r.bands[f].values():
                with pytest.raises(ValueError):
                    v[0] = 0



def test_truncated_rep_is_a_value():
    rep = build_rep("rho2theta", (0.7,), 8, P_VAL, Q_VAL)
    with pytest.raises(AttributeError):
        rep.N = 9
    with pytest.raises(TypeError):
        rep.bands["a"] = {0: np.zeros(8)}
    with pytest.raises(TypeError):
        rep.bands["a"][0] = np.zeros(8)
    with pytest.raises(TypeError):
        rep.bands[FLAG_A][0] = np.zeros(8)
    assert rep.N == 8 and set(rep.bands["a"]) == {1}
    # the fields other than the bands determine it
    twin = build_rep("rho2theta", (0.7,), 8, P_VAL, Q_VAL)
    assert twin == rep and hash(twin) == hash(rep)
    assert build_rep("rho2theta", (0.8,), 8, P_VAL, Q_VAL) != rep


def _spy_build_rep(monkeypatch):
    built = []
    original = numrep.build_rep

    def spy(family, phases, N, p_val, q_val):
        built.append((family, N, p_val, q_val))
        return original(family, phases, N, p_val, q_val)

    numrep._trace_pair.cache_clear()
    monkeypatch.setattr(numrep, "build_rep", spy)
    return built


def test_repeated_traces_build_the_pair_once(monkeypatch):
    built = _spy_build_rep(monkeypatch)
    x = AlgElement({BasisMonomial(0, 1, 0, 0): Q,
                    BasisMonomial(1, 0, 2, 1): Q * Q})
    first = numeric_trace(x, 30, P_VAL, Q_VAL)
    for _ in range(4):
        assert numeric_trace(x, 30, P_VAL, Q_VAL) == first
    assert built == [("rho1theta", 30, P_VAL, Q_VAL),
                     ("rho2theta", 30, P_VAL, Q_VAL)]
    # the memo returns the same frozen pair
    assert numrep._trace_pair(30, P_VAL, Q_VAL) is numrep._trace_pair(
        30, P_VAL, Q_VAL)
    numrep._trace_pair.cache_clear()


def test_the_trace_memo_evicts_its_oldest_key(monkeypatch):
    built = _spy_build_rep(monkeypatch)
    bound = numrep._trace_pair.cache_info().maxsize
    assert bound == 4
    x = AlgElement({BasisMonomial(0, 2, 0, 0): Q})
    keys = [(n, P_VAL, Q_VAL) for n in range(10, 10 + bound + 1)]
    for N, p_val, q_val in keys:
        numeric_trace(x, N, p_val, q_val)
    assert len(built) == 2 * len(keys)
    assert numrep._trace_pair.cache_info().currsize == bound
    # the newest keys are still held, the oldest one is rebuilt
    for N, p_val, q_val in keys[1:]:
        numeric_trace(x, N, p_val, q_val)
    assert len(built) == 2 * len(keys)
    numeric_trace(x, *keys[0])
    assert built[-2:] == [("rho1theta", 10, P_VAL, Q_VAL),
                          ("rho2theta", 10, P_VAL, Q_VAL)]
    numrep._trace_pair.cache_clear()


def _random_band(rng, N, s):
    # a weighted diagonal at offset s, zero where k + s leaves [0, N)
    v = rng.normal(size=N) + 1j * rng.normal(size=N)
    v[max(0, N - s):] = 0
    v[:max(0, -s)] = 0
    return v


@pytest.mark.parametrize("N", [1, 2, 7, 30])
def test_band_norm_against_dense_operator_norm(N):
    rng = np.random.default_rng(3000 + N)
    for s in range(1 - N, N):
        x = {s: _random_band(rng, N, s)}
        dense = numrep._band_dense(x, N)
        for cols in range(1, N + 1):
            # one band: exactly the operator norm on the first cols vectors
            assert numrep._band_norm(x, cols) == pytest.approx(
                np.linalg.norm(dense[:, :cols], 2), abs=1e-13)
    for _ in range(40):
        offsets = rng.choice(np.arange(1 - N, N), size=min(N, 3) * 2 - 1)
        x = {int(s): _random_band(rng, N, int(s)) for s in offsets}
        dense = numrep._band_dense(x, N)
        for cols in range(1, N + 1):
            # several bands: an upper bound (up to the rounding of the SVD)
            assert numrep._band_norm(x, cols) >= \
                np.linalg.norm(dense[:, :cols], 2) - 1e-13
    with pytest.raises(ValueError):
        numrep._band_norm({0: np.ones(N)}, 0)


def test_defect_and_spectrum_checks_form_no_dense_matrix(monkeypatch):
    rng = random.Random(47)
    reps = [build_rep("rho1theta", (0.3,), 60, P_VAL, Q_VAL),
            build_rep("rho2theta", (1.7,), 60, P_VAL, Q_VAL)]
    classical = build_rep("classical", (0.1, 0.7), 2, P_VAL, Q_VAL)
    pairs = [(random_element(rng), random_element(rng)) for _ in range(10)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense matrix or a dense decomposition")

    monkeypatch.setattr(numrep, "_band_dense", forbidden)
    for name in ("norm", "svd", "eigvalsh", "eigh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("kron", "eye"):
        monkeypatch.setattr(np, name, forbidden)
    assert max(relation_defects(classical).values()) <= 1e-12
    for rep in reps:
        assert max(relation_defects(rep).values()) <= 1e-12
        res = spectrum_check(rep)
        assert res["max_error"] <= 1e-10 and res["simple"]
        for x, y in pairs:
            assert homomorphism_defect(x, y, rep) <= 1e-10
    # the faithfulness witness reads its norm off the bands too
    assert any(not x.is_zero() for x, _ in pairs)
    for i, (x, _) in enumerate(pairs):
        assert faithfulness_probe(x, seed=i)
    # and so do the polar parts and the shift-tensor-projection witness
    polar = [build_rep("rho2theta", (0.4,), 100, P_VAL, Q_VAL),
             build_rep("rho1theta", (1.1,), 100, P_VAL, Q_VAL)]
    for rep, which, gap in ((polar[0], "a", 1 - Q_VAL),
                            (polar[1], "b", 1 - P_VAL),
                            (polar[1], "a", 1.0)):
        res = polar_isometry_check(rep, which)
        assert res["min_eig"] >= gap - 1e-10
        assert res["isometry_defect"] <= 1e-10
    for n in (2, 10, 100):
        res = mvn_witness_check(n)
        assert res["max_defect"] <= 1e-12 and res["projection_rank"] == 1
        assert res["partial_isometry_defect"] <= 1e-12
    # a truncated trace, cold and then from the memo
    x = random_coinvariant(rng)
    numrep._trace_pair.cache_clear()
    cold = numeric_trace(x, 40, P_VAL, Q_VAL)
    assert numeric_trace(x, 40, P_VAL, Q_VAL) == cold
    # and the whole numeric suites
    for suite in ("numeric", "chern", "classical"):
        report = SUITES[suite](p_val=P_VAL, q_val=Q_VAL, N=40, seed=3)
        assert report["pass"], suite


# ---------------------------------------------------------------------------
# band kernels against their zero-fill form and against dense matrices
# ---------------------------------------------------------------------------

def _zero_fill_mul(x, y):
    # every product written into a new zeroed vector, summed out of place
    out = {}
    for s2, v2 in y.items():
        dim = len(v2)
        for s1, v1 in x.items():
            s = s1 + s2
            if abs(s) >= dim:
                continue
            w = np.zeros(dim, dtype=complex)
            if s2 >= 0:
                w[:dim - s2] = v1[s2:] * v2[:dim - s2]
            else:
                w[-s2:] = v1[:dim + s2] * v2[-s2:]
            out[s] = out[s] + w if s in out else w
    return out


def _zero_fill_comb(*pairs):
    out = {}
    for c, x in pairs:
        for s, v in x.items():
            w = c * v
            out[s] = out[s] + w if s in out else w
    return out


def _zero_fill_adjoint(x):
    out = {}
    for s, v in x.items():
        w = np.zeros(len(v), dtype=complex)
        if s >= 0:
            w[s:] = v[:len(v) - s].conj()
        else:
            w[:len(v) + s] = v[-s:].conj()
        out[-s] = w
    return out


def _random_band_map(rng, dim):
    # empty, one band or several, at offsets from -dim-1 to dim+1; the
    # vectors are read-only, as a TruncatedRep's are
    count = int(rng.choice([0, 1, 1, 1, 2, 3]))
    offsets = rng.choice(np.arange(-dim - 1, dim + 2), size=count,
                         replace=False)
    x = {int(s): _random_band(rng, dim, int(s)) for s in offsets}
    for v in x.values():
        v.flags.writeable = False
    return x


def _same_bits(got, want):
    return list(got) == list(want) and all(
        got[s].dtype == want[s].dtype
        and got[s].tobytes() == want[s].tobytes() for s in want)


def _dense(x, dim):
    # a band at |offset| >= dim is zero and has no place in the matrix
    return numrep._band_dense({s: v for s, v in x.items() if abs(s) < dim},
                              dim)


@pytest.mark.parametrize("dim", range(1, 9))
def test_band_kernels_match_zero_fill_and_dense_reference(dim):
    rng = np.random.default_rng(4000 + dim)
    kernels = [(numrep._band_mul, _zero_fill_mul, 2),
               (numrep._band_adjoint, _zero_fill_adjoint, 1)]
    for _ in range(300):
        for kernel, reference, arity in kernels:
            args = [_random_band_map(rng, dim) for _ in range(arity)]
            before = [{s: v.copy() for s, v in x.items()} for x in args]
            try:
                want = reference(*args)
            except ValueError:
                # slices past an offset beyond +-dim fail in either form
                with pytest.raises(ValueError):
                    kernel(*args)
                continue
            got = kernel(*args)
            assert _same_bits(got, want)
            assert all(_same_bits(x, b) for x, b in zip(args, before))
            assert not any(np.shares_memory(w, v) for w in got.values()
                           for x in args for v in x.values())
            dense = [_dense(x, dim) for x in args]
            expect = (dense[0] @ dense[1] if arity == 2
                      else dense[0].conj().T)
            assert np.abs(_dense(got, dim) - expect).max() <= 1e-13
        pairs = [(complex(*rng.normal(size=2)), _random_band_map(rng, dim))
                 for _ in range(int(rng.integers(1, 5)))]
        pairs[0] = (1.0, pairs[0][1])
        before = [{s: v.copy() for s, v in x.items()} for _, x in pairs]
        got = numrep._band_comb(*pairs)
        assert _same_bits(got, _zero_fill_comb(*pairs))
        assert all(_same_bits(x, b) for (_, x), b in zip(pairs, before))
        assert not any(np.shares_memory(w, v) for w in got.values()
                       for _, x in pairs for v in x.values())
        expect = sum(c * _dense(x, dim) for c, x in pairs)
        assert np.abs(_dense(got, dim) - expect).max() <= 1e-13


# ---------------------------------------------------------------------------
# the trace images only the words that reach the offset-0 band
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 5, 30])
def test_trace_image_keeps_the_diagonal_of_the_whole_image(N):
    rng = random.Random(5000 + N)
    for rep in _reps(N, rng):
        for _ in range(60):
            x = random_element(rng, max_shift=N + 1, max_flag=3,
                               max_terms=5)
            got, want = numrep._trace_image(x, rep), numrep._image(x, rep)
            assert (0 in got) == (0 in want)
            if 0 in want:
                assert np.array_equal(got[0], want[0])
                assert got[0].tobytes() == want[0].tobytes()


def test_a_multi_band_letter_keeps_every_word(monkeypatch):
    rng = random.Random(53)
    rep = build_rep("rho1theta", (0.4,), 12, P_VAL, Q_VAL)
    # give the letter a a second band: no word with an a may be dropped
    two = {0: rep.bands["a"][0], 2: _random_band(np.random.default_rng(7),
                                                 12, 2)}
    rep = dataclasses.replace(rep, bands=MappingProxyType(
        {**rep.bands, "a": MappingProxyType(two)}))
    imaged = []
    original = numrep._word_image

    def spy(word, r):
        imaged.append(word)
        return original(word, r)

    monkeypatch.setattr(numrep, "_word_image", spy)
    for _ in range(20):
        x = AlgElement({BasisMonomial(rng.randint(1, 3), rng.randint(0, 2),
                                      0, rng.randint(-3, 3)): Q
                        for _ in range(3)})
        imaged.clear()
        got = numrep._trace_image(x, rep)
        assert len(imaged) == len(x.terms)
        assert _same_bits(got, numrep._image(x, rep))
    # a word of one-band letters with a net offset is still dropped there
    imaged.clear()
    b = AlgElement.generator("b")
    assert numrep._trace_image(b, rep) == {} and imaged == []


def test_a_trace_of_off_diagonal_words_forms_no_band_product(monkeypatch):
    # winding-zero words with a shift move the basis in both families
    x = AlgElement({BasisMonomial(1, 0, 0, 1): Q,
                    BasisMonomial(-2, 3, 0, -2): Q * Q,
                    BasisMonomial(3, 0, 2, 3): 1 - Q})
    diagonal = AlgElement({BasisMonomial(0, 2, 0, 0): Q})
    for y in (x, diagonal):
        numeric_trace(y, 40, P_VAL, Q_VAL)   # the pair is built here
    products = []
    original = numrep._band_mul

    def counted(*args):
        products.append(args)
        return original(*args)

    monkeypatch.setattr(numrep, "_band_mul", counted)
    assert numeric_trace(x, 40, P_VAL, Q_VAL).value == 0
    assert products == []
    # the spy sees the products of a word on the diagonal
    numeric_trace(diagonal, 40, P_VAL, Q_VAL)
    assert products
