"""Sums of products of Laurent scalars as Kronecker-packed big integers.

The engine of ``scalars._packed_sums``, loaded by the first call worth
packing.  A value packs once, as its lowest exponents and one int with
p -> X^W, q -> X at X = 2^s; products multiply, sums add shifted ints,
and each key decodes once, in balanced digits (by the decoder that also
lifts the field-path gcd).  As evaluation at 2^s is a ring homomorphism,
only that sum must fit: W > each key's q-extent, 2^(s-1) > its bound,
the sum over its products f g c of ||f||_1 ||g||_1 ||c||_1 with one l1
norm replaced by that factor's largest |c|.
"""

import struct
from itertools import product

from .scalars import ONE, _SLOT_FORMATS, _balanced_digits, _kbias, _laurent


def packed_sums(blocks, budget):
    """``scalars._packed_sums``, or None past ``budget`` packed slots."""
    # _pstat by id; per key [i low, i high, j low, j high, bound, sum]
    stats, keys, todo = {}, {}, []
    for k, (f, pairs) in enumerate(blocks):
        f, g = f if f.__class__ is tuple else (f, ONE)
        fi, fj, fdi, fdj, fl, fm, *_ = stats.get(id(f)) or _pstat(f, stats)
        gi, gj, gdi, gdj, gl, gm, *_ = stats.get(id(g)) or _pstat(g, stats)
        bl, bm = fl * gl, min(fl * gm, fm * gl)
        for t, c in pairs:
            ci, cj, cdi, cdj, cl, cm, _, _, _ = (stats.get(id(c))
                                                 or _pstat(c, stats))
            i0, j0 = fi + gi + ci, fj + gj + cj
            i1, j1 = i0 + fdi + gdi + cdi, j0 + fdj + gdj + cdj
            r = keys.get(t)
            if r is None:
                r = keys[t] = [i0, i1, j0, j1, 0, 0]
            elif i0 < r[0] or i1 > r[1] or j0 < r[2] or j1 > r[3]:
                r[:4] = (min(r[0], i0), max(r[1], i1), min(r[2], j0),
                         max(r[3], j1))
            r[4] += min(bl * cm, bm * cl)
            todo.append((r, k, id(c), i0, j0))
    recs = keys.values()
    width = max((r[3] - r[2] for r in recs), default=0) + 1
    if None in stats.values() or budget < sum(
            (r[1] - r[0]) * width + r[3] - r[2] + 1 for r in recs):
        return None
    nbytes = (max((r[4] for r in recs), default=0).bit_length() + 8) // 8
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    bits, fmt = 8 * nbytes, _SLOT_FORMATS.get(nbytes)
    packed = {k: _kpack(s, width, nbytes, fmt) for k, s in stats.items()}
    prods = [packed[id(f[0])] * packed[id(f[1])] if f.__class__ is tuple
             else packed[id(f)] for f, _ in blocks]
    for r, k, c, i, j in todo:
        r[5] += prods[k] * packed[c] << bits * ((i - r[0]) * width + j - r[2])
    out = {}
    for t, (i0, i1, j0, j1, _, v) in keys.items():
        if v:
            n = (i1 - i0) * width + j1 - j0 + 1
            out[t] = _laurent({m: d for m, d in zip(
                product(range(i1 - i0 + 1), range(width)),
                _balanced_digits(v, nbytes, n)) if d}, i0, j0)
    return out


def _pstat(x, stats):
    # (low i, low j, i extent, j extent, l1, max |c|, terms, their lows)
    n, s = x._n, None
    if x._d is None and n:
        (i0, i1), (j0, j1) = ((min(e), max(e)) for e in zip(*n))
        a = list(map(abs, n.values()))
        s = (x._o[0] + i0, x._o[1] + j0, i1 - i0, j1 - j0, sum(a), max(a),
             n, i0, j0)
    stats[id(x)] = s
    return s or (0,) * 9


def _kpack(s, width, nbytes, fmt):
    # the terms of s as one int: c + 2^(8 nbytes - 1) per slot, less the biases
    _, _, di, dj, _, _, n, i0, j0 = s
    if len(n) == 1:
        return n[i0, j0]
    slots, half = di * width + dj + 1, 1 << (8 * nbytes - 1)
    digits = [half] * slots
    for (i, j), c in n.items():
        digits[(i - i0) * width + j - j0] = c + half
    raw = (struct.pack(f"<{slots}{fmt}", *digits) if fmt else
           b"".join(d.to_bytes(nbytes, "little") for d in digits))
    return int.from_bytes(raw, "little") - _kbias(nbytes, slots)

