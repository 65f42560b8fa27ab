"""Exact sparse Laurent-polynomial and rational-function arithmetic.

A monomial is written at the boundaries as a Mono: a sorted tuple of
(variable index, exponent) pairs with no zero exponents.  Exponents may be
negative (Laurent), and variable indices are plain integers that may be
negative.  Inside a LaurentPoly every monomial is a packed exponent vector,
one int (see "Packed exponent vectors" below), so multiplying monomials is
adding ints.  A Laurent polynomial maps packed monomials to int
coefficients, with no zero coefficients stored, so equality is structural.
`LaurentPoly.terms` is a read-only Mapping view keyed by Mono.  Exact
division works over the integers; by Gauss's lemma it agrees with division
over Q whenever the divisor is primitive (its coefficients coprime).

Rational numbers live only in a RatFunc, whose num and den are integer
polynomials with no common factor, integer content included.  Reduction
first tries exact division, and otherwise uses the heuristic multivariate
polynomial GCD (GCDHEU); the denominator is kept as a true polynomial with
positive leading coefficient, and is constant exactly when the value is a
Laurent polynomial.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections.abc import ItemsView
from enum import Enum
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping

Mono = tuple[tuple[int, int], ...]

MONO_ONE: Mono = ()


def _term_limit() -> int:
    return int(os.environ.get("CLUSTERFLOW_MAX_TERMS", "200000"))


class TermLimitExceeded(RuntimeError):
    """Raised when a polynomial grows past CLUSTERFLOW_MAX_TERMS terms."""


class ExponentOverflow(OverflowError):
    """Raised when an exponent leaves the packed range [-EXP_LIMIT, EXP_LIMIT - 1]."""


class DivisionFails(Exception):
    """Signal value: exact Laurent division does not produce a polynomial."""


def mono(pairs: Mapping[int, int] | Iterable[tuple[int, int]]) -> Mono:
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    return tuple(sorted((v, e) for v, e in items if e != 0))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    # merge of two sorted pair tuples
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        pa, pb = a[i], b[j]
        va, vb = pa[0], pb[0]
        if va == vb:
            e = pa[1] + pb[1]
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif va < vb:
            out.append(pa)
            i += 1
        else:
            out.append(pb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


# ---------------------------------------------------------------------------
# Packed exponent vectors
# ---------------------------------------------------------------------------
#
# A packed key is sum(e_v << (FIELD_BITS * slot(v))): each variable owns a
# fixed-width field, assigned by a process-wide append-only registry the
# first time a Mono mentions the variable.  Exponents are balanced signed
# digits in [-EXP_LIMIT, EXP_LIMIT), so the key of a product is the sum of the
# keys, 1 is 0, and the inverse is the negation; keys made at any time
# combine without repacking.  For keys with nonnegative exponents, integer
# order is the lexicographic order with the highest field first, which is
# a monomial order.
#
# Per-field comparisons use the bits above the exponent range: adding _BIAS
# (EXP_LIMIT in every field) makes every digit nonnegative and below 2**15,
# so the top bit of each field (_GUARD) is free to catch a borrow
# (Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
# packed exponent vectors", CASC 2007).  Every operation that creates new
# exponents checks the bounds it knows and raises ExponentOverflow instead of
# letting a field spill into its neighbour.
#
# A key is as wide as its highest field, so a large product works on compact
# codes of its exponent box instead (see "Compact product keys" below).

FIELD_BITS = 16
EXP_LIMIT = 1 << (FIELD_BITS - 2)
_FILL = (1 << FIELD_BITS) - 1
_SIGN = FIELD_BITS - 1

_SLOT: dict[int, int] = {}  # variable -> bit offset of its field
_VARS: list[int] = []  # field index -> variable
_VAR_ORDER: list[int] = []  # field indices sorted by variable
_BIAS = 0  # EXP_LIMIT in every registered field
_GUARD = 0  # the top bit of every registered field
_GUARD1 = 0  # _GUARD minus 1 in every registered field
_SWAP = sys.byteorder == "big"


def _register(v: int) -> int:
    global _BIAS, _GUARD, _GUARD1
    shift = FIELD_BITS * len(_VARS)
    _VARS.append(v)
    _SLOT[v] = shift
    _VAR_ORDER[:] = sorted(range(len(_VARS)), key=_VARS.__getitem__)
    _BIAS |= EXP_LIMIT << shift
    _GUARD |= (2 * EXP_LIMIT) << shift
    _GUARD1 |= (2 * EXP_LIMIT - 1) << shift
    return shift


def _pack(m: Mono) -> int:
    key = 0
    for v, e in m:
        if not -EXP_LIMIT <= e < EXP_LIMIT:
            raise ExponentOverflow(f"exponent {e} of variable {v}")
        shift = _SLOT.get(v)
        if shift is None:
            shift = _register(v)
        key += e << shift
    return key


def _fields(x: int) -> array:
    """The fields of a nonnegative int below 2**(FIELD_BITS * registered
    variables), in registry order."""
    a = array("H", x.to_bytes(2 * len(_VARS), "little"))
    if _SWAP:
        a.byteswap()
    return a


def _digits(key: int) -> array:
    """The biased fields (exponent + EXP_LIMIT) of a key."""
    return _fields(key + _BIAS)


def _unpack(key: int) -> Mono:
    if not key:
        return MONO_ONE
    return tuple(
        sorted((_VARS[i], d - EXP_LIMIT) for i, d in enumerate(_digits(key)) if d != EXP_LIMIT)
    )


def _field(key: int, shift: int) -> int:
    """The exponent in the field at bit offset shift."""
    return (((key + _BIAS) >> shift) & _FILL) - EXP_LIMIT


def _fits(s: int) -> bool:
    """Whether every field of s, a sum or difference of two in-range keys
    (so each field lies in [-2*EXP_LIMIT, 2*EXP_LIMIT)), is in range."""
    u = s + _GUARD
    return (u ^ (u << 1)) & _GUARD == _GUARD


def _key_mul(a: int, b: int) -> int:
    s = a + b
    if not _fits(s):
        raise ExponentOverflow("monomial product leaves the exponent range")
    return s


def _key_div(a: int, b: int) -> int:
    s = a - b
    if not _fits(s):
        raise ExponentOverflow("monomial quotient leaves the exponent range")
    return s


def _key_pow(a: int, n: int) -> int:
    if n == 1:
        return a
    if n == -1:
        return _key_div(0, a)
    if any(not -EXP_LIMIT <= e * n < EXP_LIMIT for _, e in _unpack(a)):
        raise ExponentOverflow(f"monomial power {n} leaves the exponent range")
    return a * n


def _key_min(a: int, b: int) -> int:
    """Per-variable minimum of two keys."""
    bias = _BIAS
    a += bias
    b += bias
    t = (a + _GUARD1 - b) & _GUARD  # guard set where a > b
    if t:
        a ^= (a ^ b) & ((t >> _SIGN) * _FILL)
    return a - bias


def _key_range(keys: Iterable[int]) -> tuple[int, int]:
    """Per-variable minimum and maximum exponent over nonempty keys."""
    bias, guard = _BIAS, _GUARD
    below = _GUARD1 - bias  # lo + below - k: guard set where lo > k
    above = _GUARD1 + bias  # k + above - hi: guard set where k > hi
    it = iter(keys)
    lo = hi = next(it) + bias
    for k in it:
        t = (lo + below - k) & guard
        if t:
            lo ^= (lo ^ (k + bias)) & ((t >> _SIGN) * _FILL)
        t = (k + above - hi) & guard
        if t:
            hi ^= (hi ^ (k + bias)) & ((t >> _SIGN) * _FILL)
    return lo - bias, hi - bias


def _glex_key(lo: int, hi: int):
    """Sort key of the graded-lex order (variables compared by id, the
    smallest id most significant) on keys whose exponents lie between lo and
    hi in every variable: the total degree, then the varying fields as
    big-endian bytes in variable order."""
    n = len(_VARS)
    span = _digits(hi - lo)
    pos: list[int] = []
    for i in _VAR_ORDER:
        if span[i] != EXP_LIMIT:
            j = 2 * (n - 1 - i)
            pos += (j, j + 1)
    if not pos:
        return lambda k: 0
    pick = itemgetter(*pos)
    if sum(span) - n * EXP_LIMIT < _FILL:
        # k - lo has nonnegative fields summing below 2**16 - 1, so its
        # remainder mod 2**16 - 1 is its total degree
        def key(k: int):
            k -= lo
            return k % _FILL, bytes(pick(k.to_bytes(2 * n, "big")))
    else:
        def key(k: int):
            k -= lo
            return sum(_fields(k)), bytes(pick(k.to_bytes(2 * n, "big")))
    return key


def _tuple_first(keys: Mapping[int, object]) -> int:
    """The key whose Mono is least in tuple order (pairs sorted by variable),
    among keys with nonnegative exponents."""
    if 0 in keys:
        return 0
    cands = list(keys)
    done = 0  # fields on which all candidates agree
    while len(cands) > 1:
        # the smallest variable any candidate still has: candidates with it
        # sort first, the smallest exponent first
        rest = _fields(reduce(or_, cands) & ~done)
        shift = FIELD_BITS * next(i for i in _VAR_ORDER if rest[i])
        exps = [(k >> shift) & _FILL for k in cands]
        e = min(x for x in exps if x)
        cands = [k for k, x in zip(cands, exps) if x == e]
        done |= _FILL << shift
        for k in cands:
            if not k & ~done:
                return k  # a prefix of every other candidate
    return cands[0]


# ---------------------------------------------------------------------------
# Compact product keys
# ---------------------------------------------------------------------------
#
# A packed key is as wide as its highest field.  The variables of a lattice
# run are registered as the run reaches them, so once the registry holds 132
# variables its keys are over 1,000 bits, and each term product adds and
# hashes a 35-digit int.  Every exponent of a product lies in its box
# [lo, hi], known exactly from the operands' ranges.  A product of at least
# COMPACT_MIN_PRODUCTS term products whose box has at most 2**COMPACT_BITS
# points therefore runs on mixed-radix codes of the exponents in the box:
# ints of one or two 30-bit CPython digits, which add and hash in constant
# time.  Below that size the encoding costs more than it saves.
COMPACT_MIN_PRODUCTS = 4096
COMPACT_BITS = 60


def _mul_compact(a: dict[int, int], b: dict[int, int], a_lo: int, b_lo: int,
                 span: int, cap: int) -> dict[int, int] | None:
    """The term dict of the product of a and b, computed by the dict loop of
    `LaurentPoly.__mul__` on compact keys, or None when the box does not fit.

    span is the product's box, hi - lo.  Each field that varies in it gets a
    mixed-radix digit of radix span + 1, and each operand's keys are coded
    relative to that operand's own minimum, so the code of a product is the
    sum of the codes and no digit carries.  The loop visits the pairs in the
    same order, with the same insertions, deletions and term-cap check, so
    the result and its order are those of the dict loop.  Each output code
    is decoded once, from the row that inserted it."""
    digits: list[tuple[int, int]] = []  # (bit offset, weight) of each varying field
    w = 1
    for i, s in enumerate(_fields(span)):
        if s:
            digits.append((FIELD_BITS * i, w))
            w *= s + 1
    if w > 1 << COMPACT_BITS:
        return None
    ca = [sum(((k - a_lo) >> s & _FILL) * d for s, d in digits) for k in a]
    cb = [sum(((k - b_lo) >> s & _FILL) * d for s, d in digits) for k in b]
    rows = list(zip(cb, b.values()))
    out: dict[int, int] = {}
    first: dict[int, int] = {}  # code -> the row code that inserted it
    get = out.get
    for l1, c1 in zip(ca, a.values()):
        for l2, c2 in rows:
            k = l1 + l2
            prev = get(k)
            if prev is None:
                out[k] = c1 * c2
                first[k] = l1
                if len(out) > cap:
                    raise TermLimitExceeded(f"{len(out)} terms in a product")
            else:
                nc = prev + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    del out[k]
    ka, kb = dict(zip(ca, a)), dict(zip(cb, b))
    return {ka[l1] + kb[k - l1]: c for k, c in out.items() for l1 in (first[k],)}


def _integer(c) -> int:
    """An integral coefficient (an int, or e.g. Fraction(3)) as an int."""
    if type(c) is int:
        return c
    q = Fraction(c)
    if q.denominator != 1:
        raise ValueError(f"LaurentPoly coefficients are integers, not {c}")
    return q.numerator


class _TermItems(ItemsView):
    def __iter__(self):
        for k, c in self._mapping._t.items():
            yield _unpack(k), c


class Terms(Mapping):
    """Read-only view of a LaurentPoly's terms keyed by Mono."""

    __slots__ = ("_t",)

    def __init__(self, t: dict[int, int]):
        self._t = t

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self) -> Iterator[Mono]:
        return map(_unpack, self._t)

    def __getitem__(self, m: Mono):
        key = 0
        for v, e in m:
            if v not in _SLOT or not -EXP_LIMIT <= e < EXP_LIMIT:
                raise KeyError(m)
            key += e << _SLOT[v]
        return self._t[key]

    def items(self) -> _TermItems:
        return _TermItems(self)

    def values(self):
        return self._t.values()


# `LaurentPoly._image` is a ring map Z[x, 1/x] -> F_P[v, 1/v] (Zippel,
# EUROSAM 1979): an image of d that does not divide that of s proves d does
# not divide s.
IMAGE_PRIME = 2**61 - 1
_POW3: list[list[int]] = []  # [j][b] = 3**(b * 256**j) mod IMAGE_PRIME, on first use


def _poly(t: dict[int, int], lo: int | None = None, hi: int | None = None) -> "LaurentPoly":
    """A LaurentPoly on a packed term dict with no zero coefficients, and
    its exact per-variable exponent range when known."""
    p = object.__new__(LaurentPoly)
    p._t = t
    p._lo = lo
    p._hi = hi
    p._hash = p._img = None
    return p


class LaurentPoly:
    """Sparse Laurent polynomial with int coefficients on packed monomials.

    `_lo` and `_hi` cache the exact per-variable minimum and maximum exponent
    as keys.  They are computed on first use and carried exactly through
    products, quotients and shifts (Z is a domain, so the extreme terms in
    each variable never cancel), which bounds every new exponent before it
    is formed.
    """

    __slots__ = ("_t", "_lo", "_hi", "_hash", "_img")

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        t: dict[int, int] = {}
        for m, c in (terms or {}).items():
            if c != 0:
                t[_pack(m)] = _integer(c)
        if len(t) > _term_limit():
            raise TermLimitExceeded(f"{len(t)} terms")
        self._t = t
        self._lo = self._hi = None
        self._hash = self._img = None  # cached hash, images per field

    @property
    def terms(self) -> Terms:
        return Terms(self._t)

    def _range(self) -> tuple[int, int]:
        if self._lo is None:
            self._lo, self._hi = _key_range(self._t)
        return self._lo, self._hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _poly({})

    @staticmethod
    def constant(c) -> "LaurentPoly":
        c = _integer(c)
        return _poly({0: c}, 0, 0) if c else _poly({})

    @staticmethod
    def variable(v: int, e: int = 1) -> "LaurentPoly":
        return LaurentPoly.monomial(((v, e),) if e else MONO_ONE)

    @staticmethod
    def one() -> "LaurentPoly":
        return _poly({0: 1}, 0, 0)

    @staticmethod
    def monomial(m: Mono, c=1) -> "LaurentPoly":
        c = _integer(c)
        key = _pack(m)
        return _poly({key: c}, key, key) if c else _poly({})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return len(self._t) == 1 and self._t.get(0) == 1

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self._t.get(0, 0)

    def constant_term(self) -> int:
        return self._t.get(0, 0)

    def variables(self) -> set[int]:
        """The variables with a nonzero exponent in some term."""
        bias = _BIAS
        used = 0  # nonzero in the fields of those variables
        for k in self._t:
            used |= (k + bias) ^ bias
        return {_VARS[i] for i, f in enumerate(_fields(used)) if f}

    def is_polynomial(self) -> bool:
        if not self._t:
            return True
        lo = self._range()[0] + _BIAS
        return lo & _BIAS == _BIAS  # every biased minimum >= EXP_LIMIT

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._t:
            return other
        if not other._t:
            return self
        cap = _term_limit()
        out = dict(self._t)
        cancelled = False
        for k, c in other._t.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c
                if len(out) > cap:
                    raise TermLimitExceeded(f"{len(out)} terms in a sum")
            else:
                nc = prev + c
                if nc:
                    out[k] = nc
                else:
                    del out[k]
                    cancelled = True
        if cancelled or self._lo is None or other._lo is None:
            return _poly(out)
        # the keys are the union of both operands', so the range is theirs;
        # a + b - min(a, b) is the per-variable maximum
        a, b = self._hi, other._hi
        return _poly(out, _key_min(self._lo, other._lo), a + b - _key_min(a, b))

    def __neg__(self) -> "LaurentPoly":
        return _poly({k: -c for k, c in self._t.items()}, self._lo, self._hi)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._t or not other._t:
            return _poly({})
        a_lo, a_hi = self._range()
        b_lo, b_hi = other._range()
        lo, hi = _key_mul(a_lo, b_lo), _key_mul(a_hi, b_hi)
        p, q = (self, other) if len(self._t) <= len(other._t) else (other, self)
        a, b = p._t, q._t
        cap = _term_limit()
        if len(a) == 1:  # a shift and scale; distinct keys stay distinct
            if len(b) > cap:
                raise TermLimitExceeded(f"{cap + 1} terms in a product")
            ((k1, c1),) = a.items()
            if not k1 and c1 == 1:
                return q
            return _poly({k1 + k2: c1 * c2 for k2, c2 in b.items()}, lo, hi)
        if len(a) * len(b) >= COMPACT_MIN_PRODUCTS:
            t = _mul_compact(a, b, p._lo, q._lo, hi - lo, cap)
            if t is not None:
                return _poly(t, lo, hi)
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                prev = get(k)
                if prev is None:
                    out[k] = c1 * c2
                    if len(out) > cap:
                        raise TermLimitExceeded(f"{len(out)} terms in a product")
                else:
                    nc = prev + c1 * c2
                    if nc:
                        out[k] = nc
                    else:
                        del out[k]
        return _poly(out, lo, hi)

    def scale(self, c: int) -> "LaurentPoly":
        if not c:
            return _poly({})
        if c == 1:
            return self
        return _poly({k: cc * c for k, cc in self._t.items()}, self._lo, self._hi)

    def divide(self, c: int) -> "LaurentPoly":
        """self / c, for a nonzero int c that divides every coefficient."""
        if c == 1:
            return self
        return _poly({k: cc // c for k, cc in self._t.items()}, self._lo, self._hi)

    def _shifted(self, key: int) -> "LaurentPoly":
        """self times the monomial with packed key `key`."""
        if not key or not self._t:
            return self
        lo, hi = self._range()
        return _poly(
            {k + key: c for k, c in self._t.items()},
            _key_mul(lo, key),
            _key_mul(hi, key),
        )

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        if n == 1:
            return self
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        """A hash of invariants: the term count and the exact exponent
        range, which equal polynomials share.  It reads no coefficient, so a
        new base is hashed without a pass over its terms."""
        if self._hash is None:
            self._hash = hash((len(self._t), *self._range())) if self._t else 0
        return self._hash

    def _image(self, shift: int) -> dict[int, int]:
        """The image mod IMAGE_PRIME, {v-exponent: coefficient}, that keeps
        the variable v at bit offset shift and sends the one at offset s to
        3**(2**s), so the term k v**e goes to 3**(k - (e << shift)) v**e.
        Each term's value c * 3**k is computed once per polynomial and kept
        in _img under "terms"; an image groups those values by e and takes
        group e times 3**(-e << shift).  Images are cached in _img by shift;
        `factored` keeps a base's widest image there under None."""
        img = self._img = self._img or {}
        out = img.get(shift)
        if out is None:
            out, bias, P = {}, _BIAS, IMAGE_PRIME
            get = out.get
            vals = img.get("terms")
            if vals is None:  # evaluate and group in one pass
                if not _POW3:  # so that pow(3, x, P) takes one entry per byte of x
                    _POW3[:] = ([pow(g, b, P) for b in range(256)]
                                for g in (pow(3, 256**j, P) for j in range(8)))
                vals = img["terms"] = []
                for k, c in self._t.items():
                    x = k % (P - 1)
                    for t in _POW3:
                        c, x = c * t[x & 255] % P, x >> 8
                    vals.append(c)
                    e = (((k + bias) >> shift) & _FILL) - EXP_LIMIT
                    out[e] = get(e, 0) + c
            else:
                for k, c in zip(self._t, vals):
                    e = (((k + bias) >> shift) & _FILL) - EXP_LIMIT
                    out[e] = get(e, 0) + c
            out = img[shift] = {
                e: c * pow(3, (-e << shift) % (P - 1), P) % P
                for e, c in out.items() if c % P
            }
        return out

    # -- calculus ----------------------------------------------------------

    def derivative(self, v: int) -> "LaurentPoly":
        shift = _SLOT.get(v)
        if shift is None:
            return _poly({})
        one = 1 << shift
        out: dict[int, int] = {}
        for k, c in self._t.items():
            e = _field(k, shift)
            if e:
                if e == -EXP_LIMIT:
                    raise ExponentOverflow(f"derivative of exponent {e}")
                out[k - one] = c * e
        return _poly(out)

    # -- structure ---------------------------------------------------------

    def min_exponents(self) -> Mono:
        """Per-variable minimum exponent over all terms (the monomial content)."""
        if not self._t:
            return MONO_ONE
        return _unpack(self._range()[0])

    def content(self) -> int:
        """gcd of the coefficients (positive), 0 for the zero polynomial."""
        return math.gcd(*self._t.values())

    def substitute(self, values: Mapping[int, Mono]) -> "LaurentPoly":
        """The image under the ring map that sends each variable v in values
        to the Laurent monomial values[v] and fixes the others."""
        maps = [(s, _pack(m)) for v, m in values.items() if (s := _SLOT.get(v)) is not None]
        pw: dict[tuple[int, int], int] = {}
        out: dict[int, int] = {}
        for k, c in self._t.items():
            exps = [(s, image, e) for s, image in maps if (e := _field(k, s))]
            key = k - sum(e << s for s, _, e in exps)  # the fixed variables' part
            for s, image, e in exps:
                if (s, e) not in pw:
                    pw[s, e] = _key_pow(image, e)
                key = _key_mul(key, pw[s, e])
            out[key] = out.get(key, 0) + c
        out = {k: c for k, c in out.items() if c}
        if len(out) > _term_limit():
            raise TermLimitExceeded(f"{len(out)} terms in a substitution")
        return _poly(out)

    # -- display / io ------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)})"

    def to_json(self) -> list[dict]:
        terms = self.terms
        out = []
        for m in sorted(terms, key=lambda mm: (len(mm), mm)):
            out.append(
                {
                    "coeff": format_fraction(terms[m]),
                    "exps": {str(v): e for v, e in m},
                }
            )
        return out


def exact_div_laurent(n: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Return q with q*d == n exactly, or raise DivisionFails.

    Works in the Laurent ring over the integers: monomial factors are units,
    so both operands are shifted to true polynomials and the quotient is
    shifted back.  Per variable, an exact quotient spans exactly
    lo(n) - lo(d) .. hi(n) - hi(d), so every quotient term must lie in that
    box; the first one outside it, or the first coefficient that leaves a
    remainder, ends the division.  By Gauss's lemma this is division over Q
    whenever d is primitive.  The remainder is a dict with a lazily-deleted
    max-heap of its keys (Monagan & Pearce, "Sparse polynomial division using
    a heap", J. Symb. Comput. 46, 2011), in the packed integer order; the
    quotient is unique, so the order does not change it.  Its terms come in
    no particular order.
    """
    if not d._t:
        raise ZeroDivisionError("division by zero polynomial")
    if not n._t:
        return _poly({})
    n_lo, n_hi = n._range()
    d_lo, d_hi = d._range()
    guard = _GUARD
    box = (n_hi - n_lo) - (d_hi - d_lo)  # quotient extent per variable
    if (box + guard) & guard != guard:
        raise DivisionFails()
    q_lo, q_hi = _key_div(n_lo, d_lo), _key_div(n_hi, d_hi)
    cap = _term_limit()
    rem = {k - n_lo: c for k, c in n._t.items()} if n_lo else dict(n._t)
    dt = {k - d_lo: c for k, c in d._t.items()} if d_lo else d._t
    lead = max(dt)
    lc = dt[lead]
    rest = [(k, c) for k, c in dt.items() if k != lead]
    low = guard - lead  # m + low: guard set where m >= lead
    high = box + lead + guard  # high - m: guard set where m - lead <= box
    heap = [-k for k in rem]
    heapify(heap)
    q: dict[int, int] = {}
    while heap:
        m = -heappop(heap)
        c = rem.pop(m, None)
        if c is None:
            continue
        if (m + low) & (high - m) & guard != guard:
            raise DivisionFails()
        qc, r = divmod(c, lc)
        if r:
            raise DivisionFails()
        qm = m - lead
        q[qm + q_lo] = qc
        if len(q) > cap:
            raise TermLimitExceeded(f"{len(q)} terms in a quotient")
        for k2, c2 in rest:
            mm = qm + k2
            prev = rem.get(mm)
            if prev is None:
                rem[mm] = -qc * c2
                heappush(heap, -mm)
            else:
                nc = prev - qc * c2
                if nc:
                    rem[mm] = nc
                else:
                    del rem[mm]
    return _poly(q, q_lo, q_hi)


def try_exact_div(n: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    try:
        return exact_div_laurent(n, d)
    except DivisionFails:
        return None


# ---------------------------------------------------------------------------
# Multivariate GCD (GCDHEU)
# ---------------------------------------------------------------------------


def _lead_sign(p: LaurentPoly) -> int:
    """The sign of p's graded-lex leading coefficient (variables compared by
    id)."""
    lead = max(p._t, key=_glex_key(*p._range())) if len(p._t) > 1 else next(iter(p._t))
    return -1 if p._t[lead] < 0 else 1


def _canonical_unit(p: LaurentPoly) -> LaurentPoly:
    """Divide so coefficients are coprime with positive leading coeff."""
    if p.is_zero():
        return p
    return p.divide(_lead_sign(p) * p.content())


def _heu_gcd(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """gcd of two nonzero integer polynomials (nonnegative packed keys), up
    to sign.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): put one
    variable v at a large integer xi, take the gcd of the images recursively
    (an integer gcd once no variable is left), read the candidate back from
    the balanced xi-adic digits of its coefficients as powers of v and keep
    it when it divides both operands.  With xi >= 2 min(|f|, |g|) + 2 (max
    norms) a primitive candidate that divides both is the gcd, so every xi
    tried stays above that bound.  A candidate fails only at an unlucky xi:
    one where the cofactors' images share a factor in the other variables
    (finitely many xi), or where an integer factor of both images, which
    divides the content of the cofactors' resultant in v, pushes a digit
    past xi / 2; growing xi ends both.  No remainder sequence is formed, so
    its coefficient swell cannot occur.  Variables are evaluated in id
    order, so the work follows neither term order nor the variable
    registry.
    """
    # monomial content: a power of a variable is prime, and the remaining
    # cofactors have no monomial factor, so neither may the candidate
    f_lo, g_lo = _key_range(f)[0], _key_range(g)[0]
    unit = _key_min(f_lo, g_lo)
    if f_lo:
        f = {k - f_lo: c for k, c in f.items()}
    if g_lo:
        g = {k - g_lo: c for k, c in g.items()}
    # common integer content
    cont = math.gcd(*f.values(), *g.values())
    if cont != 1:
        f = {k: c // cont for k, c in f.items()}
        g = {k: c // cont for k, c in g.items()}
    f_hi, g_hi = _key_range(f)[1], _key_range(g)[1]
    if not f_hi or not g_hi:  # a constant: the gcd is an integer
        return {unit: cont * math.gcd(*f.values(), *g.values())}
    f_deg, g_deg = _digits(f_hi), _digits(g_hi)
    field = next(i for i in _VAR_ORDER if f_deg[i] != EXP_LIMIT or g_deg[i] != EXP_LIMIT)
    shift = FIELD_BITS * field
    # the candidate divides both, so its degree in v is at most this
    top = min(f_deg[field], g_deg[field]) - EXP_LIMIT
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    xi = 2 * min(f_norm, g_norm) + 29
    while True:
        f_xi, g_xi = _heu_eval(f, shift, xi), _heu_eval(g, shift, xi)
        if f_xi and g_xi:
            cand = _heu_interp(_heu_gcd(f_xi, g_xi), shift, xi, top)
            if cand is not None:
                c = math.gcd(*cand.values())
                if c != 1:
                    cand = {k: v // c for k, v in cand.items()}
                if (
                    not _key_range(cand)[0]
                    and try_exact_div(_poly(f), _poly(cand)) is not None
                    and try_exact_div(_poly(g), _poly(cand)) is not None
                ):
                    return {k + unit: v * cont for k, v in cand.items()}
        xi = xi * 3 + math.isqrt(math.isqrt(xi))


def _heu_eval(f: dict[int, int], shift: int, xi: int) -> dict[int, int]:
    """f with the variable in the field at bit offset shift put at xi."""
    powers = [1]
    out: dict[int, int] = {}
    for k, c in f.items():
        e = (k >> shift) & _FILL
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        k -= e << shift
        out[k] = out.get(k, 0) + c * powers[e]
    return {k: c for k, c in out.items() if c}


def _heu_interp(h: dict[int, int], shift: int, xi: int, top: int) -> dict[int, int] | None:
    """Read each coefficient of h as balanced xi-adic digits, the i-th digit
    the coefficient of v**i; None if a digit lands above degree top."""
    half = xi // 2
    out: dict[int, int] = {}
    for k, c in h.items():
        e = 0
        while c:
            if e > top:
                return None
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k + (e << shift)] = d
            c = (c - d) // xi
            e += 1
    return out


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """GCD of two true polynomials, canonically normalized (1 for coprime)."""
    if a.is_zero():
        return _canonical_unit(b)
    if b.is_zero():
        return _canonical_unit(a)
    if a.is_constant() or b.is_constant():
        return LaurentPoly.one()
    common = a.variables() & b.variables()
    if not common:
        return LaurentPoly.one()
    a = _canonical_unit(a)
    b = _canonical_unit(b)
    return _canonical_unit(_poly(_heu_gcd(a._t, b._t)))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function num/den with LaurentPoly parts.

    Canonical form: den is a true polynomial (min exponent 0 per variable)
    with positive graded-lex leading coefficient, and num and den share no
    factor over Z, integer content included; all monomial units live in num.
    Hence den is constant exactly when the value is a Laurent polynomial, 1
    when its coefficients are integers, and equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(LaurentPoly.zero(), LaurentPoly.one(), _reduced=True)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(LaurentPoly.one(), LaurentPoly.one(), _reduced=True)

    @staticmethod
    def constant(c) -> "RatFunc":
        c = Fraction(c)
        num, den = LaurentPoly.constant(c.numerator), LaurentPoly.constant(c.denominator)
        return RatFunc(num, den, _reduced=True)

    @staticmethod
    def variable(v: int, e: int = 1) -> "RatFunc":
        return RatFunc(LaurentPoly.variable(v, e), LaurentPoly.one(), _reduced=True)

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatFunc":
        return RatFunc(p, LaurentPoly.one(), _reduced=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(self.num.constant_value(), self.den.constant_value())

    def variables(self) -> set[int]:
        return self.num.variables() | self.den.variables()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        # cross-cancel before the full reduction to limit growth
        n1, d2 = _reduce(self.num, other.den)
        n2, d1 = _reduce(other.num, self.den)
        return RatFunc(n1 * n2, d1 * d2)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return RatFunc.one()
        if n < 0:
            return self.inverse() ** (-n)
        result = RatFunc.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        # canonical forms are unique
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self, v: int) -> "RatFunc":
        """Exact partial derivative by the quotient rule."""
        dn = self.num.derivative(v)
        if self.den.is_one():
            return RatFunc(dn, LaurentPoly.one())
        dd = self.den.derivative(v)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    # -- display / io ------------------------------------------------------

    def __repr__(self):
        if self.den.is_one():
            return f"RatFunc({format_poly(self.num)})"
        return f"RatFunc(({format_poly(self.num)})/({format_poly(self.den)}))"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Reduce a num/den pair to the canonical form described on RatFunc."""
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    shift_n = num._range()[0]
    shift_d = den._range()[0]
    np = num._shifted(-shift_n)
    dp = den._shifted(-shift_d)
    if not dp.is_constant():
        cd = dp.content()  # a rational scalar in den must not hide a Laurent value
        q = try_exact_div(np, dp.divide(cd))
        if q is not None:
            # q has min exponents 0, so q / cd over their content is canonical
            g = math.gcd(q.content(), cd)
            return q.divide(g)._shifted(_key_div(shift_n, shift_d)), LaurentPoly.constant(cd // g)
        g = poly_gcd(np, dp)
        if not g.is_one():
            np = exact_div_laurent(np, g)
            dp = exact_div_laurent(dp, g)
    if not dp.is_one():
        # integer content: none shared, den's leading coefficient positive
        c = _lead_sign(dp) * math.gcd(np.content(), dp.content())
        np, dp = np.divide(c), dp.divide(c)
    return np._shifted(_key_div(shift_n, shift_d)), dp


# ---------------------------------------------------------------------------
# Semifields
# ---------------------------------------------------------------------------


class SemifieldTag(Enum):
    UNIVERSAL = "universal"
    TROPICAL = "tropical"
    TRIVIAL = "trivial"


# ---------------------------------------------------------------------------
# Variable namespaces: cluster index i <-> x-variable, coefficient <-> y-variable
# ---------------------------------------------------------------------------


def xvar(i: int) -> int:
    """Flat variable id of the cluster variable at index i."""
    return 2 * i


def yvar(i: int) -> int:
    """Flat variable id of the coefficient variable at index i."""
    return 2 * i + 1


def var_kind(v: int) -> tuple[str, int]:
    """Inverse of xvar/yvar: ('x'|'y', cluster index)."""
    if v % 2 == 0:
        return "x", v // 2
    return "y", (v - 1) // 2


# ---------------------------------------------------------------------------
# Formatting and parsing
# ---------------------------------------------------------------------------


def format_fraction(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    text = str(s).strip()
    if any(ch in text for ch in ".eE"):
        raise ValueError(f"not an exact rational (use p/q): {text!r}")
    return Fraction(text)


def var_name(v: int) -> str:
    kind, i = var_kind(v)
    return f"{kind}{i}"


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=lambda mm: (sum(e for _, e in mm), mm)):
        c = p.terms[m]
        factors = [
            var_name(v) + (f"^{e}" if e != 1 else "") for v, e in m
        ]
        body = "*".join(factors)
        if not body:
            parts.append(format_fraction(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{format_fraction(c)}*{body}")
    out = " + ".join(parts).replace("+ -", "- ")
    return out
