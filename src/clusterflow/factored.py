"""Factored field values: exact arithmetic that never computes a gcd.

Every seed's cluster variables and coefficients are `Factored` values
(tropical and trivial coefficients are monomials with coefficient 1);
`expand()` turns one into a canonical `RatFunc` for output and for the
bracket oracle.

Seed mutation is multiplicative except for a single sum per exchange, so a
value is kept as

    coeff * (monomial in the flat variables) * prod_k base_k ^ e_k

with canonical polynomial bases (integer coefficients, per-variable minimum
exponent zero, content one, the coefficient of the least packed key
positive) and integer exponents of either sign.  Packed keys follow the
order in which variables were registered, so that sign is fixed only within
a process; `expand()`, and every output built from it, does not read it.
coeff is the only rational number; `expand()` puts its numerator in num and
its denominator in den.  Products, quotients, and powers are exponent
bookkeeping.  Addition extracts the common factor and keeps the sum as two
cofactors X + Y over the lcm of the coefficients' denominators.  The
Laurent-phenomenon cancellations are recovered by trial division by the
denominator bases (exactly by Y's factors for a factor of X, disproved by
modular images, else on the expanded sum), so no polynomial gcd is ever
needed.  The sum is expanded once and registered as a new base.  Every base
is primitive, so that division stays in the integers.  Equality and zero
tests go through subtraction, which is exact by the same route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Mapping

from .algebra import (
    IMAGE_PRIME as P,
    LaurentPoly,
    Mono,
    RatFunc,
    _field,
    _key_div,
    _key_min,
    _key_mul,
    _key_pow,
    _SLOT,
    _pack,
    _poly,
    _unpack,
    try_exact_div,
)


def _split(p: LaurentPoly) -> tuple[int, int, LaurentPoly | None]:
    """Write a nonzero Laurent polynomial as coeff * monomial * base with the
    base canonical (min exponents zero, content one, reference coefficient
    positive), or base None when p is a monomial.  The monomial is a packed
    key.  The reference term has the least packed key: the constant term when
    there is one.  Packed keys follow the order in which variables were
    registered, so the sign is a process-local normalisation: consistent for
    equality and hashing, and read by no output, which goes through
    `expand()`."""
    shift = p._range()[0]
    q = p._shifted(-shift)
    c = q.content()
    if q._t[min(q._t)] < 0:
        c = -c
    q = q.divide(c)
    if q.is_one():
        return c, shift, None
    return c, shift, q


def _expand(coeff: int, key: int, pows: Mapping[LaurentPoly, int]) -> LaurentPoly:
    out = _poly({key: coeff}, key, key)
    for p, e in pows.items():
        if e:
            out = out * p**e
    return out


def _dense(img: dict[int, int]) -> list[int]:
    """An image without zero coefficients as a list from its lowest to its
    highest power of v, so equal up to a unit c * v**k; [] for zero."""
    return [img.get(e, 0) for e in range(min(img), max(img) + 1)] if img else []


def _divides(d: list[int], s: list[int]) -> bool:
    """Whether d divides s in F_P[v], for nonzero dense images."""
    n, r, inv = len(d) - 1, list(s), pow(d[-1], -1, P)
    for i in range(len(s) - 1 - n, -1, -1):
        q = r[i + n] * inv % P
        for j in range(n):
            r[i + j] = (r[i + j] - q * d[j]) % P
    return len(s) > n and not any(r[:n])


def _base_image(p: LaurentPoly) -> tuple[int, list[int]]:
    """The bit offset of p's widest variable v (the least on ties) and p's
    dense image in v, derived once and cached with p's images."""
    img = p._img = p._img or {}
    if None not in img:
        lo, hi = p._range()
        span = dict(_unpack(hi - lo))
        shift = _SLOT[max(span, key=span.get)]
        img[None] = shift, _dense(p._image(shift))
    return img[None]


def _sum_image(sides, shift: int) -> list[int]:
    """The dense image of X + Y in the variable at shift, from the factors'."""
    if shift not in sides[2]:
        total: dict[int, int] = {}
        for coeff, key, factors in sides[:2]:
            e = _field(key, shift)  # coeff x**key as LaurentPoly._image maps it
            img = {e: coeff * pow(3, (key - (e << shift)) % (P - 1), P) % P}
            for q, n in factors.items():
                qi = q._image(shift)
                for _ in range(n):
                    prod: dict[int, int] = {}
                    for (i, x), (j, y) in product(img.items(), qi.items()):
                        prod[i + j] = (prod.get(i + j, 0) + x * y) % P
                    img = prod
            total = {e: c for e in {*total, *img} if (c := (total.get(e, 0) + img.get(e, 0)) % P)}
        sides[2][shift] = _dense(total)
    return sides[2][shift]


def _is_new(sides, powers: Mapping[LaurentPoly, int]) -> bool:
    """Whether images prove that the pending sum's base is not in powers."""
    for p in powers:
        shift, d = _base_image(p)
        s = _sum_image(sides, shift)
        if not s or len(d) == len(s) and _divides(d, s):
            return False
    return True


def _divide(sides, d: LaurentPoly) -> bool | None:
    """Whether the base d divides X + Y (then divided in place), None if
    undecided: a factor d of X does iff it divides Y, as when it divides a
    factor of Y, and d does not if its image does not divide the sum's."""
    for a, b in (sides[:2], sides[1::-1]):
        if a[2].get(d):
            for q, n in b[2].items():
                r = try_exact_div(q, d) if n else None
                if r is not None:
                    a[2][d] -= 1
                    b[2][q] -= 1
                    c, _, base = _split(r)  # q, d and so r have least exponents 0
                    b[0] *= c
                    if base is not None:
                        b[2][base] = b[2].get(base, 0) + 1
                    sides[2].clear()
                    return True
            break
    shift, dd = _base_image(d)
    s = _sum_image(sides, shift)  # a zero image proves nothing: P may divide the unit
    return None if not s or dd and _divides(dd, s) else False


def _bump(powers: dict[LaurentPoly, int], p: LaurentPoly) -> None:
    """Multiply the product of powers by p."""
    powers[p] = powers.get(p, 0) + 1
    if not powers[p]:
        del powers[p]


def _made(coeff: Fraction, key: int, powers: dict[LaurentPoly, int]) -> "Factored":
    """A Factored value from parts that are valid as they stand: a nonzero
    Fraction, and a fresh powers dict without zero exponents."""
    out = object.__new__(Factored)
    out.coeff, out.key, out.powers = coeff, key, powers
    return out


class Factored:
    """A nonzero rational function in factored form (or zero as coeff 0).

    The monomial is kept as a packed key (`key`); `mono` decodes it."""

    __slots__ = ("coeff", "key", "powers")

    def __init__(
        self,
        coeff: Fraction = Fraction(0),
        key: int = 0,
        powers: Mapping[LaurentPoly, int] | None = None,
    ):
        self.coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if self.coeff == 0:
            self.key = 0
            self.powers: dict[LaurentPoly, int] = {}
        else:
            self.key = key
            self.powers = {p: e for p, e in (powers or {}).items() if e}

    @property
    def mono(self) -> Mono:
        return _unpack(self.key)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "Factored":
        return Factored()

    @staticmethod
    def one() -> "Factored":
        return Factored(Fraction(1))

    @staticmethod
    def constant(c) -> "Factored":
        return Factored(Fraction(c))

    @staticmethod
    def variable(v: int, e: int = 1) -> "Factored":
        return Factored(Fraction(1), _pack(((v, e),) if e else ()))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "Factored":
        """A nonzero Laurent polynomial as coeff * monomial * canonical base."""
        c, key, base = _split(p)
        return Factored(c, key, None if base is None else {base: 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_one(self) -> bool:
        return self.coeff == 1 and not self.key and not self.powers

    def is_constant(self) -> bool:
        if self.coeff == 0:
            return True
        return not self.key and not self.powers

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.coeff

    # -- multiplicative arithmetic ----------------------------------------

    def __mul__(self, other: "Factored") -> "Factored":
        if not isinstance(other, Factored):
            return NotImplemented
        a, b = self.coeff, other.coeff
        if a == 0 or b == 0:
            return Factored.zero()
        powers = dict(self.powers)
        for p, e in other.powers.items():
            ne = powers.get(p, 0) + e
            if ne:
                powers[p] = ne
            else:
                del powers[p]
        return _made(b if a == 1 else a if b == 1 else a * b, _key_mul(self.key, other.key), powers)

    def __pow__(self, n: int) -> "Factored":
        if n == 0:
            return Factored.one()
        c = self.coeff
        if c == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return Factored.zero()
        return _made(
            c if c == 1 else c**n,
            _key_pow(self.key, n),
            {p: e * n for p, e in self.powers.items()},
        )

    def inverse(self) -> "Factored":
        return self**-1

    def __truediv__(self, other: "Factored") -> "Factored":
        if not isinstance(other, Factored):
            return NotImplemented
        return self * other**-1

    def __neg__(self) -> "Factored":
        return Factored(-self.coeff, self.key, self.powers)

    # -- additive arithmetic ----------------------------------------------

    def __add__(self, other: "Factored") -> "Factored":
        if not isinstance(other, Factored):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        cm = _key_min(self.key, other.key)
        # bases in insertion order, so the work never depends on hash order
        keys = [*self.powers, *(p for p in other.powers if p not in self.powers)]
        cpow: dict[LaurentPoly, int] = {}
        for p in keys:
            e = min(self.powers.get(p, 0), other.powers.get(p, 0))
            if e:
                cpow[p] = e
        # the sum X + Y as [coeff, key, {base: power}] each, and an image memo
        den = math.lcm(self.coeff.denominator, other.coeff.denominator)
        sides = [
            [f.coeff.numerator * (den // f.coeff.denominator), _key_div(f.key, cm),
             {p: e for p in keys if (e := f.powers.get(p, 0) - cpow.get(p, 0))}]
            for f in (self, other)
        ] + [{}]
        powers = dict(cpow)
        # cancel the fresh base against denominator bases by exact division;
        # this is where the Laurent phenomenon keeps factored forms small.
        # A divisor that failed is never tried again: if d does not divide
        # the base B, it does not divide B/p (up to the unit _split takes
        # out) either, or it would divide (B/p)*p = B.  Both phases divide
        # the same base, so a failure in the first holds in the second.
        failed: set[LaurentPoly] = set()
        # phase 1: decide on X + Y, until a divisor is undecided, every
        # candidate has failed, or images cannot show the base is new
        while True:
            cands = [p for p, e in powers.items() if e < 0 and p not in failed]
            if not cands or not _is_new(sides, powers):
                break
            for p in cands:
                if (ok := _divide(sides, p)) is not False:
                    break
                failed.add(p)
            if not ok:
                break
            _bump(powers, p)
        s = _expand(*sides[0]) + _expand(*sides[1])
        if s.is_zero():
            return Factored.zero()
        c, shift, base = _split(s)
        m = _key_mul(cm, shift)
        # phase 2: divide the expanded base exactly
        while base is not None and base not in powers:
            for p in [p for p, e in powers.items() if e < 0 and p not in failed]:
                if (q := try_exact_div(base, p)) is not None:
                    cq, sq, base = _split(q)
                    c, m = c * cq, _key_mul(m, sq)
                    _bump(powers, p)
                    break
                failed.add(p)
            else:
                break
        if base is not None:
            _bump(powers, base)
        return Factored(Fraction(c, den), m, powers)

    def __sub__(self, other: "Factored") -> "Factored":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factored):
            return NotImplemented
        if self.coeff == 0 or other.coeff == 0:
            return self.coeff == other.coeff
        if (
            self.coeff == other.coeff
            and self.key == other.key
            and self.powers == other.powers
        ):
            return True
        return (self - other).is_zero()

    __hash__ = None  # factored forms are mutable-by-convention containers

    # -- interop ------------------------------------------------------------

    def expand(self) -> RatFunc:
        """The value as a canonical rational function (this does reduce)."""
        if self.coeff == 0:
            return RatFunc.zero()
        num_pows = {p: e for p, e in self.powers.items() if e > 0}
        den_pows = {p: -e for p, e in self.powers.items() if e < 0}
        neg = _key_min(self.key, 0)
        num = _expand(self.coeff.numerator, _key_div(self.key, neg), num_pows)
        den = _expand(self.coeff.denominator, _key_div(0, neg), den_pows)
        return RatFunc(num, den)

    def __repr__(self):
        parts = [str(self.coeff)]
        if self.key:
            parts.append(f"x^{dict(self.mono)}")
        for p, e in self.powers.items():
            parts.append(f"({len(p.terms)}-term)^{e}")
        return "Factored(" + " * ".join(parts) + ")"
