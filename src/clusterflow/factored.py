"""Factored field values: exact arithmetic that never computes a gcd.

Every seed's cluster variables and coefficients are `Factored` values
(tropical and trivial coefficients are monomials with coefficient 1);
`expand()` turns one into a canonical `RatFunc` for output and for the
bracket oracle.

Seed mutation is multiplicative except for a single sum per exchange, so a
value is kept as

    coeff * (monomial in the flat variables) * prod_k base_k ^ e_k

with canonical polynomial bases (integer coefficients, per-variable minimum
exponent zero, content one, deterministic sign) and integer exponents of
either sign.  coeff is the only rational number; `expand()` puts its
numerator in num and its denominator in den.  Products, quotients, and
powers are exponent bookkeeping.  Addition extracts the common factor,
expands the two small cofactors over the lcm of the coefficients'
denominators, and registers the resulting sum as a new base; the
Laurent-phenomenon cancellations are recovered by exact division of the new
base against the denominator bases, so no polynomial gcd is ever needed.
Every base is primitive, so that division stays in the integers.  Equality
and zero tests go through subtraction, which is exact by the same route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .algebra import (
    LaurentPoly,
    Mono,
    RatFunc,
    _key_div,
    _key_min,
    _key_mul,
    _key_pow,
    _pack,
    _poly,
    _tuple_first,
    _unpack,
    try_exact_div,
)


def _split(p: LaurentPoly) -> tuple[int, int, LaurentPoly | None]:
    """Write a nonzero Laurent polynomial as coeff * monomial * base with the
    base canonical (min exponents zero, content one, reference coefficient
    positive), or base None when p is a monomial.  The monomial is a packed
    key; the reference term is the least in Mono tuple order."""
    shift = p._range()[0]
    q = p._shifted(-shift)
    c = q.content()
    if q._t[_tuple_first(q._t)] < 0:
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
        if self.coeff == 0 or other.coeff == 0:
            return Factored.zero()
        powers = dict(self.powers)
        for p, e in other.powers.items():
            ne = powers.get(p, 0) + e
            if ne:
                powers[p] = ne
            else:
                powers.pop(p, None)
        return Factored(
            self.coeff * other.coeff, _key_mul(self.key, other.key), powers
        )

    def __pow__(self, n: int) -> "Factored":
        if n == 0:
            return Factored.one()
        if self.coeff == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return Factored.zero()
        return Factored(
            self.coeff**n,
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
        # both cofactors over the lcm of the coefficients' denominators
        da, db = self.coeff.denominator, other.coeff.denominator
        den = math.lcm(da, db)
        pa = _expand(
            self.coeff.numerator * (den // da),
            _key_div(self.key, cm),
            {p: self.powers.get(p, 0) - cpow.get(p, 0) for p in keys},
        )
        pb = _expand(
            other.coeff.numerator * (den // db),
            _key_div(other.key, cm),
            {p: other.powers.get(p, 0) - cpow.get(p, 0) for p in keys},
        )
        s = pa + pb
        if s.is_zero():
            return Factored.zero()
        c, shift, base = _split(s)
        m = _key_mul(cm, shift)
        powers = dict(cpow)
        # cancel the fresh base against denominator bases by exact division;
        # this is where the Laurent phenomenon keeps factored forms small.
        # A divisor that failed is never tried again: if d does not divide
        # the base B, it does not divide B/p (up to the unit _split takes
        # out) either, or it would divide (B/p)*p = B.
        failed: set[LaurentPoly] = set()
        while base is not None:
            if base in powers:
                ne = powers[base] + 1
                if ne:
                    powers[base] = ne
                else:
                    del powers[base]
                base = None
                break
            divided = False
            for p, e in powers.items():
                if e < 0 and p not in failed:
                    q = try_exact_div(base, p)
                    if q is None:
                        failed.add(p)
                    else:
                        ne = e + 1
                        if ne:
                            powers[p] = ne
                        else:
                            del powers[p]
                        cq, sq, base = _split(q)
                        c *= cq
                        m = _key_mul(m, sq)
                        divided = True
                        break
            if not divided:
                powers[base] = powers.get(base, 0) + 1
                if powers[base] == 0:
                    del powers[base]
                base = None
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
