"""Seeds and mutation in a chosen coefficient semifield.

A seed is an exchange matrix together with a cluster variable and a
coefficient per index.  Cluster variables always live in the field of rational
functions; coefficients live in the semifield named by the seed's tag
(universal, tropical, or trivial), and the exchange relation embeds the two
coefficient factors into the rational function field before using them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import (
    LaurentPoly,
    RatFunc,
    SemifieldTag,
    TrivialUnit,
    TropPoint,
    semifield_sum,
    xvar,
    yvar,
)
from .matrices import ExchangeMatrix


class CommutationError(ValueError):
    """Composite mutation applied to indices that interact."""


@dataclass(frozen=True)
class Seed:
    matrix: ExchangeMatrix
    x: dict[int, RatFunc]
    y: dict
    tag: SemifieldTag

    @staticmethod
    def initial(
        matrix: ExchangeMatrix,
        tag: SemifieldTag = SemifieldTag.UNIVERSAL,
        y_values: Mapping[int, object] | None = None,
        factored: bool = False,
    ) -> "Seed":
        """Seed with x_i the generators and y_i either generators or given.

        With factored=True the field values are kept in gcd-free factored
        form (universal and trivial semifields only); this is what makes deep
        symbolic runs tractable.
        """
        if factored:
            from .factored import Factored

            if tag is SemifieldTag.TROPICAL:
                raise ValueError("factored values support universal/trivial tags")
            x = {i: Factored.variable(xvar(i)) for i in matrix.indices}
            if y_values is not None:
                y = dict(y_values)
            elif tag is SemifieldTag.UNIVERSAL:
                y = {i: Factored.variable(yvar(i)) for i in matrix.indices}
            else:
                y = {i: TrivialUnit() for i in matrix.indices}
            return Seed(matrix, x, y, tag)
        x = {i: RatFunc.variable(xvar(i)) for i in matrix.indices}
        if y_values is not None:
            y = dict(y_values)
        elif tag is SemifieldTag.UNIVERSAL:
            y = {i: RatFunc.variable(yvar(i)) for i in matrix.indices}
        elif tag is SemifieldTag.TROPICAL:
            y = {i: TropPoint.generator(yvar(i)) for i in matrix.indices}
        else:
            y = {i: TrivialUnit() for i in matrix.indices}
        return Seed(matrix, x, y, tag)

    def field_one(self):
        """The multiplicative unit of the cluster-variable field."""
        return next(iter(self.x.values())) ** 0

    def y_hat(self, k: int) -> RatFunc:
        """The coefficient y_k dressed with cluster variables: y_k prod_j x_j^{b_jk}."""
        out = _embed(self.y[k], self.tag, like=self.field_one())
        for j, b in self.matrix.column(k).items():
            out = out * self.x[j] ** b
        return out


def _embed(yv, tag: SemifieldTag, like=None):
    """Image of a semifield element in the cluster-variable field.

    `like` supplies the field's unit for the tags whose elements do not carry
    it themselves (defaults to the rational-function field).
    """
    if tag is SemifieldTag.UNIVERSAL:
        return yv
    if tag is SemifieldTag.TROPICAL:
        return yv.to_ratfunc()
    return like if like is not None else RatFunc.one()


def _one(tag: SemifieldTag):
    if tag is SemifieldTag.UNIVERSAL:
        return RatFunc.one()
    if tag is SemifieldTag.TROPICAL:
        return TropPoint.unit()
    return TrivialUnit()


def mutate_coefficients(
    matrix: ExchangeMatrix, y: Mapping[int, object], k: int, tag: SemifieldTag
) -> tuple[dict, object]:
    """Coefficient mutation at index k under the exchange matrix before the
    mutation: the new coefficients and the semifield sum 1 (+) y_k."""
    yk = y[k]
    sf_one = yk**0 if tag is SemifieldTag.UNIVERSAL else _one(tag)
    one_plus_yk = semifield_sum(tag, sf_one, yk)
    new_y = dict(y)
    if tag is SemifieldTag.TRIVIAL:
        new_y[k] = TrivialUnit()
        return new_y, one_plus_yk
    new_y[k] = yk**-1
    for j, bkj in matrix.row(k).items():
        if bkj > 0:
            new_y[j] = y[j] * yk**bkj * one_plus_yk ** (-bkj)
        else:
            new_y[j] = y[j] * one_plus_yk ** (-bkj)
    return new_y, one_plus_yk


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at index k.  Involutive: mutate_seed(mutate_seed(s,k),k) == s."""
    b = seed.matrix
    tag = seed.tag
    yk = seed.y[k]
    new_y, one_plus_yk = mutate_coefficients(b, seed.y, k, tag)

    # exchange relation for the cluster variable at k
    field_one = seed.field_one()
    pos = field_one
    neg = field_one
    for i, bik in b.column(k).items():
        if bik > 0:
            pos = pos * seed.x[i] ** bik
        else:
            neg = neg * seed.x[i] ** (-bik)
    num = _embed(yk, tag, like=field_one) * pos + neg
    den = _embed(one_plus_yk, tag, like=field_one) * seed.x[k]
    new_x = dict(seed.x)
    new_x[k] = num / den

    return Seed(b.mutate(k), new_x, new_y, tag)


def mutate_many(
    seed: Seed, ks: Sequence[int], check_pairs: "bool | Iterable[int]" = True
) -> Seed:
    """Apply mutations at every index in ks (ascending order).

    The result is order independent only when the mutated indices do not
    interact, i.e. the exchange matrix vanishes between them.  With
    check_pairs True that is verified for all pairs; passing an iterable of
    indices restricts the verification to pairs inside it (used when a window
    truncation corrupts entries near the boundary that will be discarded).
    """
    ks = sorted(set(ks))
    if check_pairs:
        trusted = set(ks) if check_pairs is True else set(check_pairs) & set(ks)
        tl = sorted(trusted)
        for a in range(len(tl)):
            for b_ in range(a + 1, len(tl)):
                i, j = tl[a], tl[b_]
                if seed.matrix.entry(i, j) or seed.matrix.entry(j, i):
                    raise CommutationError(
                        f"indices {i} and {j} interact: b({i},{j})={seed.matrix.entry(i, j)}"
                    )
    out = seed
    for k in ks:
        out = mutate_seed(out, k)
    return out


def apply_word(seed: Seed, word: Iterable[int]) -> Seed:
    out = seed
    for k in word:
        out = mutate_seed(out, k)
    return out

