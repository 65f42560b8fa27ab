"""Seeds and mutation in a chosen coefficient semifield.

A seed is an exchange matrix together with a cluster variable and a
coefficient per index, all `Factored` values of the field of rational
functions.  Coefficients live in the semifield named by the seed's tag.
Universal coefficients are rational functions of the initial y.  Tropical
ones are Laurent monomials in the initial y, and the trivial semifield {1} is
the tropical semifield on no generators, so its one element is 1.  The
semifields differ only in their sum, so `one_plus` (1 (+) y) is the one rule
that reads the tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .algebra import SemifieldTag, _key_min, xvar, yvar
from .factored import Factored
from .matrices import ExchangeMatrix


class CommutationError(ValueError):
    """Composite mutation applied to indices that interact."""


@dataclass(frozen=True)
class Seed:
    matrix: ExchangeMatrix
    x: dict[int, Factored]
    y: dict[int, Factored]
    tag: SemifieldTag
    # the semifield sums 1 (+) y_k of the mutations that made this seed, by
    # k: the one of `mutate_seed`, or those of a `mutate_many` layer
    sums: dict[int, Factored] = field(default_factory=dict, compare=False)

    @staticmethod
    def initial(
        matrix: ExchangeMatrix,
        tag: SemifieldTag = SemifieldTag.UNIVERSAL,
        y_values: Mapping[int, Factored] | None = None,
    ) -> "Seed":
        """Seed with x_i the generators and y_i the generators (1 for the
        trivial semifield) or given."""
        x = {i: Factored.variable(xvar(i)) for i in matrix.indices}
        if y_values is not None:
            y = dict(y_values)
        elif tag is SemifieldTag.TRIVIAL:
            y = {i: Factored.one() for i in matrix.indices}
        else:
            y = {i: Factored.variable(yvar(i)) for i in matrix.indices}
        return Seed(matrix, x, y, tag)


def one_plus(tag: SemifieldTag, y: Factored) -> Factored:
    """The semifield sum 1 (+) y: the field sum for universal coefficients,
    else the per-variable minimum of the exponents of 1 and the monomial y."""
    if tag is SemifieldTag.UNIVERSAL:
        return Factored.one() + y
    return Factored(1, _key_min(0, y.key))


def mutate_coefficients(
    matrix: ExchangeMatrix, y: Mapping[int, Factored], k: int, tag: SemifieldTag
) -> tuple[dict[int, Factored], Factored]:
    """Coefficient mutation at index k under the exchange matrix before the
    mutation: the new coefficients and the semifield sum 1 (+) y_k."""
    yk = y[k]
    one_plus_yk = one_plus(tag, yk)
    new_y = dict(y)
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
    new_y, one_plus_yk = mutate_coefficients(b, seed.y, k, seed.tag)

    # exchange relation for the cluster variable at k
    pos = neg = Factored.one()
    for i, bik in b.column(k).items():
        if bik > 0:
            pos = pos * seed.x[i] ** bik
        else:
            neg = neg * seed.x[i] ** (-bik)
    num = seed.y[k] * pos + neg
    den = one_plus_yk * seed.x[k]
    new_x = dict(seed.x)
    new_x[k] = num / den

    return Seed(b.mutate(k), new_x, new_y, seed.tag, {k: one_plus_yk})


def mutate_many(seed: Seed, ks: Sequence[int]) -> Seed:
    """Apply mutations at every index in ks (ascending order).

    The result is order independent only when the mutated indices do not
    interact, i.e. the exchange matrix vanishes between them; that is
    verified for every pair, and the first interacting pair is named.  No
    mutation changes another's y_k, so the result's sums are the layer's.
    """
    ks = sorted(set(ks))
    kset = set(ks)
    for i in ks:
        row = seed.matrix.row(i)
        j = min((j for j in (*row, *seed.matrix.column(i)) if j > i and j in kset), default=None)
        if j is not None:
            raise CommutationError(f"indices {i} and {j} interact: b({i},{j})={row.get(j, 0)}")
    out, sums = seed, {}
    for k in ks:
        out = mutate_seed(out, k)
        sums[k] = out.sums[k]
    return Seed(out.matrix, out.x, out.y, out.tag, sums)


def apply_word(seed: Seed, word: Iterable[int]) -> Seed:
    out = seed
    for k in word:
        out = mutate_seed(out, k)
    return out

