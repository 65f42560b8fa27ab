"""Mutation-compatible Poisson structures, finite and periodic."""

import random
from fractions import Fraction

import pytest

from clusterflow import linalg
from clusterflow.algebra import RatFunc, SemifieldTag, xvar
from clusterflow.matrices import (
    liouville_even_matrix,
    liouville_odd_matrix,
    lv_matrix,
    lv_periodic_matrix,
    somos4_matrix,
)
from clusterflow.poisson import (
    CompatibilityError,
    ExtendedPoisson,
    LVPoissonParams,
    PeriodicLVParams,
    PoissonMatrix,
    SymLVParams,
    assemble_extended,
    bracket_from_pairs,
    check_pb_zero_window,
    compatibility_constant,
    f_variables,
    induced_Pf,
    is_log_canonical,
    lv_general_P,
    lv_periodic_P,
    lv_periodic_basis,
    lv_symmetric_P,
    mutate_poisson,
    pb_product,
    skew_kernel,
    solve_poisson,
    symbolic_bracket,
    two_form,
)
from clusterflow.seeds import Seed, mutate_seed
from clusterflow.verify import bounded_word, periodic_span_record, random_skew_matrix


def frac_rows(rows):
    return [[Fraction(v) for v in r] for r in rows]


class TestSomosKernel:
    def test_kernel_dimension_one(self):
        basis = skew_kernel(somos4_matrix())
        assert len(basis) == 1

    def test_displayed_solution(self):
        (P, c), = skew_kernel(somos4_matrix())
        assert c == 0
        want = frac_rows([[j - i for j in range(4)] for i in range(4)])
        scale = None
        dense = P.to_dense()
        # proportional to p_ij = j - i
        for i in range(4):
            for j in range(4):
                if want[i][j]:
                    s = dense[i][j] / want[i][j]
                    scale = s if scale is None else scale
                    assert s == scale
                else:
                    assert dense[i][j] == 0
        assert scale != 0

    def test_pb_is_zero(self):
        (P, c), = skew_kernel(somos4_matrix())
        prod = pb_product(P, somos4_matrix())
        assert linalg.is_zero_matrix(prod)


class TestMutationRule:
    def test_compatibility_preserved(self):
        rng = random.Random(7)
        for _ in range(5):
            n = rng.randint(2, 4)
            B = random_skew_matrix(rng, n)
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            try:
                P = solve_poisson(B, c)
            except ValueError:
                continue
            for k in B.indices:
                Pm = mutate_poisson(P, B, k)
                assert compatibility_constant(Pm, B.mutate(k)) == c

    def test_bracket_oracle(self):
        B = liouville_even_matrix(2)
        (P, c), = skew_kernel(B)
        seed = mutate_seed(Seed.initial(B, SemifieldTag.TRIVIAL), 0)
        xs = {i: seed.x[i].expand() for i in B.indices}
        Pm = mutate_poisson(P, B, 0)
        for i in B.indices:
            for j in B.indices:
                if i >= j:
                    continue
                val = symbolic_bracket(xs[i], xs[j], P)
                coeff = is_log_canonical(xs[i], xs[j], val)
                assert coeff == Pm.entry(i, j)

    def test_incompatible_rejected_with_witness(self):
        B = somos4_matrix()
        bad = PoissonMatrix(B.indices, {(0, 1): Fraction(1)}, c=Fraction(0))
        with pytest.raises(CompatibilityError) as exc:
            mutate_poisson(bad, B, 0)
        assert exc.value.witness is not None


class TestLogCanonical:
    def test_simple_bracket(self):
        P = PoissonMatrix((0, 1), {(0, 1): Fraction(2)}, c=Fraction(0))
        f = RatFunc.variable(xvar(0))
        g = RatFunc.variable(xvar(1))
        val = symbolic_bracket(f, g, P)
        assert is_log_canonical(f, g, val) == 2

    def test_non_log_canonical_detected(self):
        pairs = {(xvar(0), xvar(1)): Fraction(1)}
        f = RatFunc.variable(xvar(0)) + RatFunc.one()
        g = RatFunc.variable(xvar(1))
        val = bracket_from_pairs(pairs, f, g)
        assert is_log_canonical(f, g, val) is None


class TestLVFamilies:
    LO, HI = -3, 3

    def window(self):
        return lv_matrix().window(3 * self.LO, 3 * self.HI + 2)

    def test_general_family_pb_zero(self):
        blocks = range(self.LO, self.HI + 1)
        params = LVPoissonParams(
            a0=Fraction(1),
            b0=Fraction(-1, 2),
            c0=Fraction(2, 3),
            a={i: Fraction(i, 2) for i in blocks},
            b={i: Fraction(-i, 3) for i in blocks},
            q={(i, j): Fraction(i * j, 5) for i in blocks for j in blocks if i < j},
        )
        P = lv_general_P(params, self.LO, self.HI)
        ok, where = check_pb_zero_window(P, self.window())
        assert ok, where

    def test_symmetric_family_pb_zero(self):
        params = SymLVParams(
            a0=Fraction(2), q={k: Fraction(1, k + 1) for k in range(1, 7)}
        )
        P = lv_symmetric_P(params, self.LO, self.HI)
        ok, where = check_pb_zero_window(P, self.window())
        assert ok, where

    def test_periodic_family_pb_zero(self):
        for m in (3, 4):
            params = PeriodicLVParams(
                a0=Fraction(1),
                b0=Fraction(2),
                c0=Fraction(-1),
                a={i: Fraction(i, 2) for i in range(1, m)},
                b={i: Fraction(-i, 3) for i in range(1, m)},
                q={(i, j): Fraction(i + j + 1) for i in range(m) for j in range(m) if i < j},
            )
            P = lv_periodic_P(m, params)
            Bm = lv_periodic_matrix(m)
            assert linalg.is_zero_matrix(pb_product(P, Bm))

    def test_periodic_closure_needs_m_over_two(self):
        with pytest.raises(ValueError):
            lv_periodic_P(2, PeriodicLVParams())

    def test_periodic_kernel_dimensions(self):
        # with the per-block shifts a_i, b_i the family has 3 + 2(m-1) +
        # m(m-1)/2 = (m+1)(m+2)/2 parameters and spans the skew kernel; the
        # a = b = 0 slice has only 3 + m(m-1)/2 and falls short of it
        for m, dim in ((3, 10), (4, 15)):
            assert len(skew_kernel(lv_periodic_matrix(m))) == dim
            basis = lv_periodic_basis(m)
            rec = periodic_span_record(m, basis)
            assert rec["ok"], rec
            assert rec["witness"] == {
                "dimension": dim,
                "family_rank": dim,
                "parameters": dim,
                "pb_zero": True,
            }
            unshifted = [p for p in basis if not p.a and not p.b]
            rec = periodic_span_record(m, unshifted)
            assert not rec["ok"]
            assert rec["witness"]["family_rank"] == 3 + m * (m - 1) // 2 < dim

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_periodic_kernel_dimension_sympy(self, m):
        # independent of clusterflow.linalg: the nullity of PB = 0 for a
        # symbolic skew P, and the rank of the family, both computed by sympy
        sympy = pytest.importorskip("sympy")
        Bm = lv_periodic_matrix(m)
        n = 3 * m
        B = sympy.Matrix(n, n, lambda i, j: Bm.entry(i, j))
        syms = {(i, j): sympy.Symbol(f"p_{i}_{j}") for i in range(n) for j in range(i + 1, n)}

        def entry(i, j):
            if i == j:
                return 0
            return syms[(i, j)] if i < j else -syms[(j, i)]

        P = sympy.Matrix(n, n, entry)
        A, _ = sympy.linear_eq_to_matrix(list(P * B), list(syms.values()))
        nullity = len(syms) - A.rank()
        dim = (m + 1) * (m + 2) // 2
        assert nullity == dim == len(skew_kernel(Bm))
        family = [lv_periodic_P(m, p) for p in lv_periodic_basis(m)]
        for Pf in family:
            Ps = sympy.Matrix(n, n, lambda i, j: Pf.entry(i, j))
            assert Ps * B == sympy.zeros(n, n)
        F = sympy.Matrix([[Pf.entry(i, j) for (i, j) in syms] for Pf in family])
        assert F.rank() == dim


class TestLiouvillePoisson:
    def test_even_inverse_structure(self):
        B = liouville_even_matrix(3)
        cx = Fraction(2)
        P = solve_poisson(B, cx)
        binv = linalg.inverse(B.to_dense())
        assert linalg.mat_eq(P.to_dense(), linalg.mat_scale(binv, cx))

    def test_even_m2_singular(self):
        B = liouville_even_matrix(2)
        with pytest.raises(ValueError):
            solve_poisson(B, Fraction(1))
        basis = skew_kernel(B)
        assert basis and all(c == 0 for _, c in basis)

    def test_odd_matrix_skew(self):
        B = liouville_odd_matrix(2)
        assert linalg.is_skew(B.to_dense())

    def test_two_form_inverse_identity(self):
        B = liouville_even_matrix(3)
        cx, cy = Fraction(2), Fraction(3)
        P = solve_poisson(B, cx)
        ext = assemble_extended(B, cx, cy, Px=P)
        tf = two_form(B, cx, cy, P=P)
        prod = linalg.mat_mul(ext.big_dense(), tf.extended)
        want = linalg.mat_scale(linalg.identity(2 * B.n), cx + cy)
        assert linalg.mat_eq(prod, want)


class TestFVariables:
    def test_induced_matrix(self):
        B = liouville_even_matrix(3)
        c = Fraction(1)
        P = solve_poisson(B, c)
        got = induced_Pf(B, P)
        # B^T P B = c B^T D = -c D B for skew-symmetric B with D = I
        want = linalg.mat_scale(B.to_dense(), -c)
        assert linalg.mat_eq(got, want)

    def test_f_bracket_oracle(self):
        B = liouville_even_matrix(3)
        c = Fraction(1)
        P = solve_poisson(B, c)
        xs = {i: RatFunc.variable(xvar(i)) for i in B.indices}
        fs = f_variables(B, xs)
        pf = induced_Pf(B, P)
        for a, i in enumerate(B.indices):
            for b, j in enumerate(B.indices):
                if i >= j:
                    continue
                val = symbolic_bracket(fs[i], fs[j], P)
                assert is_log_canonical(fs[i], fs[j], val) == pf[a][b]

