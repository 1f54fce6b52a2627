"""Property suites for the exact matrix kernels.

The random SNF / HNF / charpoly / signature loops below total well over
a thousand cases; every property is checked against either an algebraic
identity or an independently coded oracle (Q-rank by Gaussian
elimination, determinant interpolation, Sturm counts on the
characteristic polynomial, signatures known by construction).
"""

import math
import random
from fractions import Fraction

import pytest

from k3glue.matrices import (
    IntMatrix,
    block_diagonal,
    charpoly,
    companion,
    det,
    exact_quotient,
    hermite_normal_form,
    join_columns,
    kernel_basis,
    poly_of_matrix,
    rational_inverse,
    signature_symmetric,
    smith_normal_form,
    solve_rational,
)
from k3glue.polynomials import (
    IntPoly,
    cauchy_root_bound,
    count_real_roots,
    squarefree_decomposition,
    sturm_sequence,
)

SNF_CASES = 500
HNF_CASES = 300
CHARPOLY_CASES = 200
SIGNATURE_CASES = 150


def rand_matrix(rng, rows, cols, bound=9, sparsity=0.0):
    return IntMatrix(
        [
            [0 if rng.random() < sparsity else rng.randrange(-bound, bound + 1) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def rational_rank(m):
    """Row-reduction rank over Q, independent of the SNF machinery."""
    a = [[Fraction(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    for j in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][j] for x in a[rank]]
        for i in range(m.rows):
            if i != rank and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def is_unimodular(u):
    return abs(det(u)) == 1


def assert_snf_shape(d):
    size = min(d.rows, d.cols)
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    diag = [d[i, i] for i in range(size)]
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero, "zero divisor before a nonzero one"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_snf_random_properties():
    rng = random.Random(101)
    for case in range(SNF_CASES):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = rand_matrix(rng, rows, cols, sparsity=0.3 if case % 3 == 0 else 0.0)
        snf = smith_normal_form(m)
        assert snf.U @ m @ snf.V == snf.D
        assert is_unimodular(snf.U)
        assert is_unimodular(snf.V)
        assert_snf_shape(snf.D)
        nonzero = [x for x in snf.diagonal if x]
        assert len(nonzero) == rational_rank(m)
        entries = [m[i, j] for i in range(rows) for j in range(cols)]
        g = math.gcd(*entries)
        if g:
            assert nonzero[0] == g
        if rows == cols:
            if len(nonzero) == rows:
                assert math.prod(nonzero) == abs(det(m))
            else:
                assert det(m) == 0


def test_snf_fixed_points_and_corners():
    for m in (IntMatrix([[0]]), IntMatrix([[-1]]), IntMatrix([[4, 6], [6, 4]])):
        snf = smith_normal_form(m)
        assert snf.U @ m @ snf.V == snf.D
        again = smith_normal_form(snf.D)
        assert again.D == snf.D
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)
    assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
    assert smith_normal_form(IntMatrix([[6002, 3001], [3001, -6002]])).diagonal == (3001, 15005)


def assert_hnf_shape(h):
    pivots = []
    last = -1
    for i in range(h.rows):
        row = [h[i, j] for j in range(h.cols)]
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            # all remaining rows must be zero too
            for k in range(i, h.rows):
                assert all(h[k, j] == 0 for j in range(h.cols))
            break
        assert nz > last, "pivot columns must strictly increase"
        last = nz
        assert h[i, nz] > 0
        for k in range(i):
            assert 0 <= h[k, nz] < h[i, nz]
        pivots.append((i, nz))
    return pivots


def test_hnf_random_properties():
    rng = random.Random(103)
    for case in range(HNF_CASES):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = rand_matrix(rng, rows, cols, sparsity=0.3 if case % 4 == 0 else 0.0)
        h, u = hermite_normal_form(m)
        assert h == u @ m
        assert is_unimodular(u)
        assert_hnf_shape(h)
        h2, _ = hermite_normal_form(h)
        assert h2 == h, "HNF must be idempotent"


def test_hnf_row_lattice_invariance():
    # row-equivalent matrices share one HNF
    rng = random.Random(107)
    for _ in range(50):
        m = rand_matrix(rng, 3, 3)
        t = rand_matrix(rng, 3, 3)
        # make t unimodular: triangular with unit diagonal times a permutation
        t = IntMatrix(
            [
                [1, t[0, 1], t[0, 2]],
                [0, 1, t[1, 2]],
                [0, 0, 1],
            ]
        )
        h1, _ = hermite_normal_form(m)
        h2, _ = hermite_normal_form(t @ m)
        assert h1 == h2


def charpoly_by_interpolation(m):
    """Oracle: interpolate det(xI - M) from n+1 integer evaluations."""
    n = m.rows
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = IntMatrix(
            [[(x if i == j else 0) - m[i, j] for j in range(n)] for i in range(n)]
        )
        ys.append(det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = Fraction(ys[i]) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([int(c) for c in coeffs])


def test_charpoly_random_against_interpolation():
    rng = random.Random(109)
    for _ in range(CHARPOLY_CASES):
        n = rng.randrange(1, 5)
        m = rand_matrix(rng, n, n)
        p = charpoly(m)
        assert p == charpoly_by_interpolation(m)
        assert p.is_monic() and p.degree == n
        trace = sum(m[i, i] for i in range(n))
        assert p.coeffs[n - 1] == -trace
        assert p(0) == (-1) ** n * det(m)


def test_cayley_hamilton_on_5x5():
    rng = random.Random(113)
    for _ in range(30):
        m = rand_matrix(rng, 5, 5, bound=6)
        assert poly_of_matrix(charpoly(m), m) == IntMatrix.zeros(5, 5)


def test_companion_inverts_charpoly():
    rng = random.Random(127)
    for _ in range(60):
        n = rng.randrange(1, 7)
        p = IntPoly([rng.randrange(-9, 10) for _ in range(n)] + [1])
        assert charpoly(companion(p)) == p
    with pytest.raises(ValueError):
        companion(IntPoly([2, 3]))  # not monic


def sturm_signature(m):
    """Oracle: count the positive and negative roots of charpoly(M) by
    square-free decomposition and Sturm sequences on (0, B] and (-B, 0],
    B the Cauchy bound, weighted by multiplicity."""
    n_plus = n_minus = 0
    zero = Fraction(0)
    for factor, mult in squarefree_decomposition(charpoly(m)):
        bound = Fraction(cauchy_root_bound(factor))
        seq = sturm_sequence(factor)
        n_plus += mult * count_real_roots(factor, zero, bound, seq)
        n_minus += mult * count_real_roots(factor, -bound, zero, seq)
    return (n_plus, n_minus)


def test_signature_random_against_sturm():
    rng = random.Random(131)
    done = 0
    while done < SIGNATURE_CASES:
        n = rng.randrange(1, 7)
        base = rand_matrix(rng, n, n, bound=5)
        m = base + base.transpose()
        if det(m) == 0:
            continue
        assert signature_symmetric(m) == sturm_signature(m)
        done += 1


def test_signature_known_values():
    assert signature_symmetric(IntMatrix.identity(4)) == (4, 0)
    assert signature_symmetric(-1 * IntMatrix.identity(3)) == (0, 3)
    assert signature_symmetric(IntMatrix([[0, 1], [1, 0]])) == (1, 1)
    # zero diagonal throughout: the pivot comes from e_1 += e_2
    assert signature_symmetric(IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == (1, 2)
    with pytest.raises(ValueError):
        signature_symmetric(IntMatrix([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        signature_symmetric(IntMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        signature_symmetric(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))


#: (Gram block, signature): hyperbolic plane H, A2 and -A2
PLANES = (
    ([[0, 1], [1, 0]], (1, 1)),
    ([[2, -1], [-1, 2]], (2, 0)),
    ([[-2, 1], [1, -2]], (0, 2)),
)


def known_inertia_blocks(rng, rank, only_hyperbolic):
    """Block-diagonal D of the given rank from H, +-A2 and +-[2p]
    (p = 1 is +-A1), with the signature its blocks add up to."""
    d, n_plus, n_minus = None, 0, 0
    while d is None or d.rows < rank:
        room = rank - (d.rows if d else 0)
        if only_hyperbolic:
            block, (p, q) = PLANES[0]
        elif room > 1 and rng.random() < 0.7:
            block, (p, q) = rng.choice(PLANES)
        else:
            c = rng.choice((2, -2)) * rng.randrange(1, 40)
            block, (p, q) = [[c]], ((1, 0) if c > 0 else (0, 1))
        d = IntMatrix(block) if d is None else block_diagonal(d, IntMatrix(block))
        n_plus, n_minus = n_plus + p, n_minus + q
    return d, (n_plus, n_minus)


def random_unimodular(rng, n):
    """Unit lower times unit upper triangular: det 1, entries small."""
    def unit_lower():
        return IntMatrix(
            [[rng.choice((-1, 0, 0, 0, 1)) if i > j else int(i == j) for j in range(n)] for i in range(n)]
        )

    return unit_lower() @ unit_lower().transpose()


def test_signature_known_inertia_at_ranks_24_to_44():
    # G = U^T D U with U unimodular has the signature of D's blocks
    rng = random.Random(157)
    for rank in range(24, 45, 4):
        for only_hyperbolic in (False, True):
            d, expected = known_inertia_blocks(rng, rank, only_hyperbolic)
            if only_hyperbolic:
                # a permutation keeps the diagonal zero, so the
                # elimination must take its pivots from e_k += e_j
                perm = rng.sample(range(rank), rank)
                u = IntMatrix([[int(perm[i] == j) for j in range(rank)] for i in range(rank)])
            else:
                u = random_unimodular(rng, rank)
            g = u.transpose() @ d @ u
            if only_hyperbolic:
                assert all(g[i, i] == 0 for i in range(rank))
            assert signature_symmetric(g) == expected


def test_kernel_basis():
    rng = random.Random(137)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = rand_matrix(rng, rows, cols, bound=4, sparsity=0.4)
        k = kernel_basis(m)
        if k is None:
            assert rational_rank(m) == cols
            continue
        assert m @ k == IntMatrix.zeros(rows, k.cols)
        assert rational_rank(k) == k.cols
        assert rational_rank(m) + k.cols == cols


def test_solve_and_inverse():
    rng = random.Random(139)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rand_matrix(rng, n, n)
        if det(m) == 0:
            with pytest.raises(ValueError):
                rational_inverse(m)
            continue
        inv, d = rational_inverse(m)
        assert m @ inv == d * IntMatrix.identity(n)
        assert d > 0 and math.gcd(d, *(x for row in inv.data for x in row)) == 1
        b = rand_matrix(rng, n, rng.randrange(1, 3))
        x, d = solve_rational(m, b)
        assert m @ x == d * b
        assert d > 0 and math.gcd(d, *(c for row in x.data for c in row)) == 1


def test_tall_systems_solve_or_raise():
    rng = random.Random(151)
    for _ in range(60):
        n = rng.randrange(1, 4)
        a = rand_matrix(rng, n + rng.randrange(1, 3), n)
        if rational_rank(a) < n:
            with pytest.raises(ValueError):
                solve_rational(a, IntMatrix.zeros(a.rows, 1))
            continue
        x0 = rand_matrix(rng, n, 2)
        x, d = solve_rational(a, 3 * (a @ x0))
        assert d == 1 and x == 3 * x0
        b = rand_matrix(rng, a.rows, 1)
        if rational_rank(join_columns(a, b)) > n:
            with pytest.raises(ValueError):
                solve_rational(a, b)
        else:
            x, d = solve_rational(a, b)
            assert a @ x == d * b


def test_rational_matrix_helpers():
    # rows (1/2, 3), (-2/3, 0) in the one rational form
    m, d = IntMatrix([[3, 18], [-4, 0]]), 6
    assert exact_quotient(IntMatrix([[6, -12]]), 6) == IntMatrix([[1, -2]])
    with pytest.raises(ValueError):
        exact_quotient(m, d)
    a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[5]])
    assert block_diagonal(a, b) == IntMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    assert join_columns(a, IntMatrix([[7], [8]])) == IntMatrix([[1, 2, 7], [3, 4, 8]])
    with pytest.raises(ValueError):
        join_columns(a, b)


def test_det_multiplicative():
    rng = random.Random(149)
    for _ in range(60):
        n = rng.randrange(1, 5)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        assert det(a @ b) == det(a) * det(b)
    assert det(IntMatrix([[5]])) == 5


def test_case_budget_is_met():
    assert SNF_CASES + HNF_CASES + CHARPOLY_CASES + SIGNATURE_CASES >= 1000
