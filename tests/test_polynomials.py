import random
from fractions import Fraction

import pytest

from k3glue.matrices import IntMatrix, det
from k3glue.polynomials import (
    IntPoly,
    cauchy_root_bound,
    count_real_roots,
    decimal_exponent,
    div_exact,
    divmod_exact,
    format_decimal,
    gcd_int_poly,
    interval_eval,
    is_squarefree,
    real_root_isolation,
    refine_root,
    resultant,
    squarefree_decomposition,
    sturm_sequence,
)


def rand_poly(rng, max_deg=5, bound=9, nonzero=False):
    while True:
        p = IntPoly([rng.randrange(-bound, bound + 1) for _ in range(rng.randrange(max_deg + 2))])
        if not (nonzero and p.is_zero()):
            return p


def test_normalization_and_degree():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([]).degree == -1
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly.monomial(3, -2).coeffs == (0, 0, 0, -2)


def test_immutability():
    p = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        x = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


def test_pow_and_derivative():
    p = IntPoly([1, 1])  # 1 + X
    assert p**4 == IntPoly([1, 4, 6, 4, 1])
    assert (p**4).derivative() == IntPoly([4, 12, 12, 4])
    assert IntPoly([7]).derivative().is_zero()


def test_content_primitive_self_reciprocal():
    assert IntPoly([6, -9, 3]).content() == 3
    assert IntPoly([6, -9, 3]).primitive_part() == IntPoly([2, -3, 1])
    assert IntPoly([1, -3, 1]).is_self_reciprocal()
    assert not IntPoly([1, -3, 2]).is_self_reciprocal()


def test_divmod_exact_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        g = rand_poly(rng, nonzero=True)
        q = rand_poly(rng)
        r = rand_poly(rng, max_deg=max(g.degree - 1, 0))
        if r.degree >= g.degree:
            continue
        f = q * g + r
        try:
            q2, r2 = divmod_exact(f, g)
        except ValueError:
            continue  # division required non-integer quotients along the way
        assert q2 * g + r2 == f
        assert r2.degree < g.degree


def test_div_exact_requires_zero_remainder():
    with pytest.raises(ValueError):
        div_exact(IntPoly([1, 1]), IntPoly([0, 1]))
    assert div_exact(IntPoly([-1, 0, 1]), IntPoly([1, 1])) == IntPoly([-1, 1])


def test_gcd_int_poly():
    a = IntPoly([-1, 0, 1])  # (X-1)(X+1)
    b = IntPoly([1, 2, 1])  # (X+1)^2
    assert gcd_int_poly(a, b) == IntPoly([1, 1])
    assert gcd_int_poly(a, IntPoly()) == a
    assert gcd_int_poly(2 * a, 4 * b) == 2 * IntPoly([1, 1])


def sylvester_resultant(f, g):
    """Independent oracle: determinant of the Sylvester matrix."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    return det(IntMatrix(rows)) if size else 1


def test_resultant_against_sylvester_determinant():
    rng = random.Random(7)
    done = 0
    while done < 200:
        f = rand_poly(rng, max_deg=4, nonzero=True)
        g = rand_poly(rng, max_deg=4, nonzero=True)
        if f.degree < 1 and g.degree < 1:
            continue
        assert resultant(f, g) == sylvester_resultant(f, g)
        done += 1


def test_resultant_identities():
    rng = random.Random(9)
    for _ in range(100):
        f = rand_poly(rng, max_deg=3, nonzero=True)
        g = rand_poly(rng, max_deg=3, nonzero=True)
        h = rand_poly(rng, max_deg=2, nonzero=True)
        sign = (-1) ** (f.degree * g.degree)
        assert resultant(f, g) == sign * resultant(g, f)
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)
        a = rng.randrange(-5, 6)
        assert resultant(IntPoly([-a, 1]), g) == g(a)


def test_resultant_of_the_two_factors():
    q = IntPoly([1, -3, 1])
    phi50 = IntPoly([1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1])
    r = resultant(q, phi50)
    assert r == 225150025
    assert r == 15005**2


def test_squarefree_detection():
    assert is_squarefree(IntPoly([1, -3, 1]))
    assert not is_squarefree(IntPoly([1, 2, 1]))
    assert not is_squarefree(IntPoly())


def test_squarefree_decomposition_random():
    rng = random.Random(13)
    for _ in range(60):
        # build p = a * b^2 * c^3 from small primitive factors
        parts = []
        p = IntPoly([1])
        for mult in (1, 2, 3):
            f = rand_poly(rng, max_deg=2, bound=4, nonzero=True)
            if f.degree > 0:
                parts.append((f, mult))
                p = p * f**mult
        if p.degree == 0:
            continue
        factors = squarefree_decomposition(p)
        recomposed = IntPoly([1])
        for f, m in factors:
            assert is_squarefree(f)
            assert f.leading > 0
            recomposed = recomposed * f**m
        assert recomposed == p.primitive_part() * (1 if p.leading > 0 else -1)
        for i, (fi, _) in enumerate(factors):
            for fj, _ in factors[i + 1 :]:
                assert gcd_int_poly(fi, fj).degree == 0


def test_sturm_root_counts():
    p = IntPoly([-2, 0, 1])  # X^2 - 2
    assert count_real_roots(p, Fraction(0), Fraction(2)) == 1
    assert count_real_roots(p, Fraction(-2), Fraction(2)) == 2
    assert count_real_roots(p, Fraction(2), Fraction(3)) == 0
    with pytest.raises(ValueError):
        count_real_roots(p, Fraction(1), Fraction(0))


def test_root_isolation_finds_planted_roots():
    rng = random.Random(17)
    for _ in range(60):
        roots = sorted(rng.sample(range(-8, 9), rng.randrange(1, 5)))
        p = IntPoly([1])
        for r in roots:
            p = p * IntPoly([-r, 1])
        intervals = real_root_isolation(p)
        assert len(intervals) == len(roots)
        for (lo, hi), r in zip(intervals, roots):
            assert lo <= r <= hi
            if lo != hi:
                assert lo < r < hi


def test_root_isolation_requires_squarefree():
    with pytest.raises(ValueError):
        real_root_isolation(IntPoly([1, 2, 1]))


def test_isolation_vs_sturm_count():
    rng = random.Random(19)
    for _ in range(60):
        p = rand_poly(rng, max_deg=5, nonzero=True)
        if p.degree < 1 or not is_squarefree(p):
            continue
        b = Fraction(cauchy_root_bound(p))
        n = count_real_roots(p, -b, b, seq=sturm_sequence(p))
        assert len(real_root_isolation(p)) == n


def test_refine_root():
    p = IntPoly([-2, 0, 1])
    interval = real_root_isolation(p)[-1]
    lo, hi = refine_root(p, interval, Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    assert p(lo) < 0 < p(hi) or p(hi) < 0 < p(lo)
    assert lo < Fraction(141421356237, 10**11) + Fraction(1, 10**10)


def test_interval_eval_contains_values():
    rng = random.Random(23)
    for _ in range(100):
        p = rand_poly(rng, max_deg=4)
        lo = Fraction(rng.randrange(-20, 20), rng.randrange(1, 8))
        hi = lo + Fraction(rng.randrange(0, 10), rng.randrange(1, 8))
        vlo, vhi = interval_eval(p.coeffs, (lo, hi))
        for k in range(5):
            x = lo + (hi - lo) * Fraction(k, 4)
            assert vlo <= p(x) <= vhi


def test_decimal_exponent():
    assert decimal_exponent(Fraction(1)) == 0
    assert decimal_exponent(Fraction(999)) == 2
    assert decimal_exponent(Fraction(1000)) == 3
    assert decimal_exponent(Fraction(1, 2)) == -1
    assert decimal_exponent(Fraction(-1, 200)) == -3
    with pytest.raises(ValueError):
        decimal_exponent(0)


def test_format_decimal():
    assert format_decimal(Fraction(1), 5) == "1.0000"
    assert format_decimal(Fraction(-1, 2), 4) == "-0.5000"
    assert format_decimal(Fraction(25, 1000), 1) == "0.03"  # half rounds away
    assert format_decimal(Fraction(999, 1000), 2) == "1.0"  # carry into new digit
    assert format_decimal(Fraction(123456), 3) == "123000"
    assert format_decimal(0, 3) == "0"
    with pytest.raises(ValueError):
        format_decimal(Fraction(1), 0)


def test_format_decimal_matches_true_value():
    rng = random.Random(29)
    for _ in range(200):
        x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        if x == 0:
            continue
        digits = rng.randrange(1, 8)
        text = format_decimal(x, digits)
        approx = Fraction(text)
        e = decimal_exponent(x)
        assert abs(approx - x) * 2 <= Fraction(10) ** (e - digits + 1)


def test_str_is_the_compact_classical_form():
    assert str(IntPoly()) == "0"
    assert str(IntPoly([-7])) == "-7"
    assert str(IntPoly([1, -3, 1])) == "X^2-3X+1"
    assert str(IntPoly([0, 1, 0, -2])) == "-2X^3+X"
    assert str(IntPoly([-1, 0, -1])) == "-X^2-1"
