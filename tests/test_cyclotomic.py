import math
import random
from fractions import Fraction

import pytest

from k3glue.arith import euler_phi, factorize
from k3glue.cyclotomic import (
    CycloField,
    RealSubfieldElement,
    build_trace_form_lattice,
    cyclotomic_poly,
    dpsi_quotient,
    embedding_labels,
    norm_real_subfield,
    real_embedding_signs,
    real_embedding_values,
    real_subfield,
    trace_polynomial,
    twist_element_parts,
)
from k3glue.matrices import IntMatrix
from k3glue.polynomials import IntPoly, format_decimal

PHI_50 = IntPoly([1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1])
PSI_50 = IntPoly([-1, -5, 25, 5, -50, -1, 35, 0, -10, 0, 1])
A_COEFFS = (3, -3, 0, 0, -3, 0, -3, 6, -9, 12, -12, 14, -17, 17, -17, 12, -9, 9, -6, 6)
TRACE_ROW = (-10, 8, -6, 3, -1, -2, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3)


def test_cyclotomic_poly_table():
    known = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        5: [1, 1, 1, 1, 1],
        6: [1, -1, 1],
        8: [1, 0, 0, 0, 1],
        10: [1, -1, 1, -1, 1],
        12: [1, 0, -1, 0, 1],
        25: [1] + [0] * 4 + [1] + [0] * 4 + [1] + [0] * 4 + [1] + [0] * 4 + [1],
    }
    for n, coeffs in known.items():
        assert cyclotomic_poly(n) == IntPoly(coeffs)
    assert cyclotomic_poly(50) == PHI_50
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_product_formula():
    for n in range(1, 31):
        product = IntPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_poly(d)
        assert product == IntPoly([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_degrees_are_totients():
    for n in range(1, 60):
        assert cyclotomic_poly(n).degree == euler_phi(n)


def test_trace_polynomial_of_conductor_50():
    assert trace_polynomial(CycloField(50)) == PSI_50


def test_trace_polynomial_defining_identity():
    for n in (5, 8, 12, 50):
        field = CycloField(n)
        psi = trace_polynomial(field)
        m = field.degree // 2
        assert psi.degree == m
        for x in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(7, 3)):
            assert field.phi_n(x) == x**m * psi(x + 1 / x)


def test_trace_polynomial_rejects_odd_degree():
    with pytest.raises(ValueError):
        trace_polynomial(CycloField(2))


def moebius(n):
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return (-1) ** len(f)


def test_monomial_traces_match_the_moebius_formula():
    for n in (12, 50):
        field = CycloField(n)
        for k in range(n):
            g = math.gcd(k, n)
            expected = moebius(n // g) * Fraction(euler_phi(n), euler_phi(n // g))
            assert field.zeta_power(k).trace() == expected


def test_power_reduction_wraps():
    field = CycloField(50)
    assert field.zeta_power(50) == field.one()
    assert field.zeta_power(55) == field.zeta_power(5)
    assert field.zeta_power(-1) == field.zeta_power(49)
    z = field.zeta_power(1)
    acc = field.zero()
    power = field.one()
    for c in PHI_50.coeffs:
        acc = acc + c * power
        power = power * z
    assert acc.is_zero()


def integer_coeffs(rng, count):
    return [rng.randrange(-5, 6) for _ in range(count)]


def rational_coeffs(rng, count):
    return [Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(count)]


def in_lowest_terms(e):
    return e.den > 0 and math.gcd(e.den, *e.nums) == 1


def test_element_arithmetic_random():
    rng = random.Random(53)
    for n in (12, 15):
        field = CycloField(n)
        zero, one = field.zero(), field.one()
        for draw in (integer_coeffs, rational_coeffs):
            for _ in range(30):
                a, b, c = (field.element(draw(rng, field.degree)) for _ in range(3))
                results = [a, b, c, a + b, a * b, a - b, -a, a.conj(), zero, one]
                # ring axioms
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) * c == a * c + b * c
                assert a + zero == a and a * one == a
                assert a + (-a) == zero
                assert (a - b) + b == a
                # conj is an involutive ring map
                assert a.conj().conj() == a
                assert (a + b).conj() == a.conj() + b.conj()
                assert (a * b).conj() == a.conj() * b.conj()
                assert one.conj() == one
                assert (a + b).trace() == a.trace() + b.trace()
                if not a.is_zero():
                    inv = a.inverse()
                    results.append(inv)
                    assert a * inv == one
                if not a.is_zero() and not b.is_zero():
                    assert (a * b).norm() == a.norm() * b.norm()
                assert all(in_lowest_terms(e) for e in results)
                assert a.coeffs == tuple(Fraction(x, a.den) for x in a.nums)


def test_element_reduces_long_rational_inputs():
    field = CycloField(12)
    rng = random.Random(61)
    for _ in range(20):
        coeffs = rational_coeffs(rng, 30)
        e = field.element(coeffs)
        expected = field.zero()
        for k, c in enumerate(coeffs):
            expected = expected + c * field.zeta_power(k)
        assert e == expected
        assert in_lowest_terms(e)
    half = field.element([Fraction(2, 4), Fraction(-3, 6)])
    assert (half.nums, half.den) == ((1, -1, 0, 0), 2)
    assert not half.is_integral()
    assert (2 * half).is_integral()


def test_norm_and_trace_of_scalars():
    field = CycloField(50)
    assert field.element([7]).norm() == Fraction(7) ** 20
    assert field.one().trace() == 20
    assert field.zeta_power(1).norm() == 1
    assert field.zero().norm() == 0
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def test_quadratic_field_norm_formula():
    field = CycloField(3)
    rng = random.Random(59)
    for _ in range(40):
        x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        e = field.element([x, y])
        assert e.norm() == x * x - x * y + y * y


def test_twist_element_parts():
    field = CycloField(50)
    parts = twist_element_parts(field)
    a = parts["a"]
    assert tuple(int(c) for c in a.coeffs) == A_COEFFS
    assert a.conj() == a
    assert a.is_integral()
    # the big field is totally imaginary: norms to Q are positive there,
    # so the unit factors only show their sign in the real subfield
    assert parts["u1"].norm() == 1
    assert parts["u2"].norm() == 1
    assert norm_real_subfield(real_subfield(parts["u1"])) == -1
    assert norm_real_subfield(real_subfield(parts["u2"])) == -1
    assert a.norm() == 3001**2
    assert parts["a_prime"].norm() == 3001**2
    assert a == parts["u1"] * parts["u2"] * parts["a_prime"]
    scaled = 3001 * a.inverse()
    assert scaled.is_integral()
    with pytest.raises(ValueError):
        twist_element_parts(CycloField(10))


def from_real_subfield(e):
    """Sum c_j y^j in Q(zeta), y = zeta + zeta^-1, built here as the oracle."""
    field = e.field
    y = field.zeta_power(1) + field.zeta_power(-1)
    acc, power = field.zero(), field.one()
    for c in e.coeffs:
        acc = acc + c * power
        power = power * y
    return acc


def test_real_subfield_round_trip():
    field = CycloField(50)
    y = field.zeta_power(1) + field.zeta_power(-1)
    e = real_subfield(y * y - 3 * y + 1)
    assert e == RealSubfieldElement(field, [1, -3, 1], 1)
    assert from_real_subfield(e) == y * y - 3 * y + 1
    with pytest.raises(ValueError):
        real_subfield(field.zeta_power(1))
    with pytest.raises(ValueError):
        RealSubfieldElement(field, [0] * 11, 1)


def test_real_subfield_round_trip_rational():
    rng = random.Random(67)
    for n in (12, 15, 50):
        field = CycloField(n)
        m = field.degree // 2
        for _ in range(10):
            coeffs = rational_coeffs(rng, m)
            den = math.lcm(*(c.denominator for c in coeffs))
            e = RealSubfieldElement(field, [int(c * den) for c in coeffs], den)
            assert in_lowest_terms(e)
            assert e.coeffs == tuple(coeffs)
            x = from_real_subfield(e)
            assert x.conj() == x
            back = real_subfield(x)
            assert back == e
            assert in_lowest_terms(back)
    # the constructor brings any denominator sign to lowest terms
    e = RealSubfieldElement(field, [2, -4], -6)
    assert (e.nums[:2], e.den) == ((-1, 2), 3)


def test_norm_real_subfield():
    field = CycloField(50)
    a = twist_element_parts(field)["a"]
    assert norm_real_subfield(real_subfield(a)) == 3001
    # N(y - 3) = prod (root - 3) = (-1)^10 Psi(3), and Psi(3) = Psi_50(3)
    assert norm_real_subfield(RealSubfieldElement(field, [-3, 1], 1)) == PSI_50(3)
    assert PSI_50(3) == 3001 * PSI_50(-2)


def test_embedding_labels():
    assert embedding_labels(50) == (1, 3, 7, 9, 11, 13, 17, 19, 21, 23)
    assert embedding_labels(5) == (1, 2)
    assert embedding_labels(12) == (1, 5)


def test_real_embedding_values_match_cosines():
    field = CycloField(50)
    y = RealSubfieldElement(field, [0, 1], 1)
    rows = real_embedding_values(y, Fraction(1, 10**12))
    assert [k for k, _ in rows] == list(embedding_labels(50))
    for k, (lo, hi) in rows:
        assert hi - lo < Fraction(1, 10**12)
        target = 2 * math.cos(2 * math.pi * k / 50)
        assert abs(float(lo) - target) < 1e-10
    with pytest.raises(ValueError):
        real_embedding_values(y, 0)


def test_real_embedding_signs():
    field = CycloField(50)
    y = RealSubfieldElement(field, [0, 1], 1)
    rows = real_embedding_signs(y, 5)
    for k, sign, text in rows:
        c = 2 * math.cos(2 * math.pi * k / 50)
        assert sign == (1 if c > 0 else -1)
        assert abs(float(text) - c) < 1e-4
    rows = real_embedding_signs(RealSubfieldElement(field, [-7], 1), 3)
    assert all(sign == -1 and text == "-7.00" for _, sign, text in rows)
    with pytest.raises(ValueError):
        real_embedding_signs(RealSubfieldElement(field, [], 1), 5)


def test_real_embedding_signs_refine_small_values():
    # e = y - lo is within 10^-12 of zero at label 1, so five significant
    # digits need an interval far narrower than the starting 10^-9
    field = CycloField(50)
    y = RealSubfieldElement(field, [0, 1], 1)
    (_, (lo, hi)), *_ = real_embedding_values(y, Fraction(1, 10**12))
    e = RealSubfieldElement(field, [-lo.numerator, lo.denominator], lo.denominator)
    rows = real_embedding_signs(e, 5)
    fine = real_embedding_values(e, Fraction(1, 10**40))
    for (k, sign, text), (label, (flo, fhi)) in zip(rows, fine):
        assert k == label
        assert sign == (1 if flo > 0 else -1)
        assert text == format_decimal(flo, 5) == format_decimal(fhi, 5)
    assert rows[0][1] == 1 and 0 < Fraction(rows[0][2]) < Fraction(1, 10**12)


def test_dpsi_matches_float_derivative():
    field = CycloField(50)
    # dpsi_quotient(1) = 1 / Psi_50'(y) at y = zeta + zeta^-1
    e = real_subfield(dpsi_quotient(field.one()))
    dpsi = PSI_50.derivative()
    for k, (lo, hi) in real_embedding_values(e, Fraction(1, 10**9)):
        target = dpsi(2 * math.cos(2 * math.pi * k / 50))
        assert abs(float((lo + hi) / 2) * target - 1) < 1e-5


def test_trace_form_lattice():
    field = CycloField(50)
    a = twist_element_parts(field)["a"]
    lattice, isometry = build_trace_form_lattice(field, a)
    assert lattice.rank == 20
    row = [lattice.gram[0, j] for j in range(20)]
    assert tuple(row) == TRACE_ROW
    for i in range(20):
        for j in range(20):
            assert lattice.gram[i, j] == TRACE_ROW[abs(i - j)]
    assert isometry.charpoly() == PHI_50
    assert lattice.det == 45030005
    assert lattice.signature() == (2, 18)
    assert lattice.is_even()


def test_trace_form_matches_element_traces():
    # oracle: each Gram entry as the trace of an explicit element product
    rng = random.Random(71)
    for n in (12, 15, 50):
        field = CycloField(n)
        y = field.zeta_power(1) + field.zeta_power(-1)
        for _ in range(3):
            b = field.element(integer_coeffs(rng, field.degree))
            a = b + b.conj()
            if a.norm() == 0:
                continue
            w = dpsi_quotient(a)
            assert w * field.psi_n.derivative()(y) == a
            lattice, _ = build_trace_form_lattice(field, a)
            for i in range(field.degree):
                for j in range(field.degree):
                    x = w * field.zeta_power(i) * field.zeta_power(j).conj()
                    assert lattice.gram[i, j] == x.trace()


def test_trace_form_lattice_rejections():
    field = CycloField(50)
    with pytest.raises(ValueError):
        build_trace_form_lattice(field, field.element([Fraction(1, 2)]))
    with pytest.raises(ValueError):
        build_trace_form_lattice(field, field.zeta_power(1))
