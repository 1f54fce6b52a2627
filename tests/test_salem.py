import math

import pytest

from k3glue.cyclotomic import cyclotomic_poly
from k3glue.matrices import charpoly, companion
from k3glue.polynomials import IntPoly
from k3glue.salem import (
    EPSILON_BY_INDEX,
    EXCLUDED_ALPHAS,
    TraceCandidate,
    admissible_values,
    candidate_pairs,
    cross_validate,
    hkl_realizable,
    salem_value,
    square_condition_filter,
    theorem_b_set,
)

PAIRS = (
    (1, 20), (2, 20), (3, 10), (4, 10), (6, 10), (5, 5), (8, 5), (10, 5),
    (12, 5), (11, 2), (22, 2), (25, 1), (33, 1), (44, 1), (50, 1), (66, 1),
)

TRACE_SET_200 = [
    2, 3, 7, 14, 18, 23, 34, 38, 47, 62, 66, 79, 83, 98, 102, 119, 123,
    142, 146, 167, 194, 198,
]


def test_candidate_pairs_golden():
    assert candidate_pairs() == PAIRS
    for l, m in PAIRS:
        from k3glue.arith import euler_phi

        assert m * euler_phi(l) == 20


def test_trace_candidate_validation():
    with pytest.raises(ValueError):
        TraceCandidate(2, 50, 1)
    with pytest.raises(ValueError):
        TraceCandidate(3, 7, 1)
    c = TraceCandidate(3, 50, 1)
    assert c.epsilon == -1
    assert c.alpha == 1
    assert TraceCandidate(7, 5, 5).alpha == 3
    assert TraceCandidate(4, 50, 1).alpha is None  # 4 - 2 = 2 is no square
    assert TraceCandidate(5, 3, 10).epsilon is None


def full_polynomial(candidate):
    """F = (X^2 - tau X + 1) * Phi_l^m, expanded."""
    return IntPoly([1, -candidate.tau, 1]) * cyclotomic_poly(candidate.l) ** candidate.m


def test_the_pipeline_shape_passes_the_filter():
    c = TraceCandidate(3, 50, 1)
    r = square_condition_filter(c)
    assert r.at_1 == -1
    assert r.at_minus_1 == 25
    assert r.signed_product == 25
    assert r.passed
    f = full_polynomial(c)
    assert f.degree == 22
    assert f.coeffs == tuple(reversed(f.coeffs))


def test_filter_and_closed_form_agree():
    # oracle: evaluate the expanded degree-22 F at X = 1 and X = -1
    for tau in range(3, 101):
        for l, m in candidate_pairs():
            c = TraceCandidate(tau, l, m)
            r = square_condition_filter(c)
            f = full_polynomial(c)
            at_1, at_minus_1 = f(1), f(-1)
            signed = -at_1 * at_minus_1
            passed = all(
                x >= 0 and math.isqrt(x) ** 2 == x for x in (abs(at_1), abs(at_minus_1), signed)
            )
            assert (r.at_1, r.at_minus_1, r.signed_product, r.passed) == (
                at_1,
                at_minus_1,
                signed,
                passed,
            )


def test_admissible_values_goldens():
    def shapes(tau):
        return [(r.l, r.m, r.epsilon, r.alpha, r.aux_square) for r in admissible_values(tau)]

    assert shapes(3) == [(2, 20, -1, 1, None), (10, 5, -1, 1, 25), (50, 1, -1, 1, 25)]
    assert shapes(6) == [(2, 20, -1, 2, None)]
    assert shapes(7) == [(1, 20, 1, 3, None), (5, 5, 1, 3, 25), (25, 1, 1, 3, 25)]
    assert shapes(11) == [(2, 20, -1, 3, None)]
    assert shapes(14) == [(1, 20, 1, 4, None)]
    assert shapes(18) == [(2, 20, -1, 4, None), (10, 5, -1, 4, 100), (50, 1, -1, 4, 100)]
    assert shapes(4) == []
    assert shapes(5) == []
    with pytest.raises(ValueError):
        admissible_values(2)


def test_admissible_routes_always_carry_epsilon():
    # only the six indices with an epsilon ever survive the filter
    for tau in range(3, 501):
        for route in admissible_values(tau):
            assert route.epsilon is not None
            assert route.l in EPSILON_BY_INDEX
            assert route.alpha is not None
            assert route.alpha * route.alpha == tau + 2 * route.epsilon


def test_hkl_axiom_table():
    assert not hkl_realizable(3, 1)
    assert all(hkl_realizable(a, 1) for a in range(4, 30))
    assert not hkl_realizable(5, -1)
    assert not hkl_realizable(17, -1)
    assert hkl_realizable(4, -1)
    assert hkl_realizable(6, -1)
    with pytest.raises(ValueError):
        hkl_realizable(4, 0)


def test_lemma_ruling_out():
    # tau = alpha^2 + 2 is excluded when the Phi_2^20 route has no
    # Hashimoto-Keum-Lee witness and the Phi_10^5 / Phi_50 routes fail
    # the necessary condition, because 5 does not divide alpha^2 + 4
    for alpha in EXCLUDED_ALPHAS:
        assert not hkl_realizable(alpha, -1)
        assert (alpha * alpha + 4) % 5 != 0
    # 1 is realized by the certified trace-3 pipeline, 4 and 40 by the table
    for alpha in (1, 4, 40):
        assert alpha not in EXCLUDED_ALPHAS
    # every other alpha without a table witness is excluded
    assert EXCLUDED_ALPHAS == tuple(
        alpha for alpha in range(2, 100) if not hkl_realizable(alpha, -1)
    )


def test_theorem_b_set():
    assert theorem_b_set(20) == [2, 3, 7, 14, 18]
    assert theorem_b_set(200) == TRACE_SET_200
    assert theorem_b_set(2) == [2]
    assert set(theorem_b_set(100)) <= set(theorem_b_set(200))
    with pytest.raises(ValueError):
        theorem_b_set(1)


def test_every_member_above_2_passes_the_necessary_condition():
    for tau in theorem_b_set(200):
        if tau == 2:
            continue
        assert admissible_values(tau)


def test_cross_validation_to_200():
    report = cross_validate(200, pipeline_certified=True)
    assert report.mismatches == 0
    assert all(r.consistent for r in report.rows)
    assert report.row(3).witness == "certified pipeline (trace 3)"
    assert report.row(7).witness == "squaring identity: trace 3 -> 7"
    assert report.row(14).witness == "HKL axiom (alpha=4, epsilon=+1)"
    assert report.row(18).witness == "HKL axiom (alpha=4, epsilon=-1)"
    for tau in (6, 11, 27):
        row = report.row(tau)
        assert not row.in_closed_form
        assert row.routes and row.witness is None
        assert row.note == "necessary passed, no witness"
    text = report.to_text()
    assert text.endswith("mismatches 0\n")
    assert "tau=6 closed_form=no routes=l2 witness=- note=necessary passed, no witness" in text
    with pytest.raises(ValueError):
        cross_validate(2, True)


def test_uncertified_pipeline_leaves_traces_3_and_7_without_witness():
    report = cross_validate(20, pipeline_certified=False)
    for tau in (3, 7):
        row = report.row(tau)
        assert row.in_closed_form and row.routes
        assert row.witness is None
        assert row.note == "necessary passed, no witness"
        assert not row.consistent
    assert report.row(14).witness == "HKL axiom (alpha=4, epsilon=+1)"
    assert report.mismatches == 2


def test_row_outside_the_report_raises_key_error():
    report = cross_validate(20, True)
    assert report.row(3).tau == 3 and report.row(20).tau == 20
    for tau in (-1, 0, 2, 21, 40):
        with pytest.raises(KeyError):
            report.row(tau)


def test_row_consistency_definition():
    report = cross_validate(60, True)
    members = set(theorem_b_set(60))
    for row in report.rows:
        assert row.in_closed_form == (row.tau in members)
        assert row.consistent == (
            row.in_closed_form == (bool(row.routes) and row.witness is not None)
        )


def test_squaring_identity_family():
    for tau in range(3, 31):
        c = companion(IntPoly([1, -tau, 1]))
        assert charpoly(c @ c) == IntPoly([1, -(tau * tau - 2), 1])


def test_salem_value_goldens():
    v3 = salem_value(3)
    assert v3.decimal == "2.6180"
    assert v3.minimal_polynomial == IntPoly([1, -3, 1])
    assert not v3.degenerate
    assert float(v3.interval[0]) <= (3 + math.sqrt(5)) / 2 <= float(v3.interval[1])
    assert salem_value(7).decimal == "6.8541"
    v2 = salem_value(2)
    assert v2.degenerate and v2.decimal == "1.0000"
    with pytest.raises(ValueError):
        salem_value(1)
    with pytest.raises(ValueError):
        salem_value(3, digits=0)


def test_salem_value_matches_quadratic_formula():
    for tau in (3, 7, 14, 23, 98):
        for digits in (4, 6, 9):
            got = salem_value(tau, digits)
            target = (tau + math.sqrt(tau * tau - 4)) / 2
            assert abs(float(got.decimal) - target) < 10.0 ** (2 - digits)
            lo, hi = got.interval
            assert float(lo) <= target <= float(hi)


def test_salem_traces_multiply_consistently():
    # lambda(tau)^2 = lambda(tau^2 - 2): endpoints of the squared interval
    # must straddle the other root's interval
    for tau in (3, 4, 5):
        lam = salem_value(tau, 12)
        lam2 = salem_value(tau * tau - 2, 12)
        lo = lam.interval[0] ** 2
        hi = lam.interval[1] ** 2
        assert lo <= lam2.interval[1] and lam2.interval[0] <= hi
