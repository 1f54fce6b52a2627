"""End-to-end gate: every headline number the package is built to certify.

Each test re-derives its expected values from literals frozen in this file
and prints a single PASS/FAIL line, so a bare `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import dataclasses
import functools
import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

from k3glue.arith import is_perfect_square
from k3glue.certify import assemble_k3, build_l1, build_l2, certify
from k3glue.cyclotomic import (
    cyclotomic_poly,
    dpsi_quotient,
    norm_real_subfield,
    real_embedding_signs,
    real_embedding_values,
    real_subfield,
)
from k3glue.gluing import GlueComponent, GlueMap, anti_isometry_scalars
from k3glue.lattices import Lattice, glue_group, induced_glue_action, twist
from k3glue.matrices import IntMatrix, charpoly
from k3glue.polynomials import IntPoly
from k3glue.salem import (
    TraceCandidate,
    cross_validate,
    square_condition_filter,
    theorem_b_set,
)

TWISTED_ROW = (
    -10, 8, -6, 3, -1, -2, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3,
)
FIVE_GEN_L1 = (Fraction(2, 5), Fraction(1, 5))
FIVE_GEN_L2 = tuple(
    Fraction(n, 5)
    for n in (2, 3, 2, 3, 2, 1, -1, 1, -1, 1, 1, -1, 1, -1, 1, -3, -2, -3, -2, -3)
)
REFERENCE_PRINTS = (
    "-0.11372", "-0.067094", "0.028027", "-0.026605", "-0.11141",
    "-0.10565", "-0.029497", "-0.5185", "-1.5061", "-2.5493",
)
TRACE_SET_200 = (
    2, 3, 7, 14, 18, 23, 34, 38, 47, 62, 66, 79, 83, 98, 102, 119, 123,
    142, 146, 167, 194, 198,
)


def gate(label):
    """Print one PASS/FAIL line per acceptance test, then defer to pytest."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPT {label}: FAIL")
                raise
            print(f"ACCEPT {label}: PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def assembly():
    return assemble_k3()


def quotient_element(assembly):
    return real_subfield(dpsi_quotient(assembly.parts["a"]))


@gate("full-certification")
def test_every_certified_claim_passes(assembly):
    report = certify(assembly)
    assert report.passed
    assert not report.failures()
    assert len(report.claims()) == 46
    ambient = assembly.result.ambient
    inv = ambient.invariants()
    assert inv["rank"] == 22
    assert inv["even"]
    assert abs(inv["det"]) == 1
    assert inv["signature"] == (3, 19)
    expected = IntPoly([1, -3, 1]) * cyclotomic_poly(50)
    assert charpoly(assembly.isometry.matrix) == expected


@gate("twisted-gram-row")
def test_twisted_gram_is_the_reference_toeplitz_form():
    lattice, _ = build_l2()
    g = lattice.gram.data
    assert g[0] == TWISTED_ROW
    n = len(TWISTED_ROW)
    for i in range(n):
        for j in range(n):
            assert g[i][j] == TWISTED_ROW[abs(i - j)]


@gate("embedding-table")
def test_embedding_table_matches_reference_prints(assembly):
    element = quotient_element(assembly)
    rows = real_embedding_signs(element, 5)
    positive = [label for label, sign, _ in rows if sign > 0]
    assert positive == [7]
    pairs = real_embedding_values(element, Fraction(1, 10**9))
    assert len(pairs) == len(REFERENCE_PRINTS)
    for (_, (lo, hi)), text in zip(pairs, REFERENCE_PRINTS):
        target = Fraction(text)
        decimals = len(text.partition(".")[2])
        tol = Fraction(1, 10**decimals)  # one unit in the last printed digit
        assert target - tol <= lo and hi <= target + tol, text


@gate("glue-arithmetic")
def test_glue_invariants_are_the_exact_claimed_values(assembly):
    gmap = assembly.glue_map
    by_prime = {gc.prime: gc for gc in gmap.components}
    assert sorted(by_prime) == [5, 3001]
    assert gmap.group1.orders == (3001, 15005)
    assert by_prime[5].comp1.orders == (5,)
    assert by_prime[3001].comp1.orders == (3001, 3001)

    def class_order_of(v):
        return next(k for k in range(1, 6) if all((k * c).denominator == 1 for c in v))

    assert class_order_of(FIVE_GEN_L1) == 5
    g1, g2 = gmap.group1, gmap.group2
    assert g1.quadratic(g1.classify(FIVE_GEN_L1)).value == Fraction(2, 5)
    assert class_order_of(FIVE_GEN_L2) == 5
    assert assembly.lattice2.bilinear(FIVE_GEN_L2, FIVE_GEN_L2) == Fraction(-142, 5)
    assert g2.quadratic(g2.classify(FIVE_GEN_L2)).value == Fraction(8, 5)  # -2/5 mod 2

    a1 = induced_glue_action(assembly.isometry1)
    a2 = induced_glue_action(assembly.isometry2)
    assert a1.sylow_matrix(by_prime[5].comp1).data == ((4,),)  # -id mod 5
    assert a2.sylow_matrix(by_prime[5].comp2).data == ((4,),)
    # ascending coefficients of (X + 121)(X - 124) reduced mod 3001
    linear_factors = ((121 * -124) % 3001, (121 - 124) % 3001, 1)
    assert a1.charpoly_mod_p(by_prime[3001].comp1) == linear_factors
    assert a2.charpoly_mod_p(by_prime[3001].comp2) == linear_factors

    assert norm_real_subfield(real_subfield(assembly.parts["a"])) == 3001


@gate("square-values")
def test_charpoly_unit_values_pass_the_square_tests(assembly):
    result = square_condition_filter(TraceCandidate(3, 50, 1))
    assert abs(result.at_1) == 1
    assert abs(result.at_minus_1) == 25
    assert result.signed_product == 25
    assert result.passed
    for value in (abs(result.at_1), abs(result.at_minus_1), result.signed_product):
        assert is_perfect_square(value)
    f = charpoly(assembly.isometry.matrix)
    assert f(1) == result.at_1 and f(-1) == result.at_minus_1


@gate("trace-set")
def test_trace_set_up_to_200_is_exact():
    assert tuple(theorem_b_set(200)) == TRACE_SET_200


@gate("cross-validation")
def test_cross_validation_up_to_200_has_no_mismatches(assembly):
    report = cross_validate(200, certify(assembly).passed)
    text = report.to_text()
    assert text.endswith("mismatches 0\n")
    for tau in (6, 11):
        line = f"tau={tau} closed_form=no routes=l2 witness=- note=necessary passed, no witness"
        assert line in text
        assert report.row(tau).note == "necessary passed, no witness"


@gate("robustness")
def test_random_suites_and_corruption_isolation():
    spec = importlib.util.spec_from_file_location(
        "_matrix_props", pathlib.Path(__file__).with_name("test_matrices.py")
    )
    props = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(props)
    budget = (
        props.SNF_CASES + props.HNF_CASES + props.CHARPOLY_CASES
        + props.SIGNATURE_CASES
    )
    assert budget >= 1000

    rng = random.Random(7)
    for _ in range(5):
        m = IntMatrix([[rng.randrange(-4, 5) for _ in range(4)] for _ in range(4)])
        p = charpoly(m)
        acc = IntMatrix.zeros(4, 4)
        power = IntMatrix.identity(4)
        for c in p.coeffs:
            acc = acc + power * c
            power = power @ m
        assert acc == IntMatrix.zeros(4, 4)  # Cayley-Hamilton

    l1, t1 = build_l1()
    group = glue_group(l1)
    action = induced_glue_action(t1)

    # image classes of the generators, by classifying the isometry's images
    units = [tuple(int(i == j) for j in range(len(group.orders))) for i in range(len(group.orders))]
    images = [group.classify(t1.apply(x)) for x in group.lifts]
    assert images == [action.matrix.col(j) for j in range(len(images))]
    for i, x in enumerate(images):
        for j, y in enumerate(images):
            assert group.bilinear(x, y) == group.bilinear(units[i], units[j])
        assert group.quadratic(x) == group.quadratic(units[i])

    twisted = twist(t1, IntPoly([3]))
    assert twisted.det == 3 ** l1.rank * l1.det

    broken = assemble_k3()
    g = [list(row) for row in broken.result.ambient.gram.data]
    g[0][1] += 1
    g[1][0] += 1
    broken.result = dataclasses.replace(broken.result, ambient=Lattice(g))
    report = certify(broken)
    assert [c.claim for c in report.failures()] == ["K3.unimodular"]

    broken = assemble_k3()
    gmap = broken.glue_map
    components = []
    for gc in gmap.components:
        if gc.prime != 5:
            components.append(gc)
            continue
        g1, g2 = gmap.group1, gmap.group2
        valid = anti_isometry_scalars(
            g1.quadratic(g1.classify(gc.comp1.lifts[0])),
            g2.quadratic(g2.classify(gc.comp2.lifts[0])),
            5,
        )
        bad = next(c for c in range(1, 5) if c not in valid)
        components.append(GlueComponent(5, IntMatrix([[bad]]), gc.comp1, gc.comp2))
    broken.glue_map = GlueMap(gmap.group1, gmap.group2, components)
    report = certify(broken)
    assert [c.claim for c in report.failures()] == ["K3.glue_map"]
