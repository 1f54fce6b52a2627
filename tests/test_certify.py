import dataclasses

import pytest

from k3glue.certify import (
    EMBEDDING_REFERENCE,
    GLUE_ORDER,
    L1_GRAM,
    TWISTED_GRAM_ROW,
    assemble_k3,
    build_l1,
    build_l2,
    certify,
)
from k3glue.gluing import GlueComponent, GlueMap, anti_isometry_scalars
from k3glue.lattices import Lattice
from k3glue.matrices import IntMatrix
from k3glue.polynomials import IntPoly

CLAIMS = (
    "L1.gram",
    "L1.even",
    "L1.signature",
    "L1.det",
    "L1.isometry.preserves_form",
    "L1.isometry.charpoly",
    "L1.glue.structure",
    "L1.glue.5part.generator",
    "L1.glue.5part.action",
    "L1.glue.3001part.action",
    "L1.norms.divisible",
    "L1.no_minus2_vectors",
    "element.integral",
    "element.involution_fixed",
    "element.unit_factors",
    "element.norm",
    "element.divides_3001",
    "L2.even",
    "L2.signature",
    "L2.gram.toeplitz",
    "L2.gram.first_row",
    "L2.det",
    "L2.isometry.preserves_form",
    "L2.isometry.charpoly",
    "L2.glue.structure",
    "L2.glue.5part.generator",
    "L2.glue.5part.action",
    "L2.glue.3001part.action",
    "L2.embeddings.sign_pattern",
    "L2.embeddings.reference_values",
    "K3.glue_map",
    "K3.rank",
    "K3.even",
    "K3.unimodular",
    "K3.signature",
    "K3.overlattice_index",
    "K3.isometry.preserves_form",
    "K3.isometry.charpoly",
    "K3.sublattice1.primitive",
    "K3.sublattice2.primitive",
    "K3.sublattice1.invariant",
    "K3.complement.signature",
    "K3.complement.charpoly",
    "F.at_1",
    "F.at_minus_1",
    "F.signed_product",
)


def test_full_certification_passes():
    report = certify()
    assert report.passed
    assert report.claims() == CLAIMS
    assert not report.failures()


def test_builders_agree_with_frozen_constants():
    l1, iso1 = build_l1()
    assert l1.gram == IntMatrix(L1_GRAM)
    assert iso1.charpoly() == IntPoly([1, -3, 1])
    l2, iso2 = build_l2()
    assert tuple(l2.gram[0, j] for j in range(20)) == TWISTED_GRAM_ROW
    assert abs(l1.det) == abs(l2.det) == GLUE_ORDER
    assert len(EMBEDDING_REFERENCE) == 10


def test_assembly_shape():
    assembly = assemble_k3()
    amb = assembly.result.ambient
    assert amb.rank == 22
    assert assembly.result.index**2 == GLUE_ORDER**2
    assert assembly.isometry.lattice is amb


def test_machine_output_is_deterministic():
    a, b = certify(), certify()
    ma, mb = a.to_machine(), b.to_machine()
    assert ma == mb
    lines = ma.splitlines()
    assert lines[0] == "format k3glue.certification.v1"
    assert lines[1] == "verdict pass"
    assert lines[2] == "checks 46"
    assert len(lines) == 3 + 46
    for line, claim in zip(lines[3:], CLAIMS):
        assert line.startswith(f"check {claim} pass ")


def test_text_output_summary_line():
    text = certify().to_text()
    assert text.rstrip().endswith("46 checks, 0 failed: PASS")
    assert "fail" not in text.splitlines()[0]


def test_gram_corruption_fails_only_unimodularity():
    assembly = assemble_k3()
    g = [list(row) for row in assembly.result.ambient.gram.data]
    g[0][1] += 1
    g[1][0] += 1
    assembly.result = dataclasses.replace(assembly.result, ambient=Lattice(g))
    report = certify(assembly)
    assert not report.passed
    assert [c.claim for c in report.failures()] == ["K3.unimodular"]
    machine = report.to_machine()
    assert machine.splitlines()[1] == "verdict fail"
    assert "check K3.unimodular fail" in machine


def test_glue_scalar_corruption_fails_only_glue_map():
    assembly = assemble_k3()
    gmap = assembly.glue_map
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
        assert gc.matrix[0, 0] in valid
        bad = next(c for c in range(1, 5) if c not in valid)
        components.append(GlueComponent(5, IntMatrix([[bad]]), gc.comp1, gc.comp2))
    assembly.glue_map = GlueMap(gmap.group1, gmap.group2, components)
    report = certify(assembly)
    assert [c.claim for c in report.failures()] == ["K3.glue_map"]


def test_twist_factor_corruption_fails_only_unit_factors():
    # u1 + 1 and -u2 keep unit norms; only a = u1 * u2 * a' catches them
    for name, corrupt in (("u1", lambda u: u + 1), ("u2", lambda u: -1 * u)):
        assembly = assemble_k3()
        assembly.parts = dict(assembly.parts, **{name: corrupt(assembly.parts[name])})
        report = certify(assembly)
        assert {c.claim for c in report.failures()} == {"element.unit_factors"}, name


def test_certify_swallows_probe_exceptions_into_failures():
    assembly = assemble_k3()
    assembly.result = None  # everything reading the gluing result must fail closed
    report = certify(assembly)
    assert not report.passed
    failed = {c.claim for c in report.failures()}
    assert "K3.rank" in failed
    assert "L1.gram" not in failed
    for c in report.failures():
        assert c.witness.startswith("error=") or c.witness
