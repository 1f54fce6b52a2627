"""Byte-for-byte golden outputs of the command line.

Each `.out` file under tests/golden/ holds the exact stdout of one
command that exits 0, and each `.err` file the exact stderr of one
`glue` that finds no glue map and exits 1; a refactor that changes a
single witness character fails here, where the determinism tests (same
output twice in one process) would still pass.
The lattice pair L, L(-1) is A2 + [[2,1],[1,-2]] with the isometry
(rotation of order 3) + [[1,1],[1,2]], glue group Z/15. The pair swap,
swap(-1) is A1 + A1 + A2 with the isometry swapping the two A1 blocks:
glue orders (2, 6), so `lattice-info` prints an off-diagonal torsion_b
line, and the 2-part of `glue` goes through the exhaustive search with
a non-identity action.

The failing pairs reach each glue-map search strategy with actions that
no map intertwines: Z/4 with the identity against Z/4(-1) with -1 (the
cyclic scalars); L1 = 3001 [[2,1],[1,-2]] with T = [[1,1],[1,2]] against
L1(-1) with T^3 (the eigenlines of the 3001-part); swap against swap(-1)
with the identity (the exhaustive search over the 2-part).
"""

import hashlib
from pathlib import Path

import pytest

from k3glue.cli import main

GOLDEN = Path(__file__).with_name("golden")

#: the value perfbench/checks.py pins for `certify-k3 --machine`
CERTIFY_SHA256 = "d60e6e75608999241b58e14a989d65a9ce2419b5804f4d1bdc9f2e0378f8ca24"

CASES = {
    "certify_k3_machine": ["certify-k3", "--machine"],
    "gram_k3": ["gram", "--which", "K3"],
    "gram_l2": ["gram", "--which", "L2"],
    "table1": ["table1"],
    "table1_digits_30": ["table1", "--digits", "30"],
    "cross_validate_200": ["cross-validate", "--max", "200"],
    "lattice_info_l": ["lattice-info", "{golden}/pair_l.lat"],
    "lattice_info_l_neg": ["lattice-info", "{golden}/pair_l_neg.lat"],
    "glue_l_l_neg": ["glue", "{golden}/pair_l.lat", "{golden}/pair_l_neg.lat"],
    "lattice_info_swap": ["lattice-info", "{golden}/pair_swap.lat"],
    "glue_swap_swap_neg": ["glue", "{golden}/pair_swap.lat", "{golden}/pair_swap_neg.lat"],
}

FAILURES = {
    "glue_fail_cyclic": ["glue", "{golden}/cyclic_4.lat", "{golden}/cyclic_4_neg.lat"],
    "glue_fail_eigen": ["glue", "{golden}/l1.lat", "{golden}/l1_neg_cubed.lat"],
    "glue_fail_exhaustive": [
        "glue", "{golden}/pair_swap.lat", "{golden}/pair_swap_neg_identity.lat",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("K3GLUE_DIGITS", raising=False)
    argv = [arg.format(golden=GOLDEN) for arg in CASES[name]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_cli_failure_matches_golden(name, capsys):
    argv = [arg.format(golden=GOLDEN) for arg in FAILURES[name]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / f"{name}.err").read_bytes()


def test_certify_golden_is_the_benchmark_pin():
    data = (GOLDEN / "certify_k3_machine.out").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CERTIFY_SHA256
