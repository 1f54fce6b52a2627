"""Independent output checks for the benchmark's jobs.

Nothing here imports k3glue: determinants, signatures and the trace set
are recomputed independently, so a defect in the program cannot hide in
the oracle. Each check returns None when the job's output is right and
a one-line reason otherwise.
"""

import hashlib
import re
from fractions import Fraction

#: sha256 of `certify-k3 --machine` stdout, captured from the seed
#: implementation; the 46-check v1 report must stay byte-identical
CERTIFY_SHA256 = "d60e6e75608999241b58e14a989d65a9ce2419b5804f4d1bdc9f2e0378f8ca24"

#: alpha with alpha^2 + 2 outside the trace set (the paper's Lemma)
EXCLUDED_ALPHAS = (2, 3, 5, 7, 13, 17)


def bareiss_det(rows):
    """Determinant of a square integer matrix, fraction-free."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def congruence_signature(rows):
    """(n_plus, n_minus) of a nondegenerate symmetric integer matrix by
    symmetric Gaussian elimination (Sylvester's law of inertia)."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    plus = minus = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for r in a:
                    r[k], r[j] = r[j], r[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    raise ValueError("degenerate form")
                # e_k <- e_k + e_j makes the pivot 2 a[k][j] != 0
                for c in range(n):
                    a[k][c] += a[j][c]
                for r in a:
                    r[k] += r[j]
        piv = a[k][k]
        if piv > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                ri, rk = a[i], a[k]
                for c in range(k, n):
                    ri[c] -= f * rk[c]
        for i in range(k + 1, n):
            a[k][i] = a[i][k] = Fraction(0)
    return plus, minus


def parse_lattice(text):
    """(gram, isometry or None) rows from a lattice document."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][1])
    if lines[0][0] != "rank" or lines[1] != ["gram"]:
        raise ValueError("not a lattice document")
    gram = [[int(x) for x in row] for row in lines[2:2 + n]]
    iso = None
    if len(lines) > 2 + n:
        if lines[2 + n] != ["isometry"]:
            raise ValueError("unexpected section")
        iso = [[int(x) for x in row] for row in lines[3 + n:3 + 2 * n]]
        if len(lines) != 3 + 2 * n:
            raise ValueError("trailing lines")
    elif len(lines) != 2 + n:
        raise ValueError("short gram section")
    if any(len(r) != n for r in gram + (iso or [])):
        raise ValueError("ragged rows")
    return gram, iso


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def trace_set(bound):
    """The closed-form trace set intersected with [2, bound]."""
    out = {2}
    alpha = 3
    while alpha * alpha - 2 <= bound:
        out.add(alpha * alpha - 2)
        alpha += 1
    alpha = 1
    while alpha * alpha + 2 <= bound:
        if alpha not in EXCLUDED_ALPHAS:
            out.add(alpha * alpha + 2)
        alpha += 1
    return out


def check_certify(returncode, stdout, stderr, _case):
    if returncode != 0:
        return f"exit {returncode}"
    lines = stdout.splitlines()
    if "verdict pass" not in lines or "checks 46" not in lines:
        return "report does not pass 46 checks"
    if hashlib.sha256(stdout.encode()).hexdigest() != CERTIFY_SHA256:
        return "stdout differs from the golden report"
    return None


_ROW = re.compile(r"tau=(\d+) closed_form=(yes|no) ")


def check_cross_validate(returncode, stdout, stderr, case):
    if returncode != 0:
        return f"exit {returncode}"
    lines = stdout.splitlines()
    if not lines or lines[-1] != "mismatches 0":
        return "mismatches line missing or nonzero"
    rows = lines[:-1]
    bound = case["max"]
    if len(rows) != bound - 2:
        return f"{len(rows)} rows, expected {bound - 2}"
    want = trace_set(bound)
    for tau, line in enumerate(rows, start=3):
        m = _ROW.match(line)
        if m is None or int(m.group(1)) != tau:
            return f"malformed row for tau={tau}"
        if (m.group(2) == "yes") != (tau in want):
            return f"closed_form wrong at tau={tau}"
        if "MISMATCH" in line:
            return f"row tau={tau} marked MISMATCH"
    return None


def check_lattice_info(returncode, stdout, stderr, case):
    if returncode != 0:
        return f"exit {returncode}"
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        fields.setdefault(key, value)
    want = {
        "rank": str(case["rank"]),
        "even": "yes",
        "det": str(case["det"]),
        "signature": "({},{})".format(*case["signature"]),
        "glue_order": str(abs(case["det"])),
    }
    for key, value in want.items():
        if fields.get(key) != value:
            return f"{key} is {fields.get(key)!r}, expected {value!r}"
    return None


def check_glue(returncode, stdout, stderr, case):
    expected = case["expected"]
    if expected != "glued":
        if returncode != 1 or stdout or "no glue map" not in stderr:
            return f"expected rejection ({expected}), got exit {returncode}"
        return None
    if returncode != 0:
        return f"exit {returncode}: {stderr.strip()[-200:]}"
    try:
        gram, iso = parse_lattice(stdout)
    except (ValueError, IndexError) as exc:
        return f"unparseable output: {exc}"
    n = len(gram)
    if n != 2 * case["rank"]:
        return f"rank {n}, expected {2 * case['rank']}"
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        return "gram not symmetric"
    if any(gram[i][i] % 2 for i in range(n)):
        return "gram not even"
    if abs(bareiss_det(gram)) != 1:
        return "gram not unimodular"
    if iso is None:
        return "isometry missing"
    if _matmul(_matmul(list(map(list, zip(*iso))), gram), iso) != gram:
        return "isometry does not preserve the form"
    plus, minus = case["signature"]
    if congruence_signature(gram) != (plus + minus, minus + plus):
        return "signature is not that of L + L(-1)"
    return None


CHECKS = {
    "certify-k3": check_certify,
    "cross-validate": check_cross_validate,
    "lattice-info": check_lattice_info,
    "glue": check_glue,
}

