"""Exact integer and rational matrices.

IntMatrix is immutable.  A rational matrix is an IntMatrix of
numerators with one positive common denominator (exact_quotient): the
package's one rational form, shared by dual vectors (lattices) and
cyclotomic elements.  The module functions implement the fraction-free
kernels: Bareiss determinant, Faddeev-LeVerrier characteristic
polynomial, Smith and Hermite normal forms with transforms, one
Bareiss solver for rational systems and inverses, and the signature of
a symmetric matrix by fraction-free congruence elimination.
"""

import math
from dataclasses import dataclass

from .polynomials import IntPoly


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("data",)

    def __init__(self, rows):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0])

    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def _shape_match(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._shape_match(other)
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix([[scalar * a for a in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        bt = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def transpose(self):
        return IntMatrix(list(zip(*self.data)))

    def is_symmetric(self):
        return self.is_square() and self.data == self.transpose().data

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"


def exact_quotient(m, d):
    """M / d as an IntMatrix; raises ValueError when it is not integral."""
    if any(x % d for row in m.data for x in row):
        raise ValueError("matrix has non-integer entries")
    return IntMatrix([[x // d for x in row] for row in m.data])


def block_diagonal(a, b):
    """The block matrix [[A, 0], [0, B]]."""
    return IntMatrix(
        [row + (0,) * b.cols for row in a.data] + [(0,) * a.cols + row for row in b.data]
    )


def join_columns(a, b):
    """The matrix [A | B]: the columns of A followed by those of B."""
    if a.rows != b.rows:
        raise ValueError("dimension mismatch")
    return IntMatrix([ra + rb for ra, rb in zip(a.data, b.data)])


def det(m):
    """Determinant by Bareiss fraction-free elimination."""
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly(m):
    """Characteristic polynomial det(X*I - M) by Faddeev-LeVerrier."""
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = m @ work
        tr = sum(am[i, i] for i in range(n))
        q, r = divmod(tr, k)
        if r:
            raise AssertionError("Faddeev-LeVerrier trace division not exact")
        coeffs[n - k] = -q
        if k < n:
            work = am + coeffs[n - k] * IntMatrix.identity(n)
    return IntPoly(coeffs)


def poly_of_matrix(p, m):
    """Evaluate an integer polynomial at a square matrix (Horner)."""
    if not m.is_square():
        raise ValueError("need a square matrix")
    n = m.rows
    acc = IntMatrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc @ m + c * IntMatrix.identity(n)
    return acc


def companion(p):
    """Companion matrix of a monic integer polynomial of degree >= 1."""
    if p.degree < 1 or not p.is_monic():
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    return IntMatrix(
        [
            [
                -p.coeffs[i] if j == n - 1 else (1 if i == j + 1 else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


@dataclass(frozen=True)
class SnfResult:
    """U @ M @ V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def _snf_shape(m):
    """Diagonal, nonnegative, zeros trailing (divisibility not required)."""
    if any(m[i, j] for i in range(m.rows) for j in range(m.cols) if i != j):
        return False
    seen_zero = False
    for i in range(min(m.rows, m.cols)):
        d = m[i, i]
        if d < 0:
            return False
        if d == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def smith_normal_form(m):
    """Smith normal form with transforms.

    Diagonalizes by alternating row and column Hermite reductions (which
    keep every entry reduced modulo a pivot, avoiding the coefficient
    blow-up of naive elimination), then repairs the divisibility chain
    with explicit 2x2 Bezout blocks.
    """
    rows, cols = m.rows, m.cols
    a = m
    u = IntMatrix.identity(rows)
    v = IntMatrix.identity(cols)
    for _ in range(4 * (rows + cols) + 8):
        if _snf_shape(a):
            break
        h, u1 = hermite_normal_form(a)
        a, u = h, u1 @ u
        if _snf_shape(a):
            break
        ht, v1 = hermite_normal_form(a.transpose())
        a, v = ht.transpose(), v @ v1.transpose()
    else:
        raise AssertionError("alternating Hermite reduction did not converge")

    aa = [list(row) for row in a.data]
    uu = [list(row) for row in u.data]
    vv = [list(row) for row in v.data]
    size = min(rows, cols)
    # HNF pivots are positive and zero rows sink, so zeros already trail
    changed = True
    while changed:
        changed = False
        for i in range(size):
            p = aa[i][i]
            if p == 0:
                continue
            for j in range(i + 1, size):
                q = aa[j][j]
                if q % p == 0:
                    continue
                g = math.gcd(p, q)
                x, y = _bezout(p, q)
                # rows: (i, j) block <- [[x, y], [-q/g, p/g]], det 1
                ri, rj = aa[i], aa[j]
                aa[i] = [x * s + y * t for s, t in zip(ri, rj)]
                aa[j] = [(-q // g) * s + (p // g) * t for s, t in zip(ri, rj)]
                ri, rj = uu[i], uu[j]
                uu[i] = [x * s + y * t for s, t in zip(ri, rj)]
                uu[j] = [(-q // g) * s + (p // g) * t for s, t in zip(ri, rj)]
                # columns: col i += col j, then clear the (i, j) remainder
                for r in range(rows):
                    aa[r][i] += aa[r][j]
                for r in range(cols):
                    vv[r][i] += vv[r][j]
                w = y * q // g
                for r in range(rows):
                    aa[r][j] -= w * aa[r][i]
                for r in range(cols):
                    vv[r][j] -= w * vv[r][i]
                p = aa[i][i]
                changed = True

    seen_zero = False
    for i in range(size):
        if aa[i][i] == 0:
            seen_zero = True
        elif seen_zero:
            raise AssertionError("zero elementary divisor out of place")
    result = SnfResult(IntMatrix(uu), IntMatrix(aa), IntMatrix(vv))
    if result.U @ m @ result.V != result.D:
        raise AssertionError("Smith normal form transforms are inconsistent")
    return result


def _bezout(p, q):
    """(x, y) with x*p + y*q = gcd(p, q)."""
    r0, r1 = p, q
    x0, x1, y0, y1 = 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if r0 < 0:
        x0, y0 = -x0, -y0
    return x0, y0


def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ M, U unimodular, pivots positive, and
    entries above each pivot reduced into [0, pivot).
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for j in range(cols):
        if r == rows:
            break
        # euclidean passes: bring the smallest entry to row r, floor-reduce below
        while True:
            nz = [i for i in range(r, rows) if a[i][j]]
            if not nz:
                break
            i0 = min(nz, key=lambda k: (abs(a[k][j]), k))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            clean = True
            for i in range(r + 1, rows):
                if a[i][j]:
                    row_op(i, r, a[i][j] // a[r][j])
                    if a[i][j]:
                        clean = False
            if clean:
                break
        if a[r][j] == 0:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                row_op(i, r, q)
        r += 1
    return IntMatrix(a), IntMatrix(u)


def kernel_basis(m):
    """Columns spanning the saturated integer kernel {x : M x = 0}.

    Returns None when the kernel is trivial.
    """
    snf = smith_normal_form(m)
    diag = snf.diagonal
    keep = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    if not keep:
        return None
    return IntMatrix([[snf.V[i, j] for j in keep] for i in range(m.cols)])


def solve_rational(a, b):
    """Exact solution of A X = B over Q, as (X, d) with A @ X == d * B.

    A is square or tall with independent columns; B has A's row count.
    X is integral and d is the least positive common denominator of
    the solution.  One fraction-free Gauss-Jordan pass (Bareiss) over
    [A | B]: after the k-th pivot every entry is a (k+1)-minor, so each
    division by the previous pivot is exact.  Raises ValueError when the
    columns of A are dependent or the system has no solution.
    """
    m, n = a.rows, a.cols
    rows = list(join_columns(a, b).data)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, m) if rows[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        p = top[k]
        for i in range(m):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    # pivot rows now read [d I | d A_top^-1 B_top], d = det(A_top) for the
    # permuted top n rows; the rows below must have vanished entirely
    if any(any(row[n:]) for row in rows[n:]):
        raise ValueError("inconsistent system")
    sol = [row[n:] for row in rows[:n]]
    g = math.gcd(prev, *(x for row in sol for x in row))
    if prev < 0:
        g = -g
    return IntMatrix([[x // g for x in row] for row in sol]), prev // g


def rational_inverse(m):
    """Exact inverse over Q, as (N, d) with M @ N == d * I."""
    if not m.is_square():
        raise ValueError("inverse needs a square matrix")
    return solve_rational(m, IntMatrix.identity(m.rows))


def signature_symmetric(g):
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix.

    Fraction-free symmetric (congruence) elimination, the Bareiss loop
    of det kept symmetric: the k-th pivot is the k-th leading principal
    minor D_k of a matrix congruent to G, so by Sylvester's law of
    inertia n_plus counts the k where D_k and D_(k-1) share a sign
    (D_0 = 1).  A zero pivot takes a symmetric swap with a later nonzero
    diagonal entry; when every remaining diagonal entry is zero,
    e_k += e_j for some a_kj != 0 makes the pivot 2 a_kj.  Raises
    ValueError on non-symmetric or singular input.
    """
    if not g.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    n = g.rows
    a = [list(row) for row in g.data]
    n_plus = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise ValueError("singular matrix has no signature")
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a:
                    row[k] += row[j]
        p = a[k][k]
        top = a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1:] = [(p * x - f * y) // prev for x, y in zip(a[i][k + 1:], top)]
        if (p > 0) == (prev > 0):
            n_plus += 1
        prev = p
    return (n_plus, n - n_plus)
