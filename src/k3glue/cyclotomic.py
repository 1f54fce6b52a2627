"""Exact arithmetic in Q(zeta_n) and the real subfield Q(zeta_n + zeta_n^-1):
traces, norms, the involution, trace-form lattices with their
multiplication-by-zeta isometries, real-embedding sign data, and the
explicit conductor-50 twisting element used by the gluing pipeline.

Elements use the package's one rational form, as matrices do: integer
numerators over one positive denominator, in lowest terms. Reduction
mod Phi_n works on the numerators alone, and every real-embedding
value comes from one refinement path over psi_n's cached root
intervals."""

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .lattices import Lattice, check_isometry
from .matrices import IntMatrix, companion, solve_rational
from .polynomials import (
    IntPoly,
    div_exact,
    format_decimal,
    interval_eval,
    real_root_isolation,
    refine_root,
    resultant,
)


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """n-th cyclotomic polynomial, by exact division of X^n - 1."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = div_exact(poly, cyclotomic_poly(d))
    return poly


def trace_polynomial(field):
    """The degree phi(n)/2 polynomial P with Phi_n(X) = X^(d/2) P(X + 1/X).

    Built by rewriting Phi_n in the basis X^j + X^-j (three-term
    recurrence), then re-expanded and compared against Phi_n exactly.
    """
    phi = field.phi_n
    d = phi.degree
    if d % 2 != 0:
        raise ValueError("trace polynomial needs even degree")
    m = d // 2
    psi = IntPoly([phi.coeffs[m]])
    c_prev = IntPoly([2])  # X^0 + X^-0
    c_cur = IntPoly([0, 1])
    for j in range(1, m + 1):
        psi = psi + c_cur * phi.coeffs[m + j]
        c_prev, c_cur = c_cur, IntPoly([0, 1]) * c_cur - c_prev
    # exact identity check: sum psi_k (X^2+1)^k X^(m-k) == Phi_n
    xsq1 = IntPoly([1, 0, 1])
    expanded = IntPoly([])
    for k, c in enumerate(psi.coeffs):
        expanded = expanded + xsq1**k * IntPoly.monomial(m - k, c)
    if expanded != phi:
        raise ValueError("defining identity fails: no trace polynomial")
    return psi


class CycloField:
    """Q(zeta_n) as Q[X]/(Phi_n), with cached reduction and trace tables."""

    def __init__(self, n):
        self.n = n
        self.phi_n = cyclotomic_poly(n)
        self.degree = self.phi_n.degree

    @cached_property
    def psi_n(self):
        return trace_polynomial(self)

    @cached_property
    def psi_roots(self):
        """Isolating intervals of the roots of psi_n, in embedding-label
        order: label k pairs with the k-th largest root, because 2cos is
        decreasing on (0, pi)."""
        psi = self.psi_n
        roots = real_root_isolation(psi)
        if len(roots) != psi.degree:
            raise ValueError("trace polynomial is not totally real")
        return tuple(reversed(roots))

    @cached_property
    def _powers(self):
        # X^e mod Phi_n for e = 0..n-1, as integer coefficient tuples
        d = self.degree
        table = [tuple(1 if i == e else 0 for i in range(d)) for e in range(d)]
        cur = list(table[-1])
        reducer = tuple(-c for c in self.phi_n.coeffs[:d])
        for _ in range(d, self.n):
            lead = cur[-1]
            cur = [0] + cur[:-1]
            for i in range(d):
                cur[i] += lead * reducer[i]
            table.append(tuple(cur))
        return tuple(table)

    @cached_property
    def _traces(self):
        # power sums of the roots of Phi_n via Newton's identities,
        # extended past the degree by the coefficient recurrence
        a = self.phi_n.coeffs
        d = self.degree
        p = [d]
        for k in range(1, self.n):
            s = -k * a[d - k] if k <= d else 0
            for i in range(1, min(k, d + 1)):
                s -= a[d - i] * p[k - i]
            p.append(s)
        return tuple(p)

    def _reduce(self, nums, den):
        """The element sum_e nums[e] X^e / den; X^e wraps mod n through
        the power table, since X^n = 1 in Q[X]/(Phi_n)."""
        n, d, table = self.n, self.degree, self._powers
        acc = [0] * d
        for e, c in enumerate(nums):
            if c:
                e %= n
                if e < d:
                    acc[e] += c
                else:
                    row = table[e]
                    for i in range(d):
                        acc[i] += c * row[i]
        return CycloElement(self, acc, den)

    def element(self, coeffs):
        """Element from rational power-basis coefficients; longer inputs are reduced."""
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        return self._reduce([c.numerator * (den // c.denominator) for c in coeffs], den)

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def zeta_power(self, k):
        return CycloElement(self, self._powers[k % self.n], 1)

    def __repr__(self):
        return f"CycloField({self.n})"


class _Numerators:
    """Rational coefficient vector stored as integer numerators over one
    positive denominator, in lowest terms: den > 0 and
    gcd(den, *nums) == 1, so equal values have equal representations."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den):
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nums", tuple(c // g for c in nums))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self):
        """Read-only view of the coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.field.n == self.field.n
            and other.nums == self.nums
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.field.n, self.nums, self.den))

    def __repr__(self):
        return f"{type(self).__name__}({self.field.n}, {list(self.nums)}, {self.den})"


class CycloElement(_Numerators):
    """Residue mod Phi_n: power-basis numerators over one denominator."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.field is not self.field and other.field.n != self.field.n:
                raise ValueError("elements live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return None

    def __eq__(self, other):
        return super().__eq__(self._coerce(other))

    __hash__ = _Numerators.__hash__

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q = self.den, other.den
        return CycloElement(self.field, [a * q + b * p for a, b in zip(self.nums, other.nums)], p * q)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        conv = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    conv[i + j] += a * b
        return self.field._reduce(conv, self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.nums)

    def is_integral(self):
        return self.den == 1

    def conj(self):
        """Image under the involution zeta -> zeta^-1."""
        n = self.field.n
        conv = [0] * n
        for i, c in enumerate(self.nums):
            conv[-i % n] = c
        return self.field._reduce(conv, self.den)

    def inverse(self):
        """Inverse mod Phi_n: solve (multiplication by nums) x = den."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        table = self.field._powers
        n, d = self.field.n, self.field.degree
        # entry (k, j): the X^k coefficient of nums * X^j mod Phi_n
        mult = IntMatrix(
            [[sum(c * table[(i + j) % n][k] for i, c in enumerate(self.nums)) for j in range(d)]
             for k in range(d)]
        )
        x, den = solve_rational(mult, IntMatrix([[self.den]] + [[0]] * (d - 1)))
        return CycloElement(self.field, x.col(0), den)

    def trace(self):
        """Tr over Q: linear extension of the cached monomial power sums."""
        return Fraction(sum(c * t for c, t in zip(self.nums, self.field._traces)), self.den)

    def norm(self):
        """Norm over Q via the resultant with Phi_n."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(resultant(self.field.phi_n, IntPoly(self.nums)), self.den**self.field.degree)


class RealSubfieldElement(_Numerators):
    """Element of Q(zeta + zeta^-1): numerators over one denominator on
    the basis (zeta+zeta^-1)^j."""

    __slots__ = ()

    def __init__(self, field, nums, den):
        m = field.degree // 2
        if len(nums) > m:
            raise ValueError("coefficient vector exceeds the subfield degree")
        super().__init__(field, list(nums) + [0] * (m - len(nums)), den)


def real_subfield(e):
    """Rewrite an involution-fixed element on the basis (zeta+zeta^-1)^j."""
    field = e.field
    if e.conj() != e:
        raise ValueError("element is not fixed by the involution")
    y = field.zeta_power(1) + field.zeta_power(-1)
    cols = []
    power = field.one()
    for _ in range(field.degree // 2):
        cols.append(power.nums)
        power = power * y
    # the powers of y are integral; the tall solve raises when e leaves their span
    x, den = solve_rational(IntMatrix(cols).transpose(), IntMatrix([[c] for c in e.nums]))
    return RealSubfieldElement(field, x.col(0), den * e.den)


def norm_real_subfield(e):
    """Norm from the real subfield to Q via the resultant with the
    trace polynomial."""
    psi = e.field.psi_n
    if not any(e.nums):
        raise ValueError("norm of zero")
    return Fraction(resultant(psi, IntPoly(e.nums)), e.den**psi.degree)


def embedding_labels(n):
    """Representatives k of (Z/n)^x up to sign, ascending; the real
    embedding for label k sends zeta + zeta^-1 to 2cos(2 pi k / n)."""
    return tuple(k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1)


def real_embedding_values(e, width):
    """Exact enclosing intervals of e at every real embedding.

    Returns (label, (lo, hi)) pairs, labels ascending, each interval
    narrower than width. Requires the trace polynomial totally real.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    field = e.field
    psi = field.psi_n
    goal = width * e.den
    out = []
    for k, root in zip(embedding_labels(field.n), field.psi_roots):
        # the root goes straight to the target width, then narrower
        # only while e's slope keeps the value interval too wide
        w = width
        while True:
            root = refine_root(psi, root, w)
            lo, hi = interval_eval(e.nums, root)
            if hi - lo < goal:
                break
            w /= 16
        out.append((k, (lo / e.den, hi / e.den)))
    return out


def real_embedding_signs(e, digits, values=None):
    """Sign and decimal approximation of e at every real embedding.

    Output rows (label, sign, approximation) with the approximation
    carrying `digits` significant digits; raises when e vanishes at
    some embedding (sign undefined). `values`, when given, are enclosing
    intervals of e as real_embedding_values returns them, tried first
    in place of a fresh refinement to width 10^-(digits+4).
    """
    if not any(e.nums) or resultant(e.field.psi_n, IntPoly(e.nums)) == 0:
        raise ValueError("element vanishes at a real embedding")
    # every value is nonzero and either exact (e constant) or irrational
    # (psi irreducible), so both ends of each interval eventually print
    # alike; a nonzero print then fixes the sign as well
    width = Fraction(1, 10 ** (digits + 4))
    rows = values if values is not None else real_embedding_values(e, width)
    while True:
        prints = [(format_decimal(lo, digits), format_decimal(hi, digits)) for _, (lo, hi) in rows]
        if all(a == b for a, b in prints):
            return [(k, 1 if lo > 0 else -1, a) for (k, (lo, _)), (a, _) in zip(rows, prints)]
        width /= 16
        rows = real_embedding_values(e, width)


def twist_element_parts(field):
    """The conductor-50 twisting element and its factors.

    a = u1 * u2 * a' with u1 = zeta^2 + 1 + zeta^-2, u2 the sum of the
    first six odd powers of zeta plus their inverses, and
    a' = (y - 3)/(y + 2) at y = zeta + zeta^-1. Integrality and
    involution-invariance of a are verified here; norms are the
    caller's concern.
    """
    if field.n != 50:
        raise ValueError("twist element is specific to conductor 50")
    z = field.zeta_power
    u1 = z(2) + field.one() + z(-2)
    u2 = field.zero()
    for i in range(6):
        u2 = u2 + z(2 * i + 1) + z(-(2 * i + 1))
    y = z(1) + z(-1)
    a_prime = (y - 3) * (y + 2).inverse()
    a = u1 * u2 * a_prime
    if a.conj() != a:
        raise AssertionError("twist element is not involution-fixed")
    if not a.is_integral():
        raise AssertionError("twist element is not integral")
    return {"a": a, "u1": u1, "u2": u2, "a_prime": a_prime}


def build_trace_form_lattice(field, a):
    """Lattice (Z[zeta], b_a) with b_a(x, y) = Tr(a x conj(y) mu), where
    mu inverts the derivative of the trace polynomial at zeta + zeta^-1,
    plus the multiplication-by-zeta isometry.

    The Gram matrix is Toeplitz: entry (i, j) depends only on i - j, and
    Tr(w zeta^k) = sum_i w_i Tr(zeta^(i+k)) reads off the power sums.
    """
    if not a.is_integral():
        raise ValueError("twisting element must be integral")
    if a.conj() != a:
        raise ValueError("twisting element must be involution-fixed")
    if a.norm() == 0:
        raise ValueError("twisting element must have nonzero norm")
    n, d, traces = field.n, field.degree, field._traces
    w = dpsi_quotient(a)
    gvals = []
    for k in range(d):
        v, r = divmod(sum(c * traces[(i + k) % n] for i, c in enumerate(w.nums)), w.den)
        if r:
            raise ValueError("trace form is not integral for this element")
        gvals.append(v)
    gram = IntMatrix([[gvals[abs(i - j)] for j in range(d)] for i in range(d)])
    lattice = Lattice(gram)
    isometry = check_isometry(lattice, companion(field.phi_n))
    return lattice, isometry


def dpsi_quotient(a):
    """a / Psi_n'(y) at y = zeta + zeta^-1: the trace-form weight, whose
    signs at the real embeddings give the signature of b_a."""
    field = a.field
    y = field.zeta_power(1) + field.zeta_power(-1)
    return a * field.psi_n.derivative()(y).inverse()
