"""Exact arithmetic in Q(zeta_n) and the real subfield Q(zeta_n + zeta_n^-1):
traces, norms, the involution, trace-form lattices with their
multiplication-by-zeta isometries, real-embedding sign data, and the
explicit conductor-50 twisting element used by the gluing pipeline."""

import math
from fractions import Fraction
from functools import lru_cache

from .lattices import Lattice, check_isometry
from .matrices import IntMatrix, common_denominator, companion, solve_rational
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
        self._psi = None
        self._powers = None
        self._traces = None

    @property
    def psi_n(self):
        if self._psi is None:
            self._psi = trace_polynomial(self)
        return self._psi

    def _power_table(self):
        # X^e mod Phi_n for e = 0..n-1, as integer coefficient tuples
        if self._powers is None:
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
            self._powers = tuple(table)
        return self._powers

    def _trace_table(self):
        # power sums of the roots of Phi_n via Newton's identities,
        # extended past the degree by the coefficient recurrence
        if self._traces is None:
            a = self.phi_n.coeffs
            d = self.degree
            p = [d]
            for k in range(1, self.n):
                s = -k * a[d - k] if k <= d else 0
                for i in range(1, min(k, d + 1)):
                    s -= a[d - i] * p[k - i]
                p.append(s)
            self._traces = tuple(p)
        return self._traces

    def element(self, coeffs):
        """Element from power-basis coefficients; longer inputs are reduced."""
        coeffs = [Fraction(c) for c in coeffs]
        d = self.degree
        if len(coeffs) > d:
            # X^n = 1 in Q[X]/(Phi_n), so exponents wrap mod n
            table = self._power_table()
            acc = [Fraction(0)] * d
            for e, c in enumerate(coeffs):
                if c:
                    row = table[e % self.n]
                    for i in range(d):
                        acc[i] += c * row[i]
            coeffs = acc
        else:
            coeffs = coeffs + [Fraction(0)] * (d - len(coeffs))
        return CycloElement(self, coeffs)

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def zeta_power(self, k):
        table = self._power_table()
        return CycloElement(self, [Fraction(c) for c in table[k % self.n]])

    def __repr__(self):
        return f"CycloField({self.n})"


class CycloElement:
    """Residue mod Phi_n with rational power-basis coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloElement is immutable")

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.field is not self.field and other.field.n != self.field.n:
                raise ValueError("elements live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, [-a for a in self.coeffs])

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
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        table = self.field._power_table()
        acc = list(conv[:d])
        for e in range(d, 2 * d - 1):
            c = conv[e]
            if c:
                row = table[e]
                for i in range(d):
                    acc[i] += c * row[i]
        return CycloElement(self.field, acc)

    __rmul__ = __mul__

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def conj(self):
        """Image under the involution zeta -> zeta^-1."""
        table = self.field._power_table()
        n, d = self.field.n, self.field.degree
        acc = [Fraction(0)] * d
        for i, c in enumerate(self.coeffs):
            if c:
                row = table[(n - i) % n]
                for k in range(d):
                    acc[k] += c * row[k]
        return CycloElement(self.field, acc)

    def inverse(self):
        """Inverse mod Phi_n: solve (multiplication by self) x = 1."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        num, q = common_denominator([self.coeffs])
        nums = num.row(0)
        table = self.field._power_table()
        n, d = self.field.n, self.field.degree
        # entry (k, j): the X^k coefficient of num * X^j mod Phi_n
        mult = IntMatrix(
            [[sum(c * table[(i + j) % n][k] for i, c in enumerate(nums)) for j in range(d)]
             for k in range(d)]
        )
        x, den = solve_rational(mult, IntMatrix([[q]] + [[0]] * (d - 1)))
        return CycloElement(self.field, [Fraction(c, den) for c in x.col(0)])

    def trace(self):
        """Tr over Q: linear extension of the cached monomial power sums."""
        traces = self.field._trace_table()
        return sum((c * traces[i] for i, c in enumerate(self.coeffs)), Fraction(0))

    def norm(self):
        """Norm over Q via the resultant with Phi_n."""
        if self.is_zero():
            return Fraction(0)
        q = math.lcm(*(c.denominator for c in self.coeffs))
        rep = IntPoly([int(c * q) for c in self.coeffs])
        return Fraction(resultant(self.field.phi_n, rep), q**self.field.degree)

    def __repr__(self):
        return f"CycloElement({self.field.n}, {list(self.coeffs)})"


class RealSubfieldElement:
    """Element of Q(zeta + zeta^-1), coefficients in the basis (zeta+zeta^-1)^j."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        m = field.degree // 2
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > m:
            raise ValueError("coefficient vector exceeds the subfield degree")
        coeffs += [Fraction(0)] * (m - len(coeffs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("RealSubfieldElement is immutable")

    def to_cyclotomic(self):
        y = self.field.zeta_power(1) + self.field.zeta_power(-1)
        acc = self.field.zero()
        power = self.field.one()
        for c in self.coeffs:
            acc = acc + c * power
            power = power * y
        return acc

    def is_constant(self):
        return all(c == 0 for c in self.coeffs[1:])

    def numerator_poly(self):
        """(integer polynomial, positive denominator) clearing the coefficients."""
        q = math.lcm(*(c.denominator for c in self.coeffs))
        return IntPoly([int(c * q) for c in self.coeffs]), q

    def __eq__(self, other):
        return (
            isinstance(other, RealSubfieldElement)
            and other.field.n == self.field.n
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __repr__(self):
        return f"RealSubfieldElement({self.field.n}, {list(self.coeffs)})"


def real_subfield(e):
    """Rewrite an involution-fixed element on the basis (zeta+zeta^-1)^j."""
    field = e.field
    if e.conj() != e:
        raise ValueError("element is not fixed by the involution")
    m = field.degree // 2
    y = field.zeta_power(1) + field.zeta_power(-1)
    cols = []
    power = field.one()
    for _ in range(m):
        cols.append(power.coeffs)
        power = power * y
    rhs, q = common_denominator([e.coeffs])
    # the powers of y are integral; the tall solve raises when e leaves their span
    x, den = solve_rational(IntMatrix(cols).transpose(), rhs.transpose())
    return RealSubfieldElement(field, [Fraction(c, den * q) for c in x.col(0)])


def norm_real_subfield(e):
    """Norm from the real subfield to Q via the resultant with the
    trace polynomial."""
    psi = e.field.psi_n
    rep, q = e.numerator_poly()
    if rep.is_zero():
        raise ValueError("norm of zero")
    return Fraction(resultant(psi, rep), q**psi.degree)


def embedding_labels(n):
    """Representatives k of (Z/n)^x up to sign, ascending; the real
    embedding for label k sends zeta + zeta^-1 to 2cos(2 pi k / n)."""
    return tuple(k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1)


def real_embedding_values(e, width):
    """Exact enclosing intervals of e at every real embedding.

    Returns (label, (lo, hi)) pairs, labels ascending, each interval
    narrower than width. Requires the trace polynomial totally real.
    """
    if Fraction(width) <= 0:
        raise ValueError("width must be positive")
    field = e.field
    psi = field.psi_n
    roots = real_root_isolation(psi)
    if len(roots) != psi.degree:
        raise ValueError("trace polynomial is not totally real")
    labels = embedding_labels(field.n)
    # label k pairs with the k-th largest root: 2cos is decreasing on (0, pi)
    ordered = list(reversed(roots))
    out = []
    for k, iv in zip(labels, ordered):
        lo, hi = interval_eval(e.coeffs, iv)
        goal = Fraction(width)
        w = iv[1] - iv[0]
        while hi - lo >= goal:
            w = w / 4 if w else Fraction(1, 4)
            iv = refine_root(psi, iv, w)
            lo, hi = interval_eval(e.coeffs, iv)
        out.append((k, (lo, hi)))
    return out


def real_embedding_signs(e, digits):
    """Sign and decimal approximation of e at every real embedding.

    Output rows (label, sign, approximation) with the approximation
    carrying `digits` significant digits; raises when e vanishes at
    some embedding (sign undefined).
    """
    field = e.field
    psi = field.psi_n
    rep, _ = e.numerator_poly()
    if rep.is_zero() or (not e.is_constant() and resultant(psi, rep) == 0):
        raise ValueError("element vanishes at a real embedding")
    if e.is_constant():
        v = e.coeffs[0]
        text = format_decimal(v, digits)
        return [(k, 1 if v > 0 else -1, text) for k in embedding_labels(field.n)]
    roots = real_root_isolation(psi)
    if len(roots) != psi.degree:
        raise ValueError("trace polynomial is not totally real")
    rows = []
    for k, iv in zip(embedding_labels(field.n), reversed(roots)):
        w = Fraction(1, 10 ** (digits + 4))
        lo, hi = interval_eval(e.coeffs, refine_root(psi, iv, w))
        # the value is irrational (e nonconstant, psi irreducible), so
        # both the sign and the rounded print stabilize eventually
        while lo <= 0 <= hi or format_decimal(lo, digits) != format_decimal(hi, digits):
            w /= 16
            lo, hi = interval_eval(e.coeffs, refine_root(psi, iv, w))
        rows.append((k, 1 if lo > 0 else -1, format_decimal(lo, digits)))
    return rows


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

    The Gram matrix is Toeplitz: entry (i, j) depends only on i - j.
    """
    if not a.is_integral():
        raise ValueError("twisting element must be integral")
    if a.conj() != a:
        raise ValueError("twisting element must be involution-fixed")
    if a.norm() == 0:
        raise ValueError("twisting element must have nonzero norm")
    d = field.degree
    y = field.zeta_power(1) + field.zeta_power(-1)
    w = a * dpsi_at(field, y).inverse()
    gvals = []
    for k in range(d):
        v = (w * field.zeta_power(k)).trace()
        if v.denominator != 1:
            raise ValueError("trace form is not integral for this element")
        gvals.append(int(v))
    gram = IntMatrix([[gvals[abs(i - j)] for j in range(d)] for i in range(d)])
    lattice = Lattice(gram)
    isometry = check_isometry(lattice, companion(field.phi_n))
    return lattice, isometry


def dpsi_at(field, y):
    """Derivative of the trace polynomial evaluated at a field element."""
    dpsi = field.psi_n.derivative()
    acc = field.zero()
    power = field.one()
    for c in dpsi.coeffs:
        acc = acc + c * power
        power = power * y
    return acc
