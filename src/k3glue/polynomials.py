"""Exact univariate polynomial kernels over Z and Q.

Coefficients are stored in ascending order (index i holds the X^i
coefficient).  IntPoly is the immutable integer type used throughout;
root work (Sturm sequences, isolation, interval evaluation) returns
Fraction endpoints so every downstream consumer stays exact.
"""

import math
from fractions import Fraction


class IntPoly:
    """Immutable integer polynomial, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls([0] * degree + [coeff])

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return IntPoly(prod)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        result = IntPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner; exact for int and Fraction arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        """gcd of the coefficients, zero only for the zero polynomial."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self):
        """self divided by its (positive) content; leading sign kept."""
        c = self.content()
        if c <= 1:
            return self
        return IntPoly([x // c for x in self.coeffs])

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        """Compact classical rendering, degree descending: X^2-3X+1."""
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}X" if i == 1 else f"{head}X^{i}"
            terms.append(sign + body)
        return "".join(terms)


def divmod_exact(f, g):
    """Quotient and remainder of f by g when long division stays in Z[X].

    Every intermediate division by g's leading coefficient must be
    exact; raises ValueError otherwise.
    """
    if g.is_zero():
        raise ValueError("division by zero polynomial")
    rem = list(f.coeffs)
    lead = g.leading
    dg = g.degree
    quo = [0] * max(len(rem) - dg, 0)
    for i in range(len(rem) - dg - 1, -1, -1):
        top = rem[i + dg]
        if top == 0:
            continue
        q, r = divmod(top, lead)
        if r != 0:
            raise ValueError("non-exact polynomial division")
        quo[i] = q
        for j, c in enumerate(g.coeffs):
            rem[i + j] -= q * c
    return IntPoly(quo), IntPoly(rem)


def div_exact(f, g):
    """f // g, requiring zero remainder."""
    q, r = divmod_exact(f, g)
    if not r.is_zero():
        raise ValueError("polynomial division left a remainder")
    return q


def pseudo_rem(f, g):
    """Pseudo-remainder: (lc(g)^(deg f - deg g + 1) * f) mod g, over Z."""
    if g.is_zero():
        raise ValueError("pseudo-division by zero polynomial")
    d = f.degree - g.degree
    if d < 0:
        return f
    rem = list((f * (g.leading ** (d + 1))).coeffs)
    lead = g.leading
    dg = g.degree
    for i in range(len(rem) - dg - 1, -1, -1):
        top = rem[i + dg]
        if top == 0:
            continue
        q = top // lead
        for j, c in enumerate(g.coeffs):
            rem[i + j] -= q * c
    return IntPoly(rem)


def gcd_int_poly(f, g):
    """gcd in Z[X] via the primitive remainder sequence, positive leading."""
    if f.is_zero() and g.is_zero():
        return IntPoly()
    if f.is_zero() or g.is_zero():
        a = g if f.is_zero() else f
        return -a if a.leading < 0 else a
    cont = math.gcd(f.content(), g.content())
    a, b = f.primitive_part(), g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = pseudo_rem(a, b).primitive_part()
        a, b = b, r
    if a.leading < 0:
        a = -a
    return cont * a if cont > 1 else a


def _scalar_div_exact(p, c):
    out = []
    for x in p.coeffs:
        q, r = divmod(x, c)
        if r:
            raise AssertionError("subresultant division left Z")
        out.append(q)
    return IntPoly(out)


def _power_quotient(base, exp, h):
    """base^exp / h^(exp-1), which the subresultant theory keeps in Z."""
    if exp == 0:
        return h
    q, r = divmod(base**exp, h ** (exp - 1))
    if r:
        raise AssertionError("subresultant division left Z")
    return q


def resultant(f, g):
    """Resultant of two nonzero integer polynomials (subresultant PRS)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if f.degree == 0:
        return f.leading ** g.degree
    if g.degree == 0:
        return g.leading ** f.degree
    sign = 1
    if f.degree < g.degree:
        if f.degree % 2 == 1 and g.degree % 2 == 1:
            sign = -1
        f, g = g, f
    cf, cg = f.content(), g.content()
    A, B = f.primitive_part(), g.primitive_part()
    acc = sign * cf ** g.degree * cg ** f.degree
    gg = hh = 1
    while True:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            acc = -acc
        R = pseudo_rem(A, B)
        if R.is_zero():
            return 0
        A, B = B, _scalar_div_exact(R, gg * hh**delta)
        gg = A.leading
        hh = _power_quotient(gg, delta, hh)
        if B.degree == 0:
            return acc * _power_quotient(B.leading, A.degree, hh)


def is_squarefree(p):
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    return gcd_int_poly(p, p.derivative()).degree == 0


def squarefree_decomposition(p):
    """Yun decomposition of a nonzero integer polynomial.

    Returns [(f_i, i), ...] with each f_i primitive, squarefree,
    positive-leading, pairwise coprime, and prod f_i^i equal to p up to
    a constant; factors of degree zero are dropped.
    """
    if p.is_zero():
        raise ValueError("square-free decomposition of zero")
    p = p.primitive_part()
    if p.leading < 0:
        p = -p
    if p.degree == 0:
        return []
    g = gcd_int_poly(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    w = div_exact(p, g)
    y = div_exact(p.derivative(), g)
    z = y - w.derivative()
    factors = []
    i = 1
    while w.degree > 0:
        f = gcd_int_poly(w, z)
        if f.degree > 0:
            factors.append((f, i))
        w = div_exact(w, f)
        y = div_exact(z, f)
        z = y - w.derivative()
        i += 1
    check = IntPoly([1])
    for f, m in factors:
        check = check * f**m
    if check != p:
        raise AssertionError("Yun decomposition failed to recompose")
    return factors


def sturm_sequence(p):
    """Sturm chain of p, each member scaled by a positive constant."""
    if p.is_zero():
        raise ValueError("Sturm sequence of zero")
    a = p.primitive_part()
    seq = [a]
    b = a.derivative().primitive_part()
    while not b.is_zero():
        seq.append(b)
        scale = b.leading ** (a.degree - b.degree + 1)
        r = pseudo_rem(a, b)
        if scale < 0:
            r = -r
        a, b = b, (-r).primitive_part()
    return seq


def _sign(x):
    return (x > 0) - (x < 0)


def _variations(values):
    signs = [s for s in map(_sign, values) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def sturm_variations(seq, x):
    return _variations([q(x) for q in seq])


def count_real_roots(p, a, b, seq=None):
    """Number of distinct real roots of p in the half-open interval (a, b].

    Requires p(a) != 0 and a < b.
    """
    if a >= b:
        raise ValueError("need a < b")
    if p(a) == 0:
        raise ValueError("left endpoint is a root")
    if seq is None:
        seq = sturm_sequence(p)
    return sturm_variations(seq, a) - sturm_variations(seq, b)


def cauchy_root_bound(p):
    """Integer B with every real root of p strictly inside (-B, B)."""
    if p.degree < 1:
        return 1
    lead = abs(p.leading)
    biggest = max(abs(c) for c in p.coeffs[:-1])
    return 1 + (biggest + lead - 1) // lead


def real_root_isolation(p):
    """Disjoint rational isolating intervals for the real roots of p.

    p must be squarefree.  Returns a sorted list of (lo, hi) Fraction
    pairs, each containing exactly one root; lo == hi marks an exact
    rational root, otherwise p changes sign between the open endpoints.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of zero")
    if p.degree <= 0:
        return []
    if not is_squarefree(p):
        raise ValueError("input must be square-free")
    seq = sturm_sequence(p)
    bound = Fraction(cauchy_root_bound(p))

    def var(x):
        return sturm_variations(seq, x)

    out = []
    stack = [(-bound, bound, var(-bound), var(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n > 1:
            mid = (lo + hi) / 2
            vm = var(mid)
            stack.append((lo, mid, vlo, vm))
            stack.append((mid, hi, vm, vhi))
            continue
        # exactly one root in (lo, hi]; shrink until endpoints are not roots
        while True:
            if p(hi) == 0:
                out.append((hi, hi))
                break
            if p(lo) != 0:
                out.append((lo, hi))
                break
            mid = (lo + hi) / 2
            if p(mid) == 0:
                out.append((mid, mid))
                break
            if var(mid) - var(hi) == 1:
                lo = mid
            else:
                hi = mid
    out.sort()
    return out


def refine_root(p, interval, width):
    """Bisect an isolating interval of p until its width is <= width."""
    lo, hi = interval
    if lo == hi:
        return interval
    slo, shi = _sign(p(lo)), _sign(p(hi))
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("interval endpoints must bracket a sign change")
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _sign(p(mid))
        if sm == 0:
            return (mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def interval_eval(coeffs, interval):
    """Interval-arithmetic Horner evaluation.

    coeffs ascending (int or Fraction), interval = (lo, hi).  Returns a
    Fraction interval guaranteed to contain p(x) for every x in input.
    """
    if not coeffs:
        return (Fraction(0), Fraction(0))
    xlo, xhi = Fraction(interval[0]), Fraction(interval[1])
    acc_lo = acc_hi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        products = (acc_lo * xlo, acc_lo * xhi, acc_hi * xlo, acc_hi * xhi)
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return (acc_lo, acc_hi)


def decimal_exponent(x):
    """Largest e with 10^e <= |x|, for nonzero rational x."""
    if x == 0:
        raise ValueError("zero has no decimal exponent")
    ax = abs(Fraction(x))
    e = len(str(ax.numerator)) - len(str(ax.denominator))
    while Fraction(10) ** e > ax:
        e -= 1
    while Fraction(10) ** (e + 1) <= ax:
        e += 1
    return e


def format_decimal(x, digits):
    """Round a rational to `digits` significant digits, plain decimal."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = abs(x)
    e = decimal_exponent(ax)
    scaled = ax * Fraction(10) ** (digits - 1 - e)
    n = int(scaled + Fraction(1, 2))  # round half away from zero (x > 0 here)
    if n == 10**digits:
        n //= 10
        e += 1
    s = str(n)
    if e >= digits - 1:
        return sign + s + "0" * (e - digits + 1)
    if e >= 0:
        return sign + s[: e + 1] + "." + s[e + 1 :]
    return sign + "0." + "0" * (-e - 1) + s
