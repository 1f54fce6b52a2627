"""Integer lattices: invariants, glue groups with torsion forms,
isometries and their induced actions on the glue group, twists, and
sublattice operations (orthogonal complements, primitivity)."""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize
from .matrices import (
    IntMatrix,
    charpoly,
    common_denominator,
    det,
    kernel_basis,
    poly_of_matrix,
    rational_inverse,
    signature_symmetric,
    smith_normal_form,
    solve_rational,
)


def _matvec(m, v):
    """M v for a vector of int or Fraction entries, in integers over the
    vector's common denominator."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch")
    d = math.lcm(*(c.denominator for c in v))
    x = [c.numerator * (d // c.denominator) for c in v]
    return tuple(Fraction(sum(a * b for a, b in zip(row, x)), d) for row in m.data)


def _vec_mod1(v):
    return tuple(Fraction(x) % 1 for x in v)


class Lattice:
    """Free Z-module of finite rank with a nondegenerate symmetric form.

    The Gram matrix is the only state; everything else is derived.
    Treat instances as immutable.
    """

    def __init__(self, gram):
        if not isinstance(gram, IntMatrix):
            gram = IntMatrix(gram)
        if not gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")
        d = det(gram)
        if d == 0:
            raise ValueError("gram matrix must be nondegenerate")
        self.gram = gram
        self.det = d
        self._cache = {}

    @property
    def rank(self):
        return self.gram.rows

    def is_even(self):
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self):
        return abs(self.det) == 1

    def signature(self):
        if "signature" not in self._cache:
            self._cache["signature"] = signature_symmetric(self.gram)
        return self._cache["signature"]

    def bilinear(self, x, y):
        """b(x, y) for coordinate vectors with int or Fraction entries."""
        gy = _matvec(self.gram, y)
        return sum(Fraction(a) * b for a, b in zip(x, gy))

    def in_dual(self, y):
        """True iff b(y, L) is integral, i.e. y represents a dual vector."""
        return all(c.denominator == 1 for c in _matvec(self.gram, y))

    def invariants(self):
        return {
            "rank": self.rank,
            "even": self.is_even(),
            "unimodular": self.is_unimodular(),
            "det": self.det,
            "signature": self.signature(),
        }

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det})"


@dataclass(frozen=True)
class TorsionValue:
    """Canonical residue: value in [0, modulus) with modulus 1 or 2."""

    value: Fraction
    modulus: int

    @classmethod
    def reduce(cls, value, modulus):
        return cls(Fraction(value) % modulus, modulus)

    def __str__(self):
        return f"{self.value} mod {self.modulus}"


class GlueGroup:
    """G(L) = L^dual / L, presented by cyclic orders and generator lifts.

    orders are the elementary divisors > 1 of the Gram matrix, in
    divisibility order; lifts[j] is a representative of the j-th
    generator in L (x) Q, every coordinate reduced into [0, 1).
    """

    def __init__(self, lattice, orders, lifts):
        self.lattice = lattice
        self.orders = tuple(orders)
        self.lifts = tuple(tuple(x) for x in lifts)
        self.order = math.prod(self.orders) if self.orders else 1
        self.prime_support = tuple(sorted(factorize(self.order))) if self.orders else ()

    def is_trivial(self):
        return not self.orders

    def classify(self, y):
        """Coordinates of the class of a dual vector on the generators."""
        gy = _matvec(self.lattice.gram, y)
        if any(c.denominator != 1 for c in gy):
            raise ValueError("vector is not in the dual lattice")
        snf = self._snf()
        full = _matvec(snf.U, [int(c) for c in gy])
        return tuple(
            int(full[i]) % d for i, d in enumerate(snf.diagonal) if d > 1
        )

    def lift_of(self, coords):
        """A dual representative of the class with the given coordinates."""
        return _lift_of(self.lifts, coords)

    def class_order(self, coords):
        return _class_order(self.orders, coords)

    def bilinear(self, x, y):
        """Torsion bilinear value b(x, y) mod 1 for dual representatives."""
        for v in (x, y):
            if not self.lattice.in_dual(v):
                raise ValueError("vector is not in the dual lattice")
        return TorsionValue.reduce(self.lattice.bilinear(x, y), 1)

    def quadratic(self, x):
        """Torsion quadratic value b(x, x) mod 2, even lattices only."""
        if not self.lattice.is_even():
            raise ValueError("quadratic torsion form needs an even lattice")
        if not self.lattice.in_dual(x):
            raise ValueError("vector is not in the dual lattice")
        return TorsionValue.reduce(self.lattice.bilinear(x, x), 2)

    def _snf(self):
        if "snf" not in self.lattice._cache:
            self.lattice._cache["snf"] = smith_normal_form(self.lattice.gram)
        return self.lattice._cache["snf"]

    def __repr__(self):
        return f"GlueGroup(orders={self.orders})"


def _lift_of(lifts, coords):
    """sum_j coords[j] * lifts[j], every coordinate reduced into [0, 1)."""
    acc = [Fraction(0)] * len(lifts[0])
    for c, lift in zip(coords, lifts):
        for i, x in enumerate(lift):
            acc[i] += c * x
    return _vec_mod1(acc)


def _class_order(orders, coords):
    """Order of the element with the given coordinates on cyclic generators."""
    o = 1
    for c, d in zip(coords, orders):
        o = math.lcm(o, d // math.gcd(d, c))
    return o


def glue_group(lattice):
    """Glue group of a lattice, generators derived from the SNF transforms."""
    if "glue" in lattice._cache:
        return lattice._cache["glue"]
    snf = lattice._cache.setdefault("snf", smith_normal_form(lattice.gram))
    orders, lifts = [], []
    for i, d in enumerate(snf.diagonal):
        if d > 1:
            col = snf.V.col(i)
            lifts.append(_vec_mod1(Fraction(c, d) for c in col))
            orders.append(d)
    group = GlueGroup(lattice, orders, lifts)
    lattice._cache["glue"] = group
    return group


@dataclass(frozen=True)
class SylowComponent:
    """p-part of a glue group: generator lifts with p-power orders, and
    the discriminant form on those generators as a table of numerators
    over one denominator."""

    prime: int
    orders: tuple
    lifts: tuple
    gen_indices: tuple  # which glue-group generators contribute
    killed_by_p: bool
    #: unscale[k] inverts, mod orders[k], the cofactor that scaled
    #: glue-group generator gen_indices[k] into this component
    unscale: tuple
    den: int  # one denominator for the whole form table
    #: pair_nums[i][j] / den = b(x_i, x_j) mod 1
    pair_nums: tuple
    #: norm_nums[i] / den = q(x_i) mod 2; None for an odd lattice
    norm_nums: tuple

    @property
    def order(self):
        return math.prod(self.orders)

    def lift_of(self, coords):
        """A dual representative of the component class with these coordinates."""
        return _lift_of(self.lifts, coords)

    def class_order(self, coords):
        return _class_order(self.orders, coords)

    def project(self, full):
        """Coordinates of the p-part of a class given by its glue-group
        coordinates (GlueGroup.classify)."""
        return tuple(
            full[j] * u % d for j, u, d in zip(self.gen_indices, self.unscale, self.orders)
        )

    def bilinear(self, a, b):
        """Torsion bilinear value of two component classes, from the table."""
        k = len(self.orders)
        num = sum(
            a[i] * b[j] * self.pair_nums[i][j] for i in range(k) for j in range(k)
        )
        return TorsionValue(Fraction(num % self.den, self.den), 1)

    def quadratic(self, c):
        """Torsion quadratic value of a component class, from the table:
        q(sum c_i x_i) = sum c_i^2 q_i + 2 sum_{i<j} c_i c_j b_ij mod 2."""
        if self.norm_nums is None:
            raise ValueError("quadratic torsion form needs an even lattice")
        k = len(self.orders)
        num = sum(c[i] * c[i] * self.norm_nums[i] for i in range(k))
        num += 2 * sum(
            c[i] * c[j] * self.pair_nums[i][j] for i in range(k) for j in range(i + 1, k)
        )
        return TorsionValue(Fraction(num % (2 * self.den), self.den), 2)


def sylow_decomposition(group):
    """Sylow components of a glue group, ordered by prime."""
    lattice = group.lattice
    comps = []
    for p in group.prime_support:
        orders, lifts, idx, unscale = [], [], [], []
        for j, d in enumerate(group.orders):
            e = 0
            dd = d
            while dd % p == 0:
                dd //= p
                e += 1
            if e == 0:
                continue
            cofactor = d // p**e
            lift = _vec_mod1(cofactor * Fraction(x) for x in group.lifts[j])
            orders.append(p**e)
            lifts.append(lift)
            idx.append(j)
            unscale.append(pow(cofactor, -1, p**e))
        # the Gram matrix of the lifts, X G X^T over the square of their
        # common denominator, holds every table entry
        x, d = common_denominator(lifts)
        gram = (x @ lattice.gram @ x.transpose()).data
        den = d * d
        comps.append(
            SylowComponent(
                prime=p,
                orders=tuple(orders),
                lifts=tuple(lifts),
                gen_indices=tuple(idx),
                killed_by_p=all(o == p for o in orders),
                unscale=tuple(unscale),
                den=den,
                pair_nums=tuple(tuple(v % den for v in row) for row in gram),
                norm_nums=(
                    tuple(gram[i][i] % (2 * den) for i in range(len(gram)))
                    if lattice.is_even() else None
                ),
            )
        )
    return comps


@dataclass(frozen=True)
class Isometry:
    """Integer matrix preserving a lattice's bilinear form exactly."""

    lattice: Lattice
    matrix: IntMatrix

    def charpoly(self):
        return charpoly(self.matrix)

    def apply(self, v):
        return _matvec(self.matrix, v)


def check_isometry(lattice, matrix):
    """Validate M^T G M = G and wrap the result; raises on failure."""
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    if matrix.rows != lattice.rank or matrix.cols != lattice.rank:
        raise ValueError("isometry matrix has the wrong size")
    if (matrix.transpose() @ lattice.gram @ matrix) != lattice.gram:
        raise ValueError("matrix does not preserve the form")
    # congruence forces det(M)^2 = 1, no separate check needed
    return Isometry(lattice, matrix)


class GlueAction:
    """Automorphism of the glue group induced by an isometry."""

    def __init__(self, isometry, group):
        self.isometry = isometry
        self.glue = group
        cols = [group.classify(isometry.apply(lift)) for lift in group.lifts]
        if cols:
            self.matrix = IntMatrix(cols).transpose()
        else:
            self.matrix = None

    def apply(self, coords):
        if self.matrix is None:
            return ()
        out = _matvec(self.matrix, coords)
        return tuple(int(c) % d for c, d in zip(out, self.glue.orders))

    def sylow_matrix(self, comp):
        """Action on the generators of one Sylow component, mod its orders.

        Column k expresses the image of the k-th component generator.
        """
        cols = [comp.project(self.glue.classify(self.isometry.apply(lift))) for lift in comp.lifts]
        return IntMatrix(cols).transpose()

    def charpoly_mod_p(self, comp):
        """charpoly of the action on a killed p-part, coefficients in [0, p)."""
        if not comp.killed_by_p:
            raise ValueError("p-part is not killed by p, no F_p structure")
        p = comp.prime
        cp = charpoly(self.sylow_matrix(comp))
        return tuple(c % p for c in cp.coeffs)


def induced_glue_action(isometry):
    return GlueAction(isometry, glue_group(isometry.lattice))


def twist(isometry, a_poly):
    """Twisted lattice L(a) with a = A(t): Gram = (A(t))^T G.

    Requires a self-adjoint (b(ax, y) = b(x, ay)) and invertible over Q;
    raises when the twisted form is asymmetric, singular, or breaks
    evenness of an even lattice.
    """
    lat = isometry.lattice
    a = poly_of_matrix(a_poly, isometry.matrix)
    g = lat.gram
    if a.transpose() @ g != g @ a:
        raise ValueError("twisting element is not self-adjoint for the form")
    gram2 = a.transpose() @ g
    if not gram2.is_symmetric():
        raise ValueError("twisted form is not symmetric")
    da = det(a)
    if da == 0:
        raise ValueError("twisting element is singular")
    twisted = Lattice(gram2)
    if twisted.det != da * lat.det:
        raise AssertionError("twist determinant law violated")
    if lat.is_even() and not twisted.is_even():
        raise ValueError("twist broke evenness")
    return twisted


def orthogonal_complement(lattice, sub):
    """Orthogonal complement of the span of sub's columns.

    Returns (basis, complement_lattice); the basis columns are a
    saturated generating set in ambient coordinates.
    """
    b = sub.transpose() @ lattice.gram
    k = kernel_basis(b)
    if k is None:
        raise ValueError("degenerate restriction: complement is zero")
    gram_c = k.transpose() @ lattice.gram @ k
    try:
        comp = Lattice(gram_c)
    except ValueError:
        raise ValueError("degenerate restriction") from None
    return k, comp


def is_primitive(lattice, sub):
    """Whether sub's columns span a primitive sublattice; returns
    (flag, saturation) with the saturation basis as columns."""
    if sub.rows != lattice.rank:
        raise ValueError("generator matrix has the wrong ambient rank")
    snf = smith_normal_form(sub)
    diag = snf.diagonal
    if len(diag) < sub.cols or any(d == 0 for d in diag):
        raise ValueError("generators are not linearly independent")
    uinv, den = rational_inverse(snf.U)
    if den != 1:
        raise AssertionError("Smith transform is not unimodular")
    sat = IntMatrix([row[:sub.cols] for row in uinv.data])
    return all(d == 1 for d in diag), sat


def restrict_isometry(isometry, basis):
    """Matrix of the isometry on an invariant sublattice basis.

    basis columns must span a sublattice mapped into itself; raises
    ValueError when the image leaves their span or the restriction is
    not integral.
    """
    r, d = solve_rational(basis, isometry.matrix @ basis)
    if d != 1:
        raise ValueError("sublattice is not invariant under the isometry")
    return r

