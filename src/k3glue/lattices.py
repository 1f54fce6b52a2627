"""Integer lattices: invariants, glue groups with torsion forms,
isometries and their induced actions on the glue group, twists, and
sublattice operations (orthogonal complements, primitivity)."""

import math
from dataclasses import dataclass, field
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

    def __str__(self):
        return f"{self.value} mod {self.modulus}"


@dataclass(frozen=True, eq=False)
class _FormTable:
    """A finite group on cyclic generators with generator lifts in
    L (x) Q, every coordinate reduced into [0, 1), and its discriminant
    form on those generators as a table of numerators over one
    denominator. Classes are coordinate tuples on the generators."""

    orders: tuple
    lifts: tuple
    den: int  # one denominator for the whole form table
    #: pair_nums[i][j] / den = b(x_i, x_j) mod 1
    pair_nums: tuple
    #: norm_nums[i] / den = q(x_i) mod 2; None for an odd lattice
    norm_nums: tuple

    @property
    def order(self):
        return math.prod(self.orders)

    def lift_of(self, coords):
        """A dual representative of the class with the given coordinates."""
        acc = [Fraction(0)] * len(self.lifts[0])
        for c, lift in zip(coords, self.lifts):
            for i, x in enumerate(lift):
                acc[i] += c * x
        return _vec_mod1(acc)

    def class_order(self, coords):
        o = 1
        for c, d in zip(coords, self.orders):
            o = math.lcm(o, d // math.gcd(d, c))
        return o

    def _check(self, *classes):
        for c in classes:
            if len(c) != len(self.orders) or not all(isinstance(x, int) for x in c):
                raise ValueError("a class is a tuple of integer coordinates, one per generator")

    def bilinear(self, a, b):
        """Torsion bilinear value b(a, b) mod 1 of two classes."""
        self._check(a, b)
        num = sum(
            x * sum(y * n for y, n in zip(b, row)) for x, row in zip(a, self.pair_nums) if x
        )
        return TorsionValue(Fraction(num % self.den, self.den), 1)

    def quadratic(self, c):
        """Torsion quadratic value of a class, even lattices only:
        q(sum c_i x_i) = sum c_i^2 q_i + 2 sum_{i<j} c_i c_j b_ij mod 2."""
        if self.norm_nums is None:
            raise ValueError("quadratic torsion form needs an even lattice")
        self._check(c)
        num = 0
        for i, (x, row) in enumerate(zip(c, self.pair_nums)):
            if x:
                rest = sum(y * n for y, n in zip(c[i + 1:], row[i + 1:]))
                num += x * (x * self.norm_nums[i] + 2 * rest)
        return TorsionValue(Fraction(num % (2 * self.den), self.den), 2)


@dataclass(frozen=True, eq=False)
class GlueGroup(_FormTable):
    """G(L) = L^dual / L. orders are the elementary divisors > 1 of the
    Gram matrix, in divisibility order; its Sylow components are
    computed once, by sylow_decomposition."""

    lattice: Lattice
    prime_support: tuple
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def classify(self, y):
        """Coordinates of the class of a dual vector on the generators."""
        gy = _matvec(self.lattice.gram, y)
        if any(c.denominator != 1 for c in gy):
            raise ValueError("vector is not in the dual lattice")
        snf = self.lattice._cache["snf"]
        full = _matvec(snf.U, [int(c) for c in gy])
        return tuple(
            int(full[i]) % d for i, d in enumerate(snf.diagonal) if d > 1
        )


def glue_group(lattice):
    """Glue group of a lattice, generators derived from the SNF transforms
    and the form table from the Gram matrix X G X^T of their lifts."""
    if "glue" in lattice._cache:
        return lattice._cache["glue"]
    snf = lattice._cache.setdefault("snf", smith_normal_form(lattice.gram))
    orders, lifts = [], []
    for i, d in enumerate(snf.diagonal):
        if d > 1:
            col = snf.V.col(i)
            lifts.append(_vec_mod1(Fraction(c, d) for c in col))
            orders.append(d)
    if lifts:
        x, d = common_denominator(lifts)
        gram, den = (x @ lattice.gram @ x.transpose()).data, d * d
    else:
        gram, den = (), 1
    group = GlueGroup(
        orders=tuple(orders),
        lifts=tuple(lifts),
        den=den,
        pair_nums=tuple(tuple(v % den for v in row) for row in gram),
        norm_nums=(
            tuple(gram[i][i] % (2 * den) for i in range(len(gram)))
            if lattice.is_even() else None
        ),
        lattice=lattice,
        prime_support=tuple(sorted(factorize(math.prod(orders)))) if orders else (),
    )
    lattice._cache["glue"] = group
    return group


@dataclass(frozen=True)
class SylowComponent(_FormTable):
    """p-part of a glue group: its generators are cofactor multiples of
    glue-group generators, so every table entry is a scaled group entry."""

    prime: int
    gen_indices: tuple  # which glue-group generators contribute
    killed_by_p: bool
    #: unscale[k] inverts, mod orders[k], the cofactor that scaled
    #: glue-group generator gen_indices[k] into this component
    unscale: tuple

    def project(self, full):
        """Coordinates of the p-part of a class given by its glue-group
        coordinates (GlueGroup.classify)."""
        return tuple(
            full[j] * u % d for j, u, d in zip(self.gen_indices, self.unscale, self.orders)
        )


def sylow_decomposition(group):
    """Sylow components of a glue group, ordered by prime; computed once
    per group. With x'_k = cof_k x_j the tables scale:
    b(x'_k, x'_l) = cof_k cof_l b_jl mod 1 and q(x'_k) = cof_k^2 q_j mod 2."""
    if "sylow" in group._cache:
        return group._cache["sylow"]
    den, comps = group.den, []
    for p in group.prime_support:
        orders, lifts, idx, cofs = [], [], [], []
        for j, d in enumerate(group.orders):
            if d % p:
                continue
            cof = d
            while cof % p == 0:
                cof //= p
            orders.append(d // cof)
            lifts.append(_vec_mod1(cof * Fraction(x) for x in group.lifts[j]))
            idx.append(j)
            cofs.append(cof)
        comps.append(
            SylowComponent(
                orders=tuple(orders),
                lifts=tuple(lifts),
                den=den,
                pair_nums=tuple(
                    tuple(group.pair_nums[j][l] * cj * cl % den for l, cl in zip(idx, cofs))
                    for j, cj in zip(idx, cofs)
                ),
                norm_nums=(
                    None if group.norm_nums is None
                    else tuple(group.norm_nums[j] * c * c % (2 * den) for j, c in zip(idx, cofs))
                ),
                prime=p,
                gen_indices=tuple(idx),
                killed_by_p=all(o == p for o in orders),
                unscale=tuple(pow(c, -1, o) for c, o in zip(cofs, orders)),
            )
        )
    group._cache["sylow"] = tuple(comps)
    return group._cache["sylow"]


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
    """Automorphism of the glue group induced by an isometry; `matrix`
    column j holds the class of the image of generator j."""

    def __init__(self, isometry, group):
        self.isometry = isometry
        self.glue = group
        cols = [group.classify(isometry.apply(lift)) for lift in group.lifts]
        if cols:
            self.matrix = IntMatrix(cols).transpose()
        else:
            self.matrix = None

    def sylow_matrix(self, comp):
        """Action on the generators of one Sylow component, mod its orders.

        Column k expresses the image of the k-th component generator
        cof_k x_j, read from column j of `matrix` scaled by cof_k.
        """
        cols = [
            comp.project([self.glue.orders[j] // d * c for c in self.matrix.col(j)])
            for j, d in zip(comp.gen_indices, comp.orders)
        ]
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

