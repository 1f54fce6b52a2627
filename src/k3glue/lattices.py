"""Integer lattices: invariants, glue groups with torsion forms,
isometries and their induced actions on Sylow components of the glue
group, twists, and sublattice operations (orthogonal complements,
primitivity).

A dual vector is the package's one rational form: a tuple of integer
numerators over one positive denominator, passed as (nums, den).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import factorize
from .matrices import (
    IntMatrix,
    charpoly,
    det,
    kernel_basis,
    poly_of_matrix,
    signature_symmetric,
    smith_normal_form,
    solve_rational,
)


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
        """b(x, y) for integer coordinate vectors."""
        return sum(a * sum(g * b for g, b in zip(row, y)) for a, row in zip(x, self.gram.data))

    def _dual_image(self, nums, den):
        """G y in integers for y = nums / den, or None when y is not dual."""
        if len(nums) != self.rank:
            raise ValueError("dimension mismatch")
        gy = [sum(g * c for g, c in zip(row, nums)) for row in self.gram.data]
        return None if any(v % den for v in gy) else [v // den for v in gy]

    def in_dual(self, nums, den):
        """True iff b(y, L) is integral for y = nums / den, i.e. y
        represents a dual vector."""
        return self._dual_image(nums, den) is not None

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det})"


@dataclass(frozen=True, eq=False)
class _FormTable:
    """A finite group on cyclic generators with generator lifts in
    L (x) Q, and its discriminant form on those generators as a table
    of numerators over one denominator. Classes are coordinate tuples
    on the generators."""

    orders: tuple
    #: integer rows in [0, lift_den); lifts[j] / lift_den lifts generator j
    lifts: tuple
    lift_den: int
    #: pair_nums[i][j] / den = b(x_i, x_j) mod 1
    pair_nums: tuple
    #: norm_nums[i] / den = q(x_i) mod 2; None for an odd lattice
    norm_nums: tuple

    @property
    def den(self):
        """The one denominator of the form table."""
        return self.lift_den * self.lift_den

    @property
    def order(self):
        return math.prod(self.orders)

    def lift_of(self, coords):
        """Numerators over lift_den of a dual representative of the class
        with the given coordinates."""
        return tuple(
            sum(c * x for c, x in zip(coords, col)) % self.lift_den for col in zip(*self.lifts)
        )

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
        """Torsion bilinear value b(a, b) mod 1 of two classes, in [0, 1)."""
        self._check(a, b)
        num = sum(
            x * sum(y * n for y, n in zip(b, row)) for x, row in zip(a, self.pair_nums) if x
        )
        return Fraction(num % self.den, self.den)

    def quadratic(self, c):
        """Torsion quadratic value of a class in [0, 2), even lattices only:
        q(sum c_i x_i) = sum c_i^2 q_i + 2 sum_{i<j} c_i c_j b_ij mod 2."""
        if self.norm_nums is None:
            raise ValueError("quadratic torsion form needs an even lattice")
        self._check(c)
        num = 0
        for i, (x, row) in enumerate(zip(c, self.pair_nums)):
            if x:
                rest = sum(y * n for y, n in zip(c[i + 1:], row[i + 1:]))
                num += x * (x * self.norm_nums[i] + 2 * rest)
        return Fraction(num % (2 * self.den), self.den)


@dataclass(frozen=True, eq=False)
class GlueGroup(_FormTable):
    """G(L) = L^dual / L. orders are the elementary divisors > 1 of the
    Gram matrix, in divisibility order; its Sylow components are
    computed once, by sylow_decomposition."""

    lattice: Lattice
    coord_rows: tuple  # rows of U in U G V = D at the orders: row j reads coordinate j off G y
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def prime_support(self):
        """Primes dividing the order, factored on first read only."""
        if "primes" not in self._cache:
            self._cache["primes"] = tuple(sorted(factorize(self.order))) if self.orders else ()
        return self._cache["primes"]

    def classify(self, nums, den):
        """Coordinates on the generators of the class of the dual vector
        nums / den; ValueError when it is not a dual vector."""
        gy = self.lattice._dual_image(nums, den)
        if gy is None:
            raise ValueError("vector is not in the dual lattice")
        return tuple(
            sum(u * c for u, c in zip(row, gy)) % d for row, d in zip(self.coord_rows, self.orders)
        )


def glue_group(lattice):
    """Glue group of a lattice, generators derived from the SNF transforms
    and the form table from the Gram matrix X G X^T of their lifts."""
    if "glue" in lattice._cache:
        return lattice._cache["glue"]
    snf = smith_normal_form(lattice.gram)
    # the orders form a divisibility chain, so the last one (the
    # exponent) is a denominator for every generator lift
    orders = [d for d in snf.diagonal if d > 1]
    lift_den = orders[-1] if orders else 1
    lifts = [
        tuple(c * (lift_den // d) % lift_den for c in snf.V.col(i))
        for i, d in enumerate(snf.diagonal) if d > 1
    ]
    gram = ()
    if lifts:
        x = IntMatrix(lifts)
        gram = (x @ lattice.gram @ x.transpose()).data
    den = lift_den * lift_den
    group = GlueGroup(
        orders=tuple(orders),
        lifts=tuple(lifts),
        lift_den=lift_den,
        pair_nums=tuple(tuple(v % den for v in row) for row in gram),
        norm_nums=(
            tuple(gram[i][i] % (2 * den) for i in range(len(gram)))
            if lattice.is_even() else None
        ),
        lattice=lattice,
        coord_rows=tuple(snf.U.row(i) for i, d in enumerate(snf.diagonal) if d > 1),
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
    den, lift_den, comps = group.den, group.lift_den, []
    for p in group.prime_support:
        orders, lifts, idx, cofs = [], [], [], []
        for j, d in enumerate(group.orders):
            if d % p:
                continue
            cof = d
            while cof % p == 0:
                cof //= p
            orders.append(d // cof)
            lifts.append(tuple(cof * x % lift_den for x in group.lifts[j]))
            idx.append(j)
            cofs.append(cof)
        comps.append(
            SylowComponent(
                orders=tuple(orders),
                lifts=tuple(lifts),
                lift_den=lift_den,
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


def induced_glue_action(isometry, comp):
    """Action of an isometry on one Sylow component of its lattice's glue
    group: column k holds the coordinates of the image of generator k,
    reduced mod the component's orders."""
    group = glue_group(isometry.lattice)
    images = isometry.matrix @ IntMatrix(comp.lifts).transpose()
    cols = [comp.project(group.classify(images.col(k), comp.lift_den)) for k in range(images.cols)]
    return IntMatrix(cols).transpose()


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
    """Whether sub's columns span a primitive sublattice."""
    if sub.rows != lattice.rank:
        raise ValueError("generator matrix has the wrong ambient rank")
    diag = smith_normal_form(sub).diagonal
    if len(diag) < sub.cols or any(d == 0 for d in diag):
        raise ValueError("generators are not linearly independent")
    return all(d == 1 for d in diag)


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

