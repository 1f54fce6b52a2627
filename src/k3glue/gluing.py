"""Glue two even lattices along an anti-isometry of their glue groups
into an even unimodular overlattice carrying both isometries.

Glue maps are found prime by prime: on cyclic parts the scalars come
from modular square roots (Tonelli-Shanks and Hensel lifting, never a
scan over residues); two-dimensional killed parts with split action
match eigenlines; anything else gets a bounded exhaustive search. Form
values are read from each Sylow component's discriminant-form table.
All choices are deterministic.
"""

import math
from dataclasses import dataclass
from itertools import product

from .arith import FactorizationBoundError, factorize
from .lattices import (
    Lattice,
    check_isometry,
    glue_group,
    induced_glue_action,
    sylow_decomposition,
)
from .matrices import (
    IntMatrix,
    block_diagonal,
    det,
    exact_quotient,
    hermite_normal_form,
    join_columns,
    solve_rational,
)


class NoGlueMapError(Exception):
    """No admissible glue map; `obstruction` names the failing condition."""

    def __init__(self, message, obstruction):
        super().__init__(message)
        self.obstruction = obstruction


def _sqrt_mod_prime(b, p):
    """A square root of b modulo an odd prime p (Tonelli-Shanks), or None."""
    b %= p
    if b == 0:
        return 0
    if pow(b, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Bach: under GRH the least non-residue is below 2 (ln p)^2, which is
    # below bit_length^2; a composite passing as prime may have none
    for z in range(2, p.bit_length() ** 2):
        if pow(z, (p - 1) // 2, p) == p - 1:
            break
    else:
        raise ValueError(f"no quadratic non-residue mod {p} below the Bach bound")
    m, c, t, r = s, pow(z, q, p), pow(b, q, p), pow(b, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        f = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, f * f % p, t * f * f % p, r * f % p
    return r


def _unit_root_classes(b, r, k):
    """Classes (y, n) whose union is the set of y with y^2 = b mod r^k,
    for a unit b, r prime and k >= 1."""
    rk = r**k
    if r == 2:
        if b % 2 ** min(k, 3) != 1:
            return []
        if k <= 2:
            return [(1, 2)]
        # lift one bit at a time; the four roots are +-y and +-y + 2^(k-1)
        y = 1
        for i in range(3, k):
            if (y * y - b) % 2 ** (i + 1):
                y += 2 ** (i - 1)
        half = rk // 2
        return [(y % half, half), (-y % half, half)]
    y = _sqrt_mod_prime(b, r)
    if y is None:
        return []
    m = r
    while m < rk:  # Hensel (Newton) lifting doubles the precision
        m = min(m * m, rk)
        y = (y - (y * y - b) * pow(2 * y, -1, m)) % m
    return [(y, rk), (-y % rk, rk)]


def _valuation(n, r):
    v = 0
    while n % r == 0:
        n //= r
        v += 1
    return v


def _root_classes(a, b, r, k):
    """Classes (x0, n) whose union is the set of x with a x^2 = b mod r^k."""
    rk = r**k
    a, b = a % rk, b % rk
    v = _valuation(a, r) if a else k
    if b % r**v:
        return []
    big = r ** (k - v)
    rhs = (b // r**v) * pow(a // r**v, -1, big) % big  # x^2 = rhs mod big
    if rhs == 0:
        return [(0, r ** ((k - v + 1) // 2))]
    w = _valuation(rhs, r)
    if w % 2:
        return []
    # every root is r^(w/2) times a unit root of rhs / r^w
    scale = r ** (w // 2)
    return [
        (scale * y, scale * n)
        for y, n in _unit_root_classes(rhs // r**w, r, k - v - w)
    ]


def anti_isometry_scalars(q1, q2, order):
    """Unit scalars c mod `order` with c^2 q2 = -q1 in Q/2Z, ascending.

    q1 and q2 are quadratic torsion values in [0, 2) and `order` must be
    a prime power p^e. Over the common denominator L of
    the values the condition is the integer congruence
    c^2 L q2 = -L q1 mod 2L, solved prime by prime of 2L by modular
    square roots and joined by the Chinese remainder theorem. For values
    of a p-part (denominators powers of p) the time is polynomial in
    log(order) plus the size of the answer; each scalar returned is
    re-checked against the condition in Q/2Z.
    """
    if order == 1:
        return ()
    primes = factorize(order) if order > 1 else {}
    if len(primes) != 1:
        raise ValueError(f"order {order} is not a prime power")
    (p,) = primes
    den = math.lcm(q1.denominator, q2.denominator)
    a, b = int(q2 * den), int(-q1 * den)
    # 2L is a power of 2 times a power of p for values of a p-part; only
    # a foreign denominator leaves a cofactor for factorize
    rest, modulus = 2 * den, {}
    for r in {2, p}:
        if rest % r == 0:
            modulus[r] = _valuation(rest, r)
            rest //= r ** modulus[r]
    modulus.update(factorize(rest))
    classes = [(0, 1)]
    for r, k in modulus.items():
        classes = [
            (s + n * ((t - s) * pow(n, -1, m) % m), n * m)
            for s, n in classes
            for t, m in _root_classes(a, b, r, k)
        ]
    out = []
    for s, n in classes:
        if n % p == 0 and s % p == 0:
            continue  # no unit in this class
        out.extend(c for c in range(s or n, order, n) if c % p)
    out.sort()
    for c in out:
        if (c * c * q2 + q1) % 2 != 0 or math.gcd(c, order) != 1:
            raise AssertionError(f"scalar {c} fails the anti-isometry condition")
    return tuple(out)


@dataclass(frozen=True)
class GlueComponent:
    matrix: IntMatrix  # generator images of comp1 on comp2's generators
    comp1: object
    comp2: object

    @property
    def prime(self):
        return self.comp1.prime

    def image_coords(self, coords):
        return tuple(
            sum(m * c for m, c in zip(row, coords)) % d
            for row, d in zip(self.matrix.data, self.comp2.orders)
        )


class GlueMap:
    """Anti-isometric, equivariant isomorphism G(L1) -> G(L2), per prime."""

    def __init__(self, group1, group2, components):
        self.group1 = group1
        self.group2 = group2
        self.components = tuple(components)

    def graph_rows(self, den):
        """Numerators over den of the rows (x | gamma x), dual lifts that
        generate the graph of the map; den must be a multiple of every
        component's lift_den."""
        rows = []
        for gc in self.components:
            s1, s2 = den // gc.comp1.lift_den, den // gc.comp2.lift_den
            k = len(gc.comp1.orders)
            for j in range(k):
                image = gc.image_coords(tuple(int(i == j) for i in range(k)))
                rows.append(
                    tuple(s1 * c for c in gc.comp1.lifts[j])
                    + tuple(s2 * c for c in gc.comp2.lift_of(image))
                )
        return rows

    def matches_classes(self, x, y, den):
        """Whether gamma sends the class of x / den to the class of
        y / den, exactly; ValueError when either is not a dual vector."""
        full1, full2 = self.group1.classify(x, den), self.group2.classify(y, den)
        return all(
            gc.image_coords(gc.comp1.project(full1)) == gc.comp2.project(full2)
            for gc in self.components
        )


def _pair_num(comp, coords_a, coords_b, p):
    """Numerator mod p of the torsion pairing of two p-part classes."""
    return int(comp.bilinear(coords_a, coords_b) * p) % p


def _verify_component(m1, m2, gc):
    """Anti-isometry on generators and pairwise sums, plus equivariance
    gamma m1 = m2 gamma on the Sylow action matrices."""
    k = len(gc.comp1.orders)
    basis = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    probes = list(basis)
    for i in range(k):
        for j in range(i + 1, k):
            probes.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    for coords in probes:
        image = gc.image_coords(coords)
        if (gc.comp1.quadratic(coords) + gc.comp2.quadratic(image)) % 2 != 0:
            return "form mismatch"
    left = gc.matrix @ m1
    right = m2 @ gc.matrix
    for row_l, row_r, d in zip(left.data, right.data, gc.comp2.orders):
        if any((a - b) % d for a, b in zip(row_l, row_r)):
            return "equivariance mismatch"
    return None


def _eigen_split(m, p):
    """Eigenvalues and normalized eigenvectors of a 2x2 matrix over F_p,
    ascending eigenvalue order; None unless they are distinct in F_p."""
    a, b = m[0, 0] % p, m[0, 1] % p
    c, d = m[1, 0] % p, m[1, 1] % p
    tr, dt = (a + d) % p, (a * d - b * c) % p
    disc = (tr * tr - 4 * dt) % p
    if disc == 0:
        return None
    s = _sqrt_mod_prime(disc, p)
    if s is None:
        return None
    inv2 = pow(2, -1, p)
    lams = sorted(((tr - s) * inv2 % p, (tr + s) * inv2 % p))
    out = []
    for lam in lams:
        if b:
            v = (b, (lam - a) % p)
        elif c:
            v = ((lam - d) % p, c)
        else:
            v = (1, 0) if lam == a else (0, 1)
        lead = next(x for x in v if x % p)
        inv = pow(lead, -1, p)
        out.append((lam, tuple(x * inv % p for x in v)))
    return out


def _find_cyclic(m1, m2, comp1, comp2):
    d = comp1.orders[0]
    scalars = anti_isometry_scalars(comp1.quadratic((1,)), comp2.quadratic((1,)), d)
    if not scalars:
        raise NoGlueMapError(
            f"no scalar matches the quadratic values at p-part of order {d}",
            "form mismatch",
        )
    if m1 != m2:
        raise NoGlueMapError(
            f"cyclic actions differ ({m1[0, 0]} vs {m2[0, 0]} mod {d})",
            "equivariance mismatch",
        )
    return IntMatrix([[scalars[0]]])


def _find_eigen(m1, m2, comp1, comp2, p):
    s1 = _eigen_split(m1, p)
    s2 = _eigen_split(m2, p)
    if s1 is None or s2 is None:
        return None
    if [lam for lam, _ in s1] != [lam for lam, _ in s2]:
        raise NoGlueMapError(
            f"actions on the {p}-parts have different eigenvalues",
            "equivariance mismatch",
        )
    (lam, v1), (mu, w1) = s1
    (_, v2), (_, w2) = s2
    for comp, vec in ((comp1, v1), (comp1, w1), (comp2, v2), (comp2, w2)):
        if comp.quadratic(vec) != 0:
            return None  # eigenlines not isotropic; let the fallback decide
    b1 = _pair_num(comp1, v1, w1, p)
    b2 = _pair_num(comp2, v2, w2, p)
    if b1 == 0 or b2 == 0:
        return None
    # gamma: v1 -> v2, w1 -> r w2 with r solving the single pairing equation
    r = -b1 * pow(b2, -1, p) % p
    p1 = IntMatrix([[v1[0], w1[0]], [v1[1], w1[1]]])
    p2 = IntMatrix([[v2[0], w2[0]], [v2[1], w2[1]]])
    dt = (p1[0, 0] * p1[1, 1] - p1[0, 1] * p1[1, 0]) % p
    inv = pow(dt, -1, p)
    adj = IntMatrix([[p1[1, 1], -p1[0, 1]], [-p1[1, 0], p1[0, 0]]])
    m = p2 @ IntMatrix([[1, 0], [0, r]]) @ adj
    return IntMatrix([[m[i, j] * inv % p for j in range(2)] for i in range(2)])


def _find_exhaustive(m1, m2, comp1, comp2):
    size = math.prod(comp1.orders)
    if size > 10**4:
        raise NoGlueMapError(
            f"p-part of order {size} exceeds the exhaustive search bound",
            "search bound",
        )
    k = len(comp1.orders)
    elements = list(product(*(range(d) for d in comp2.orders)))
    basis = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]

    def admissible(assigned, j, cand):
        if comp2.class_order(cand) != comp1.orders[j]:
            return False
        if (comp1.quadratic(basis[j]) + comp2.quadratic(cand)) % 2 != 0:
            return False
        for i, prev in enumerate(assigned):
            if comp2.bilinear(prev, cand) != -comp1.bilinear(basis[i], basis[j]) % 1:
                return False
        return True

    form_only_found = False

    def search(assigned):
        nonlocal form_only_found
        j = len(assigned)
        if j == k:
            # orders, q and b agree on the generators, so gamma is an
            # anti-isometry of a nondegenerate form: injective, hence onto
            gc = GlueComponent(IntMatrix(assigned).transpose(), comp1, comp2)
            form_only_found = True
            if _verify_component(m1, m2, gc) is None:
                return gc.matrix
            return None
        for cand in elements:
            if admissible(assigned, j, cand):
                found = search(assigned + [cand])
                if found is not None:
                    return found
        return None

    found = search([])
    if found is not None:
        return found
    raise NoGlueMapError(
        f"exhaustive search over the {comp1.prime}-part failed",
        "equivariance mismatch" if form_only_found else "form mismatch",
    )


def find_glue_map(t1, t2):
    """Deterministic anti-isometric glue map, equivariant for the actions
    t1 and t2 induce on their lattices' glue groups, or NoGlueMapError.

    Primes are handled in increasing order; within each prime the first
    admissible candidate in a fixed enumeration is taken.
    """
    group1, group2 = glue_group(t1.lattice), glue_group(t2.lattice)
    if group1.order != group2.order:
        raise ValueError("glue groups have different orders")
    for g in (group1, group2):
        if not g.lattice.is_even():
            raise ValueError("gluing needs even lattices")
    try:  # equal orders have equal prime supports
        syl1 = {c.prime: c for c in sylow_decomposition(group1)}
        syl2 = {c.prime: c for c in sylow_decomposition(group2)}
    except FactorizationBoundError as exc:
        raise NoGlueMapError(str(exc), "factorization bound") from None
    components = []
    for p in group1.prime_support:
        comp1, comp2 = syl1[p], syl2[p]
        if comp1.orders != comp2.orders:
            raise NoGlueMapError(
                f"{p}-parts are not isomorphic: {comp1.orders} vs {comp2.orders}",
                "group mismatch",
            )
        m1, m2 = induced_glue_action(t1, comp1), induced_glue_action(t2, comp2)
        if len(comp1.orders) == 1:
            matrix = _find_cyclic(m1, m2, comp1, comp2)
        else:
            matrix = None
            if len(comp1.orders) == 2 and comp1.killed_by_p and p % 2 == 1:
                matrix = _find_eigen(m1, m2, comp1, comp2, p)
            if matrix is None:
                matrix = _find_exhaustive(m1, m2, comp1, comp2)
        gc = GlueComponent(matrix, comp1, comp2)
        bad = _verify_component(m1, m2, gc)
        if bad is not None:
            raise AssertionError(f"constructed glue component fails verification: {bad}")
        components.append(gc)
    return GlueMap(group1, group2, components)


def verify_glue_map(gmap, t1, t2):
    """Re-run every component check for t1 and t2; None when clean, else
    the first obstruction as "<prime>: <what failed>"."""
    for gc in gmap.components:
        m1 = induced_glue_action(t1, gc.comp1)
        m2 = induced_glue_action(t2, gc.comp2)
        bad = _verify_component(m1, m2, gc)
        if bad is not None:
            return f"{gc.prime}: {bad}"
    return None


@dataclass(frozen=True)
class GluingResult:
    ambient: Lattice
    #: rows, divided by `scale`, are the ambient basis vectors in
    #: L1 (+) L2 coordinates
    basis: IntMatrix
    scale: int  # positive common denominator of the basis rows
    embed1: IntMatrix  # columns: L1 basis in ambient coordinates
    embed2: IntMatrix


def glue(gmap):
    """Even unimodular overlattice of L1 (+) L2 along a glue map of
    their glue groups.

    The ambient basis is the HNF of the stacked generators (L1 basis,
    L2 basis, graph lifts, all as numerators over one scale), so the
    output Gram matrix is canonical.
    """
    l1, l2 = gmap.group1.lattice, gmap.group2.lattice
    n1, n = l1.rank, l1.rank + l2.rank
    scale = math.lcm(*(c.lift_den for gc in gmap.components for c in (gc.comp1, gc.comp2)))
    h, _ = hermite_normal_form(
        IntMatrix((scale * IntMatrix.identity(n)).data + tuple(gmap.graph_rows(scale)))
    )
    if any(any(row) for row in h.data[n:]):
        raise AssertionError("generator stack has rank above the ambient rank")
    basis = IntMatrix(h.data[:n])

    for row in basis.data:
        try:
            matched = gmap.matches_classes(row[:n1], row[n1:], scale)
        except ValueError:
            raise AssertionError("ambient basis vector outside the dual sum") from None
        if not matched:
            raise AssertionError("ambient basis vector violates the glue condition")

    gram = basis @ block_diagonal(l1.gram, l2.gram) @ basis.transpose()
    try:
        ambient = Lattice(exact_quotient(gram, scale * scale))
    except ValueError:
        raise AssertionError("glued form is not integral") from None
    if not ambient.is_even():
        raise AssertionError("glued lattice is not even")
    if abs(ambient.det) != 1:
        raise AssertionError("glued lattice is not unimodular")

    # column j of B^-T holds the j-th summand basis vector in ambient coordinates
    coords, d = solve_rational(basis.transpose(), scale * IntMatrix.identity(n))
    if d != 1:
        raise AssertionError("direct summand escapes the ambient lattice")
    embed1 = IntMatrix([row[:n1] for row in coords.data])
    embed2 = IntMatrix([row[n1:] for row in coords.data])

    if embed1.transpose() @ ambient.gram @ embed1 != l1.gram:
        raise AssertionError("first embedding is not isometric")
    if embed2.transpose() @ ambient.gram @ embed2 != l2.gram:
        raise AssertionError("second embedding is not isometric")
    index = abs(det(join_columns(embed1, embed2)))
    if index * index * abs(ambient.det) != abs(l1.det) * abs(l2.det):
        raise AssertionError("index law fails")
    return GluingResult(ambient, basis, scale, embed1, embed2)


def extend_isometry(result, t1, t2):
    """Isometry of the glued lattice restricting to t1 and t2.

    Raises when the diagonal action does not stabilize the ambient
    lattice (an equivariance violation upstream).
    """
    # the extension is B^-T T B^T, and the joined embeddings are scale B^-T
    joined = join_columns(result.embed1, result.embed2)
    product = joined @ block_diagonal(t1.matrix, t2.matrix) @ result.basis.transpose()
    try:
        ext = exact_quotient(product, result.scale)
    except ValueError:
        raise ValueError("extension is not integral: glue map is not equivariant") from None
    iso = check_isometry(result.ambient, ext)
    if iso.matrix @ result.embed1 != result.embed1 @ t1.matrix:
        raise AssertionError("extension does not restrict to the first isometry")
    if iso.matrix @ result.embed2 != result.embed2 @ t2.matrix:
        raise AssertionError("extension does not restrict to the second isometry")
    return iso
