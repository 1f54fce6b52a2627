"""Glue two even lattices along an anti-isometry of their glue groups
into an even unimodular overlattice carrying both isometries.

Glue maps are found prime by prime: scalar scan on cyclic parts,
eigenline matching on two-dimensional killed parts with split action,
bounded exhaustive search otherwise. All choices are deterministic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .lattices import (
    Lattice,
    _matvec,
    _p_part_coords,
    check_isometry,
    sylow_decomposition,
)
from .matrices import (
    IntMatrix,
    block_diagonal,
    common_denominator,
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


def anti_isometry_scalars(q1, q2, order):
    """Unit scalars c mod `order` with c^2 q2 = -q1 in Q/2Z, ascending."""
    if q1.modulus != 2 or q2.modulus != 2:
        raise ValueError("quadratic torsion values required")
    out = []
    for c in range(1, order):
        if math.gcd(c, order) != 1:
            continue
        if (c * c * q2.value + q1.value) % 2 == 0:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class GlueComponent:
    prime: int
    matrix: IntMatrix  # generator images of comp1 on comp2's generators
    comp1: object
    comp2: object

    def image_coords(self, coords):
        out = _matvec(self.matrix, coords)
        return tuple(int(c) % d for c, d in zip(out, self.comp2.orders))


class GlueMap:
    """Anti-isometric, equivariant isomorphism G(L1) -> G(L2), per prime."""

    def __init__(self, group1, group2, components):
        self.group1 = group1
        self.group2 = group2
        self.components = tuple(components)

    def graph_pairs(self):
        """(x, gamma x) dual-lift pairs generating the graph of the map."""
        pairs = []
        for gc in self.components:
            k = len(gc.comp1.orders)
            for j in range(k):
                coords = tuple(1 if i == j else 0 for i in range(k))
                image = gc.image_coords(coords)
                pairs.append((gc.comp1.lifts[j], gc.comp2.lift_of(image)))
        return pairs

    def matches_classes(self, x, y):
        """Whether gamma sends the class of x to the class of y, exactly."""
        for gc in self.components:
            c1 = _p_part_coords(self.group1, gc.comp1, x)
            c2 = _p_part_coords(self.group2, gc.comp2, y)
            if gc.image_coords(c1) != c2:
                return False
        return True


def _quad(group, comp, coords):
    return group.quadratic(comp.lift_of(coords)).value


def _pair_num(group, comp, coords_a, coords_b, p):
    """Numerator mod p of the torsion pairing of two p-part classes."""
    v = group.bilinear(comp.lift_of(coords_a), comp.lift_of(coords_b)).value
    return int(v * p) % p


def _verify_component(g1, g2, action1, action2, gc):
    """Anti-isometry on generators and pairwise sums, plus equivariance."""
    k = len(gc.comp1.orders)
    basis = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    probes = list(basis)
    for i in range(k):
        for j in range(i + 1, k):
            probes.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    for coords in probes:
        image = gc.image_coords(coords)
        if (_quad(g1, gc.comp1, coords) + _quad(g2, gc.comp2, image)) % 2 != 0:
            return "form mismatch"
    for j in range(k):
        x = gc.comp1.lifts[j]
        tx = action1.isometry.apply(x)
        left = gc.image_coords(_p_part_coords(g1, gc.comp1, tx))
        y = gc.comp2.lift_of(gc.image_coords(basis[j]))
        right = _p_part_coords(g2, gc.comp2, action2.isometry.apply(y))
        if left != right:
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
    s = next((x for x in range(p) if x * x % p == disc), None)
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


def _find_cyclic(g1, g2, action1, action2, comp1, comp2):
    d = comp1.orders[0]
    q1 = g1.quadratic(comp1.lifts[0])
    q2 = g2.quadratic(comp2.lifts[0])
    scalars = anti_isometry_scalars(q1, q2, d)
    m1 = action1.sylow_matrix(comp1)[0, 0] % d
    m2 = action2.sylow_matrix(comp2)[0, 0] % d
    if not scalars:
        raise NoGlueMapError(
            f"no scalar matches the quadratic values at p-part of order {d}",
            "form mismatch",
        )
    if m1 != m2:
        raise NoGlueMapError(
            f"cyclic actions differ ({m1} vs {m2} mod {d})",
            "equivariance mismatch",
        )
    return IntMatrix([[scalars[0]]])


def _find_eigen(g1, g2, action1, action2, comp1, comp2, p):
    s1 = _eigen_split(action1.sylow_matrix(comp1), p)
    s2 = _eigen_split(action2.sylow_matrix(comp2), p)
    if s1 is None or s2 is None:
        return None
    if [lam for lam, _ in s1] != [lam for lam, _ in s2]:
        raise NoGlueMapError(
            f"actions on the {p}-parts have different eigenvalues",
            "equivariance mismatch",
        )
    (lam, v1), (mu, w1) = s1
    (_, v2), (_, w2) = s2
    for g, comp, vec in ((g1, comp1, v1), (g1, comp1, w1), (g2, comp2, v2), (g2, comp2, w2)):
        if _quad(g, comp, vec) != 0:
            return None  # eigenlines not isotropic; let the fallback decide
    b1 = _pair_num(g1, comp1, v1, w1, p)
    b2 = _pair_num(g2, comp2, v2, w2, p)
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


def _find_exhaustive(g1, g2, action1, action2, comp1, comp2):
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
        if (_quad(g1, comp1, basis[j]) + _quad(g2, comp2, cand)) % 2 != 0:
            return False
        for i, prev in enumerate(assigned):
            want = -g1.bilinear(comp1.lifts[i], comp1.lifts[j]).value % 1
            got = g2.bilinear(comp2.lift_of(prev), comp2.lift_of(cand)).value
            if got != want:
                return False
        return True

    form_only_found = False

    def search(assigned):
        nonlocal form_only_found
        j = len(assigned)
        if j == k:
            cols = [list(col) for col in assigned]
            gc = GlueComponent(comp1.prime, IntMatrix(cols).transpose(), comp1, comp2)
            images = {tuple(gc.image_coords(e)) for e in product(*(range(d) for d in comp1.orders))}
            if len(images) != size:
                return None
            form_only_found = True
            if _verify_component(g1, g2, action1, action2, gc) is None:
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


def find_glue_map(group1, group2, action1, action2):
    """Deterministic anti-isometric equivariant glue map, or NoGlueMapError.

    Primes are handled in increasing order; within each prime the first
    admissible candidate in a fixed enumeration is taken.
    """
    if action1.glue is not group1 or action2.glue is not group2:
        raise ValueError("actions do not belong to the given glue groups")
    if group1.order != group2.order:
        raise ValueError("glue groups have different orders")
    if group1.prime_support != group2.prime_support:
        raise ValueError("glue groups have different prime supports")
    for g in (group1, group2):
        if not g.lattice.is_even():
            raise ValueError("gluing needs even lattices")
    syl1 = {c.prime: c for c in sylow_decomposition(group1)}
    syl2 = {c.prime: c for c in sylow_decomposition(group2)}
    components = []
    for p in group1.prime_support:
        comp1, comp2 = syl1[p], syl2[p]
        if comp1.orders != comp2.orders:
            raise NoGlueMapError(
                f"{p}-parts are not isomorphic: {comp1.orders} vs {comp2.orders}",
                "group mismatch",
            )
        if len(comp1.orders) == 1:
            matrix = _find_cyclic(g1=group1, g2=group2, action1=action1,
                                  action2=action2, comp1=comp1, comp2=comp2)
        else:
            matrix = None
            if len(comp1.orders) == 2 and comp1.killed_by_p and p % 2 == 1:
                matrix = _find_eigen(group1, group2, action1, action2, comp1, comp2, p)
            if matrix is None:
                matrix = _find_exhaustive(group1, group2, action1, action2, comp1, comp2)
        gc = GlueComponent(p, matrix, comp1, comp2)
        bad = _verify_component(group1, group2, action1, action2, gc)
        if bad is not None:
            raise AssertionError(f"constructed glue component fails verification: {bad}")
        components.append(gc)
    return GlueMap(group1, group2, components)


def verify_glue_map(gmap, action1, action2):
    """Re-run every component check; None when clean, else the first
    obstruction as "<prime>: <what failed>"."""
    for gc in gmap.components:
        bad = _verify_component(gmap.group1, gmap.group2, action1, action2, gc)
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
    lattice1: Lattice
    lattice2: Lattice
    index: int


def glue(l1, l2, gmap):
    """Even unimodular overlattice of L1 (+) L2 along a glue map.

    The ambient basis is the HNF of the stacked generators (L1 basis,
    L2 basis, graph lifts), so the output Gram matrix is canonical.
    """
    n1, n = l1.rank, l1.rank + l2.rank
    rows = list(IntMatrix.identity(n).data) + [x + y for x, y in gmap.graph_pairs()]
    stacked, scale = common_denominator(rows)
    h, _ = hermite_normal_form(stacked)
    if any(any(row) for row in h.data[n:]):
        raise AssertionError("generator stack has rank above the ambient rank")
    basis = IntMatrix(h.data[:n])

    for row in basis.data:
        x = [Fraction(c, scale) for c in row[:n1]]
        y = [Fraction(c, scale) for c in row[n1:]]
        if not (l1.in_dual(x) and l2.in_dual(y)):
            raise AssertionError("ambient basis vector outside the dual sum")
        if not gmap.matches_classes(x, y):
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
    return GluingResult(ambient, basis, scale, embed1, embed2, l1, l2, index)


def extend_isometry(result, t1, t2):
    """Isometry of the glued lattice restricting to t1 and t2.

    Raises when the diagonal action does not stabilize the ambient
    lattice (an equivariance violation upstream).
    """
    # with B = basis / scale the extension is B^-T T B^T; the scale cancels
    bt = result.basis.transpose()
    ext, d = solve_rational(bt, block_diagonal(t1.matrix, t2.matrix) @ bt)
    if d != 1:
        raise ValueError("extension is not integral: glue map is not equivariant")
    iso = check_isometry(result.ambient, ext)
    if iso.matrix @ result.embed1 != result.embed1 @ t1.matrix:
        raise AssertionError("extension does not restrict to the first isometry")
    if iso.matrix @ result.embed2 != result.embed2 @ t2.matrix:
        raise AssertionError("extension does not restrict to the second isometry")
    return iso
