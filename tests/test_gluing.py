import dataclasses
import random
from fractions import Fraction
from functools import reduce

import pytest

from k3glue.arith import factorize
from k3glue.gluing import (
    GlueComponent,
    GlueMap,
    NoGlueMapError,
    _eigen_split,
    _sqrt_mod_prime,
    anti_isometry_scalars,
    extend_isometry,
    find_glue_map,
    glue,
    verify_glue_map,
)
from k3glue.lattices import (
    Lattice,
    TorsionValue,
    check_isometry,
    glue_group,
    induced_glue_action,
    sylow_decomposition,
)
from k3glue.matrices import IntMatrix, block_diagonal, solve_rational


def tv(value):
    return TorsionValue(Fraction(value) % 2, 2)


def identity_action(lattice):
    iso = check_isometry(lattice, IntMatrix.identity(lattice.rank))
    return induced_glue_action(iso)


def glue_with_identities(l1, l2):
    gmap = find_glue_map(
        glue_group(l1), glue_group(l2), identity_action(l1), identity_action(l2)
    )
    return gmap, glue(l1, l2, gmap)


def test_anti_isometry_scalars():
    # opposite values: c^2 (8/5) + 2/5 = 0 mod 2 iff c^2 = 1 mod 5
    assert anti_isometry_scalars(tv(Fraction(2, 5)), tv(Fraction(8, 5)), 5) == (1, 4)
    # equal values: c^2 (2/5) + 2/5 = 0 mod 2 iff c^2 = -1 mod 5
    assert anti_isometry_scalars(tv(Fraction(2, 5)), tv(Fraction(2, 5)), 5) == (2, 3)
    assert anti_isometry_scalars(tv(Fraction(1, 2)), tv(Fraction(1, 2)), 2) == ()
    assert anti_isometry_scalars(tv(Fraction(1, 2)), tv(Fraction(3, 2)), 2) == (1,)
    with pytest.raises(ValueError):
        anti_isometry_scalars(TorsionValue(Fraction(1, 2), 1), tv(1), 2)


def test_toy_glue_rank_one():
    l1, l2 = Lattice([[2]]), Lattice([[-2]])
    gmap, result = glue_with_identities(l1, l2)
    amb = result.ambient
    assert amb.rank == 2
    assert amb.is_even() and amb.is_unimodular()
    assert amb.signature() == (1, 1)
    assert result.index == 2
    assert result.index**2 * abs(amb.det) == abs(l1.det) * abs(l2.det)
    assert verify_glue_map(gmap, identity_action(l1), identity_action(l2)) is None


def test_toy_glue_order_six():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    gmap, result = glue_with_identities(l1, l2)
    assert result.ambient.invariants() == {
        "rank": 2,
        "even": True,
        "unimodular": True,
        "det": -1,
        "signature": (1, 1),
    }
    assert result.index == 6


def test_glue_exhaustive_two_generator_component():
    # 2-parts of shape (2, 2) take the exhaustive search path
    l1 = Lattice([[2, 0], [0, 2]])
    l2 = Lattice([[-2, 0], [0, -2]])
    _, result = glue_with_identities(l1, l2)
    assert result.ambient.rank == 4
    assert result.ambient.is_even() and result.ambient.is_unimodular()
    assert result.ambient.signature() == (2, 2)
    assert result.index == 4


def test_glue_trivial_groups():
    h = Lattice([[0, 1], [1, 0]])
    gmap, result = glue_with_identities(h, h)
    assert gmap.components == ()
    assert result.index == 1
    assert result.ambient.rank == 4
    assert result.ambient.is_unimodular()


def test_no_glue_map_form_obstruction():
    l = Lattice([[2]])
    with pytest.raises(NoGlueMapError) as exc:
        find_glue_map(glue_group(l), glue_group(l), identity_action(l), identity_action(l))
    assert exc.value.obstruction == "form mismatch"


def test_no_glue_map_equivariance_obstruction():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    neg = check_isometry(l1, [[-1]])
    with pytest.raises(NoGlueMapError) as exc:
        find_glue_map(
            glue_group(l1),
            glue_group(l2),
            induced_glue_action(neg),
            identity_action(l2),
        )
    assert exc.value.obstruction == "equivariance mismatch"


def test_group_shape_rejections():
    l2, l6 = Lattice([[2]]), Lattice([[6]])
    with pytest.raises(ValueError, match="different orders"):
        find_glue_map(glue_group(l2), glue_group(l6), identity_action(l2), identity_action(l6))
    odd = Lattice([[1]])
    modd = Lattice([[-1]])
    with pytest.raises(ValueError, match="even"):
        find_glue_map(glue_group(odd), glue_group(modd), identity_action(odd), identity_action(modd))
    with pytest.raises(ValueError, match="do not belong"):
        find_glue_map(glue_group(l2), glue_group(l2), identity_action(l6), identity_action(l2))


def test_sylow_shape_mismatch():
    # same order 16, different 2-part shapes: (4, 4) vs (2, 8)
    l1 = Lattice([[4, 0], [0, 4]])
    l2 = Lattice([[-2, 0], [0, -8]])
    with pytest.raises(NoGlueMapError) as exc:
        find_glue_map(glue_group(l1), glue_group(l2), identity_action(l1), identity_action(l2))
    assert exc.value.obstruction == "group mismatch"


def test_graph_pairs_and_matches_classes():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    gmap, _ = glue_with_identities(l1, l2)
    for x, y in gmap.graph_pairs():
        assert l1.in_dual(x) and l2.in_dual(y)
        assert gmap.matches_classes(x, y)
        # the pairing must be anti-isometric on the graph
        g1, g2 = glue_group(l1), glue_group(l2)
        q1 = g1.quadratic(g1.classify(x)).value
        q2 = g2.quadratic(g2.classify(y)).value
        assert (q1 + q2) % 2 == 0
    assert not gmap.matches_classes((Fraction(1, 6),), (Fraction(5, 6),))


def test_verify_glue_map_detects_corruption():
    l1, l2 = Lattice([[10]]), Lattice([[-10]])
    gmap, _ = glue_with_identities(l1, l2)
    a1, a2 = identity_action(l1), identity_action(l2)
    assert verify_glue_map(gmap, a1, a2) is None
    assert [gc.prime for gc in gmap.components] == [2, 5]
    gc = next(c for c in gmap.components if c.prime == 5)
    g1, g2 = glue_group(l1), glue_group(l2)
    valid = anti_isometry_scalars(
        g1.quadratic(g1.classify(gc.comp1.lifts[0])),
        g2.quadratic(g2.classify(gc.comp2.lifts[0])),
        5,
    )
    bad_scalar = next(c for c in range(1, 5) if c not in valid)
    components = [
        GlueComponent(c.prime, IntMatrix([[bad_scalar]]), c.comp1, c.comp2)
        if c.prime == 5
        else c
        for c in gmap.components
    ]
    bad = GlueMap(gmap.group1, gmap.group2, components)
    assert verify_glue_map(bad, a1, a2) == "5: form mismatch"


def test_extend_isometry_diagonal():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    gmap, result = glue_with_identities(l1, l2)
    neg1 = check_isometry(l1, [[-1]])
    neg2 = check_isometry(l2, [[-1]])
    ext = extend_isometry(result, neg1, neg2)
    assert ext.matrix == -1 * IntMatrix.identity(2)
    with pytest.raises(ValueError, match="not integral"):
        extend_isometry(result, neg1, check_isometry(l2, [[1]]))


def prime_powers(limit):
    return [
        (p, p**e)
        for p in range(2, limit)
        if factorize(p) == {p: 1}
        for e in range(1, limit.bit_length())
        if p**e < limit
    ]


def scan_scalars(a, b, den, order, p):
    """The residue scan: units c < order with c^2 b/den + a/den in 2Z."""
    return tuple(c for c in range(1, order) if c % p and (c * c * b + a) % (2 * den) == 0)


def test_anti_isometry_scalars_match_the_scan():
    rng = random.Random(53)
    for p, order in prime_powers(2000):
        # natural denominator first; then values of smaller, larger and
        # foreign denominators, which no glue group produces
        dens = [order] + ([1, 2, p, 2 * order, p * order, 3 * order] if order < 64 else [])
        for den in dens:
            if den <= 8:
                pairs = [(a, b) for a in range(2 * den) for b in range(2 * den)]
            else:
                pairs = [(rng.randrange(2 * den), rng.randrange(2 * den)) for _ in range(3)]
                # numerators sharing a factor with p
                pairs += [
                    (p * rng.randrange(2 * den // p), rng.randrange(2 * den)),
                    (rng.randrange(2 * den), p * rng.randrange(2 * den // p)),
                ]
            for a, b in pairs:
                q1 = tv(Fraction(a, den))
                q2 = tv(Fraction(b, den))
                want = scan_scalars(a, b, den, order, p)
                assert anti_isometry_scalars(q1, q2, order) == want, (a, b, den, order)


def test_anti_isometry_scalars_at_a_large_prime():
    p = 10**9 + 7
    q1 = tv(Fraction(2, p))
    q2 = tv(Fraction(-2, p))
    assert anti_isometry_scalars(q1, q2, p) == (1, p - 1)
    c1 = tv(Fraction(2, p**2))
    c2 = tv(Fraction(-2, p**2))
    assert anti_isometry_scalars(c1, c2, p**2) == (1, p**2 - 1)
    assert anti_isometry_scalars(q1, q1, p) == ()  # -1 is not a square mod p = 3 mod 4
    # only even c solve c^2 / 2 = 0 mod 2: no unit, and no scan either
    zero, half = tv(0), tv(Fraction(1, 2))
    assert anti_isometry_scalars(zero, half, 2**60) == ()
    # c^2 = 1 mod 2^60 has four roots below 2^60
    h = tv(Fraction(1, 2**59))
    assert anti_isometry_scalars(h, tv(-h.value), 2**60) == (
        1, 2**59 - 1, 2**59 + 1, 2**60 - 1,
    )


def test_anti_isometry_scalars_reject_non_prime_powers():
    q = tv(Fraction(1, 3))
    for order in (0, -5, 6, 12, 2 * (10**9 + 7)):
        with pytest.raises(ValueError, match="prime power"):
            anti_isometry_scalars(q, q, order)
    assert anti_isometry_scalars(q, q, 1) == ()


def test_sqrt_mod_prime_matches_brute_force():
    for p in range(3, 500):
        if factorize(p) != {p: 1}:
            continue
        squares = {x * x % p for x in range(p)}
        for b in range(p):
            r = _sqrt_mod_prime(b, p)
            if b in squares:
                assert r is not None and r * r % p == b
            else:
                assert r is None


def test_eigen_split_matches_brute_force():
    rng = random.Random(59)
    for p in range(3, 500):
        if factorize(p) != {p: 1}:
            continue
        for _ in range(4):
            m = IntMatrix([[rng.randrange(p) for _ in range(2)] for _ in range(2)])
            a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            roots = [x for x in range(p) if ((a - x) * (d - x) - b * c) % p == 0]
            got = _eigen_split(m, p)
            if len(roots) != 2:
                assert got is None
                continue
            assert [lam for lam, _ in got] == roots
            for lam, v in got:
                assert next(x for x in v if x) == 1
                assert (a * v[0] + b * v[1] - lam * v[0]) % p == 0
                assert (c * v[0] + d * v[1] - lam * v[1]) % p == 0
    # the square root of the discriminant is near p / 2: no scan reaches it
    p = 10**9 + 7
    h = (p - 1) // 2
    assert _eigen_split(IntMatrix([[0, 1], [0, h]]), p) == [(0, (1, 0)), (h, (1, h))]


def test_sylow_tables_match_the_torsion_form():
    # oracle: the lattice's own form on lifts summed here, mod 1 and mod 2
    rng = random.Random(61)
    grams = [
        [[2]], [[6]], [[4, 1], [1, 4]], [[2, 0], [0, 6]], [[12, 6], [6, 30]],
        [[6002, 3001], [3001, -6002]], [[8, 0, 0], [0, 4, 2], [0, 2, 18]],
        [[3]], [[1, 0], [0, 6]], [[3, 1], [1, 5]], [[0, 1], [1, 0]], [[1]],
    ]
    for gram in grams:
        lat = Lattice(gram)
        group = glue_group(lat)
        comps = sylow_decomposition(group)
        assert comps is sylow_decomposition(group)  # computed once per group
        assert [c.prime for c in comps] == list(group.prime_support)
        if not group.orders:
            assert comps == ()
            assert group.bilinear((), ()).value == 0
            if lat.is_even():
                assert group.quadratic(()).value == 0
            continue
        for table in (group, *comps):
            for _ in range(20):
                c = tuple(rng.randrange(d) for d in table.orders)
                e = tuple(rng.randrange(d) for d in table.orders)
                x, y = (
                    [sum(ci * lift[k] for ci, lift in zip(coords, table.lifts)) for k in range(lat.rank)]
                    for coords in (c, e)
                )
                assert table.bilinear(c, e).value == lat.bilinear(x, y) % 1
                if lat.is_even():
                    assert table.quadratic(c).value == lat.bilinear(x, x) % 2
                else:
                    with pytest.raises(ValueError, match="even"):
                        table.quadratic(c)
                if table is not group:
                    assert table.project(group.classify(table.lift_of(c))) == c


def test_sylow_matrix_matches_classified_images():
    rng = random.Random(71)
    cases = [(Lattice([[6002, 3001], [3001, -6002]]), IntMatrix([[1, 1], [1, 2]]))]
    for rank in (3, 4, 5, 6):
        p = next(q for q in range(rng.randrange(10, 10**4), 10**5) if factorize(q) == {q: 1})
        cases.append(_random_even_lattice(rng, rank, p))
    for lat, tmat in cases:
        iso = check_isometry(lat, tmat)
        action = induced_glue_action(iso)
        for comp in sylow_decomposition(action.glue):
            m = action.sylow_matrix(comp)
            for k, lift in enumerate(comp.lifts):
                assert m.col(k) == comp.project(action.glue.classify(iso.apply(lift)))


def test_glue_rejects_a_graph_lift_outside_the_dual():
    l1, l2 = Lattice([[2]]), Lattice([[-2]])
    gmap, _ = glue_with_identities(l1, l2)
    (gc,) = gmap.components
    # 1/4 pairs to 1/2 with the generator of [[2]]: not a dual vector
    comp1 = dataclasses.replace(gc.comp1, lifts=((Fraction(1, 4),),))
    bad = GlueMap(gmap.group1, gmap.group2, [dataclasses.replace(gc, comp1=comp1)])
    with pytest.raises(AssertionError, match="outside the dual sum"):
        glue(l1, l2, bad)
    with pytest.raises(ValueError, match="does not belong"):
        glue(l1, Lattice([[-6]]), gmap)
    # unimodular summands are classified too: their dual is the lattice
    h = Lattice([[0, 1], [1, 0]])
    trivial = GlueMap(glue_group(h), glue_group(h), [])
    with pytest.raises(ValueError, match="dual"):
        trivial.matches_classes((Fraction(1, 2), 0), (0, 0))


def _unimodular(rng, n):
    """A seeded unimodular matrix and its inverse."""
    u = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice((-2, -1, 1, 2))
        u = u @ IntMatrix(e)
    inv, d = solve_rational(u, IntMatrix.identity(n))
    assert d == 1
    return u, inv


def _random_even_lattice(rng, rank, p):
    """Even U^T D U with a [[+-2p]] block in D, and a blockwise isometry."""
    sign = rng.choice((1, -1))
    blocks = [([[sign * 2 * p]], [[rng.choice((1, -1))]])]
    size = 1
    while size < rank:
        s = rng.choice((1, -1))
        if rank - size >= 2 and rng.random() < 0.5:
            gram, iso = rng.choice([
                ([[2, -1], [-1, 2]], [[0, -1], [1, -1]]),  # A2 and a rotation
                ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),  # H and its swap
            ])
            blocks.append(([[s * x for x in row] for row in gram], iso))
            size += 2
        else:
            blocks.append(([[s * 2]], [[rng.choice((1, -1))]]))
            size += 1
    d = reduce(block_diagonal, (IntMatrix(g) for g, _ in blocks))
    t = reduce(block_diagonal, (IntMatrix(i) for _, i in blocks))
    u, uinv = _unimodular(rng, rank)
    return Lattice(u.transpose() @ d @ u), uinv @ t @ u


def test_generated_pairs_glue_to_even_unimodular_lattices():
    rng = random.Random(67)
    for case in range(12):
        rank = 2 + case % 7
        p = next(q for q in range(rng.randrange(10**3, 10**9), 2 * 10**9) if factorize(q) == {q: 1})
        lat, tmat = _random_even_lattice(rng, rank, p)
        neg = Lattice(-1 * lat.gram)
        if case % 3 == 0:
            tmat = IntMatrix.identity(rank)  # gluing without an isometry
        t1, t2 = check_isometry(lat, tmat), check_isometry(neg, tmat)
        a1, a2 = induced_glue_action(t1), induced_glue_action(t2)
        # L (+) L(-1) glues along the identity anti-isometry (Nikulin)
        gmap = find_glue_map(glue_group(lat), glue_group(neg), a1, a2)
        assert verify_glue_map(gmap, a1, a2) is None
        result = glue(lat, neg, gmap)
        amb = result.ambient
        assert amb.is_even() and amb.is_unimodular()
        assert amb.signature() == (rank, rank)
        assert result.index**2 == lat.det**2
        ext = extend_isometry(result, t1, t2)
        assert ext.matrix @ result.embed1 == result.embed1 @ t1.matrix
        assert ext.matrix @ result.embed2 == result.embed2 @ t2.matrix
