import dataclasses
import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

from k3glue import gluing
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
    check_isometry,
    glue_group,
    induced_glue_action,
    sylow_decomposition,
)
from k3glue.matrices import IntMatrix, block_diagonal, det, join_columns, solve_rational


def tv(value):
    """A quadratic torsion value: a Fraction in [0, 2)."""
    return Fraction(value) % 2


def overlattice_index(result):
    """[ambient : L1 (+) L2], the determinant of the joined embeddings."""
    return abs(det(join_columns(result.embed1, result.embed2)))


def identity(lattice):
    return check_isometry(lattice, IntMatrix.identity(lattice.rank))


def glue_with_identities(l1, l2):
    gmap = find_glue_map(identity(l1), identity(l2))
    return gmap, glue(gmap)


def test_anti_isometry_scalars():
    # opposite values: c^2 (8/5) + 2/5 = 0 mod 2 iff c^2 = 1 mod 5
    assert anti_isometry_scalars(tv(Fraction(2, 5)), tv(Fraction(8, 5)), 5) == (1, 4)
    # equal values: c^2 (2/5) + 2/5 = 0 mod 2 iff c^2 = -1 mod 5
    assert anti_isometry_scalars(tv(Fraction(2, 5)), tv(Fraction(2, 5)), 5) == (2, 3)
    assert anti_isometry_scalars(tv(Fraction(1, 2)), tv(Fraction(1, 2)), 2) == ()
    assert anti_isometry_scalars(tv(Fraction(1, 2)), tv(Fraction(3, 2)), 2) == (1,)


def test_toy_glue_rank_one():
    l1, l2 = Lattice([[2]]), Lattice([[-2]])
    gmap, result = glue_with_identities(l1, l2)
    amb = result.ambient
    assert amb.rank == 2
    assert amb.is_even() and amb.is_unimodular()
    assert amb.signature() == (1, 1)
    assert overlattice_index(result) == 2
    assert overlattice_index(result) ** 2 * abs(amb.det) == abs(l1.det) * abs(l2.det)
    assert verify_glue_map(gmap, identity(l1), identity(l2)) is None


def test_toy_glue_order_six():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    gmap, result = glue_with_identities(l1, l2)
    amb = result.ambient
    assert amb.rank == 2 and amb.is_even() and amb.is_unimodular()
    assert amb.det == -1
    assert amb.signature() == (1, 1)
    assert overlattice_index(result) == 6


def test_glue_exhaustive_two_generator_component():
    # 2-parts of shape (2, 2) take the exhaustive search path
    l1 = Lattice([[2, 0], [0, 2]])
    l2 = Lattice([[-2, 0], [0, -2]])
    _, result = glue_with_identities(l1, l2)
    assert result.ambient.rank == 4
    assert result.ambient.is_even() and result.ambient.is_unimodular()
    assert result.ambient.signature() == (2, 2)
    assert overlattice_index(result) == 4


def test_glue_trivial_groups():
    h = Lattice([[0, 1], [1, 0]])
    gmap, result = glue_with_identities(h, h)
    assert gmap.components == ()
    assert overlattice_index(result) == 1
    assert result.ambient.rank == 4
    assert result.ambient.is_unimodular()


def test_no_glue_map_form_obstruction():
    l = Lattice([[2]])
    with pytest.raises(NoGlueMapError) as exc:
        find_glue_map(identity(l), identity(l))
    assert exc.value.obstruction == "form mismatch"


def test_no_glue_map_equivariance_obstruction():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    neg = check_isometry(l1, [[-1]])
    with pytest.raises(NoGlueMapError) as exc:
        find_glue_map(neg, identity(l2))
    assert exc.value.obstruction == "equivariance mismatch"


def test_group_shape_rejections():
    l2, l6 = Lattice([[2]]), Lattice([[6]])
    with pytest.raises(ValueError, match="different orders"):
        find_glue_map(identity(l2), identity(l6))
    odd = Lattice([[1]])
    modd = Lattice([[-1]])
    with pytest.raises(ValueError, match="even"):
        find_glue_map(identity(odd), identity(modd))


def test_sylow_shape_mismatch():
    # same order 16, different 2-part shapes: (4, 4) vs (2, 8)
    l1 = Lattice([[4, 0], [0, 4]])
    l2 = Lattice([[-2, 0], [0, -8]])
    with pytest.raises(NoGlueMapError) as exc:
        find_glue_map(identity(l1), identity(l2))
    assert exc.value.obstruction == "group mismatch"


def test_graph_pairs_and_matches_classes():
    l1, l2 = Lattice([[6]]), Lattice([[-6]])
    gmap, _ = glue_with_identities(l1, l2)
    g1, g2 = glue_group(l1), glue_group(l2)
    for den in (6, 12):
        rows = gmap.graph_rows(den)
        assert len(rows) == sum(len(gc.comp1.orders) for gc in gmap.components)
        for row in rows:
            x, y = row[:1], row[1:]
            assert l1.in_dual(x, den) and l2.in_dual(y, den)
            assert gmap.matches_classes(x, y, den)
            # the pairing must be anti-isometric on the graph; the
            # Fraction-form oracle is b(v, v) of the lifts mod 2
            q1 = g1.quadratic(g1.classify(x, den))
            q2 = g2.quadratic(g2.classify(y, den))
            assert q1 == Fraction(l1.bilinear(x, x), den * den) % 2
            assert q2 == Fraction(l2.bilinear(y, y), den * den) % 2
            assert (q1 + q2) % 2 == 0
    assert not gmap.matches_classes((1,), (5,), 6)


def test_verify_glue_map_detects_corruption():
    l1, l2 = Lattice([[10]]), Lattice([[-10]])
    gmap, _ = glue_with_identities(l1, l2)
    t1, t2 = identity(l1), identity(l2)
    assert verify_glue_map(gmap, t1, t2) is None
    assert [gc.prime for gc in gmap.components] == [2, 5]
    gc = next(c for c in gmap.components if c.prime == 5)
    g1, g2 = glue_group(l1), glue_group(l2)
    valid = anti_isometry_scalars(
        g1.quadratic(g1.classify(gc.comp1.lifts[0], gc.comp1.lift_den)),
        g2.quadratic(g2.classify(gc.comp2.lifts[0], gc.comp2.lift_den)),
        5,
    )
    assert gc.comp1.lifts[0] == (2,) and gc.comp1.lift_den == 10  # the lift 1/5
    bad_scalar = next(c for c in range(1, 5) if c not in valid)
    components = [
        GlueComponent(IntMatrix([[bad_scalar]]), c.comp1, c.comp2)
        if c.prime == 5
        else c
        for c in gmap.components
    ]
    bad = GlueMap(gmap.group1, gmap.group2, components)
    assert verify_glue_map(bad, t1, t2) == "5: form mismatch"


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
    assert anti_isometry_scalars(h, tv(-h), 2**60) == (
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


def test_sqrt_mod_prime_gives_up_on_a_carmichael_number():
    # 561 = 3 * 11 * 17 passes Euler's criterion for every unit base, so
    # it has no "non-residue" z with z^280 = -1
    with pytest.raises(ValueError, match="non-residue"):
        _sqrt_mod_prime(1, 561)


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
            assert group.bilinear((), ()) == 0
            if lat.is_even():
                assert group.quadratic(()) == 0
            continue
        for table in (group, *comps):
            for _ in range(20):
                c = tuple(rng.randrange(d) for d in table.orders)
                e = tuple(rng.randrange(d) for d in table.orders)
                x, y = (
                    [
                        sum(Fraction(ci * lift[k], table.lift_den) for ci, lift in zip(coords, table.lifts))
                        for k in range(lat.rank)
                    ]
                    for coords in (c, e)
                )

                def b(u, v):
                    return sum(a * g * w for a, row in zip(u, lat.gram.data) for g, w in zip(row, v))

                assert table.den == table.lift_den**2
                assert table.bilinear(c, e) == b(x, y) % 1
                if lat.is_even():
                    assert table.quadratic(c) == b(x, x) % 2
                else:
                    with pytest.raises(ValueError, match="even"):
                        table.quadratic(c)
                if table is not group:
                    assert table.project(group.classify(table.lift_of(c), table.lift_den)) == c


def test_induced_glue_action_matches_classified_images():
    rng = random.Random(71)
    cases = [(Lattice([[6002, 3001], [3001, -6002]]), IntMatrix([[1, 1], [1, 2]]))]
    for rank in (3, 4, 5, 6):
        p = next(q for q in range(rng.randrange(10, 10**4), 10**5) if factorize(q) == {q: 1})
        cases.append(_random_even_lattice(rng, rank, p))
    for lat, tmat in cases:
        iso = check_isometry(lat, tmat)
        group = glue_group(lat)
        for comp in sylow_decomposition(group):
            m = induced_glue_action(iso, comp)
            for k, lift in enumerate(comp.lifts):
                image = [sum(a * c for a, c in zip(row, lift)) for row in iso.matrix.data]
                assert m.col(k) == comp.project(group.classify(image, comp.lift_den))


def test_glue_rejects_a_graph_lift_outside_the_dual():
    l1, l2 = Lattice([[2]]), Lattice([[-2]])
    gmap, _ = glue_with_identities(l1, l2)
    (gc,) = gmap.components
    # 1/4 pairs to 1/2 with the generator of [[2]]: not a dual vector
    comp1 = dataclasses.replace(gc.comp1, lifts=((1,),), lift_den=4)
    bad = GlueMap(gmap.group1, gmap.group2, [dataclasses.replace(gc, comp1=comp1)])
    with pytest.raises(AssertionError, match="outside the dual sum"):
        glue(bad)
    # unimodular summands are classified too: their dual is the lattice
    h = Lattice([[0, 1], [1, 0]])
    trivial = GlueMap(glue_group(h), glue_group(h), [])
    with pytest.raises(ValueError, match="dual"):
        trivial.matches_classes((1, 0), (0, 0), 2)


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
        # L (+) L(-1) glues along the identity anti-isometry (Nikulin)
        gmap = find_glue_map(t1, t2)
        assert verify_glue_map(gmap, t1, t2) is None
        result = glue(gmap)
        amb = result.ambient
        assert amb.is_even() and amb.is_unimodular()
        assert amb.signature() == (rank, rank)
        assert overlattice_index(result) ** 2 == lat.det**2
        ext = extend_isometry(result, t1, t2)
        # oracle: solve B^T X = (T1 (+) T2) B^T for the ambient basis B
        bt = result.basis.transpose()
        solved, d = solve_rational(bt, block_diagonal(t1.matrix, t2.matrix) @ bt)
        assert d == 1 and ext.matrix == solved
        assert ext.matrix @ result.embed1 == result.embed1 @ t1.matrix
        assert ext.matrix @ result.embed2 == result.embed2 @ t2.matrix


def test_exhaustive_search_finds_bijections(monkeypatch):
    # the search keeps no bijectivity pass of its own: generator orders, q
    # and b already match, so each component it returns must be a bijection
    found = []
    search = gluing._find_exhaustive

    def spy(action1, action2, comp1, comp2):
        matrix = search(action1, action2, comp1, comp2)
        found.append(GlueComponent(matrix, comp1, comp2))
        return matrix

    monkeypatch.setattr(gluing, "_find_exhaustive", spy)
    rng = random.Random(79)
    a2, rotation, swap = [[2, -1], [-1, 2]], [[0, -1], [1, -1]], [[0, 1], [1, 0]]
    for case in range(8):
        # k A1 blocks of one sign, then two A2 blocks of one sign: 2-part
        # (Z/2)^k, and an anisotropic 3-part (Z/3)^2 the eigenline path skips
        k, s1, s2 = 2 + case % 2, rng.choice((1, -1)), rng.choice((1, -1))
        a1_iso = rng.choice((swap, [[-1, 0], [0, 1]], [[1, 0], [0, 1]]))
        a2_iso = rng.choice((
            block_diagonal(IntMatrix(rotation), IntMatrix(rotation)),
            IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
            -1 * IntMatrix.identity(4),
        ))
        d = reduce(block_diagonal, [IntMatrix([[2 * s1]])] * k + [s2 * IntMatrix(a2)] * 2)
        t = reduce(block_diagonal, [IntMatrix(a1_iso)] + [IntMatrix([[1]])] * (k - 2) + [a2_iso])
        u, uinv = _unimodular(rng, k + 4)
        lat = Lattice(u.transpose() @ d @ u)
        tmat = uinv @ t @ u
        t1 = check_isometry(lat, tmat)
        t2 = check_isometry(Lattice(-1 * lat.gram), tmat)
        found.clear()
        gmap = find_glue_map(t1, t2)
        assert verify_glue_map(gmap, t1, t2) is None
        assert sorted(gc.prime for gc in found) == [2, 3]
        for gc in found:
            elements = list(product(*(range(o) for o in gc.comp1.orders)))
            images = {gc.image_coords(e) for e in elements}
            assert len(images) == len(elements) == gc.comp2.order
