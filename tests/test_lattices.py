import random
from fractions import Fraction

import pytest

from k3glue.arith import factorize
from k3glue.matrices import IntMatrix, charpoly, det
from k3glue.lattices import (
    Lattice,
    check_isometry,
    glue_group,
    induced_glue_action,
    is_primitive,
    orthogonal_complement,
    restrict_isometry,
    sylow_decomposition,
    twist,
)
from k3glue.polynomials import IntPoly

L1_GRAM = [[6002, 3001], [3001, -6002]]
L1_ISO = [[1, 1], [1, 2]]


def test_constructor_validation():
    with pytest.raises(ValueError):
        Lattice([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        Lattice([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        Lattice([[1, 2, 3], [4, 5, 6]])


def test_basic_invariants():
    a1 = Lattice([[2]])
    assert a1.rank == 1 and a1.is_even() and not a1.is_unimodular()
    assert a1.det == 2
    assert a1.signature() == (1, 0)
    hyp = Lattice([[0, 1], [1, 0]])
    assert hyp.is_even() and hyp.is_unimodular()
    assert hyp.signature() == (1, 1)
    odd = Lattice([[1]])
    assert not odd.is_even() and odd.is_unimodular()


def test_bilinear_and_dual_membership():
    lat = Lattice([[2, 1], [1, 4]])
    assert lat.bilinear((1, 0), (0, 1)) == 1
    assert lat.bilinear((1, 1), (1, 1)) == 8
    assert lat.in_dual((1, 0), 1)
    assert lat.in_dual((4, -1), 7)
    assert not lat.in_dual((1, 0), 2)
    # the Fraction-form oracle: y is dual iff b(y, e_i) is integral for all i
    for nums, den in (((1, 0), 1), ((4, -1), 7), ((1, 0), 2), ((8, -2), 14), ((3, 5), 7)):
        y = [Fraction(c, den) for c in nums]
        integral = all(sum(a * g for a, g in zip(y, row)).denominator == 1 for row in lat.gram.data)
        assert lat.in_dual(nums, den) == integral
    with pytest.raises(TypeError):
        lat.in_dual((1, 0))  # a dual vector always carries its denominator


def test_glue_group_structure():
    assert glue_group(Lattice([[0, 1], [1, 0]])).orders == ()
    g = glue_group(Lattice([[2]]))
    assert g.orders == (2,)
    assert g.order == 2
    g2 = glue_group(Lattice([[2, 0], [0, 6]]))
    assert g2.orders == (2, 6)
    assert g2.prime_support == (2, 3)
    g15 = glue_group(Lattice(L1_GRAM))
    assert g15.orders == (3001, 15005)
    assert g15.order == 45030005


def test_classify_lift_round_trip():
    rng = random.Random(31)
    for gram in ([[2]], [[2, 0], [0, 6]], L1_GRAM, [[4, 1], [1, 4]]):
        g = glue_group(Lattice(gram))
        for _ in range(25):
            coords = tuple(rng.randrange(d) for d in g.orders)
            lift = g.lift_of(coords)
            assert all(0 <= c < g.lift_den for c in lift)
            # the Fraction-form oracle: the sum of generator lifts, mod 1
            assert [Fraction(c, g.lift_den) for c in lift] == [
                sum(Fraction(k * x, g.lift_den) for k, x in zip(coords, col)) % 1
                for col in zip(*g.lifts)
            ]
            assert g.classify(lift, g.lift_den) == coords
            k = rng.randrange(2, 10)
            assert g.classify([k * c for c in lift], k * g.lift_den) == coords
            o = g.class_order(coords)
            assert all(o * c % d == 0 for c, d in zip(coords, g.orders))
            for p in set(factorize(o)) if o > 1 else ():
                shrunk = o // p
                assert any(shrunk * c % d for c, d in zip(coords, g.orders))
    for gram, nums, den in (([[2]], (1,), 3), (L1_GRAM, (1, 0), 2), ([[2, 0], [0, 6]], (1, 1), 4)):
        with pytest.raises(ValueError, match="not in the dual"):
            glue_group(Lattice(gram)).classify(nums, den)
    with pytest.raises(TypeError):
        glue_group(Lattice([[2]])).classify((1,))


def test_torsion_values():
    g = glue_group(Lattice([[2]]))
    half = g.classify((1,), 2)
    assert g.quadratic(half) == Fraction(1, 2)
    assert g.bilinear(half, half) == Fraction(1, 2)
    g6 = glue_group(Lattice([[6]]))
    assert g6.quadratic(g6.classify((1,), 6)) == Fraction(1, 6)
    assert g6.quadratic(g6.classify((5,), 6)) == Fraction(25, 6) % 2
    with pytest.raises(ValueError):
        glue_group(Lattice([[1]])).quadratic(())
    with pytest.raises(ValueError):
        g6.quadratic(g6.classify((1,), 4))
    # classes are integer coordinates; a dual vector is not a class
    for bad in ((Fraction(1, 6),), (1, 0), ()):
        with pytest.raises(ValueError, match="integer coordinates"):
            g6.quadratic(bad)
        with pytest.raises(ValueError, match="integer coordinates"):
            g6.bilinear((1,), bad)


def test_check_isometry():
    lat = Lattice(L1_GRAM)
    iso = check_isometry(lat, L1_ISO)
    assert iso.charpoly() == IntPoly([1, -3, 1])
    with pytest.raises(ValueError):
        check_isometry(lat, [[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        check_isometry(lat, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def signed_permutation_isometry(rng, diag, involution=False):
    """Random signed permutation preserving a diagonal form's multiset."""
    n = len(diag)
    groups = {}
    for i, d in enumerate(diag):
        groups.setdefault(d, []).append(i)
    perm = list(range(n))
    for idxs in groups.values():
        if involution:
            pool = idxs[:]
            rng.shuffle(pool)
            while len(pool) >= 2:
                a, b = pool.pop(), pool.pop()
                if rng.random() < 0.5:
                    perm[a], perm[b] = b, a
        else:
            shuffled = idxs[:]
            rng.shuffle(shuffled)
            for a, b in zip(idxs, shuffled):
                perm[a] = b
    cols = []
    for i in range(n):
        col = [0] * n
        col[perm[i]] = rng.choice((-1, 1))
        cols.append(col)
    return IntMatrix(cols).transpose()


def random_even_diagonal(rng, max_rank=4):
    n = rng.randrange(1, max_rank + 1)
    values = [2 * rng.choice((1, 1, 2, 3, -1, -2)) for _ in range(n)]
    return Lattice([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def test_glue_action_preserves_torsion_forms():
    """On every Sylow component the induced action is a homomorphism in
    the isometry (I acts as I, -I as -I, T S as the product) and an
    automorphism preserving b and q, with the lattice's own form on
    lifts as the oracle for the form values."""
    rng = random.Random(37)
    shapes = set()
    for _ in range(120):
        lat = random_even_diagonal(rng)
        diag = [lat.gram[i, i] for i in range(lat.rank)]
        t = check_isometry(lat, signed_permutation_isometry(rng, diag))
        s = check_isometry(lat, signed_permutation_isometry(rng, diag))
        ts = check_isometry(lat, t.matrix @ s.matrix)
        one = IntMatrix.identity(lat.rank)
        for comp in sylow_decomposition(glue_group(lat)):
            shapes.add(comp.orders)

            def reduced(m):
                return [[x % d for x in row] for row, d in zip(m.data, comp.orders)]

            k = len(comp.orders)
            assert reduced(induced_glue_action(check_isometry(lat, one), comp)) == reduced(
                IntMatrix.identity(k)
            )
            assert reduced(induced_glue_action(check_isometry(lat, -1 * one), comp)) == reduced(
                -1 * IntMatrix.identity(k)
            )
            m = induced_glue_action(t, comp)
            assert reduced(induced_glue_action(ts, comp)) == reduced(m @ induced_glue_action(s, comp))
            assert det(m) % comp.prime != 0

            def apply(coords):
                return tuple(
                    sum(a * c for a, c in zip(row, coords)) % d
                    for row, d in zip(m.data, comp.orders)
                )

            def b(u, v):
                return Fraction(lat.bilinear(comp.lift_of(u), comp.lift_of(v)), comp.den)

            for _ in range(5):
                x = tuple(rng.randrange(d) for d in comp.orders)
                y = tuple(rng.randrange(d) for d in comp.orders)
                gx, gy = apply(x), apply(y)
                assert b(gx, gy) % 1 == b(x, y) % 1 == comp.bilinear(x, y)
                assert b(gx, gx) % 2 == b(x, x) % 2 == comp.quadratic(x)
                assert comp.bilinear(gx, gy) == comp.bilinear(x, y)
                assert comp.quadratic(gx) == comp.quadratic(x)
                assert comp.class_order(gx) == comp.class_order(x)
    # cyclic and non-cyclic parts at 2 and 3, mixed exponents included
    assert {(2,), (3,), (2, 2), (3, 3), (2, 4)} <= shapes


def test_glue_action_on_the_rank2_block():
    lat = Lattice(L1_GRAM)
    iso = check_isometry(lat, L1_ISO)
    by_prime = {c.prime: c for c in sylow_decomposition(glue_group(lat))}
    assert sorted(by_prime) == [5, 3001]
    assert by_prime[5].orders == (5,)
    assert by_prime[3001].orders == (3001, 3001)
    assert induced_glue_action(iso, by_prime[5]) == IntMatrix([[4]])
    cp = tuple(c % 3001 for c in charpoly(induced_glue_action(iso, by_prime[3001])).coeffs)
    assert cp == (1, 2998, 1)
    # (X + 121)(X - 124) expanded mod 3001, ascending
    assert cp == ((-121 * 124) % 3001, (121 - 124) % 3001, 1)


def test_isometry_charpoly_is_self_reciprocal_up_to_sign():
    rng = random.Random(41)
    for _ in range(100):
        lat = random_even_diagonal(rng)
        diag = [lat.gram[i, i] for i in range(lat.rank)]
        iso = check_isometry(lat, signed_permutation_isometry(rng, diag))
        p = iso.charpoly()
        rev = IntPoly(tuple(reversed(p.coeffs)))
        assert p == rev or p == -rev


def test_twist_by_constant():
    lat = Lattice(L1_GRAM)
    iso = check_isometry(lat, L1_ISO)
    twisted = twist(iso, IntPoly([3]))
    assert twisted.gram == IntMatrix([[18006, 9003], [9003, -18006]])
    assert twisted.det == 9 * lat.det


def test_twist_rejections():
    iso = check_isometry(Lattice(L1_GRAM), L1_ISO)
    with pytest.raises(ValueError):
        twist(iso, IntPoly([0, 1]))  # t is not self-adjoint
    with pytest.raises(ValueError):
        twist(iso, IntPoly([]))  # singular


def test_twist_determinant_law_random():
    rng = random.Random(43)
    successes = 0
    while successes < 200:
        lat = random_even_diagonal(rng)
        diag = [lat.gram[i, i] for i in range(lat.rank)]
        t = signed_permutation_isometry(rng, diag, involution=True)
        iso = check_isometry(lat, t)
        # involution: t + 1/t = 2t, so any A(t) is self-adjoint for the form
        a_poly = IntPoly([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))])
        from k3glue.matrices import poly_of_matrix

        a = poly_of_matrix(a_poly, t)
        try:
            twisted = twist(iso, a_poly)
        except ValueError:
            assert det(a) == 0 or (a.transpose() @ lat.gram) != (lat.gram @ a) or (
                lat.is_even()
                and any((a.transpose() @ lat.gram)[i, i] % 2 for i in range(lat.rank))
            )
            continue
        assert twisted.det == det(a) * lat.det
        assert twisted.gram.is_symmetric()
        assert twisted.is_even()
        successes += 1


def test_orthogonal_complement():
    lat = Lattice([[2, 0], [0, -2]])
    basis, comp = orthogonal_complement(lat, IntMatrix([[1], [0]]))
    assert comp.gram == IntMatrix([[-2]])
    assert IntMatrix([[1], [0]]).transpose() @ lat.gram @ basis == IntMatrix.zeros(1, 1)
    with pytest.raises(ValueError):
        # isotropic vector in the hyperbolic plane: degenerate restriction
        orthogonal_complement(Lattice([[0, 1], [1, 0]]), IntMatrix([[1], [0]]))


def test_orthogonal_complement_random():
    rng = random.Random(47)
    done = 0
    while done < 40:
        lat = random_even_diagonal(rng, max_rank=4)
        if lat.rank < 2:
            continue
        sub = IntMatrix([[1 if i == 0 else 0] for i in range(lat.rank)])
        basis, comp = orthogonal_complement(lat, sub)
        assert comp.rank == lat.rank - 1
        assert sub.transpose() @ lat.gram @ basis == IntMatrix.zeros(1, comp.rank)
        assert basis.transpose() @ lat.gram @ basis == comp.gram
        done += 1


def test_is_primitive():
    lat = Lattice([[2, 0], [0, -2]])
    assert is_primitive(lat, IntMatrix([[1], [0]])) is True
    assert is_primitive(lat, IntMatrix([[2], [0]])) is False
    with pytest.raises(ValueError):
        is_primitive(lat, IntMatrix([[1, 2], [0, 0]]))


def test_restrict_isometry():
    lat = Lattice([[2, 0], [0, 2]])
    swap = check_isometry(lat, [[0, 1], [1, 0]])
    r = restrict_isometry(swap, IntMatrix([[1], [1]]))
    assert r == IntMatrix([[1]])
    r = restrict_isometry(swap, IntMatrix([[1], [-1]]))
    assert r == IntMatrix([[-1]])
    with pytest.raises(ValueError):
        restrict_isometry(swap, IntMatrix([[1], [0]]))
