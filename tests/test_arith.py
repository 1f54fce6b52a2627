import math
import random

import pytest

from k3glue import arith
from k3glue.arith import FactorizationBoundError, _iroot, euler_phi, factorize, is_perfect_square


def test_perfect_squares():
    squares = {n * n for n in range(200)}
    for n in range(40000):
        assert is_perfect_square(n) == (n in squares)


def test_negative_is_not_square():
    for n in (-1, -4, -9, -100):
        assert not is_perfect_square(n)


def test_factorize_small_table():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(2**10) == {2: 10}
    assert factorize(97) == {97: 1}
    assert factorize(3001) == {3001: 1}
    assert factorize(45030005) == {5: 1, 3001: 2}
    assert factorize(15005) == {5: 1, 3001: 1}


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_recomposes_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert list(f) == sorted(f)
        for p in f:
            # every reported factor is prime: no divisor up to sqrt
            assert all(p % q for q in range(2, math.isqrt(p) + 1))


def test_factorize_beyond_trial_division():
    # two primes above the trial-division limit force the rho stage
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}


def test_factorize_stops_at_its_rho_budget(monkeypatch):
    # rho needs about sqrt(p) steps: ~3 * 10^4 near 10^9, ~10^7 near 10^14
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q) == {p: 1, q: 1}
    # a tenth of the budget keeps this test fast; test_cli's glue on the
    # same semiprime runs into the full one
    monkeypatch.setattr(arith, "_RHO_STEPS", arith._RHO_STEPS // 10)
    assert factorize(p * q) == {p: 1, q: 1}
    with pytest.raises(FactorizationBoundError, match="Pollard rho"):
        factorize((10**14 + 31) * (3 * 10**14 + 89))


def test_factorize_large_prime_powers():
    # rho alone needs about sqrt(p) steps on p^k: seconds at p ~ 10^12
    p, q = 10**12 + 39, 1000003
    assert factorize(p**2) == {p: 2}
    assert factorize(2 * p**3) == {2: 1, p: 3}
    assert factorize((p * q) ** 2) == {q: 2, p: 2}
    assert factorize(p**2 * q**3) == {q: 3, p: 2}
    for n in range(1, 3000):
        for k in (2, 3, 5):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k


def test_euler_phi_table():
    known = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4, 12, 6, 8, 8, 16, 6, 18, 8]
    for n, value in enumerate(known, start=1):
        assert euler_phi(n) == value
    assert euler_phi(50) == 20


def test_euler_phi_counts_coprimes():
    for n in range(1, 200):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute
