"""Elementary integer arithmetic helpers: factorization, totient, squares."""

import math
import random

_TRIAL_LIMIT = 10**6
#: Pollard rho steps one factorize call may take in all (about 1 s); rho
#: needs about sqrt(p) steps to split off a prime p
_RHO_STEPS = 5 * 10**5


class FactorizationBoundError(ValueError):
    """factorize used up its Pollard rho step budget."""


def is_perfect_square(n):
    """True iff n is a perfect square; zero counts as a square."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _pollard_rho(n, rng, steps):
    # n odd composite, no factor below the trial limit; returns a proper
    # factor and what is left of the step budget
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            if steps == 0:
                raise FactorizationBoundError(
                    f"{n} not split within {_RHO_STEPS} Pollard rho steps"
                )
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d, steps


def _iroot(n, k):
    """Largest r with r^k <= n, for n >= 1 (integer Newton from above)."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3 * 10^24 with these bases
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Prime factorization of n >= 1 as a sorted dict {p: exponent}.

    Trial division up to 10^6, then Pollard rho with a fixed seed so
    results are deterministic. Raises FactorizationBoundError when rho
    takes more than _RHO_STEPS steps in all.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p <= _TRIAL_LIMIT:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    if n > 1:
        rng = random.Random(0x5A1E)
        steps = _RHO_STEPS
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if _is_probable_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            # rho needs about sqrt(p) steps to split p^k; a root is found
            # at once (every factor exceeds 2^19, so k stays below the bound)
            k = next(
                (k for k in range(2, m.bit_length() // 19 + 1) if _iroot(m, k) ** k == m),
                None,
            )
            if k is not None:
                stack.extend([_iroot(m, k)] * k)
                continue
            d, steps = _pollard_rho(m, rng, steps)
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(factors.items()))


def euler_phi(n):
    """Euler totient of n >= 1."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result
