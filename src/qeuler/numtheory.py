"""Small exact number-theory helpers: factorization, totients, primitive roots.

Everything here runs on the small moduli this package works with (d, p^k well
below 10^6), so plain trial division and brute-force order searches suffice.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from math import gcd, isqrt


@lru_cache(maxsize=1024)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    f = 3
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_prime_factors(n: int) -> array:
    """spf[m] = the smallest prime factor of m for 2 <= m <= n (spf[0] = 0, spf[1] = 1)."""
    spf = array("I", range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    r = isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=1024)
def phi(n: int) -> int:
    """Euler totient."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def multiplicative_order(a: int, n: int) -> int:
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def primitive_root(pk: int) -> int:
    """Smallest primitive root modulo an odd prime power (or modulo 1)."""
    if pk == 1:
        return 0
    target = phi(pk)
    for g in range(2, pk):
        if gcd(g, pk) == 1 and multiplicative_order(g, pk) == target:
            return g
    raise ValueError(f"no primitive root mod {pk}")


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2."""
    m1_inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * m1_inv % m2)) % (m1 * m2)
