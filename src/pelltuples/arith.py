"""Exact big-integer helpers shared by every other module.

Everything here is pure and works on Python ints only; no floating point
is used anywhere.
"""
from __future__ import annotations

import math
from math import isqrt  # re-exported: exact floor square root, ValueError below 0

#: factorize() trial-divides up to this bound
FACTOR_TRIAL_BOUND = 10**7

#: factorize() tests the cofactor for primality once trial division passes this
SMALL_TRIAL_BOUND = 1 << 10

#: odd_primes_upto() sieves at most this far: n // 2 bytes of flags, 50 MB
SIEVE_LIMIT = 10**8

#: below this bound the Miller-Rabin witness set is provably exhaustive
DETERMINISTIC_PRIMALITY_BOUND = 1 << 64

#: the first forty primes: is_prime trial-divides by the first twelve, which
#: settles every n < 41^2, and takes its Miller-Rabin bases from the front
_PRIMES_40 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)
_TRIAL_DIVISORS = _PRIMES_40[:12]

#: (B, bases): the first k primes decide every n < B, the least strong
#: pseudoprime to all k of them; to all twelve it lies above 2^64.  For
#: n >= 2^64 all forty are strong-probable-prime bases.
_WITNESS_PREFIXES = tuple((b, _PRIMES_40[:k]) for b, k in (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9), (DETERMINISTIC_PRIMALITY_BOUND, 12)))


def is_perfect_square(n: int) -> int | None:
    """Return the non-negative root when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic (Miller-Rabin with a known-exhaustive witness set) for
    n < 2**64; strong-probable-prime with forty fixed bases above that.
    """
    if n < 2:
        return False
    for p in _TRIAL_DIVISORS:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor <= 37, so none at all
        return True
    witnesses = next((bases for bound, bases in _WITNESS_PREFIXES if n < bound), _PRIMES_40)
    return all(_strong_probable_prime(n, a) for a in witnesses)


def odd_primes_upto(n: int) -> list[int]:
    """The odd primes p <= n, increasing, by a sieve of Eratosthenes over the
    odd numbers alone: one byte per odd number, n // 2 bytes in all.
    ValueError above SIEVE_LIMIT, before anything is allocated."""
    if n > SIEVE_LIMIT:
        raise ValueError(f"sieving the odd primes up to {n} takes {n // 2:,} bytes; "
                         f"n must be <= {SIEVE_LIMIT:,}")
    # byte i stands for 2i + 1, so the odd multiples of p from p^2 on lie p bytes apart
    size = (n + 1) // 2
    flags = bytearray([1]) * size
    for i in range(1, (isqrt(max(n, 0)) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2::p] = bytes(len(range(p * p // 2, size, p)))
    return [2 * i + 1 for i in range(1, size) if flags[i]]


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; prime -> exponent.

    Trial division runs to SMALL_TRIAL_BOUND first; a cofactor below
    DETERMINISTIC_PRIMALITY_BOUND that is_prime certifies ends it there.
    Otherwise it goes on to FACTOR_TRIAL_BOUND and raises ValueError when a
    composite cofactor survives (we never need large factorizations).
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    for bound in (SMALL_TRIAL_BOUND, FACTOR_TRIAL_BOUND):
        while f * f <= m and f <= bound:
            for p in (f, f + 2):
                while m % p == 0:
                    out[p] = out.get(p, 0) + 1
                    m //= p
            f += 6
        # m is 1 or prime once f^2 > m; the primality test ends the division
        # early only where it is deterministic
        if f * f > m or (m < DETERMINISTIC_PRIMALITY_BOUND and is_prime(m)):
            break
    else:
        # m > FACTOR_TRIAL_BOUND^2: below 2^64 it has just failed is_prime
        if m < DETERMINISTIC_PRIMALITY_BOUND or not is_prime(m):
            raise ValueError(f"cannot factor {n}: composite cofactor {m}")
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out
