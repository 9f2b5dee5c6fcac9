"""Square roots modulo p^e against the root finders they replaced.

_old_sqrt_mod_prime and _old_sqrt_mod_prime_power are the earlier
pellian._sqrt_mod_prime (Tonelli-Shanks that always looked for a non-residue)
and pellian._sqrt_mod_prime_power (lifting one power of p at a time even when
the root mod p is already a root mod p^e, and returning only the roots mod
p^e), kept as oracles.
"""

import random

from pelltuples.arith import is_prime
from pelltuples.pellian import _sqrt_mod_prime, _sqrt_mod_prime_power


def _old_sqrt_mod_prime(a: int, p: int) -> list[int]:
    """All z in [0, p) with z^2 = a (mod p): Tonelli-Shanks for odd p not dividing a."""
    if a % p == 0 or p == 2:
        return [a % p]
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return [r, p - r]


def _old_sqrt_mod_prime_power(d: int, p: int, e: int) -> list[int]:
    """All z in [0, p^e) with z^2 = d (mod p^e), lifted one power of p at a time."""
    roots, pk = _old_sqrt_mod_prime(d % p, p), p
    for _ in range(e - 1):
        # (r + j*p^k)^2 = r^2 + 2rj*p^k (mod p^(k+1)): one j lifts r, or all p, or none
        lifted = []
        for r in roots:
            c = (d - r * r) // pk
            if 2 * r % p:
                lifted.append(r + pk * (c * pow(2 * r, -1, p) % p))
            elif c % p == 0:
                lifted.extend(range(r, r + p * pk, pk))
        roots, pk = lifted, pk * p
    return roots


def _two_adic(n: int) -> int:
    return (n & -n).bit_length() - 1


#: p = 2, then odd primes by the Tonelli-Shanks branch they take: s = v_2(p - 1)
#: is 1 for p = 3 (mod 4), 2 for p = 5 (mod 8) and 3 to 9 here for p = 1 (mod 8)
#: (41: 3, 17: 4, 97: 5, 193: 6, 641: 7, 257: 8, 7681: 9); then primes near 10^7
PRIMES = ([2, 3, 7, 11, 19, 23, 43, 5, 13, 29, 37, 53, 17, 41, 73, 97, 113, 193, 257, 641, 7681]
          + [p for p in range(10**7 - 120, 10**7 + 120) if is_prime(p)])

#: the p | d cases branch into up to p^(e/2) roots, so only small p take them
BRANCHING = (2, 3, 5, 7, 13)


def _residues(rng, p, e):
    """d = 1, quadratic residues and non-residues mod p, each with random
    high digits, random d, and d = p^j * u for units u and 0 <= j <= e + 1,
    for z^2 = d (mod p^e)."""
    pe = p**e
    nonres = next((z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), 3)
    ds = [0, 1, 1 + pe, 1 + 7 * pe * pe, nonres, nonres + pe * rng.randrange(1, 99)]
    for _ in range(4):
        z = rng.randrange(1, p)
        ds += [z * z % p, z * z + p * rng.randrange(pe), rng.randrange(pe * p)]
    units = [u for u in (1, 3, 5, 7, 11, rng.randrange(1, 10**6)) if u % p]
    return ds + [p**j * u for j in range(e + 2) for u in units]


def test_sqrt_mod_prime_matches_old_tonelli_shanks():
    rng = random.Random(22)
    kinds = {}
    for p in PRIMES:
        s = _two_adic(p - 1)
        for a in list(range(min(p, 200))) + [rng.randrange(p * p) for _ in range(60)]:
            new = _sqrt_mod_prime(a, p)
            assert sorted(new) == sorted(_old_sqrt_mod_prime(a, p)), (a, p)
            assert all(z * z % p == a % p for z in new), (a, p)
            if a % p:
                key = "none" if not new else "t = 1" if pow(a, (p - 1) >> s, p) == 1 else "loop"
                kinds[s, key] = kinds.get((s, key), 0) + 1
    # every s from 1 to 9 meets residues with t = 1, residues that run the
    # loop (none can for s = 1) and non-residues
    for s in range(1, 10):
        assert kinds[s, "t = 1"] and kinds[s, "none"], (s, kinds)
        assert s == 1 or kinds[s, "loop"], (s, kinds)


def test_sqrt_mod_prime_power_matches_one_power_lifting():
    rng = random.Random(2022)
    kinds = {"no root": 0, "two roots": 0, "p | d": 0, "p = 2": 0, "root mod p exact": 0}
    for p in PRIMES:
        for e in range(1, 13):
            for d in _residues(rng, p, e):
                if d % p == 0 and (p not in BRANCHING or p ** (e // 2) > 10**4):
                    continue
                levels = _sqrt_mod_prime_power(d, p, e)
                assert len(levels) == e + 1 and levels[0] == [0], (d, p, e)
                for j in range(1, e + 1):
                    pj = p**j
                    assert sorted(levels[j]) == sorted(_old_sqrt_mod_prime_power(d, p, j)), (d, p, e, j)
                    assert all(0 <= z < pj and (z * z - d) % pj == 0 for z in levels[j]), (d, p, e, j)
                new = levels[e]
                kind = "p = 2" if p == 2 else "p | d" if d % p == 0 else "two roots" if new else "no root"
                kinds[kind] += 1
                # a root below p is a root mod p^e that needed no lifting
                kinds["root mod p exact"] += e > 1 and kind == "two roots" and min(new) < p
    assert min(kinds.values()) >= 100, kinds
