"""Integer-arithmetic helpers: squares, primality, factoring."""

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pelltuples import arith
from pelltuples.arith import (
    FACTOR_TRIAL_BOUND,
    SIEVE_LIMIT,
    factorize,
    is_perfect_square,
    is_prime,
    isqrt,
    odd_primes_upto,
)


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(10) == 3
    assert isqrt(57121) == 239
    assert isqrt(57120) == 238


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


@pytest.mark.parametrize("n", [0, -3])
def test_factorize_rejects_non_positive(n):
    with pytest.raises(ValueError) as exc:
        factorize(n)
    assert "factorize expects a positive integer" in str(exc.value)


@given(st.integers(min_value=0, max_value=10**40))
def test_isqrt_is_exact_floor(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_is_perfect_square_examples():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(1) == 1
    assert is_perfect_square(57121) == 239
    assert is_perfect_square(57120) is None
    assert is_perfect_square(-4) is None


@given(st.integers(min_value=0, max_value=10**12))
def test_square_roundtrip(n):
    assert is_perfect_square(n * n) == n


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def test_is_prime_agrees_with_sieve():
    limit = 20_000
    flags = _sieve(limit)
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_matches_trial_division_below_5000(monkeypatch):
    # below 41^2 the trial loop decides alone: no Miller-Rabin round is run
    mr = arith._strong_probable_prime

    def checked_mr(n, a):
        assert n >= 41 * 41, n
        return mr(n, a)

    monkeypatch.setattr(arith, "_strong_probable_prime", checked_mr)
    for n in range(-2, 5000):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))), n
    assert not is_prime(1681) and not is_prime(1763)  # 41^2 and 41*43
    assert is_prime(1667) and is_prime(1669) and is_prime(41) and is_prime(1601)


#: (B, k): B is the least strong pseudoprime to the first k prime bases, and
#: is_prime runs k Miller-Rabin rounds on a prime below B
STRONG_PSEUDOPRIMES = (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


def test_is_prime_matches_trial_division_below_3e5():
    limit = 3 * 10**5
    small = [q for q in range(2, isqrt(limit) + 1) if all(q % r for r in range(2, isqrt(q) + 1))]

    def by_trial(n):
        for q in small:
            if q * q > n:
                return n > 1
            if n % q == 0:
                return False
        return True

    for n in range(limit):
        assert is_prime(n) == by_trial(n), n


def test_is_prime_runs_the_bases_each_bound_needs(monkeypatch):
    mr = arith._strong_probable_prime
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b, k in STRONG_PSEUDOPRIMES:
        # b fools the first k bases and no fewer, so a bound of b taken as
        # inclusive would call it prime
        assert all(mr(b, a) for a in bases[:k]) and not is_prime(b), b
    rounds = []
    monkeypatch.setattr(arith, "_strong_probable_prime", lambda n, a: rounds.append(a) or mr(n, a))
    for (b, k), (_, k_next) in zip(STRONG_PSEUDOPRIMES, STRONG_PSEUDOPRIMES[1:] + ((2**64, 12),)):
        below, above = b - 1, b + 1
        while not is_prime(below):
            below -= 1
        while not is_prime(above):
            above += 1
        for n, want in ((below, k), (above, k_next)):
            rounds.clear()
            assert is_prime(n) and len(rounds) == want, (n, rounds)


def test_odd_primes_upto_matches_is_prime():
    limit = 10**5
    primes = [p for p in range(3, limit + 1, 2) if is_prime(p)]
    assert odd_primes_upto(limit) == primes
    # every cut-off up to 2000, squares of primes and n < 3 among them
    for n in range(-2, 2001):
        assert odd_primes_upto(n) == [p for p in primes if p <= n], n
    assert [odd_primes_upto(n) for n in (0, 1, 2, 3)] == [[], [], [], [3]]


def test_odd_primes_upto_refuses_a_sieve_past_its_limit_before_allocating():
    for n, nbytes in ((10**12, "500,000,000,000"), (SIEVE_LIMIT + 1, "50,000,000")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"takes {nbytes} bytes; n must be <= 100,000,000"):
                odd_primes_upto(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (n, peak)


def test_is_prime_known_values():
    assert is_prime(2)
    assert is_prime(44560482149)
    assert not is_prime(44560482148)
    # Carmichael numbers must not slip through.
    assert not is_prime(561)
    assert not is_prime(41041)
    # Mersenne prime well above 32 bits.
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(57121) == {239: 2}


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n).items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def _factorize_by_trial(n):
    """factorize as it was before the primality test: trial division all the
    way to FACTOR_TRIAL_BOUND, then the cofactor is prime or fails."""
    out = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f * f <= m and f <= FACTOR_TRIAL_BOUND:
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        if m <= FACTOR_TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            raise ValueError(f"cannot factor {n}: composite cofactor {m}")
    return out


def _factor_outcome(f, n):
    try:
        return f(n)
    except ValueError as exc:
        return str(exc)


def _prime_near(rng, digits):
    x = int(10**digits) + rng.randrange(int(10**digits)) | 1
    while not is_prime(x):
        x += 2
    return x


def test_factorize_matches_trial_division_small():
    for n in range(1, 10**5 + 1):
        assert factorize(n) == _factorize_by_trial(n), n


def test_factorize_matches_trial_division_planted():
    # a smooth part times a prime of 2-18 digits below 10^18, or times two
    # primes above the small trial bound (the early primality test fails and
    # division goes on); the old loop spends ~0.6 s on each cofactor that it
    # trial-divides all the way to FACTOR_TRIAL_BOUND
    rng = random.Random(1019)
    small = [p for p in range(2, 48) if is_prime(p)]
    cases = []
    for i in range(10):
        smooth = math.prod(rng.choice(small) for _ in range(rng.randrange(4)))
        p = _prime_near(rng, 1 + 16.5 * (i + rng.random()) / 10)
        cases.append((smooth * p, {**factorize(smooth), p: 1}))
    for _ in range(6):
        p, q = sorted((_prime_near(rng, rng.uniform(3.1, 4)), _prime_near(rng, rng.uniform(4, 9))))
        cases.append((2 * p * q, {2: 1, p: 1, q: 1}))
    for n, planted in cases:
        assert factorize(n) == _factorize_by_trial(n) == planted, n
    # two primes above FACTOR_TRIAL_BOUND: both raise with the same message
    n = 3 * 10000019 * 10000079
    assert _factor_outcome(factorize, n) == _factor_outcome(_factorize_by_trial, n) == (
        f"cannot factor {n}: composite cofactor {10000019 * 10000079}")


def test_factorize_prime_cofactor_is_fast():
    # the first prime above 10^14: trial division to 10^7 took ~0.6 s
    start = time.perf_counter()
    assert factorize(100000000000031) == {100000000000031: 1}
    assert factorize(8 * 100000000000031) == {2: 3, 100000000000031: 1}
    assert time.perf_counter() - start < 0.05


def test_factorize_small_prime_powers_skip_primality_test(monkeypatch):
    # tm1 factorizes p^(2l+1) for small p: trial division alone must settle it
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) called")

    primes = [p for p in range(2, 48) if is_prime(p)]
    monkeypatch.setattr(arith, "is_prime", no_primality_test)
    for p in primes:
        for j in range(1, 30):
            assert factorize(p**j) == {p: j}


def test_factorize_above_2_64_keeps_trial_division(monkeypatch):
    # is_prime is only probable above 2^64, so there a cofactor goes on to the
    # trial bound and is tested only after it, as before
    monkeypatch.setattr(arith, "FACTOR_TRIAL_BOUND", 4096)
    q = 2**89 - 1
    with pytest.raises(ValueError, match=f"^cannot factor {4099 * q}: composite cofactor {4099 * q}$"):
        factorize(4099 * q)
    monkeypatch.setattr(arith, "is_prime", lambda n: True)  # a pseudoprime that passes every base
    assert factorize(2003 * q) == {2003: 1, q: 1}
