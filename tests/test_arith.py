"""Integer-arithmetic helpers: squares, primality, factoring."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pelltuples.arith import (
    factorize,
    is_perfect_square,
    is_prime,
    isqrt,
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
