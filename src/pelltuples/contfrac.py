"""Periodic continued fractions of quadratic irrationals.

A quadratic irrational (s + sqrt(d))/t is expanded with the classical
integer recurrence

    a_n = floor((s_n + sqrt(d)) / t_n)
    s_{n+1} = a_n * t_n - s_n
    t_{n+1} = (d - s_{n+1}^2) / t_n

which stays in exact integers as long as t | d - s^2.  The expansion is
periodic, and purely periodic from its first reduced complete quotient on
(Galois), so the period is the run from that state to its first return.
`walk` is the one copy of this recurrence: `expand` records its terms,
`CFExpansion.terms` repeats them past the period, `convergents` turns any
partial quotients into (p_m, q_m), and the Pell class search keeps
convergents in the same loop as the walk.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .arith import is_perfect_square, isqrt


@dataclass(frozen=True)
class QuadIrr:
    """The quadratic irrational (s + sqrt(d)) / t, normalized so t | d - s^2."""

    d: int
    s: int
    t: int

    def __post_init__(self):
        if self.t == 0:
            raise ValueError("t must be nonzero")
        if self.d < 0:
            raise ValueError("d must be non-negative")
        if is_perfect_square(self.d) is not None:
            raise ValueError(f"d={self.d} is a perfect square")
        if (self.d - self.s * self.s) % self.t != 0:
            a = abs(self.t)
            object.__setattr__(self, "s", self.s * a)
            object.__setattr__(self, "d", self.d * self.t * self.t)
            object.__setattr__(self, "t", self.t * a)

    def compare_rational(self, num: int, den: int) -> int:
        """Sign of self - num/den, exactly."""
        if den == 0:
            raise ValueError("zero denominator")
        # self - num/den = (A + B*sqrt(d)) / (t*den), A = s*den - num*t, B = den
        a = self.s * den - num * self.t
        b = den
        q = self.t * den
        return _sign_a_plus_b_sqrt(a, b, self.d) * (1 if q > 0 else -1)


def _sign_a_plus_b_sqrt(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) with d non-square (so never zero unless a=b=0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        lhs, rhs = b * b * d, a * a
        return (lhs > rhs) - (lhs < rhs)
    return -_sign_a_plus_b_sqrt(-a, -b, d)


@dataclass
class CFExpansion:
    """Preperiod + period of quotients with the (s_n, t_n) side sequences."""

    alpha: QuadIrr
    quotients: list[int]          # a_0 .. a_{j+L-1}
    preperiod_len: int            # j
    period_len: int               # L
    aux: list[tuple[int, int]]    # (s_n, t_n) for n = 0 .. j+L

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (a_n, s_{n+1}, t_{n+1}) for n = 0, 1, ..., the rows of `walk`,
        repeating the period without end."""
        rows = [(a, s, t) for a, (s, t) in zip(self.quotients, self.aux[1:])]
        yield from rows
        yield from cycle(rows[self.preperiod_len:])


class ExpansionCapExceeded(RuntimeError):
    pass


#: terms walk() takes to find a period before it raises ExpansionCapExceeded
MAX_TERMS = 100_000


def walk(d: int, s: int, t: int, periods: int = 1) -> Iterator[tuple[int, int, int]]:
    """Yield (a_n, s_{n+1}, t_{n+1}) for (s + sqrt(d))/t through the preperiod
    and `periods` periods, for non-square d and t | d - s^2.

    The period opens at the first reduced state, 0 < s <= f and
    f - s < t <= f + s with f = isqrt(d) (then (s + sqrt(d))/t > 1 and its
    conjugate lies in (-1, 0)), and closes when that state comes back; if it
    has not come back within MAX_TERMS terms, ExpansionCapExceeded is raised.
    """
    max_terms = MAX_TERMS  # a local: the loop below is the class search's hot path
    f = isqrt(d)
    if f * f == d:
        raise ValueError(f"d={d} is a perfect square")
    if t == 0 or (d - s * s) % t:
        raise ValueError("t must be a nonzero divisor of d - s^2")
    n, end = 0, -1
    j, s0, t0 = -1, None, None  # the first reduced state (s_j, t_j)
    while n != end:
        if end < 0:
            if n == max_terms:
                raise ExpansionCapExceeded(f"no period within {max_terms} terms")
            if s == s0 and t == t0:
                # the period has n - j terms; run periods - 1 more of them
                end = n + (n - j) * (periods - 1)
                continue
            if j < 0 and 0 < s <= f and f - s < t <= f + s:
                j, s0, t0 = n, s, t
        # floor((s + sqrt(d))/t); for t < 0 the value is irrational, so its
        # floor is -floor((s + sqrt(d))/|t|) - 1
        a = (s + f) // t if t > 0 else -((s + f) // -t) - 1
        s = a * t - s
        t = (d - s * s) // t
        yield a, s, t
        n += 1


def expand(alpha: QuadIrr) -> CFExpansion:
    """Continued fraction of alpha: the preperiod and one period of walk."""
    quots: list[int] = []
    aux: list[tuple[int, int]] = [(alpha.s, alpha.t)]
    for a, s, t in walk(alpha.d, alpha.s, alpha.t):
        quots.append(a)
        aux.append((s, t))
    # the last state repeats the first state of the period, and only that one
    j = aux.index(aux[-1])
    return CFExpansion(alpha, quots, j, len(quots) - j, aux)


def convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield the convergents (p_m, q_m), m = 0, 1, ..., of [a_0; a_1, ...]."""
    p0, q0, p, q = 0, 1, 1, 0
    for a in quotients:
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        yield p, q


def lemma_db_check(alpha: int, beta: int, n: int, r: int, u: int) -> int:
    """Recompute the identity's left side from convergents and assert equality.

    Left side: alpha*(r q_{n+1} + u q_n)^2 - beta*(r p_{n+1} + u p_n)^2,
    with p_m/q_m the convergents of sqrt(alpha/beta).  Right side, returned:
    (-1)^n * (u^2 t_{n+1} + 2 r u s_{n+2} - r^2 t_{n+2}), with the side
    sequences of the expansion of sqrt(alpha*beta)/beta.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha, beta must be positive")
    if n < 0:
        raise ValueError("n must be >= 0")
    if is_perfect_square(alpha * beta) is not None:
        raise ValueError("alpha*beta must not be a perfect square")
    rows = list(islice(expand(QuadIrr(alpha * beta, 0, beta)).terms(), n + 2))
    (pn, qn), (pn1, qn1) = list(convergents(a for a, _, _ in rows))[n:]
    lhs = alpha * (r * qn1 + u * qn) ** 2 - beta * (r * pn1 + u * pn) ** 2
    (_, _, t1), (_, s2, t2) = rows[n:]
    rhs = (-1) ** n * (u * u * t1 + 2 * r * u * s2 - r * r * t2)
    if lhs != rhs:
        raise AssertionError(f"identity violated: lhs={lhs} rhs={rhs}")
    return rhs


@dataclass(frozen=True)
class WorleyCandidate:
    m: int
    r: int
    u: int
    sign: int       # +1 or -1
    a: int          # r*p_{m+1} + sign*u*p_m
    b: int          # r*q_{m+1} + sign*u*q_m


def worley_candidates(exp: CFExpansion, c, m_max: int) -> list[WorleyCandidate]:
    """All (m, r, u, sign) with -1 <= m <= m_max, r,u >= 0 and r*u < 2c, over
    the convergents of the expansion exp.

    c is exact (int or Fraction).  Candidates where r or u is zero are
    capped at the largest integer below 2c (their scalings are redundant
    multiples of convergents); gcd filtering is left to the caller.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if m_max < -1:
        raise ValueError("m_max must be >= -1")
    twice = 2 * c
    # largest integer strictly below 2c
    lt = (twice.numerator - 1) // twice.denominator
    cap = max(lt, 1)
    # (p_m, q_m) for m = -1 .. m_max + 1
    conv = [(1, 0), *islice(convergents(a for a, _, _ in exp.terms()), m_max + 2)]
    out: list[WorleyCandidate] = []
    for m, ((pm, qm), (pm1, qm1)) in enumerate(zip(conv, conv[1:]), -1):
        for r in range(cap + 1):
            for u in range(cap + 1):
                if r == 0 and u == 0:
                    continue
                if Fraction(r * u) >= twice:
                    continue
                signs = (1,) if u == 0 else (1, -1)
                for sg in signs:
                    out.append(WorleyCandidate(
                        m, r, u, sg,
                        r * pm1 + sg * u * pm,
                        r * qm1 + sg * u * qm,
                    ))
    return out
