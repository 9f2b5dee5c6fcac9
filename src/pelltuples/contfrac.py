"""Periodic continued fractions of quadratic irrationals (s + sqrt(d))/t.

`walk` is the one copy of the expansion's integer recurrence, and
`period_start` the one finder of where its period opens; `expand` keeps one
period's rows as a `CFExpansion`.  `convergents` and `last_denominators`
turn partial quotients into convergents.  `lemma_db_check` checks a
convergent-product identity, and `worley_candidates` lists Worley's
candidates for good rational approximations.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import cycle, islice

from .arith import is_perfect_square, isqrt


class QuadIrr(namedtuple("QuadIrr", "d s t")):
    """The quadratic irrational (s + sqrt(d)) / t, normalized so t | d - s^2:
    a namedtuple checked by every constructor, _make and _replace included."""

    __slots__ = ()

    def __new__(cls, d: int, s: int, t: int):
        if t == 0:
            raise ValueError("t must be nonzero")
        if d < 0:
            raise ValueError("d must be non-negative")
        if is_perfect_square(d) is not None:
            raise ValueError(f"d={d} is a perfect square")
        if (d - s * s) % t != 0:
            a = abs(t)
            d, s, t = d * t * t, s * a, t * a
        return tuple.__new__(cls, (d, s, t))

    @classmethod
    def _make(cls, iterable) -> QuadIrr:
        # namedtuple's _make, behind _replace, would skip __new__'s checks
        return cls(*iterable)

    def compare_rational(self, num: int, den: int) -> int:
        """Sign of self - num/den, exactly."""
        if den == 0:
            raise ValueError("zero denominator")
        # self - num/den = (a + den*sqrt(d)) / (t*den) with a = s*den - num*t;
        # a + den*sqrt(d) is never zero (d is not a square), and it has den's
        # sign unless a has the other sign and a^2 > den^2*d
        a = self.s * den - num * self.t
        sign = den if a * den >= 0 or den * den * self.d > a * a else a
        return 1 if sign * self.t * den > 0 else -1


class CFExpansion(namedtuple("CFExpansion", "rows preperiod_len")):
    """The rows (a_n, s_{n+1}, t_{n+1}) of `walk`, a list, through the
    preperiod of preperiod_len rows and one period; the last row's state
    repeats the state that opens the period."""

    __slots__ = ()

    @property
    def quotients(self) -> list[int]:
        return [a for a, _, _ in self.rows]

    @property
    def period_len(self) -> int:
        return len(self.rows) - self.preperiod_len

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield the rows, repeating the period without end."""
        yield from self.rows
        yield from cycle(self.rows[self.preperiod_len:])


class ExpansionCapExceeded(RuntimeError):
    pass


#: terms walk() takes to find a period before it raises ExpansionCapExceeded
MAX_TERMS = 100_000


def walk(d: int, s: int, t: int) -> Iterator[tuple[int, int, int]]:
    """Yield (a_n, s_{n+1}, t_{n+1}) for (s + sqrt(d))/t through the preperiod
    and one period, for non-square d and t | d - s^2: a = floor((s + sqrt(d))/t),
    s' = a*t - s and t' = (d - s'^2)/t, which keeps t | d - s^2.

    The expansion is purely periodic from its first reduced state on (Galois),
    0 < s <= f and f - s < t <= f + s with f = isqrt(d) (then (s + sqrt(d))/t
    > 1 and its conjugate lies in (-1, 0)), so the period opens there and
    closes when that state comes back, the state of the last row; if it has
    not come back within MAX_TERMS terms, ExpansionCapExceeded is raised.
    """
    f = isqrt(d)
    if f * f == d:
        raise ValueError(f"d={d} is a perfect square")
    if t == 0 or (d - s * s) % t:
        raise ValueError("t must be a nonzero divisor of d - s^2")
    s0 = t0 = None  # the first reduced state
    for _ in range(MAX_TERMS):
        if s == s0 and t == t0:
            return
        if s0 is None and 0 < s <= f and f - s < t <= f + s:
            s0, t0 = s, t
        # floor((s + sqrt(d))/t); for t < 0 the value is irrational, so its
        # floor is -floor((s + sqrt(d))/|t|) - 1
        a = (s + f) // t if t > 0 else -((s + f) // -t) - 1
        s = a * t - s
        t = (d - s * s) // t
        yield a, s, t
    raise ExpansionCapExceeded(f"no period within {MAX_TERMS} terms")


def period_start(s: int, t: int, rows: list[tuple[int, int, int]]) -> int:
    """The index j of the period's first state (s_j, t_j), for the rows of a
    walk from (s_0, t_0) = (s, t) that ends as the period closes: the last
    row's state repeats state j, and no other state."""
    _, s_end, t_end = rows[-1]
    if s == s_end and t == t_end:
        return 0
    j = 1
    for _, s_j, t_j in rows:
        if s_j == s_end and t_j == t_end:
            return j
        j += 1


def expand(alpha: QuadIrr) -> CFExpansion:
    """Continued fraction of alpha: the preperiod and one period of walk."""
    rows = list(walk(alpha.d, alpha.s, alpha.t))
    return CFExpansion(rows, period_start(alpha.s, alpha.t, rows))


def convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield the convergents (p_m, q_m), m = 0, 1, ..., of [a_0; a_1, ...]."""
    p0, q0, p, q = 0, 1, 1, 0
    for a in quotients:
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        yield p, q


def last_denominators(quotients: Iterable[int]) -> tuple[int, int]:
    """(q_{m-1}, q_m) for [a_0; a_1, ..., a_m] by one plain loop; (q_{-2},
    q_{-1}) = (1, 0) for no quotients.  Along a walk from (s_0, t_0),
    t_0*p_i - s_0*q_i = s_{i+1}*q_i + t_{i+1}*q_{i-1}, so the Pell unit and the
    class search's hit need only the q and read each p off a walk row."""
    q0, q = 1, 0
    for a in quotients:
        q0, q = q, a * q + q0
    return q0, q


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
    return _lemma_db_sides(alpha, beta, expand(QuadIrr(alpha * beta, 0, beta)), n, r, u)


def _lemma_db_sides(alpha: int, beta: int, exp: CFExpansion, n: int, r: int, u: int) -> int:
    """lemma_db_check's check and value, given exp, the expansion of
    sqrt(alpha*beta)/beta, for inputs that lemma_db_check accepts.  The
    identity ties p to (s, t), so p comes from convergents, not off a row."""
    rows = list(islice(exp.terms(), n + 2))
    *_, (pn, qn), (pn1, qn1) = convergents(a for a, _, _ in rows)
    lhs = alpha * (r * qn1 + u * qn) ** 2 - beta * (r * pn1 + u * pn) ** 2
    (_, _, t1), (_, s2, t2) = rows[n:]
    rhs = (-1) ** n * (u * u * t1 + 2 * r * u * s2 - r * r * t2)
    if lhs != rhs:
        raise AssertionError(f"identity violated: lhs={lhs} rhs={rhs}")
    return rhs


WorleyCandidate = namedtuple("WorleyCandidate", "m r u sign a b")
WorleyCandidate.__doc__ = """A Worley candidate a/b off convergent m, sign = +1 or -1:
a = r*p_{m+1} + sign*u*p_m and b = r*q_{m+1} + sign*u*q_m."""


def worley_candidates(exp: CFExpansion, c, m_max: int) -> list[WorleyCandidate]:
    """All (m, r, u, sign) with -1 <= m <= m_max, r,u >= 0 and r*u < 2c, over
    the convergents of the expansion exp.

    c is exact, an int or a Fraction, and read as num/den so that the bound
    is tested on integers; a float or str raises TypeError.  Candidates where
    r or u is zero are capped at the largest integer below 2c (their scalings
    are redundant multiples of convergents); gcd filtering is left to the
    caller.
    """
    try:
        num, den = c.numerator, c.denominator
    except AttributeError:
        raise TypeError(f"c must be an int or Fraction, not {c!r}") from None
    if num <= 0:
        raise ValueError("c must be positive")
    if m_max < -1:
        raise ValueError("m_max must be >= -1")
    # the largest integer strictly below 2c, and at least 1
    cap = max((2 * num - 1) // den, 1)
    # (p_m, q_m) for m = -1 .. m_max + 1
    conv = [(1, 0), *islice(convergents(a for a, _, _ in exp.terms()), m_max + 2)]
    out: list[WorleyCandidate] = []
    for m, ((pm, qm), (pm1, qm1)) in enumerate(zip(conv, conv[1:]), -1):
        for r in range(cap + 1):
            for u in range(cap + 1):
                if r == 0 and u == 0:
                    continue
                if r * u * den >= 2 * num:  # r*u >= 2c
                    continue
                signs = (1,) if u == 0 else (1, -1)
                for sg in signs:
                    out.append(WorleyCandidate(
                        m, r, u, sg,
                        r * pm1 + sg * u * pm,
                        r * qm1 + sg * u * qm,
                    ))
    return out
