"""Continued fractions of quadratic irrationals and convergent machinery."""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pelltuples import contfrac
from pelltuples.arith import is_perfect_square, isqrt
from pelltuples.contfrac import (
    CFExpansion,
    ExpansionCapExceeded,
    QuadIrr,
    convergents,
    expand,
    lemma_db_check,
    walk,
    worley_candidates,
)


def _floor(s, d, t):
    """floor((s + sqrt(d))/t): the first quotient of walk on the QuadIrr-normalised triple."""
    alpha = QuadIrr(d, s, t)
    return next(walk(alpha.d, alpha.s, alpha.t))[0]


def test_floor_quadirr_examples():
    assert _floor(0, 10, 1) == 3
    assert _floor(1, 5, 2) == 1
    assert _floor(0, 2, -1) == -2  # -sqrt(2) floors to -2
    assert _floor(-3, 10, 1) == 0
    assert _floor(3, 10, -2) == -4


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=2, max_value=10**6).filter(lambda d: math.isqrt(d) ** 2 != d),
    st.integers(min_value=-1000, max_value=1000).filter(lambda t: t != 0),
)
def test_floor_quadirr_matches_fraction_bracket(s, d, t):
    f = _floor(s, d, t)
    # f <= (s + sqrt(d))/t < f + 1, checked by exact cross multiplication.
    # sign of (s + sqrt(d) - f*t) and (s + sqrt(d) - (f+1)*t) via squaring.
    for bound, want_nonneg in ((f, True), (f + 1, False)):
        # (s + sqrt(d))/t - bound has the sign of (c + sqrt(d)) * sign(t)
        # where c = s - bound*t.
        c = s - bound * t
        if c >= 0:
            cmp = 1  # c + sqrt(d) > 0 since d >= 2
        elif c * c < d:
            cmp = 1
        elif c * c > d:
            cmp = -1
        else:
            cmp = 0
        cmp *= 1 if t > 0 else -1
        if want_nonneg:
            assert cmp >= 0
        else:
            assert cmp < 0


def test_quadirr_rejects_square_d():
    with pytest.raises(ValueError):
        QuadIrr(9, 0, 1)
    with pytest.raises(ValueError):
        QuadIrr(10, 0, 0)


@pytest.mark.parametrize("call, args, message", [
    (QuadIrr(10, 0, 1).compare_rational, (1, 0), "zero denominator"),
    (lemma_db_check, (0, 1, 0, 1, 1), "alpha, beta must be positive"),
    (lemma_db_check, (1, -2, 0, 1, 1), "alpha, beta must be positive"),
])
def test_contfrac_input_errors(call, args, message):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert message in str(exc.value)


def test_quadirr_normalizes_divisibility():
    # t does not divide d - s^2: representation is rescaled, value preserved.
    alpha = QuadIrr(2, 0, 3)
    assert (alpha.d - alpha.s * alpha.s) % alpha.t == 0
    assert alpha.compare_rational(4714, 10000) == 1
    assert alpha.compare_rational(4715, 10000) == -1


def _sign_a_plus_b_sqrt(a, b, d):
    """Sign of a + b*sqrt(d) with d non-square: the recursion compare_rational
    used before its one integer test, kept as the oracle."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        lhs, rhs = b * b * d, a * a
        return (lhs > rhs) - (lhs < rhs)
    return -_sign_a_plus_b_sqrt(-a, -b, d)


def test_compare_rational_matches_the_recursive_sign():
    # seeded (d, s, t, num, den) with t and den of either sign; num/den is a
    # random rational, one next to (s +- sqrt(d))/t, or a convergent of alpha
    # (of sqrt(d) itself when s = 0, t = 1), where a = s*den - num*t has a^2
    # within a few units of den^2*d and the magnitude test decides
    rng = random.Random(30)
    tight = 0
    for i in range(3000):
        d = rng.randrange(2, 2000)
        if is_perfect_square(d) is not None:
            continue
        s, t = (0, 1) if i % 4 == 0 else (rng.randint(-50, 50), rng.randint(1, 30))
        alpha = QuadIrr(d, s, rng.choice([-1, 1]) * t)
        sg = rng.choice([-1, 1])
        if i % 3 == 0:
            num, den = rng.randint(-10**7, 10**7), sg * rng.randint(1, 10**6)
        elif i % 3 == 1:
            den = sg * rng.randint(1, 10**6)
            root = rng.choice([-1, 1]) * isqrt(den * den * alpha.d)
            num = (alpha.s * den + root) // alpha.t + rng.randint(-2, 2)
        else:
            conv = list(islice(convergents(a for a, _, _ in expand(alpha).terms()), 12))
            num, den = (sg * x for x in rng.choice(conv[1:]))
        a = alpha.s * den - num * alpha.t
        tight += abs(a * a - den * den * alpha.d) <= 4
        old = _sign_a_plus_b_sqrt(a, den, alpha.d) * (1 if alpha.t * den > 0 else -1)
        assert alpha.compare_rational(num, den) == old, (alpha, num, den)
    assert tight >= 50


def test_expand_sqrt10():
    e = expand(QuadIrr(10, 0, 1))
    assert e.quotients == [3, 6]
    assert e.preperiod_len == 1
    assert e.period_len == 1
    assert [a for a, _, _ in islice(e.terms(), 6)] == [3, 6, 6, 6, 6, 6]


def test_expand_sqrt2_and_golden():
    e = expand(QuadIrr(2, 0, 1))
    assert (e.quotients, e.preperiod_len, e.period_len) == ([1, 2], 1, 1)
    g = expand(QuadIrr(5, 1, 2))
    assert (g.quotients, g.preperiod_len, g.period_len) == ([1], 0, 1)


def test_expand_sqrt_one_more_than_square_power():
    # sqrt(p^(2k+2) + 1) = [p^(k+1); 2p^(k+1)] for a small slice of cases;
    # the full sweep lives in the acceptance suite.
    for p, k in ((3, 0), (3, 1), (5, 1), (7, 2)):
        a0 = p ** (k + 1)
        e = expand(QuadIrr(a0 * a0 + 1, 0, 1))
        assert e.quotients == [a0, 2 * a0]
        assert (e.preperiod_len, e.period_len) == (1, 1)


def test_expand_cap(monkeypatch):
    monkeypatch.setattr(contfrac, "MAX_TERMS", 3)
    with pytest.raises(ExpansionCapExceeded):
        expand(QuadIrr(1234567891, 0, 1))


def _random_quadirr(rng):
    while True:
        d = rng.randrange(2, 5000)
        if is_perfect_square(d) is not None:
            continue
        s = rng.randrange(-100, 101)
        t = rng.randrange(-50, 51)
        if t == 0:
            continue
        return QuadIrr(d, s, t)


def test_expansion_state_invariants_random():
    rng = random.Random(7)
    for _ in range(1000):
        alpha = _random_quadirr(rng)
        e = expand(alpha)
        d = alpha.d
        quotients = e.quotients
        # (s_n, t_n) for n = 0 .. j+L, read off the rows
        states = [(alpha.s, alpha.t), *(row[1:] for row in e.rows)]
        for n, (s_n, t_n) in enumerate(states):
            assert t_n != 0
            assert (d - s_n * s_n) % t_n == 0
            if n >= 1:
                a = quotients[n - 1]
                s_prev, t_prev = states[n - 1]
                assert s_n == a * t_prev - s_prev
                assert t_n == (d - s_n * s_n) // t_prev
        # Inside the periodic part the state is reduced:
        # 0 < t_n and |s_n| < sqrt(d).
        for n in range(e.preperiod_len, e.preperiod_len + e.period_len):
            s_n, t_n = states[n]
            assert 0 < t_n
            assert s_n * s_n < d
        # Partial quotients are positive beyond index 0.
        for n in range(1, len(quotients)):
            assert quotients[n] >= 1


def test_walk_runs_the_preperiod_and_whole_periods():
    rng = random.Random(13)
    for _ in range(300):
        alpha = _random_quadirr(rng)
        e = expand(alpha)
        j, ell = e.preperiod_len, e.period_len
        rows = list(walk(alpha.d, alpha.s, alpha.t))
        assert rows == e.rows and len(rows) == j + ell
        for periods in (1, 2, 3):
            terms = list(islice(e.terms(), j + periods * ell))
            assert terms[:j + ell] == rows
            assert terms[j:] == rows[j:] * periods


def test_walk_rejects_bad_input():
    with pytest.raises(ValueError):
        next(walk(9, 0, 1))  # square d
    with pytest.raises(ValueError):
        next(walk(10, 0, 3))  # 3 does not divide 10 - 0^2
    with pytest.raises(ValueError):
        next(walk(10, 0, 0))


def test_walk_cap(monkeypatch):
    # sqrt(10) repeats (s, t) = (3, 1) at n = 2, so a cap of 3 terms finds it
    monkeypatch.setattr(contfrac, "MAX_TERMS", 3)
    assert len(list(walk(10, 0, 1))) == 2
    monkeypatch.setattr(contfrac, "MAX_TERMS", 2)
    with pytest.raises(ExpansionCapExceeded):
        list(walk(10, 0, 1))


def _walk_seen_dict(d, s, t, periods):
    """The rows of the walk of (s + sqrt(d))/t through the preperiod and
    `periods` periods, with the period found as the first repeated
    (s_n, t_n) pair of a dict of every state seen: an oracle for walk, which
    remembers only its first reduced state, and for expand's preperiod_len."""
    f = math.isqrt(d)
    seen = {}
    rows = []
    n, end = 0, -1
    while n != end:
        if end < 0:
            j = seen.setdefault((s, t), n)
            if j < n:
                end = n + (n - j) * (periods - 1)
                continue
        a = (s + f) // t if t > 0 else -((s + f) // -t) - 1
        s = a * t - s
        t = (d - s * s) // t
        rows.append((a, s, t))
        n += 1
    return rows


def _walk_starts(rng, count):
    """(d, s, t) with t | d - s^2: random ones (d = s^2 - t*c, t of either
    sign), the state that opens each one's period, and starts just outside
    the reduced ones, 0 < (s + sqrt(d))/t < 1 with conjugate in (-1, 0)."""
    starts = []
    while len(starts) < 3 * count:
        s = rng.randint(-300, 300)
        t = rng.choice([-1, 1]) * rng.randint(1, 300)
        d = s * s - t * rng.randint(-3000, 3000)
        if d < 2 or math.isqrt(d) ** 2 == d:
            continue
        e = expand(QuadIrr(d, s, t))
        # the last row's state opens the period
        starts += [(d, s, t), (d, *e.rows[-1][1:])]
        # sqrt(d) < t - s when c < t - 2s
        s = rng.randint(1, 100)
        t = rng.randint(2 * s + 2, 400)
        d = s * s + t * rng.randint(1, t - 2 * s - 1)
        if math.isqrt(d) ** 2 != d:
            starts.append((d, s, t))
    return starts


def test_walk_matches_seen_dict_oracle():
    kinds = {"t < 0": 0, "not reduced": 0, "reduced": 0, "below 1": 0}
    for d, s, t in _walk_starts(random.Random(14), 1000):
        f = math.isqrt(d)
        reduced = 0 < s <= f and f - s < t <= f + s
        kinds["reduced" if reduced else "not reduced"] += 1
        kinds["t < 0"] += t < 0
        kinds["below 1"] += 0 < s + f < t
        assert list(walk(d, s, t)) == _walk_seen_dict(d, s, t, 1), (d, s, t)
        for periods in (2, 3):
            oracle = _walk_seen_dict(d, s, t, periods)
            terms = expand(QuadIrr(d, s, t)).terms()
            assert list(islice(terms, len(oracle))) == oracle, (d, s, t, periods)
    assert min(kinds.values()) >= 200, kinds


def test_period_start_matches_seen_dict_oracle():
    kinds = {"t < 0": 0, "j = 0": 0, "j > 0": 0}
    for d, s, t in _walk_starts(random.Random(14), 1000):
        # the oracle's first repeated state is the state at index j of the
        # walk, and its preperiod is j rows long
        one, two = _walk_seen_dict(d, s, t, 1), _walk_seen_dict(d, s, t, 2)
        ell = len(two) - len(one)
        j = expand(QuadIrr(d, s, t)).preperiod_len
        assert j == len(one) - ell, (d, s, t)
        kinds["t < 0"] += t < 0
        kinds["j = 0" if j == 0 else "j > 0"] += 1
    assert min(kinds.values()) >= 200, kinds


@st.composite
def _pqa_start(draw):
    """(d, z, m) with d >= 2 non-square and m | z^2 - d, m of either sign."""
    z = draw(st.integers(min_value=-300, max_value=300))
    m = draw(st.integers(min_value=-300, max_value=300).filter(lambda v: v != 0))
    c = draw(st.integers(min_value=-3000, max_value=3000))
    d = z * z - m * c
    assume(d >= 2 and math.isqrt(d) ** 2 != d)
    return d, z, m


@given(_pqa_start())
def test_pqa_identity(start):
    # Robertson (2004): G_i^2 - d*B_i^2 = (-1)^(i+1) * Q_{i+1} * Q_0, with
    # G_i = Q_0*A_i - P_0*B_i, (A_i, B_i) the convergents, (P, Q) = (s, t)
    d, z, m = start
    e = expand(QuadIrr(d, z, m))
    p0, q0, p, q = 0, 1, 1, 0
    rows = islice(e.terms(), e.preperiod_len + 2 * e.period_len)
    for i, (a, _, t) in enumerate(rows):
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        g = m * p - z * q
        assert g * g - d * q * q == (-1) ** (i + 1) * t * m


def _convergents(e, count):
    """The first `count` convergents of the expansion e."""
    return list(islice(convergents(a for a, _, _ in e.terms()), count))


def test_convergents_examples():
    c = _convergents(expand(QuadIrr(10, 0, 1)), 4)
    assert c[0] == (3, 1)
    assert c[1] == (19, 6)
    assert c[2] == (117, 37)
    c26 = _convergents(expand(QuadIrr(26, 0, 1)), 2)
    assert c26[0] == (5, 1)
    assert c26[1] == (51, 10)


def test_convergents_of_any_quotients():
    # [1; 2, 2, 2] -> 1, 3/2, 7/5, 17/12; a finite list ends the generator
    assert list(convergents([1, 2, 2, 2])) == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert list(convergents([])) == []


def test_last_convergents_are_the_last_two_of_convergents():
    # the Pell unit and the class search's hit read last_denominators
    rng = random.Random(32)
    for _ in range(300):
        quots = [rng.randint(0, 1000)] + [rng.randint(1, 1000) for _ in range(rng.randint(0, 49))]
        conv = [(1, 0), *convergents(quots)]
        (p1, q1), (p, q) = conv[-2:]
        assert contfrac.last_denominators(quots) == (q1, q)
        assert contfrac.last_denominators(iter(quots)) == (q1, q)
    # no quotients: (q_{-2}, q_{-1})
    assert contfrac.last_denominators([]) == (1, 0)


def test_convergents_determinant_and_quality():
    rng = random.Random(11)
    for _ in range(100):
        alpha = _random_quadirr(rng)
        e = expand(alpha)
        upto = e.preperiod_len + 2 * e.period_len + 3
        c = _convergents(e, upto + 1)
        prev = (1, 0)
        for m in range(upto + 1):
            p, q = c[m]
            assert p * prev[1] - prev[0] * q in (1, -1)
            prev = (p, q)
        # |alpha - p_m/q_m| < 1/(q_m q_{m+1}), checked exactly:
        # q_{m+1} |q_m alpha - p_m| < 1.
        for m in range(upto):
            p, q = c[m]
            p2, q2 = c[m + 1]
            # alpha = (s + sqrt d)/t; q*alpha - p = (q*s - p*t + q*sqrt d)/t
            a = q * alpha.s - p * alpha.t
            b = q
            # |a + b sqrt d| * q2 < |t|  <=>  (a + b sqrt d)^2 q2^2 < t^2
            lhs_rat = (a * a + b * b * alpha.d) * q2 * q2 - alpha.t * alpha.t
            cross = 2 * a * b * q2 * q2
            # lhs_rat + cross*sqrt(d) < 0 must hold.
            if cross >= 0:
                assert lhs_rat < 0 and lhs_rat * lhs_rat > cross * cross * alpha.d
            else:
                assert lhs_rat < 0 or lhs_rat * lhs_rat < cross * cross * alpha.d


def test_lemma_db_examples():
    assert lemma_db_check(10, 1, 0, 1, 0) == -1
    assert lemma_db_check(10, 1, 0, 0, 1) == 1
    assert lemma_db_check(2, 1, 0, 1, 1) == 2


@pytest.mark.parametrize("n", [-1, -2])
def test_lemma_db_rejects_negative_n(n):
    with pytest.raises(ValueError, match="n must be"):
        lemma_db_check(10, 1, n, 1, 1)


@pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 8), (3, 12), (9, 4)])
def test_lemma_db_rejects_square_product(alpha, beta):
    # QuadIrr rejects sqrt(alpha*beta)/beta when alpha*beta is a square
    with pytest.raises(ValueError, match="perfect square"):
        lemma_db_check(alpha, beta, 0, 1, 1)


def test_worley_candidates_index_domain():
    with pytest.raises(ValueError, match="m_max"):
        worley_candidates(expand(QuadIrr(10, 0, 1)), 1, -2)
    # m = -1 alone pairs (p_0, q_0) = (3, 1) with (p_-1, q_-1) = (1, 0)
    cands = worley_candidates(expand(QuadIrr(10, 0, 1)), 1, -1)
    assert {w.m for w in cands} == {-1}
    assert (-1, 1, 1, -1, 2, 1) in [(w.m, w.r, w.u, w.sign, w.a, w.b) for w in cands]


def test_worley_candidates_take_exact_c_only():
    # c is an int or a Fraction; a float or str is refused, not converted
    exp = expand(QuadIrr(10, 0, 1))
    for c in (1.5, "3/2"):
        with pytest.raises(TypeError, match=f"not {c!r}"):
            worley_candidates(exp, c, 0)
    for c in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            worley_candidates(exp, c, 0)


def test_lemma_db_randoms():
    rng = random.Random(3)
    for _ in range(300):
        while True:
            alpha = rng.randrange(1, 300)
            beta = rng.randrange(1, 300)
            if is_perfect_square(alpha * beta) is None:
                break
        n = rng.randrange(0, 12)
        r = rng.randrange(0, 30)
        u = rng.randrange(0, 30)
        # lemma_db_check raises AssertionError if the two sides disagree.
        lemma_db_check(alpha, beta, n, r, u)


def test_worley_example_sqrt10():
    cands = worley_candidates(expand(QuadIrr(10, 0, 1)), Fraction(3, 2), 0)
    hits = [(w.m, w.r, w.u, w.sign, w.a, w.b) for w in cands]
    assert (0, 1, 1, 1, 22, 7) in hits
    for w in cands:
        assert 0 <= w.r * w.u < 3  # ru < 2c = 3


def test_worley_covers_good_approximations():
    # Every a/b with |sqrt(10) - a/b| < c/b^2 and small b shows up as a
    # candidate (up to sign of the pair).
    alpha = QuadIrr(10, 0, 1)
    c = Fraction(3, 2)
    cands = worley_candidates(expand(alpha), c, 8)
    pairs = {(w.a, w.b) for w in cands} | {(-w.a, -w.b) for w in cands}
    for b in range(1, 50):
        for a in range(3 * b - 2, 3 * b + 4):
            if math.gcd(a, b) != 1:
                continue
            # exact test |a - b sqrt10| < c/b  <=>  (a^2 - 10 b^2)^2 < ... ;
            # simpler: (b*sqrt10 - a)^2 * b^2 < c^2
            diff_sq = (a * a + 10 * b * b) * b * b
            cross = 2 * a * b * b * b
            # diff_sq - cross*sqrt(10) < c^2 ?
            rhs = Fraction(9, 4)
            lhs = diff_sq - rhs
            good = lhs < 0 or lhs * lhs < cross * cross * 10
            if good:
                assert (a, b) in pairs, (a, b)
