"""Generalized Pell solver, class reduction, and the paper's equation decider."""

import hashlib
import importlib
import itertools
import math
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import pelltuples
from pelltuples import contfrac, pellian
from pelltuples.arith import factorize, is_perfect_square, is_prime, isqrt
from pelltuples.contfrac import ExpansionCapExceeded
from pelltuples.harness import SweepConfig, run_claim
from pelltuples.pellian import (
    SOLVABLE,
    UNSOLVABLE,
    FujitaCertificate,
    PellianProblem,
    all_solutions_stream,
    case2_residue_search,
    class_bound,
    decide_paper_equation,
    fujita_fast_path,
    has_primitive_solution,
    p2_family_witness,
    pell_fundamental,
    solve_brute,
    solve_complete,
    _cf_class_solutions,
    _class_rep,
    _class_search_outcome,
    _fujita_chain,
    _residue_hits,
    _sqrt_mod_prime_power,
)

import signed_walk

NONSQUARES = [d for d in range(2, 80) if is_perfect_square(d) is None]


def test_problem_validation():
    with pytest.raises(ValueError):
        PellianProblem(4, -1)  # square D
    with pytest.raises(ValueError):
        PellianProblem(10, 0)
    with pytest.raises(ValueError):
        PellianProblem(-10, 1)


@pytest.mark.parametrize("call, args, message", [
    (solve_brute, (PellianProblem(2, 1), 0), "y_max must be >= 1"),
    (fujita_fast_path, (0, 2), "K must be positive"),
    (case2_residue_search, (2, 1), "p must be an odd prime"),
    (case2_residue_search, (9, 1), "p must be an odd prime"),
    (case2_residue_search, (3, -1), "k must be >= 0"),
    (p2_family_witness, (2, 2), "requires odd k and k/2 < l <= k"),
    (p2_family_witness, (3, 1), "requires odd k and k/2 < l <= k"),
    (p2_family_witness, (3, 4), "requires odd k and k/2 < l <= k"),
])
def test_pellian_input_errors(call, args, message):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert message in str(exc.value)


def test_pell_fundamental_examples():
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(10) == (19, 6)
    assert pell_fundamental(26) == (51, 10)
    assert pell_fundamental(13) == (649, 180)
    assert pell_fundamental(61) == (1766319049, 226153980)


def test_pell_fundamental_is_least_solution():
    for d in NONSQUARES:
        t, u = pell_fundamental(d)
        assert t * t - d * u * u == 1
        assert u >= 1
        # Minimality scan (skipped where u is huge, e.g. d = 61).
        for y in range(1, min(u, 100_000)):
            assert is_perfect_square(1 + d * y * y) is None, (d, y)


def _expand_oracle(d, s, t):
    """Quotients, preperiod and period of (s + sqrt(d))/t, t | d - s^2: the
    recurrence as `contfrac.expand` ran it before it was built on `walk`."""
    seen, quots = {}, []
    while (s, t) not in seen:
        seen[(s, t)] = len(quots)
        a = (s + isqrt(d)) // t if t > 0 else -((s + isqrt(d)) // -t) - 1
        quots.append(a)
        s = a * t - s
        t = (d - s * s) // t
    j = seen[(s, t)]
    return quots, j, len(quots) - j


def _convergents_oracle(quots, j, upto):
    """(p_m, q_m) for m = 0 .. upto, unrolling the period of quots from index j."""
    out, (p0, q0), (p1, q1) = [], (0, 1), (1, 0)
    for m in range(upto + 1):
        a = quots[m] if m < len(quots) else quots[j + (m - j) % (len(quots) - j)]
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


def _pell_fundamental_oracle(d):
    """The Pell unit as the expand/convergents route found it: t^2 - d*u^2 = 1
    tested at the ends of the first and the second period."""
    quots, j, ell = _expand_oracle(d, 0, 1)
    conv = _convergents_oracle(quots, j, 2 * ell - 1)
    return next((t, u) for t, u in (conv[ell - 1], conv[2 * ell - 1]) if t * t - d * u * u == 1)


#: D of long period: the six of test_class_search_matches_three_pass_long_period
#: (periods 392, 400, 402, 414, 380 and 405) and four more of odd period
#: (417, 415, 399 and 389)
LONG_PERIOD_DS = (340891, 343631, 662859, 848541, 853324, 958381,
                  998329, 997813, 996617, 994853)


def test_pell_fundamental_matches_expand_route():
    for d in (*range(2, 5001), *LONG_PERIOD_DS):
        if is_perfect_square(d) is None:
            assert pell_fundamental(d) == _pell_fundamental_oracle(d), d
    parities = {_expand_oracle(d, 0, 1)[2] % 2 for d in LONG_PERIOD_DS}
    assert parities == {0, 1}


def test_pell_fundamental_cap():
    # sqrt(100000000006) has period 371,174, so the walk reaches no centre of
    # the period within its 100,000-term cap
    with pytest.raises(ExpansionCapExceeded):
        pell_fundamental(100000000006)


def test_pell_fundamental_reaches_twice_the_cap(monkeypatch):
    # the unit walk stops at the centre of the period, so under a cap of 50
    # terms it reaches the units of periods below 100 and no further
    monkeypatch.setattr(contfrac, "MAX_TERMS", 50)
    for d, ell in ((1381, 67), (1366, 70), (4603, 98), (4801, 99)):
        assert _expand_oracle(d, 0, 1)[2] == ell
        assert pell_fundamental.__wrapped__(d) == _pell_fundamental_oracle(d), d
    for d, ell in ((4924, 100), (3469, 115), (3931, 130)):
        assert _expand_oracle(d, 0, 1)[2] == ell
        with pytest.raises(ExpansionCapExceeded):
            pell_fundamental.__wrapped__(d)


def _counting_walk(monkeypatch):
    """Wrap pellian.walk; the returned list gets the row count of each walk,
    in the order the walks start, also while two walks take turns."""
    counts = []
    walk = pellian.walk

    def counting_walk(*args, **kwargs):
        i = len(counts)
        counts.append(0)
        for row in walk(*args, **kwargs):
            counts[i] += 1
            yield row

    monkeypatch.setattr(pellian, "walk", counting_walk)
    return counts


def test_pell_fundamental_walks_half_the_period(monkeypatch):
    counts = _counting_walk(monkeypatch)
    for d in (*range(2, 2001), *LONG_PERIOD_DS):
        if is_perfect_square(d) is None:
            pell_fundamental.__wrapped__(d)
            assert counts.pop() <= _expand_oracle(d, 0, 1)[2] // 2 + 1, d


def test_negative_unit_iff_odd_period():
    # x^2 - d*y^2 = -1 is solvable exactly when sqrt(d) has an odd period,
    # and then its least solution squares to the Pell unit
    odd = 0
    for d in (*range(2, 3001), *LONG_PERIOD_DS):
        if is_perfect_square(d) is not None:
            continue
        unit = pellian._negative_unit(d)
        assert (unit is not None) == (contfrac.expand(contfrac.QuadIrr(d, 0, 1)).period_len % 2 == 1), d
        if unit is not None:
            x, y = unit
            assert x * x - d * y * y == -1 and (x * x + d * y * y, 2 * x * y) == pell_fundamental(d), d
            odd += 1
    assert odd > 100


def test_class_bound_examples():
    # N = -1, unit (19,6) for D=10: y <= 6*sqrt(1/(2*18)) = 1.
    assert class_bound(10, -1) >= 1
    # Bound never cuts off the fundamental y=1 solution of x^2-10y^2 = -1.
    assert class_bound(10, -1) < 6


def test_solve_brute_examples():
    assert solve_brute(PellianProblem(17, -8), 10) == [(3, 1), (37, 9)]
    assert solve_brute(PellianProblem(10, -3), 10_000) == []
    assert solve_brute(PellianProblem(5, -1), 5) == [(2, 1)]
    assert solve_brute(PellianProblem(5, -1), 17) == [(2, 1), (38, 17)]
    assert solve_brute(PellianProblem(2, 2), 7) == [(2, 1), (10, 7)]


def test_solve_brute_returns_sorted_valid():
    for d in (2, 5, 13):
        for n in (-4, -1, 1, 4):
            sols = solve_brute(PellianProblem(d, n), 200)
            assert sols == sorted(sols, key=lambda s: s[1])
            for x, y in sols:
                assert x >= 0 and x * x - d * y * y == n


def test_solve_brute_first_y_at_each_boundary():
    # -N at, just below and just above d*y^2: the first y scanned is the least
    # with d*y^2 >= -N, so (0, y) and (1, y) are found and no y has v < 0
    for d in NONSQUARES[:20]:
        for y in range(1, 25):
            for n in (1 - d * y * y, -d * y * y, -1 - d * y * y):
                oracle = []
                for z in range(1, y + 3):
                    v = n + d * z * z
                    if v >= 0 and isqrt(v) ** 2 == v:
                        oracle.append((isqrt(v), z))
                assert solve_brute(PellianProblem(d, n), y + 2) == oracle


def test_class_rep_recovers_fundamental():
    t, u = pell_fundamental(10)
    # (117, 37) is (3,1) composed once with the unit.
    assert _class_rep(10, 117, 37, t, u) == (3, 1)
    assert _class_rep(10, 3, 1, t, u) == (3, 1)
    t2, u2 = pell_fundamental(17)
    assert _class_rep(17, 3 * t2 + 17 * u2, t2 + 3 * u2, t2, u2) == (3, 1)


def test_solve_complete_examples():
    out = solve_complete(PellianProblem(10, -1))
    assert out.verdict == SOLVABLE
    assert out.witnesses == ((3, 1),)
    assert solve_complete(PellianProblem(10, -3)).verdict == UNSOLVABLE
    assert solve_complete(PellianProblem(26, -5)).verdict == UNSOLVABLE
    out2 = solve_complete(PellianProblem(17, -8))
    assert out2.verdict == SOLVABLE
    assert (3, 1) in out2.witnesses


def test_solve_complete_witnesses_are_class_fundamental():
    for d in (2, 3, 5, 10, 13, 17, 26, 29):
        for n in range(-20, 21):
            if n == 0:
                continue
            out = solve_complete(PellianProblem(d, n))
            t, u = pell_fundamental(d)
            for x, y in out.witnesses:
                assert x * x - d * y * y == n
                assert _class_rep(d, x, y, t, u) == (x, y)


def test_solve_complete_lists_each_class_once():
    # Nagell: (x, y) and (x', y') lie in the same class iff |N| divides both
    # x*x' - D*y*y' and x*y' - x'*y; (x', -y') tests the conjugate class.
    ds = [d for d in range(2, 30) if math.isqrt(d) ** 2 != d][:20]
    for d in ds:
        for n in range(-30, 31):
            if n == 0:
                continue
            wits = solve_complete(PellianProblem(d, n)).witnesses
            for i, (x, y) in enumerate(wits):
                for x2, y2 in wits[i + 1:]:
                    for yc in (y2, -y2):
                        same = (x * x2 - d * y * yc) % n == 0 and (x * yc - x2 * y) % n == 0
                        assert not same, (d, n, (x, y), (x2, y2))


def _sqrt_mod(d, factors):
    """All z in [0, m) with z^2 = d (mod m), m = prod p^e over `factors`, by
    CRT: the class search's root finder before it joined the roots while it
    built the splits, kept as the oracle of _root_walks."""
    roots, mod = [0], 1
    for p, e in factors.items():
        pe = p**e
        inv = pow(mod, -1, pe)
        roots = [r + mod * ((s - r) * inv % pe)
                 for r in roots for s in _sqrt_mod_prime_power(d, p, e)[e]]
        mod *= pe
    return sorted(roots)


def test_sqrt_mod_matches_brute_force():
    for m in range(1, 401):
        fac = factorize(m)
        table: dict[int, list[int]] = {}
        for z in range(m):
            table.setdefault(z * z % m, []).append(z)
        for d in list(range(m)) + [7 * m * m, 2**15, 3**12]:
            assert _sqrt_mod(d, fac) == table.get(d % m, []), (d, m)


def _reps(d, sols):
    t, u = pell_fundamental(d)
    return {_class_rep(d, x, y, t, u) for x, y in sols}


def _class_search_reps(d, n):
    return tuple(sorted(_reps(d, _cf_class_solutions(d, n, factorize(abs(n))))))


def test_class_search_matches_solve_complete():
    # the oracle scans y up to the class bound, whatever route solve_complete
    # takes, and adds (sqrt(n), 0) when n is a square; the prime powers that
    # share primes with D take the lifting path for p = 2 and for p | D.
    for d in range(2, 61):
        if is_perfect_square(d) is not None:
            continue
        ns = [n for n in range(-60, 61) if n != 0]
        ns += [s * n for s in (1, -1)
               for n in [2**a for a in range(6, 11)] + [3**a * d for a in range(1, 5)]
               + [p**a for p in factorize(d) for a in range(2, 5)]]
        for n in ns:
            sols = solve_brute(PellianProblem(d, n), class_bound(d, n))
            rt = is_perfect_square(n)
            if rt is not None:
                sols.append((rt, 0))
            assert _class_search_reps(d, n) == tuple(sorted(_reps(d, sols))), (d, n)


def _three_pass_root_hits(d, z, m):
    """Every (G, B) with G^2 - d*B^2 = m on the walk of (z + sqrt(d))/|m|
    through the preperiod and two periods, found in three passes (expand,
    convergents, then G^2 - d*B^2 at every step)."""
    m_abs = abs(m)
    quots, j, ell = _expand_oracle(d, z, m_abs)
    hits = []
    for p, q in _convergents_oracle(quots, j, j + 2 * ell - 1):
        g = m_abs * p - z * q
        if g * g - d * q * q == m:
            hits.append((g, q))
    return hits


def _root_walks(d, n):
    """(f, m, roots) for every f^2 | n, m = n/f^2, with the roots z in [0, |m|)
    of z^2 = d (mod |m|)."""
    fac = factorize(abs(n))
    for halves in itertools.product(*(range(e // 2 + 1) for e in fac.values())):
        f = math.prod(p**h for p, h in zip(fac, halves))
        m_fac = {p: e - 2 * h for (p, e), h in zip(fac.items(), halves) if e > 2 * h}
        yield f, n // (f * f), _sqrt_mod(d, m_fac)


def _three_pass_class_solutions(d, n):
    """The class search as it walked every root three times and kept every
    hit, kept as the oracle of the one-pass, one-hit walk."""
    return [(f * g, f * q) for f, m, roots in _root_walks(d, n)
            for z in roots for g, q in _three_pass_root_hits(d, z, m)]


def _assert_matches_three_pass(d, n):
    """Every raw solution solves x^2 - d*y^2 = n with y > 0, there is at most
    one per walked +-z pair, and their classes are the oracle's."""
    sols = _cf_class_solutions(d, n, factorize(abs(n)))
    assert all(y > 0 and x * x - d * y * y == n for x, y in sols), (d, n)
    assert len(sols) <= len(_walked_roots(d, n)), (d, n)
    assert _reps(d, sols) == _reps(d, _three_pass_class_solutions(d, n)), (d, n)
    return sols


def test_class_search_matches_three_pass():
    # the whole pell grid: the search keeps one hit per +-z pair
    for d in range(2, 201):
        if is_perfect_square(d) is not None:
            continue
        for n in range(-50, 51):
            if n != 0:
                _assert_matches_three_pass(d, n)


def test_class_search_matches_three_pass_long_period():
    # sqrt(D) has period 380-420 and |N| is prime; the first three are solvable
    total = 0
    for d, n in ((340891, 382729), (343631, 22441), (662859, 745993),
                 (848541, -3049), (853324, 9999991), (958381, -1000003)):
        assert is_prime(abs(n)) and 380 <= _expand_oracle(d, 0, 1)[2] <= 420
        total += len(_assert_matches_three_pass(d, n))
    assert total > 0


def _first_unit_row(d, s, t):
    """(i, j, L): the first row i with |t_{i+1}| = 1 of the walk of
    (s + sqrt(d))/t through its preperiod j and period L (None if none), by
    the recurrence of _expand_oracle."""
    quots, j, ell = _expand_oracle(d, s, t)
    for i, a in enumerate(quots):
        s = a * t - s
        t = (d - s * s) // t
        if abs(t) == 1:
            return i, j, ell
    return None, j, ell


def _negative_unit_oracle(d):
    """(p, q) with p^2 - d*q^2 = -1, the convergent that closes an odd first
    period of sqrt(d); None for an even period."""
    quots, j, ell = _expand_oracle(d, 0, 1)
    return _convergents_oracle(quots, j, ell - 1)[-1] if ell % 2 else None


def _pair_oracle(d, z, m):
    """(paths, hit, rows, lengths) that _pqa_first_hit(d, z, m) should give,
    from the oracles.  Walk A of root z and walk B of root |m| - z make their
    row i together, A's is read first, and the first row with |t| = 1
    settles; only A is walked when z = -z (mod |m|) or d = f^2 + 1.  rows is
    the number of rows walked, 2(i + 1) for a pair settled at row i, or its
    bound when no row has |t| = 1: j_A + j_B + L + 2, or j + L for one walk.
    lengths holds each walk's preperiod plus period."""
    m_abs, f = abs(m), isqrt(d)
    paths = {f"single walk, {name}" for name, holds in (
        ("z = 0", z == 0), ("2z = |m|", 2 * z == m_abs), ("d = f^2 + 1", d == f * f + 1))
        if holds}
    roots = (z,) if paths else (z, m_abs - z)
    firsts = [_first_unit_row(d, r, m_abs) for r in roots]
    lengths = [j + ell for _, j, ell in firsts]
    settles = sorted((len(roots) * (i + 1), side, i)
                     for side, (i, _, _) in enumerate(firsts) if i is not None)
    if not settles:
        bound = sum(j for _, j, _ in firsts) + firsts[0][2] + 2 * (len(roots) - 1)
        return paths | {"no |t| = 1"}, None, bound, lengths
    rows, side, i = settles[0]
    root = roots[side]
    quots, j, _ = _expand_oracle(d, root, m_abs)
    p, q = _convergents_oracle(quots, j, i)[i]
    g = m_abs * p - root * q
    if g * g - d * q * q == m:
        return paths | {f"|t| = 1 on {'AB'[side]}"}, (g, q), rows, lengths
    unit = _negative_unit_oracle(d)
    if unit is None:
        return paths | {"even period, wrong sign"}, None, rows, lengths
    x, y = unit
    g, q = g * x + d * q * y, g * y + q * x
    return paths | {"wrong sign times the unit"}, (g, q) if q > 0 else (-g, -q), rows, lengths


def _walked_roots(d, n):
    """(m, z) for every root z with 2z <= |m| of the class search of (d, n):
    the roots whose +-z pair it settles."""
    return [(m, z) for _, m, roots in _root_walks(d, n) for z in roots if 2 * z <= abs(m)]


def _settled_walk(d, z, m):
    """The hit of norm m that the class search reads off the sign-free walk
    of root z mod |m|, whose row must have norm +-m; __wrapped__ bypasses
    the memo, so each call walks."""
    row = pellian._pqa_first_hit.__wrapped__(d, z, abs(m))
    if row is None:
        return None
    g, q, norm = row
    assert q > 0 and g * g - d * q * q == norm and abs(norm) == abs(m), (d, z, m, row)
    return pellian._generator_hit(d, m, *row)


def test_class_walk_without_hit_runs_one_period(monkeypatch):
    # with no row of |t| = 1 in either walk, the two walks together take at
    # most j_A + j_B + L + 2 rows and a single walk j + L; over 1000 pairs
    # end as the walks meet, before either closes its period.  The walk of
    # |m| is sign-free, and __wrapped__ bypasses the memo, so each call walks
    counts = _counting_walk(monkeypatch)
    misses = met = 0
    for d in range(2, 201):
        if is_perfect_square(d) is not None:
            continue
        pell_fundamental(d)
        for n in range(-50, 51):
            if n == 0:
                continue
            for m, z in _walked_roots(d, n):
                paths, _, bound, lengths = _pair_oracle(d, z, m)
                if "no |t| = 1" in paths:
                    counts.clear()
                    assert pellian._pqa_first_hit.__wrapped__(d, z, abs(m)) is None, (d, z, m)
                    assert sum(counts) <= bound, (d, z, m)
                    misses += 1
                    met += len(counts) == 2 and all(map(int.__lt__, counts, lengths))
    assert misses > 1000 and met > 1000


def test_class_walk_paths(monkeypatch):
    # each path of _pqa_first_hit and of _generator_hit's settlement, named,
    # with the (d, n) whose roots take it; _settled_walk walks at each call
    counts = _counting_walk(monkeypatch)
    paths = {
        # (3, 13) settles on a row with t = -1: walk A of (4 + sqrt(3))/13
        # opens with the row (0, -4, -1); so does (3, -13) below
        "|t| = 1 on A": [(7, -3), (11, 5), (991, -10000019), (3, 13)],
        "|t| = 1 on B": [(13, 3), (19, 5), (31, -3)],
        # the (f, 1) row of an odd period has norm -1
        "wrong sign times the unit": [(13, 1), (29, 1), (61, 1)],
        "even period, wrong sign": [(3, -1), (7, -1), (34, -1), (3, -13)],
        "the walks meet": [(12, 22), (13, -6), (13, -24)],
        "single walk, z = 0": [(13, -1), (13, 1), (34, -9)],
        "single walk, 2z = |m|": [(3, 2), (3, -6), (7, 2)],
        # sqrt(f^2 + 1) = [f; 2f]: the principal cycle is the state (f, 1)
        "single walk, d = f^2 + 1": [(2, -7), (10, 3), (10, -9)],
    }
    for name, cases in paths.items():
        for d, n in cases:
            pell_fundamental(d)
            taken = set()
            for m, z in _walked_roots(d, n):
                names, hit, rows, lengths = _pair_oracle(d, z, m)
                counts.clear()
                assert _settled_walk(d, z, m) == hit, (d, z, m)
                if "no |t| = 1" in names:
                    assert sum(counts) <= rows, (d, z, m)
                    if len(counts) == 2 and all(map(int.__lt__, counts, lengths)):
                        names.add("the walks meet")
                else:
                    assert sum(counts) == rows, (d, z, m)
                taken |= names
            assert name in taken, (name, d, n)
            _assert_matches_three_pass(d, n)


def test_walk_row_gives_each_numerator():
    # Robertson's G_i = s_{i+1}*q_i + t_{i+1}*q_{i-1}, which the hit and the
    # Pell unit read off their rows, equals Q_0*p_i - z*q_i at every row of
    # the walks of both roots of every pair the pell grid's class searches
    # settle, and of the unit walks
    walks = {(d, r, abs(m)) for d in range(2, 201) if is_perfect_square(d) is None
             for n in range(-50, 51) if n != 0 for m, z in _walked_roots(d, n)
             for r in {z, abs(m) - z}}
    walks |= {(d, 0, 1) for d in LONG_PERIOD_DS}
    rows_seen = 0
    for d, z, m_abs in sorted(walks):
        rows = list(contfrac.walk(d, z, m_abs))
        q1 = 0
        for (_, s, t), (p, q) in zip(rows, contfrac.convergents(a for a, _, _ in rows)):
            assert s * q + t * q1 == m_abs * p - z * q, (d, z, m_abs)
            q1 = q
            rows_seen += 1
    assert rows_seen > 40_000


def test_planted_long_period_hits_match_three_pass(monkeypatch):
    # N = x0^2 - D*y0^2 with a small prime y0 is solvable, so some walked pair
    # has a hit; each hit lies in a class of the three-pass oracle's hits of
    # its pair, found within two rows per row to the first |t| = 1 of either
    # root's walk.  _settled_walk walks at each call
    counts = _counting_walk(monkeypatch)
    for d, y0 in zip(LONG_PERIOD_DS, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)):
        pell_fundamental(d)
        x0 = isqrt(d * y0 * y0) + 1
        n = x0 * x0 - d * y0 * y0
        hits = 0
        for m, z in _walked_roots(d, n):
            pair = (z, (abs(m) - z) % abs(m))
            oracle = [h for r in pair for h in _three_pass_root_hits(d, r, m)]
            counts.clear()
            hit = _settled_walk(d, z, m)
            if hit is None:
                assert not oracle, (d, z, m)
                continue
            x, y = hit
            assert y > 0 and x * x - d * y * y == m, (d, z, m)
            assert _reps(d, [hit]) <= _reps(d, oracle), (d, z, m)
            firsts = [_first_unit_row(d, r, abs(m))[0] for r in pair]
            assert sum(counts) <= 2 * min(i for i in firsts if i is not None) + 2, (d, z, m)
            hits += 1
        assert hits, (d, n)


def test_sign_free_walk_matches_signed_oracle():
    # the sign-free walk and its settlement give, for both signs of m, what the
    # walk keyed on the signed m gave (signed_walk, a verbatim copy): on every
    # walked root of the pell grid and of the planted long-period queries,
    # paired and single walks, for d with and without a unit of norm -1
    roots = {(d, z, abs(m)) for d in range(2, 201) if is_perfect_square(d) is None
             for n in range(-50, 51) if n != 0 for m, z in _walked_roots(d, n)}
    for d, y0 in zip(LONG_PERIOD_DS, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)):
        x0 = isqrt(d * y0 * y0) + 1
        roots |= {(d, z, abs(m)) for m, z in _walked_roots(d, x0 * x0 - d * y0 * y0)}
    seen = set()
    for d, z, q0 in sorted(roots):
        f = isqrt(d)
        single = not 0 < 2 * z < q0 or d == f * f + 1
        for m in (q0, -q0):
            hit = _settled_walk(d, z, m)
            assert hit == signed_walk._pqa_first_hit(d, z, m), (d, z, m)
            seen.add((single, pellian._negative_unit(d) is not None, hit is not None))
    assert seen == set(itertools.product((False, True), repeat=3))


def test_root_walk_hits_share_one_class():
    # Why one hit per +-z pair suffices.  Every hit of root z has
    # G = -z*B (mod |m|), so by Nagell's criterion any two of them differ by a
    # unit of norm 1; and the hits of root |m| - z are the conjugate classes.
    for d in range(2, 201):
        if is_perfect_square(d) is not None:
            continue
        for n in range(-50, 51):
            if n == 0:
                continue
            for f, m, roots in _root_walks(d, n):
                m_abs = abs(m)
                hits = {z: _three_pass_root_hits(d, z, m) for z in roots}
                for z in roots:
                    for (x, y), (x2, y2) in itertools.combinations(hits[z], 2):
                        assert (x * x2 - d * y * y2) % m_abs == 0, (d, n, f, z)
                        assert (x * y2 - x2 * y) % m_abs == 0, (d, n, f, z)
                    assert _reps(d, hits[z]) == _reps(d, hits[(m_abs - z) % m_abs]), (d, n, f, z)


def _counting_lift(monkeypatch):
    """The primes of the _sqrt_mod_prime_power calls made from now on."""
    calls = []
    lift = pellian._sqrt_mod_prime_power

    def counting_lift(d, p, e):
        calls.append(p)
        return lift(d, p, e)

    monkeypatch.setattr(pellian, "_sqrt_mod_prime_power", counting_lift)
    return calls


def test_tm1_lifts_each_search_prime_once(monkeypatch):
    # one lift per class search of a prime power N, 280 in all; one lift per
    # split f^2 | N would make 560
    calls = _counting_lift(monkeypatch)
    pellian.case2_residue_search.cache_clear()
    run_claim("tm1", SweepConfig())
    pellian.case2_residue_search.cache_clear()
    assert len(calls) == 280


def test_tm1_factors_nothing_and_walks_each_root_once(monkeypatch):
    # every tm1 class search has N = +-p^j and is handed {p: j}; the split
    # f = p^h of N walks what the search of N/p^(2h) walks, and the walk memo
    # is sign-free, so the Case 2 check of +p^j and the cross-check of -p^j
    # share walks too: three in four of the 560 walks are memo hits
    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(pellian, "factorize", no_factorize)
    pellian.case2_residue_search.cache_clear()
    pellian._pqa_first_hit.cache_clear()
    run_claim("tm1", SweepConfig())
    info = pellian._pqa_first_hit.cache_info()
    pellian.case2_residue_search.cache_clear()
    pellian._pqa_first_hit.cache_clear()
    assert (info.misses, info.hits) == (140, 420)


def test_class_search_lifts_each_prime_once(monkeypatch):
    # solvable N with three primes and 12 to 18 splits f^2 | N, some primes
    # dividing D: each prime is lifted once, and the joined roots give what
    # the three-pass oracle gives
    calls = _counting_lift(monkeypatch)
    for d, n in ((7, -(2**4) * 3**3 * 5**2), (13, 2**4 * 3**3 * 5**2), (14, 2**3 * 3**2 * 5**4),
                 (10, -(2**4) * 3**2 * 5**4), (7, 2**5 * 7**4 * 17**2),
                 (33, -(2**2) * 11**5 * 13**4), (42, 3**4 * 5**2 * 7**3)):
        calls.clear()
        assert _assert_matches_three_pass(d, n), (d, n)
        assert sorted(calls) == sorted(factorize(abs(n))), (d, n)


def test_class_search_large_prime_n():
    # |N| = 10000019 is prime: f = 1, and Tonelli-Shanks gives both residues
    out = solve_complete(PellianProblem(991, -10000019))
    assert out.method == "cf-classes"
    assert out.witnesses == ((2038005236435, 64739369922),)


def test_solve_complete_agrees_with_brute_small():
    # The acceptance suite runs the big sweep; this is a quick slice.
    for d in (2, 3, 5, 6, 7, 8, 10, 13):
        for n in range(-10, 11):
            if n == 0:
                continue
            prob = PellianProblem(d, n)
            brute = solve_brute(prob, 500)
            out = solve_complete(prob)
            if brute:
                assert out.verdict == SOLVABLE, (d, n)
            if out.verdict == SOLVABLE and class_bound(d, n) <= 500:
                assert brute, (d, n)


def test_has_primitive_solution():
    assert has_primitive_solution(solve_complete(PellianProblem(10, -1)))
    # x^2 - 2y^2 = 4 has (2, 0)? no: witnesses like (2, 0) only when N square.
    out = solve_complete(PellianProblem(2, 4))
    # solutions (6,4), (2,0): none primitive with y > 0 and gcd 1... (6,4) has gcd 2.
    assert not has_primitive_solution(out)


def test_fujita_fast_path():
    assert fujita_fast_path(3, -3) == FujitaCertificate(k=3, n=-3)
    assert fujita_fast_path(5, -5) == FujitaCertificate(k=5, n=-5)
    assert fujita_fast_path(3, -1) is None  # |N| = 1 not covered
    assert fujita_fast_path(3, 3) == FujitaCertificate(k=3, n=3)
    assert fujita_fast_path(3, -4) is None  # |N| > K


def test_fujita_fast_path_sound():
    # Where the fast path fires, there really is no primitive solution.
    for k in range(2, 25):
        d = k * k + 1
        for n in range(-k, k + 1):
            if abs(n) <= 1:
                continue
            cert = fujita_fast_path(k, n)
            assert cert is not None
            assert not has_primitive_solution(solve_complete(PellianProblem(d, n)))


def test_case2_residue_search_examples():
    assert case2_residue_search(3, 0) == ()
    assert case2_residue_search(3, 1) == ()
    assert case2_residue_search(5, 1) == ()
    assert case2_residue_search(7, 2) == ()
    # the pair search below cannot finish this one
    assert case2_residue_search(199, 4) == ()


def _pair_search_hits(p, k, targets):
    """The exhaustive pair search over r*u < p^k, kept as the first oracle."""
    pk = p**k
    pk1 = p ** (k + 1)
    hits: list[tuple[int, int, int, int]] = []

    def check(r: int, u: int):
        base = u * u - r * r
        cross = 2 * r * u * pk1
        for sg in (1, -1):
            val = base + sg * cross
            if val in targets:
                hits.append((r, u, targets[val], sg))

    check(0, 1)
    check(1, 0)
    gcd = math.gcd
    for r in range(1, pk):
        for u in range(1, (pk - 1) // r + 1):
            if gcd(r, u) == 1:
                check(r, u)
    return tuple(hits)


def _closed_form_hits(p, k, targets):
    """The quadratic-root scan that the class search replaced, kept as the second
    oracle: s = min(r, u) <= isqrt(p^k - 1), and with D = P^2 + 1 the other value
    is a root of a quadratic: r = s gives u = -sg*P*s +- sqrt(D*s^2 + M), and
    u = s gives r = sg*P*s +- sqrt(D*s^2 - M)."""
    pk, big_p, d = p**k, p ** (k + 1), p ** (2 * k + 2) + 1
    hits = set()
    for s, (m, t), side in itertools.product(range(isqrt(pk - 1) + 1), targets.items(), (1, -1)):
        w = is_perfect_square(d * s * s + side * m)
        if w is None:
            continue
        for sg in (1, -1):
            for other in (w - side * sg * big_p * s, -w - side * sg * big_p * s):
                r, u = (s, other) if side == 1 else (other, s)
                if other >= 0 and r * u < pk and math.gcd(r, u) == 1:
                    hits.add((r, u, t, sg))
    return tuple(sorted(hits, key=lambda h: (h[0], h[1], -h[3])))


#: every 0 < |M| <= 400, since the paper's targets have no hits
ALL_TARGETS = {m: m for m in range(-400, 401) if m != 0}
#: ALL_TARGETS as _residue_hits takes them, with the factorization of each |M|
ALL_FACTORED = {m: (t, factorize(abs(m))) for m, t in ALL_TARGETS.items()}


def test_case2_matches_pair_search():
    # the residue hits must be the pair search's, in the same order
    total = 0
    for p, k in ((3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (5, 2),
                 (7, 1), (7, 2), (11, 1), (13, 1), (13, 2)):
        hits = _residue_hits(p, k, ALL_FACTORED)
        assert hits == _pair_search_hits(p, k, ALL_TARGETS), (p, k)
        total += len(hits)
    assert total > 0


def test_case2_matches_closed_form():
    # eight more (p, k), up to p^k = 243 and 1849, and the paper's own
    # targets at sizes the pair search cannot finish
    total = 0
    for p, k in ((3, 4), (3, 5), (5, 3), (7, 3), (11, 2), (17, 0), (19, 1), (43, 2)):
        hits = _residue_hits(p, k, ALL_FACTORED)
        assert hits == _closed_form_hits(p, k, ALL_TARGETS), (p, k)
        total += len(hits)
    assert total > 0
    for p, k in ((199, 4), (101, 5)):
        targets = {p ** (2 * k - 2 * t + 1): t for t in range(k + 1)}
        factored = {m: (t, {p: 2 * k - 2 * t + 1}) for m, t in targets.items()}
        assert _residue_hits(p, k, factored) == _closed_form_hits(p, k, targets) == (), (p, k)


def test_decide_paper_equation_small():
    for p in (3, 5, 7, 11, 13):
        for k in range(0, 3):
            for l in range(0, k + 1):
                out = decide_paper_equation(p, k, l)
                assert out.verdict == UNSOLVABLE, (p, k, l)
                assert out.method in ("fujita", "residue", "descent")


def test_decide_paper_equation_methods():
    # 2l+1 <= k+1 goes through the Fujita chain.
    assert decide_paper_equation(3, 2, 0).method == "fujita"
    # l = k with 2l+1 > k+1 always takes the residue route.
    out = decide_paper_equation(5, 1, 1)
    assert out.method == "residue"
    assert out.certificate == {"residue_hits": 0}


def test_decide_paper_equation_validation():
    with pytest.raises(ValueError):
        decide_paper_equation(4, 1, 1)  # not a prime
    with pytest.raises(ValueError):
        decide_paper_equation(3, 1, 2)  # l > k


def test_p2_family_witness_values():
    assert p2_family_witness(1, 1) == (3, 1)
    assert p2_family_witness(3, 3) == (30, 2)
    for k in (1, 3, 5, 7):
        for l in range(k // 2 + 1, k + 1):
            x, y = p2_family_witness(k, l)
            d = 2 ** (2 * k + 2) + 1
            assert x * x - d * y * y == -(2 ** (2 * l + 1))


def test_p2_decide():
    out = decide_paper_equation(2, 1, 1)
    assert out.verdict == SOLVABLE
    assert out.method == "paper-family"
    assert out.certificate == {"family_witness": (3, 1)}
    out2 = decide_paper_equation(2, 2, 0)
    assert out2.verdict == UNSOLVABLE
    assert out2.certificate is not None
    assert out2.certificate.get("modulus") == 5
    out3 = decide_paper_equation(2, 3, 3)
    assert out3.certificate == {"family_witness": (30, 2)}
    # Odd k with small l falls back to the fujita chain.
    assert decide_paper_equation(2, 3, 1).verdict == UNSOLVABLE


def test_p2_dispatch_matches_former_p2_decide():
    # the method table, witnesses, bounds and certificates of the former
    # p2_decide(k, l): mod 5 for even k, the family for odd k and l > k/2,
    # the Fujita chain otherwise
    rows = []
    for k in range(10):
        for l in range(k + 1):
            d, n = 2 ** (2 * k + 2) + 1, -(2 ** (2 * l + 1))
            out = decide_paper_equation(2, k, l)
            check = _class_search_outcome(d, n, {2: 2 * l + 1})
            assert out.witnesses == check.witnesses, (k, l)
            assert out.search_bound_used == check.search_bound_used == class_bound(d, n)
            if k % 2 == 0:
                assert out.method == "residue" and out.verdict == UNSOLVABLE
                assert out.certificate == {"modulus": 5}
            elif 2 * l > k:
                assert out.method == "paper-family" and out.verdict == SOLVABLE
                assert out.certificate == {"family_witness": p2_family_witness(k, l)}
            else:
                assert out.method == "fujita" and out.verdict == UNSOLVABLE
                assert out.certificate == _fujita_chain(2, k, l)
            rows.append((k, l, out))
    # SHA-256 of the same rows from p2_decide before it was folded in, with
    # its even-k certificate {"modulus": 5, "residue_pairs_checked": 25}
    # read as {"modulus": 5}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "54624cc08bf0d230c6ab163405fe7a1d28839b5965420defc6b79d41bf904d52")


def test_outcomes_pinned(monkeypatch):
    # SHA-256 of solve_complete's verdict, witnesses and bound on every (D, N)
    # with non-square 2 <= D <= 200, 0 < |N| <= 50 and class bound <= 10^4,
    # then of decide_paper_equation's outcome with its method and its
    # certificate's repr for odd primes p <= 50, k <= 3 and l <= k; computed
    # while the local exit was taken only above ENUM_BOUND_LIMIT.  The route
    # is checked on all of that (D, N) grid: the local exit, which never
    # enumerates, or the class search, else enumeration with no certificate.
    # Above 10^4 the enumeration scans nothing, so that its route is counted
    # cheaply; criterion 10 checks those verdicts
    def enumerate_unobstructed(prob, y_max):
        if pellian._local_obstruction(*prob) is not None:
            raise AssertionError(f"solve_brute called on {prob}")
        return solve_brute(prob, y_max) if y_max <= 10**4 else []

    monkeypatch.setattr(pellian, "solve_brute", enumerate_unobstructed)
    h = hashlib.sha256()
    cases = obstructed = 0
    routes = {"bounded-enumeration": 0, "cf-classes": 0}
    for d in range(2, 201):
        if is_perfect_square(d) is not None:
            continue
        for n in range(-50, 51):
            if n == 0:
                continue
            bound = class_bound(d, n)
            oc = solve_complete(PellianProblem(d, n))
            routes[oc.method] += 1
            q = pellian._local_obstruction(d, n)
            if q is not None:
                assert oc == (UNSOLVABLE, (), "cf-classes", bound, {"modulus": q}), (d, n)
                obstructed += 1
            elif bound > pellian.ENUM_BOUND_LIMIT:
                assert oc.method == "cf-classes", (d, n)
            else:
                assert (oc.method, oc.certificate) == ("bounded-enumeration", None), (d, n)
            if bound <= 10**4:
                h.update(repr((d, n, oc.verdict, oc.witnesses, oc.search_bound_used)).encode())
                cases += 1
    assert obstructed == 9_850
    assert (routes["bounded-enumeration"], routes["cf-classes"]) == (8_592, 10_008)
    for p in range(3, 51, 2):
        if not is_prime(p):
            continue
        for k in range(4):
            for l in range(k + 1):
                oc = decide_paper_equation(p, k, l)
                h.update(repr((p, k, l, oc.verdict, oc.witnesses, oc.method,
                               oc.search_bound_used, oc.certificate)).encode())
                cases += 1
    assert cases == 17_790 + 140
    assert h.hexdigest() == "2791deee5ee2f54dbb0f710b02f61a2839bc1bc419ef9874c87fc7ff476a3a8e"


def test_prime_power_class_searches_pinned():
    # SHA-256 of the class search's outcome on x^2 - D*y^2 = +-p^e for odd
    # primes p < 50, 1 <= e <= 9 and every non-square 2 <= D <= 120, p | D
    # included; computed while square roots mod p^e were lifted one power of
    # p at a time and the splits f^2 | N came from itertools.product
    h = hashlib.sha256()
    cases = solvable = 0
    ds = [d for d in range(2, 121) if is_perfect_square(d) is None]
    for p in range(3, 50, 2):
        if not is_prime(p):
            continue
        for e in range(1, 10):
            for n in (p**e, -(p**e)):
                for d in ds:
                    oc = _class_search_outcome(d, n, {p: e})
                    h.update(repr((d, n, oc.verdict, oc.witnesses, oc.method,
                                   oc.search_bound_used)).encode())
                    cases += 1
                    solvable += oc.verdict == SOLVABLE
    assert (cases, solvable) == (27_720, 10_627)
    assert h.hexdigest() == "a400e4863ece4e6ab4bbd3d05627ca23e408f820467e322a4f1ae0f8c3ad0476"


def _long_period_pin_cases():
    """(D, N, side) on every D of LONG_PERIOD_DS: N = x0^2 - D*y0^2 planted by
    coprime x0 = isqrt(D*y0^2) or that + 1, y0 <= 7, with the side of the +-z
    pair that holds the root -x0/y0 (mod |N|); then, side None, those of
    N = +-p, +-p*p2 that no small prime of D obstructs, for the first primes
    p < p2 above 10^4 with D a residue mod p."""
    for d in LONG_PERIOD_DS:
        for y0 in (1, 2, 3, 4, 5, 7):
            for x0 in (isqrt(d * y0 * y0), isqrt(d * y0 * y0) + 1):
                if math.gcd(x0, y0) == 1:
                    n = x0 * x0 - d * y0 * y0
                    z = -x0 * pow(y0, -1, abs(n)) % abs(n)
                    yield d, n, "z" if 2 * z <= abs(n) else "|N| - z"
        p, p2 = itertools.islice((p for p in itertools.count(10_001, 2)
                                  if is_prime(p) and pow(d, (p - 1) // 2, p) == 1), 2)
        for n in (p, -p, p * p2, -p * p2):
            if pellian._local_obstruction(d, n) is None:
                yield d, n, None


def test_long_period_class_searches_pinned():
    # SHA-256 of the class search's outcome on sqrt(D) of period 380-417 for
    # planted N held by either root of a +-z pair, of both signs, and for
    # N = +-p, +-p*p2 with roots mod |N| and no local obstruction; computed
    # while each root z with 2z <= |N| was walked alone, an odd period's
    # (f, 1) row read one period on
    h = hashlib.sha256()
    sides, cases, unsolvable = set(), 0, 0
    for d, n, side in _long_period_pin_cases():
        cases += 1
        oc = _class_search_outcome(d, n, factorize(abs(n)))
        h.update(repr((d, n, oc.verdict, oc.witnesses, oc.method,
                       oc.search_bound_used)).encode())
        if side is None:
            unsolvable += oc.verdict == UNSOLVABLE
        else:
            assert oc.verdict == SOLVABLE, (d, n)
            sides.add((side, n > 0))
    assert sides == {(s, pos) for s in ("z", "|N| - z") for pos in (True, False)}
    assert (cases, unsolvable) == (113, 12)
    assert h.hexdigest() == "c693447815750139dcb25c8cdef471ad26dd1bc708555fcd475e763ee9b7c370"


def test_descent_reads_residue_check_without_recursion(monkeypatch):
    decide = decide_paper_equation

    def no_recursion(*args):
        raise AssertionError("decide_paper_equation called itself")

    monkeypatch.setattr(pellian, "decide_paper_equation", no_recursion)
    case2_residue_search.cache_clear()
    out = decide(3, 3, 2)
    assert (out.verdict, out.witnesses, out.method) == (UNSOLVABLE, (), "descent")
    assert out.certificate == {"multiplier": 3, "reduces_to": (3, 3, 3)}
    assert case2_residue_search.cache_info().misses == 1


def _paper_equations():
    """(p, d, n) of x^2 - (p^(2k+2)+1)*y^2 = -p^(2l+1) for the small paper grid
    and the whole p = 2 proposition grid."""
    for p, k_max in [(3, 3), (5, 3), (7, 3), (11, 3), (13, 3), (2, 9)]:
        for k in range(k_max + 1):
            for l in range(k + 1):
                yield p, p ** (2 * k + 2) + 1, -(p ** (2 * l + 1))


def test_paper_check_matches_enumeration():
    # the deciders' check runs on the class search; enumeration over every y up
    # to the class bound stays its independent oracle
    solvable = 0
    for p, d, n in _paper_equations():
        bound = class_bound(d, n)
        oracle = tuple(sorted(_reps(d, solve_brute(PellianProblem(d, n), bound))))
        out = _class_search_outcome(d, n, factorize(abs(n)))
        assert out.witnesses == oracle, (d, n)
        assert out.verdict == (SOLVABLE if oracle else UNSOLVABLE), (d, n)
        assert out.search_bound_used == bound, (d, n)
        solvable += bool(oracle)
        assert p == 2 or not oracle, (d, n)
    assert solvable == 15  # p = 2, odd k, k/2 < l <= k


def test_class_route_computes_the_class_bound_once(monkeypatch):
    bounds = []
    unit_bound = pellian._unit_bound
    monkeypatch.setattr(pellian, "_unit_bound", lambda unit, n: bounds.append(n) or unit_bound(unit, n))
    oc = solve_complete(PellianProblem(991, 10000019))
    assert oc.method == "cf-classes" and bounds == [10000019]
    assert oc.search_bound_used == unit_bound(pell_fundamental(991), 10000019)


def test_local_obstruction_is_sound():
    # wherever it names q, nothing solves x^2 - d*y^2 = n mod q and the class
    # search agrees; (6, 3) = 3^2 - 6*1^2 is solvable although 3 | 6 and 3 | 3
    assert pellian._local_obstruction(6, 3) is None
    squares = {}
    cf_pairs = fired = 0
    for d in range(2, 201):
        if is_perfect_square(d) is not None:
            continue
        for n in range(-50, 51):
            if n == 0:
                continue
            q = pellian._local_obstruction(d, n)
            if class_bound(d, n) > pellian.ENUM_BOUND_LIMIT:
                cf_pairs += 1
                fired += q is not None
            if q is None:
                continue
            assert q % 2 and is_prime(q) and q <= 2**10, (d, n, q)
            assert d % q == 0 and n % q, (d, n, q)
            sq = squares.setdefault(q, {x * x % q for x in range(q)})
            assert not any((n + d * y * y) % q in sq for y in range(q)), (d, n, q)
            assert _class_search_outcome(d, n, factorize(abs(n))).verdict == UNSOLVABLE, (d, n)
    assert (cf_pairs, fired) == (286, 128)
    # the p = 2 family x^2 - (4^(k+1)+1)*y^2 = -2^(2l+1): obstructed mod 5
    # exactly for even k, the decider's residue route, whose certificate
    # the q x q scan of (x, y) that once made it confirms; for odd k, D is
    # m^4 + 1, m = 2^((k+1)/2), so its odd primes are 1 mod 8 and -2^(2l+1)
    # is a square mod each
    for k in range(31):
        d = 2 ** (2 * k + 2) + 1
        for l in range(k + 1):
            n = -(2 ** (2 * l + 1))
            q = pellian._local_obstruction(d, n)
            if k % 2:
                assert q is None, (k, l)
                continue
            out = decide_paper_equation(2, k, l)
            assert out.method == "residue" and out.certificate == {"modulus": q} == {"modulus": 5}
            assert not [(x, y) for x in range(q) for y in range(q)
                        if (x * x - d * y * y - n) % q == 0], (k, l)


def test_obstructed_class_route_neither_factorizes_nor_walks(monkeypatch):
    d, n = 991, 10000019  # 991 is prime, and 10000019 a non-residue mod 991
    check = _class_search_outcome(d, n, factorize(n))

    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(pellian, "factorize", forbidden)
    monkeypatch.setattr(pellian, "_pqa_first_hit", forbidden)
    oc = solve_complete(PellianProblem(d, n))
    assert oc[:4] == check[:4] == (UNSOLVABLE, (), "cf-classes", class_bound(d, n))
    assert oc.certificate == {"modulus": 991} and check.certificate is None
    # the exit comes before the route, whatever the class bound, but the class
    # search that checks the paper's deciders has none
    assert pellian._local_obstruction(3, -1) == 3
    obstructed = solve_complete(PellianProblem(3, -1))
    assert obstructed == (UNSOLVABLE, (), "cf-classes", 1, {"modulus": 3})
    with pytest.raises(AssertionError, match="called"):
        _class_search_outcome(d, n, {n: 1})


def test_paper_deciders_never_enumerate(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("solve_brute called")

    monkeypatch.setattr(pellian, "solve_brute", no_enumeration)
    case2_residue_search.cache_clear()
    for p in (3, 5, 7, 11, 13, 47):
        for k in range(4):
            for l in range(k + 1):
                assert decide_paper_equation(p, k, l).verdict == UNSOLVABLE
    for k in range(10):
        for l in range(k + 1):
            decide_paper_equation(2, k, l)
    case2_residue_search.cache_clear()


def test_paper_check_hit_is_fatal(monkeypatch):
    # No odd prime gives the check a hit (that is the theorem), so let 9 pass as
    # prime: P = 9^3 and x^2 - (P^2+1)*y^2 = -9 has the solution (3*P, 3).
    big_p = 9**3
    d, n = big_p**2 + 1, -9
    assert _cf_class_solutions(d, n, {3: 2})
    monkeypatch.setattr(pellian, "is_prime", lambda q: True)
    monkeypatch.setattr(pellian, "_cf_class_solutions", lambda d, n, factors: [(3 * big_p, 3)])
    with pytest.raises(RuntimeError, match="fatal discrepancy"):
        decide_paper_equation(9, 2, 0)
    # and a check that misses the p = 2 family's solutions is fatal too
    monkeypatch.setattr(pellian, "_cf_class_solutions", lambda d, n, factors: [])
    with pytest.raises(RuntimeError, match="fatal discrepancy"):
        decide_paper_equation(2, 1, 1)
    case2_residue_search.cache_clear()


def test_caches_bounded_and_solve_complete_uncached():
    # every memo of the package is a bounded lru_cache; the only repeated
    # queries are Pell units, the Case 2 residue check of each (p, k), the
    # walks of the class searches of +-p^j, the pair keys of each tuple length
    # and the CLI's parser.  Every module is imported, so none is missed.
    mods = [importlib.import_module(f"pelltuples.{info.name}")
            for info in pkgutil.iter_modules(pelltuples.__path__)]
    cached = {(mod.__name__, name): fn.cache_parameters()["maxsize"]
              for mod in mods for name, fn in vars(mod).items()
              if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__}
    size = pellian.CACHE_SIZE
    assert cached == {("pelltuples.pellian", "pell_fundamental"): size,
                      ("pelltuples.pellian", "case2_residue_search"): size,
                      ("pelltuples.pellian", "_pqa_first_hit"): size,
                      ("pelltuples.zring", "_pair_keys"): 16,
                      ("pelltuples.cli", "build_parser"): 1}
    assert not hasattr(solve_complete, "cache_info")


def test_outcome_rejects_non_solution(monkeypatch):
    # 5^2 - 10*1^2 = 15, so (5, 1) must not pass as a solution of N = -3
    monkeypatch.setattr(pellian, "_cf_class_solutions", lambda d, n, factors: [(5, 1)])
    with pytest.raises(RuntimeError, match="does not solve"):
        _class_search_outcome(10, -3, {3: 1})


def test_outcome_rejects_non_solution_under_optimize():
    # python -O strips assert statements; the witness check must survive it
    code = ("from pelltuples import pellian\n"
            "pellian._cf_class_solutions = lambda d, n, factors: [(5, 1)]\n"
            "try:\n"
            "    pellian._class_search_outcome(10, -3, {3: 1})\n"
            "except RuntimeError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(pelltuples.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def _first_solutions(prob, count):
    return list(itertools.islice(all_solutions_stream(prob), count))


def test_all_solutions_stream_examples():
    assert _first_solutions(PellianProblem(5, -1), 2) == [(2, 1), (38, 17)]
    assert _first_solutions(PellianProblem(10, -1), 2) == [(3, 1), (117, 37)]
    assert _first_solutions(PellianProblem(2, -1), 3) == [(1, 1), (7, 5), (41, 29)]
    assert _first_solutions(PellianProblem(17, -8), 4) == [
        (3, 1),
        (37, 9),
        (235, 57),
        (2445, 593),
    ]


def test_all_solutions_stream_matches_brute():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.choice(NONSQUARES)
        n = rng.choice([v for v in range(-15, 16) if v != 0])
        prob = PellianProblem(d, n)
        brute = solve_brute(prob, 3000)
        if not brute:
            continue
        stream = _first_solutions(prob, len(brute))
        assert stream == brute, (d, n)


def test_all_solutions_stream_rejects_unsolvable():
    # at the call, before any item is asked for
    with pytest.raises(ValueError):
        all_solutions_stream(PellianProblem(10, -3))


def test_exactness_invariant_literal():
    # Witness x-coordinates recovered by integer square root are exact.
    for d, n in ((10, -1), (17, -8), (2, 2)):
        for x, y in solve_complete(PellianProblem(d, n)).witnesses:
            v = n + d * y * y
            if v >= 0 and is_perfect_square(v) is not None:
                assert x == is_perfect_square(v)
