"""Generalized Pell solver, class reduction, and the prime-power deciders."""

import itertools
import math
import random

import pytest

from pelltuples import pellian
from pelltuples.arith import factorize, is_perfect_square, is_prime, isqrt
from pelltuples.contfrac import ExpansionCapExceeded
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
    p2_decide,
    p2_family_witness,
    pell_fundamental,
    solve_brute,
    solve_complete,
    _cf_class_solutions,
    _class_rep,
    _class_search_outcome,
    _residue_hits,
    _sqrt_mod,
)

NONSQUARES = [d for d in range(2, 80) if is_perfect_square(d) is None]


def test_problem_validation():
    with pytest.raises(ValueError):
        PellianProblem(4, -1)  # square D
    with pytest.raises(ValueError):
        PellianProblem(10, 0)
    with pytest.raises(ValueError):
        PellianProblem(-10, 1)


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


def test_pell_fundamental_matches_expand_route():
    for d in range(2, 5001):
        if is_perfect_square(d) is None:
            assert pell_fundamental(d) == _pell_fundamental_oracle(d), d


def test_pell_fundamental_cap():
    # sqrt(100000000019) has no period within the walk's 100,000-term cap
    with pytest.raises(ExpansionCapExceeded):
        pell_fundamental(100000000019)


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
    return tuple(sorted(_reps(d, _cf_class_solutions(d, n))))


def test_class_search_matches_solve_complete():
    # solve_complete enumerates y up to the class bound on all of these, so the
    # class search is checked against an independent route; the prime powers
    # that share primes with D take the lifting path for p = 2 and for p | D.
    for d in range(2, 61):
        if is_perfect_square(d) is not None:
            continue
        ns = [n for n in range(-60, 61) if n != 0]
        ns += [s * n for s in (1, -1)
               for n in [2**a for a in range(6, 11)] + [3**a * d for a in range(1, 5)]
               + [p**a for p in factorize(d) for a in range(2, 5)]]
        for n in ns:
            assert _class_search_reps(d, n) == solve_complete(PellianProblem(d, n)).witnesses, (d, n)


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
    """The raw list is an in-order subsequence of the oracle's, with the same classes."""
    sols, oracle = _cf_class_solutions(d, n), _three_pass_class_solutions(d, n)
    rest = iter(oracle)
    assert all(sol in rest for sol in sols), (d, n)
    assert _reps(d, sols) == _reps(d, oracle), (d, n)
    return sols


def test_class_search_matches_three_pass():
    # the whole pell grid: the search keeps one hit of one root per +-z pair
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


def test_root_walk_hits_share_one_class():
    # Why one hit of one root per pair suffices.  Every hit of root z has
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


def test_case2_matches_pair_search():
    # the residue hits must be the pair search's, in the same order
    total = 0
    for p, k in ((3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (5, 2),
                 (7, 1), (7, 2), (11, 1), (13, 1), (13, 2)):
        hits = _residue_hits(p, k, ALL_TARGETS)
        assert hits == _pair_search_hits(p, k, ALL_TARGETS), (p, k)
        total += len(hits)
    assert total > 0


def test_case2_matches_closed_form():
    # eight more (p, k), up to p^k = 243 and 1849, and the paper's own
    # targets at sizes the pair search cannot finish
    total = 0
    for p, k in ((3, 4), (3, 5), (5, 3), (7, 3), (11, 2), (17, 0), (19, 1), (43, 2)):
        hits = _residue_hits(p, k, ALL_TARGETS)
        assert hits == _closed_form_hits(p, k, ALL_TARGETS), (p, k)
        total += len(hits)
    assert total > 0
    for p, k in ((199, 4), (101, 5)):
        targets = {p ** (2 * k - 2 * t + 1): t for t in range(k + 1)}
        assert _residue_hits(p, k, targets) == _closed_form_hits(p, k, targets) == (), (p, k)


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
        decide_paper_equation(4, 1, 1)  # not an odd prime
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
    out = p2_decide(1, 1)
    assert out.verdict == SOLVABLE
    assert out.method == "paper-family"
    assert out.certificate == {"family_witness": (3, 1)}
    out2 = p2_decide(2, 0)
    assert out2.verdict == UNSOLVABLE
    assert out2.certificate is not None
    assert out2.certificate.get("modulus") == 5
    out3 = p2_decide(3, 3)
    assert out3.certificate == {"family_witness": (30, 2)}
    # Odd k with small l falls back to the fujita chain.
    assert p2_decide(3, 1).verdict == UNSOLVABLE


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
        out = _class_search_outcome(d, n)
        assert out.witnesses == oracle, (d, n)
        assert out.verdict == (SOLVABLE if oracle else UNSOLVABLE), (d, n)
        assert out.search_bound_used == bound, (d, n)
        solvable += bool(oracle)
        assert p == 2 or not oracle, (d, n)
    assert solvable == 15  # p = 2, odd k, k/2 < l <= k


def test_paper_deciders_never_enumerate(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("solve_brute called")

    monkeypatch.setattr(pellian, "solve_brute", no_enumeration)
    decide_paper_equation.cache_clear()
    pellian._solve_complete_cached.cache_clear()
    for p in (3, 5, 7, 11, 13, 47):
        for k in range(4):
            for l in range(k + 1):
                assert decide_paper_equation(p, k, l).verdict == UNSOLVABLE
    for k in range(10):
        for l in range(k + 1):
            p2_decide(k, l)
    decide_paper_equation.cache_clear()


def test_paper_check_hit_is_fatal(monkeypatch):
    # No odd prime gives the check a hit (that is the theorem), so let 9 pass as
    # prime: P = 9^3 and x^2 - (P^2+1)*y^2 = -9 has the solution (3*P, 3).
    big_p = 9**3
    d, n = big_p**2 + 1, -9
    assert _cf_class_solutions(d, n)
    monkeypatch.setattr(pellian, "is_prime", lambda q: True)
    monkeypatch.setattr(pellian, "_cf_class_solutions", lambda d, n: [(3 * big_p, 3)])
    with pytest.raises(RuntimeError, match="fatal discrepancy"):
        decide_paper_equation(9, 2, 0)
    # and a check that misses the p = 2 family's solutions is fatal too
    monkeypatch.setattr(pellian, "_cf_class_solutions", lambda d, n: [])
    with pytest.raises(RuntimeError, match="fatal discrepancy"):
        p2_decide(1, 1)
    decide_paper_equation.cache_clear()


def test_all_solutions_stream_examples():
    assert all_solutions_stream(PellianProblem(5, -1), 2) == [(2, 1), (38, 17)]
    assert all_solutions_stream(PellianProblem(10, -1), 2) == [(3, 1), (117, 37)]
    assert all_solutions_stream(PellianProblem(2, -1), 3) == [(1, 1), (7, 5), (41, 29)]
    assert all_solutions_stream(PellianProblem(17, -8), 4) == [
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
        stream = all_solutions_stream(prob, len(brute))
        assert stream == brute, (d, n)


def test_all_solutions_stream_rejects_unsolvable():
    with pytest.raises(ValueError):
        all_solutions_stream(PellianProblem(10, -3), 5)
    with pytest.raises(ValueError):
        all_solutions_stream(PellianProblem(10, -1), 0)


def test_exactness_invariant_literal():
    # Witness x-coordinates recovered by integer square root are exact.
    for d, n in ((10, -1), (17, -8), (2, 2)):
        for x, y in solve_complete(PellianProblem(d, n)).witnesses:
            v = n + d * y * y
            if v >= 0 and is_perfect_square(v) is not None:
                assert x == is_perfect_square(v)
