"""Certified solvability decisions for x^2 - D*y^2 = N.

Two complete methods are available and cross-checked:

* bounded enumeration of y up to the fundamental-solution bound derived
  from the Pell unit, while that bound is at most ENUM_BOUND_LIMIT, and
* the Lagrange-Matthews-Mollin class search above it: one pass over the
  prime powers p^e of N builds every split f^2 | N with the roots z of
  z^2 = D (mod |N/f^2|), lifting each p once to its roots mod p^j for all
  j <= e and joining those mod p^(e-2h) by CRT as f takes p^h; then for
  every root with 2z <= |N/f^2|, one pass of contfrac.walk over
  (z + sqrt(D))/Q_0, Q_0 = |N/f^2|, through the preperiod and one period,
  plus the copied period for an odd one.  The PQa identity
  G_i^2 - D*q_i^2 = (-1)^(i+1) * t_{i+1} * Q_0, G_i = Q_0*p_i - z*q_i
  (J. P. Robertson, "Solving the generalized Pell equation x^2 - Dy^2 = N",
  2004), makes step i a solution exactly when (-1)^(i+1) * t_{i+1} is the
  sign of N/f^2.  The walk stops at its first hit, where the convergent
  (p_i, q_i) is built once from its rows.  One hit per root
  suffices: every hit of root z has G = -z*B (mod Q_0), so by Nagell's
  criterion any two of them differ by a unit of norm 1 and lie in one
  class; and root Q_0 - z gives the conjugate classes, which the class
  representative merges.  The Pell unit comes from half the period of
  sqrt(D), a palindrome.

_positive_solutions streams every positive solution in increasing y from one
solution per class, by the Pell unit.  The paper's Case 2 residue check is
read off the class search and that stream: its hits are the solutions with
small r of X^2 - (P^2+1)*r^2 = M, X = u + sg*P*r.

decide_paper_equation decides the paper's family x^2 - (P^2+1)*y^2 =
-p^(2l+1), P = p^(k+1), for every prime p by one of four routes: "residue"
(mod 5 for p = 2 and even k, the Case 2 residue check for odd p and l = k),
"fujita" (2l+1 <= k+1), "paper-family" (the explicit p = 2 solutions) and
"descent" (odd p, l < k, onto the residue check at l = k).  Every verdict
is cross-checked by the class search whatever the class bound:
sqrt(P^2+1) = [P; 2P], so each walk is a few steps where enumeration would
scan up to sqrt(p^(2l+1)) values of y.

Both report the same canonical witnesses: one minimal-y representative
per solution class and its conjugate, with x >= 0.  The class search takes
the factorization of |N| from its caller: solve_complete factorizes, while
the paper's searches of N = +-p^j pass {p: j}.  Walks are memoized per
(D, z, signed Q_0), so a search of p^j reuses the walks of p^(j-2), p^(j-4),
...  Only factorize() and walk()'s 100,000-term cap limit the class search,
and both raise.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .arith import factorize, is_perfect_square, is_prime, isqrt
from .contfrac import convergents, period_start, walk

SOLVABLE = "SOLVABLE"
UNSOLVABLE = "UNSOLVABLE"

#: switch to the continued-fraction class search above this enumeration bound
ENUM_BOUND_LIMIT = 1_000_000

#: entries kept by each of the module's caches
CACHE_SIZE = 4096


class _ProblemFields(NamedTuple):
    d: int
    n: int


class PellianProblem(_ProblemFields):
    """x^2 - d*y^2 = n: a NamedTuple checked by every constructor, _make and
    _replace included, for non-square d >= 2 and n != 0."""

    __slots__ = ()

    def __new__(cls, d: int, n: int):
        if d < 2 or is_perfect_square(d) is not None:
            raise ValueError(f"D={d} must be a non-square integer >= 2")
        if n == 0:
            raise ValueError("N must be nonzero")
        return tuple.__new__(cls, (d, n))

    @classmethod
    def _make(cls, iterable) -> PellianProblem:
        # NamedTuple's _make, behind _replace, would skip __new__'s checks
        return cls(*iterable)


class PellianOutcome(NamedTuple):
    verdict: str
    witnesses: tuple[tuple[int, int], ...]
    method: str
    search_bound_used: int
    certificate: object = None


class PellUnit(NamedTuple):
    """(t, u): least positive solution of t^2 - D*u^2 = 1."""

    t: int
    u: int


@lru_cache(maxsize=CACHE_SIZE)
def _pqa_first_hit(d: int, z: int, m: int) -> tuple[int, int] | None:
    """The first (G, B) with G^2 - d*B^2 = m on the walk of (z + sqrt(d))/|m|
    through the preperiod and one period, then, for an odd period, the
    period's rows again from where period_start says it opens, for
    m | z^2 - d; None if none.

    A state repeats its t one period on, with the parity of its step flipped
    when the period length L is odd.  The period's states are reduced, so
    their t is positive, and t = 1 only at (f, 1), f = isqrt(d) (J. P.
    Robertson, 2004).  So a walk with no hit in its first period has one
    later only at that row of an odd period, one period on, and the rows up
    to it are the period's, copied; a second period would find nothing
    else.  The convergent (p_i, q_i) of the hit is read off
    contfrac.convergents over the rows once the walk has hit, so a walk
    without a hit does no big-integer arithmetic.
    """
    m_abs = abs(m)
    # step i is a hit when (-1)^(i+1) * t_{i+1} = sign(m); want flips each step
    want = -1 if m > 0 else 1
    rows = []
    one = False  # a row with t = 1 seen
    for row in walk(d, z, m_abs):
        rows.append(row)
        t = row[2]
        if t == want:
            break
        if t == 1:
            one = True
        want = -want
    else:
        # no hit in the first period: a later one needs t = 1 in an odd period
        if not one:
            return None
        ts = [t for _, _, t in rows]
        j = period_start(z, m_abs, rows)
        if (len(rows) - j) % 2 == 0 or 1 not in ts[j:]:
            return None
        rows += rows[j:ts.index(1, j) + 1]
    ((p, q),) = deque(convergents(a for a, _, _ in rows), maxlen=1)
    return m_abs * p - z * q, q


@lru_cache(maxsize=CACHE_SIZE)
def pell_fundamental(d: int) -> PellUnit:
    """Least (t, u) with t^2 - d*u^2 = 1, from half the period of sqrt(d).

    The period of sqrt(d) is a palindrome, so the walk stops at its centre,
    the first h with s_h = s_{h+1} (period 2h) or t_h = t_{h+1} (period
    2h+1; h = 0 for d = f^2 + 1), and the unit is composed from the
    convergents p_{h-2} .. p_h there (M. J. Jacobson Jr. and H. C. Williams,
    "Solving the Pell Equation", Springer 2009, ch. 5).  The convergents are
    built only once the centre is found, and walk()'s cap of MAX_TERMS terms
    leaves periods below 2 * MAX_TERMS in reach.
    """
    quots, s_h, t_h = [], 0, 1  # (s_0, t_0); s_1 = isqrt(d) > 0
    for a, s, t in walk(d, 0, 1):
        quots.append(a)
        if s == s_h or t == t_h:
            break
        s_h, t_h = s, t
    # (p_{h-2}, q_{h-2}), (p_{h-1}, q_{h-1}), (p_h, q_h), with (p_{-2}, q_{-2}) =
    # (0, 1) and (p_{-1}, q_{-1}) = (1, 0)
    conv = itertools.chain([(0, 1), (1, 0)], convergents(quots))
    (p2, q2), (p1, q1), (p, q) = deque(conv, maxlen=3)
    if s == s_h:
        return PellUnit(p1 * q + p2 * q1, q1 * (q + q2))
    # x^2 - d*y^2 = -1, and the unit is its square
    x, y = p * q + p1 * q1, q * q + q1 * q1
    return PellUnit(x * x + d * y * y, 2 * x * y)


def class_bound(d: int, n: int) -> int:
    """Outward-rounded y bound containing a fundamental solution per class."""
    return _unit_bound(pell_fundamental(d), n)


def _unit_bound(unit: PellUnit, n: int) -> int:
    """class_bound for the Pell unit (t, u) of d."""
    t, u = unit
    if n < 0:
        num, den = u * u * (-n), 2 * (t - 1)
    else:
        num, den = u * u * n, 2 * (t + 1)
    return isqrt(num // den) + 1


def solve_brute(prob: PellianProblem, y_max: int) -> list[tuple[int, int]]:
    """All (x >= 0, 1 <= y <= y_max) with x^2 - D*y^2 = N, by square testing."""
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    d, n = prob.d, prob.n
    out = []
    # for n < 0, the least y with d*y^2 >= -n
    y0 = isqrt((-n - 1) // d) + 1 if n < 0 else 1
    _isqrt = math.isqrt
    for y in range(y0, y_max + 1):
        v = n + d * y * y
        r = _isqrt(v)
        if r * r == v:
            out.append((r, y))
    return out


def _class_rep(d: int, x: int, y: int, t: int, u: int) -> tuple[int, int]:
    """Minimal-y representative (x >= 0) of the class of (x, y) and its conjugate."""
    x, y = abs(x), abs(y)
    while True:
        # with x, y >= 0, dividing by the unit is the only step that can lower y
        x1, y1 = abs(x * t - d * y * u), abs(y * t - x * u)
        if y1 >= y:
            return (x, y)
        x, y = x1, y1


def _sqrt_mod_prime(a: int, p: int) -> list[int]:
    """All z in [0, p) with z^2 = a (mod p): Tonelli-Shanks for odd p not dividing a,
    p - 1 = q * 2^s with q odd.  r = a^((q+1)/2) is a root if t = a^q is 1, as for
    a = 1 and for every residue when p = 3 (mod 4); only otherwise is a
    non-residue looked for and the loop run."""
    a %= p
    if a == 0 or p == 2:
        return [a]
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t != 1:
        if pow(t, 1 << (s - 1), p) != 1:  # Euler's criterion, a^((p-1)/2)
            return []
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        c = pow(z, q, p)
        while t != 1:
            i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return [r, p - r]


def _sqrt_mod_prime_power(d: int, p: int, e: int) -> list[list[int]]:
    """[R_0, R_1, ..., R_e], R_j all z in [0, p^j) with z^2 = d (mod p^j), lifted
    one power of p at a time.  For odd p not dividing d a root r mod p with
    r^2 = d (mod p^e) already, as r = 1 for d = 1 (mod p^e), needs no lifting:
    R_j is r and p^j - r."""
    roots, pk = _sqrt_mod_prime(d, p), p
    if p != 2 and d % p and roots and (roots[0] ** 2 - d) % p**e == 0:
        return [[0]] + [[roots[0], p**j - roots[0]] for j in range(1, e + 1)]
    levels = [[0], roots]
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
        levels.append(roots)
    return levels


def _cf_class_solutions(d: int, n: int, factors: dict[int, int]) -> list[tuple[int, int]]:
    """A solution with y > 0 in every solution class of x^2 - d*y^2 = n, for
    `factors` the factorization {p: e} of |n|."""
    sols: list[tuple[int, int]] = []
    # every (f, q = |n/f^2|, roots z of z^2 = d (mod q)), built prime by prime:
    # each prime is lifted once and its roots mod p^(e-2h) joined by CRT
    splits = [(1, 1, [0])]
    for p, e in factors.items():
        levels, joined = _sqrt_mod_prime_power(d, p, e), []
        for f, q, roots in splits:
            for h in range(e // 2 + 1):
                pj = p ** (e - 2 * h)
                inv = pow(q, -1, pj)
                joined.append((f * p**h, q * pj, [r + q * ((s - r) * inv % pj)
                                                  for r in roots for s in levels[e - 2 * h]]))
        splits = joined
    for f, q, roots in splits:
        m = q if n > 0 else -q
        for z in sorted(roots):
            # root q - z gives the conjugate classes, which _class_rep merges
            if 2 * z > q:
                break
            hit = _pqa_first_hit(d, z, m)
            if hit is not None:
                sols.append((f * hit[0], f * hit[1]))
    return sols


def solve_complete(prob: PellianProblem) -> PellianOutcome:
    """Certified decision with one fundamental witness per solution class."""
    d, n = prob
    unit = pell_fundamental(d)
    bound = _unit_bound(unit, n)
    if bound > ENUM_BOUND_LIMIT:
        raw, method = _cf_class_solutions(d, n, factorize(abs(n))), "cf-classes"
    else:
        raw, method = solve_brute(prob, bound), "bounded-enumeration"
    return _outcome(d, n, raw, method, bound, unit)


def _class_search_outcome(d: int, n: int, factors: dict[int, int]) -> PellianOutcome:
    """solve_complete's outcome by the class search for the factors {p: e} of
    |n|, whatever the class bound; search_bound_used is still the class bound."""
    unit = pell_fundamental(d)
    bound = _unit_bound(unit, n)
    return _outcome(d, n, _cf_class_solutions(d, n, factors), "cf-classes", bound, unit)


def _outcome(d: int, n: int, raw: list[tuple[int, int]], method: str,
             bound: int, unit: PellUnit) -> PellianOutcome:
    """The verdict and class representatives of x^2 - d*y^2 = n from `raw`, a
    solution with y > 0 in every class (y = 0 is added here when n is square),
    for the Pell unit of d."""
    rt = is_perfect_square(n)
    if rt is not None:
        raw.append((rt, 0))
    elif not raw:
        return PellianOutcome(UNSOLVABLE, (), method, bound)
    t, u = unit
    reps = sorted({_class_rep(d, x, y, t, u) for x, y in raw})
    for x, y in reps:
        if x * x - d * y * y != n:
            raise RuntimeError(f"({x}, {y}) does not solve x^2 - {d}*y^2 = {n}")
    return PellianOutcome(SOLVABLE, tuple(reps), method, bound)


def has_primitive_solution(outcome: PellianOutcome) -> bool:
    """gcd(x, y) is constant on a solution class, so checking reps suffices."""
    return any(math.gcd(x, y) == 1 for x, y in outcome.witnesses)


class FujitaCertificate(NamedTuple):
    """No primitive solution of X^2 - (K^2+1)Y^2 = N when 1 < |N| <= K."""

    k: int
    n: int


def fujita_fast_path(k: int, n: int) -> FujitaCertificate | None:
    """Certificate that x^2 - (K^2+1)y^2 = N has no primitive solution."""
    if k < 1:
        raise ValueError("K must be positive")
    if 1 < abs(n) <= k:
        return FujitaCertificate(k, n)
    return None


def _fujita_chain(p: int, k: int, l: int) -> tuple[FujitaCertificate, ...]:
    """Fujita certificates for K = p^(k+1) and N = -p^(2l+1), -p^(2l-1), ..., -p."""
    certs = tuple(fujita_fast_path(p ** (k + 1), -(p ** (2 * i + 1))) for i in range(l, -1, -1))
    if None in certs:  # pragma: no cover
        raise RuntimeError("fast-path hypothesis unexpectedly failed")
    return certs


def _residue_hits(p: int, k: int, targets: dict[int, tuple[int, dict[int, int]]]
                  ) -> tuple[tuple[int, int, int, int], ...]:
    """Every (r, u, t, sg) with u^2 - r^2 + 2*sg*r*u*P = M, P = p^(k+1),
    (t, factors of |M|) = targets[M], over coprime r, u >= 0 with r*u < p^k,
    ordered by r, u, -sg.

    With X = u + sg*P*r and D = P^2 + 1 this is X^2 - D*r^2 = M: r = 0 needs M
    square, and the hits with 1 <= r <= max(p^k - 1, 1) (the max keeps the ray
    (r, u) = (1, 0) of k = 0) are read off the class search of X^2 - D*r^2 = M
    streamed in increasing r.  sqrt(D) = [P; 2P], so the class search is short.
    """
    pk, big_p, d = p**k, p ** (k + 1), p ** (2 * k + 2) + 1
    r_max = max(pk - 1, 1)
    hits = set()
    for m, (t, factors) in targets.items():
        rt = is_perfect_square(m)
        stream = itertools.takewhile(lambda xy: xy[1] <= r_max,
                                     _positive_solutions(d, _cf_class_solutions(d, m, factors)))
        for x, r in itertools.chain([(rt, 0)] if rt is not None else [], stream):
            for big_x, sg in itertools.product((x, -x), (1, -1)):
                u = big_x - sg * big_p * r
                if u >= 0 and r * u < pk and math.gcd(r, u) == 1:
                    hits.add((r, u, t, sg))
    return tuple(sorted(hits, key=lambda h: (h[0], h[1], -h[3])))


@lru_cache(maxsize=CACHE_SIZE)
def case2_residue_search(p: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every (r, u, t, sg) with u^2 - r^2 + 2*sg*r*u*p^(k+1) = p^(2k-2t+1), 0 <= t <= k,
    over coprime r, u >= 0 with r*u < p^k (expected: none): the solutions of
    X^2 - (p^(2k+2)+1)*r^2 = p^(2k-2t+1) with small r (_residue_hits)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _residue_hits(p, k, {p**j: ((2 * k + 1 - j) // 2, {p: j})
                                for j in range(2 * k + 1, 0, -2)})


def p2_family_witness(k: int, l: int) -> tuple[int, int]:
    """Explicit solution (x, y) of x^2 - (2^(2k+2)+1)y^2 = -2^(2l+1) for odd k, l > k/2."""
    if k % 2 != 1 or 2 * l <= k or l > k:
        raise ValueError("requires odd k and k/2 < l <= k")
    e = (2 * l - k - 1) // 2
    return (2**e * (2 ** (k + 1) - 1), 2**e)


def _mod5_certificate(d: int, n: int) -> dict:
    bad = [(x, y) for x in range(5) for y in range(5) if (x * x - d * y * y - n) % 5 == 0]
    if bad:  # pragma: no cover
        raise RuntimeError(f"equation is solvable mod 5: {bad}")
    return {"modulus": 5, "residue_pairs_checked": 25}


def decide_paper_equation(p: int, k: int, l: int) -> PellianOutcome:
    """Decide x^2 - (p^(2k+2)+1)*y^2 = -p^(2l+1) for prime p, 0 <= l <= k.

    The first route that applies gives the verdict and its certificate:

    * "residue" for p = 2 and even k: no solution mod 5;
    * "fujita" for 2l+1 <= k+1: the Fujita chain with prime descent;
    * "paper-family" for p = 2 otherwise: SOLVABLE, with the checked
      p2_family_witness;
    * for odd p otherwise, the Case 2 residue check of (p, k) (a hit is
      fatal): "residue" for l = k, and "descent" for l < k, where
      multiplying a solution by p^(k-l) would give one at l = k.

    The verdict is then confirmed by the class search of -p^(2l+1), which
    finds a solution in every class if there is one; a disagreement is fatal.
    """
    if not is_prime(p):
        raise ValueError("p must be a prime")
    if not 0 <= l <= k:
        raise ValueError("l must satisfy 0 <= l <= k")
    d = p ** (2 * k + 2) + 1
    n = -(p ** (2 * l + 1))
    verdict = UNSOLVABLE
    certificate: object
    if p == 2 and k % 2 == 0:
        method, certificate = "residue", _mod5_certificate(d, n)
    elif 2 * l + 1 <= k + 1:
        # primitive solutions are excluded outright; a non-primitive one
        # descends by p until the same exclusion applies again
        method, certificate = "fujita", _fujita_chain(p, k, l)
    elif p == 2:
        x, y = p2_family_witness(k, l)
        if x * x - d * y * y != n:  # pragma: no cover
            raise RuntimeError("family witness does not satisfy the equation")
        verdict, method, certificate = SOLVABLE, "paper-family", {"family_witness": (x, y)}
    else:
        hits = case2_residue_search(p, k)
        if hits:  # pragma: no cover
            raise RuntimeError(f"residue search found unexpected hits: {hits}")
        if l == k:
            method, certificate = "residue", {"residue_hits": 0}
        else:
            method, certificate = "descent", {"multiplier": p ** (k - l), "reduces_to": (p, k, k)}
    check = _class_search_outcome(d, n, {p: 2 * l + 1})
    if verdict != check.verdict:
        raise RuntimeError(
            f"fatal discrepancy at (p={p}, k={k}, l={l}): {verdict}, but the "
            f"complete search found {check.witnesses or 'no solution'}"
        )
    return PellianOutcome(verdict, check.witnesses, method, check.search_bound_used, certificate)


def _positive_solutions(d: int, sols) -> Iterator[tuple[int, int]]:
    """Every (x, y) with x, y > 0 and x^2 - d*y^2 = n, in increasing y, from any
    one solution of each class of x^2 - d*y^2 = n (the conjugate classes follow)."""
    t, u = pell_fundamental(d)
    seeds = set()
    for x, y in sols:
        x, y = _class_rep(d, x, y, t, u)
        # x + y*sqrt(d) > 0, and the sign of n makes one conjugate positive
        for a, b in ((x, y), (x, -y) if x * x > d * y * y else (-x, y)):
            # a + b*sqrt(d) > 0 grows by the unit at each step while its
            # conjugate n/(a + b*sqrt(d)) tends to 0, so a and b turn positive
            while a <= 0 or b <= 0:
                a, b = a * t + d * b * u, a * u + b * t
            seeds.add((b, a))
    # the class representative has the least y of its class and the
    # conjugate's, so no seed is another seed times a unit
    heap = sorted(seeds)
    while heap:
        y, x = heap[0]
        yield x, y
        heapq.heapreplace(heap, (x * u + y * t, x * t + d * y * u))


def all_solutions_stream(prob: PellianProblem) -> Iterator[tuple[int, int]]:
    """Every positive solution in increasing y, by unit composition: an endless
    iterator, sliced by the caller with itertools.islice or takewhile.  An
    unsolvable problem raises ValueError at the call, not at the first item."""
    oc = solve_complete(prob)
    if oc.verdict != SOLVABLE:
        raise ValueError("no solutions to stream")
    return _positive_solutions(prob.d, oc.witnesses)
