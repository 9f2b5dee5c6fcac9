"""Certified solvability decisions for x^2 - D*y^2 = N.

Two complete methods are available and cross-checked:

* bounded enumeration of y up to the fundamental-solution bound derived
  from the Pell unit, while that bound is at most ENUM_BOUND_LIMIT, and
* the Lagrange-Matthews-Mollin class search above it: for every f^2 | N
  and every root z of z^2 = D (mod |N/f^2|), read off the factorization
  of N, with 2z <= |N/f^2|, one pass of contfrac.walk over
  (z + sqrt(D))/Q_0, Q_0 = |N/f^2|, through the preperiod and two periods.
  The PQa identity G_i^2 - D*q_i^2 = (-1)^(i+1) * t_{i+1} * Q_0,
  G_i = Q_0*p_i - z*q_i (J. P. Robertson, "Solving the generalized Pell
  equation x^2 - Dy^2 = N", 2004), makes step i a solution exactly when
  (-1)^(i+1) * t_{i+1} is the sign of N/f^2.  The walk keeps only the
  partial quotients and stops at its first hit, where the convergent
  (p_i, q_i) is built once.  One hit per root suffices: every hit of root
  z has G = -z*B (mod Q_0), so by Nagell's criterion any two of them
  differ by a unit of norm 1 and lie in one class; and root Q_0 - z gives
  the conjugate classes, which the class representative merges.  The Pell
  unit is the first hit of the walk of sqrt(D).

_positive_solutions streams every positive solution in increasing y from one
solution per class, by the Pell unit.  The paper's Case 2 residue check is
read off the class search and that stream: its hits are the solutions with
small r of X^2 - (P^2+1)*r^2 = M, X = u + sg*P*r.  The paper deciders'
cross-checks of x^2 - (P^2+1)*y^2 = -p^(2l+1) also run on the class search
whatever the class bound: sqrt(P^2+1) = [P; 2P], so each walk is a few
steps where enumeration would scan up to sqrt(p^(2l+1)) values of y.

Both report the same canonical witnesses: one minimal-y representative
per solution class and its conjugate, with x >= 0.  Only factorize() and
walk()'s 100,000-term cap limit the class search, and both raise.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .arith import factorize, is_perfect_square, is_prime, isqrt
from .contfrac import walk

SOLVABLE = "SOLVABLE"
UNSOLVABLE = "UNSOLVABLE"

#: switch to the continued-fraction class search above this enumeration bound
ENUM_BOUND_LIMIT = 1_000_000

#: entries kept by each of the module's caches
CACHE_SIZE = 4096


@dataclass(frozen=True)
class PellianProblem:
    d: int
    n: int

    def __post_init__(self):
        if self.d < 2 or is_perfect_square(self.d) is not None:
            raise ValueError(f"D={self.d} must be a non-square integer >= 2")
        if self.n == 0:
            raise ValueError("N must be nonzero")


@dataclass(frozen=True)
class PellianOutcome:
    verdict: str
    witnesses: tuple[tuple[int, int], ...]
    method: str
    search_bound_used: int
    certificate: object = None


class PellUnit(NamedTuple):
    """(t, u): least positive solution of t^2 - D*u^2 = 1."""

    t: int
    u: int


def _pqa_first_hit(d: int, z: int, m: int) -> tuple[int, int] | None:
    """The first (G, B) with G^2 - d*B^2 = m on the walk of (z + sqrt(d))/|m|
    through the preperiod and two periods, for m | z^2 - d; None if none.

    The walk keeps only its partial quotients, so the convergent (p_i, q_i)
    of the hit is built once from them, and a walk without a hit does no
    big-integer arithmetic.
    """
    m_abs = abs(m)
    # step i is a hit when (-1)^(i+1) * t_{i+1} = sign(m); want flips each step
    want = -1 if m > 0 else 1
    quots = []
    for a, _, t in walk(d, z, m_abs, periods=2):
        quots.append(a)
        if t == want:
            break
        want = -want
    else:
        return None
    p0, q0, p, q = 0, 1, 1, 0
    for a in quots:
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    return m_abs * p - z * q, q


@lru_cache(maxsize=CACHE_SIZE)
def pell_fundamental(d: int) -> PellUnit:
    """Least (t, u) with t^2 - d*u^2 = 1: the first hit of the walk of sqrt(d)."""
    return PellUnit(*_pqa_first_hit(d, 0, 1))


def class_bound(d: int, n: int) -> int:
    """Outward-rounded y bound containing a fundamental solution per class."""
    t, u = pell_fundamental(d)
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
    y0 = 1
    if n < 0:
        y0 = max(1, isqrt((-n) // d))
        while d * y0 * y0 < -n:
            y0 += 1
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


def _sqrt_mod_prime_power(d: int, p: int, e: int) -> list[int]:
    """All z in [0, p^e) with z^2 = d (mod p^e), lifted one power of p at a time."""
    roots, pk = _sqrt_mod_prime(d % p, p), p
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


def _sqrt_mod(d: int, factors: dict[int, int]) -> list[int]:
    """All z in [0, m) with z^2 = d (mod m), m = prod p^e over `factors`, by CRT."""
    roots, mod = [0], 1
    for p, e in factors.items():
        pe = p**e
        inv = pow(mod, -1, pe)
        roots = [r + mod * ((s - r) * inv % pe)
                 for r in roots for s in _sqrt_mod_prime_power(d, p, e)]
        mod *= pe
    return sorted(roots)


def _cf_class_solutions(d: int, n: int) -> list[tuple[int, int]]:
    """A solution with y > 0 in every solution class of x^2 - d*y^2 = n."""
    sols: list[tuple[int, int]] = []
    fac = factorize(abs(n))
    for halves in itertools.product(*(range(e // 2 + 1) for e in fac.values())):
        f = math.prod(p**h for p, h in zip(fac, halves))
        m = n // (f * f)
        m_fac = {p: e - 2 * h for (p, e), h in zip(fac.items(), halves) if e > 2 * h}
        for z in _sqrt_mod(d, m_fac):
            # the roots come sorted; root |m| - z gives the conjugate classes,
            # which _class_rep merges
            if 2 * z > abs(m):
                break
            hit = _pqa_first_hit(d, z, m)
            if hit is not None:
                sols.append((f * hit[0], f * hit[1]))
    return sols


def solve_complete(prob: PellianProblem) -> PellianOutcome:
    """Certified decision with one fundamental witness per solution class."""
    return _solve_complete_cached(prob.d, prob.n)


@lru_cache(maxsize=CACHE_SIZE)
def _solve_complete_cached(d: int, n: int) -> PellianOutcome:
    prob = PellianProblem(d, n)
    bound = class_bound(d, n)
    if bound > ENUM_BOUND_LIMIT:
        return _class_search_outcome(d, n)
    return _outcome(d, n, solve_brute(prob, bound), "bounded-enumeration", bound)


def _class_search_outcome(d: int, n: int) -> PellianOutcome:
    """solve_complete's outcome by the class search, whatever the class bound;
    search_bound_used is still the class bound."""
    return _outcome(d, n, _cf_class_solutions(d, n), "cf-classes", class_bound(d, n))


def _outcome(d: int, n: int, raw: list[tuple[int, int]], method: str,
             bound: int) -> PellianOutcome:
    """The verdict and class representatives of x^2 - d*y^2 = n from `raw`, a
    solution with y > 0 in every class (y = 0 is added here when n is square)."""
    t, u = pell_fundamental(d)
    rt = is_perfect_square(n)
    if rt is not None:
        raw.append((rt, 0))
    reps = sorted({_class_rep(d, x, y, t, u) for x, y in raw})
    for x, y in reps:
        assert x * x - d * y * y == n
    verdict = SOLVABLE if reps else UNSOLVABLE
    return PellianOutcome(verdict, tuple(reps), method, bound)


def has_primitive_solution(outcome: PellianOutcome) -> bool:
    """gcd(x, y) is constant on a solution class, so checking reps suffices."""
    return any(math.gcd(x, y) == 1 for x, y in outcome.witnesses)


@dataclass(frozen=True)
class FujitaCertificate:
    """No primitive solution of X^2 - (K^2+1)Y^2 = N when 1 < |N| <= K."""

    k: int
    n: int

    @property
    def d(self) -> int:
        return self.k * self.k + 1


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


def _residue_hits(p: int, k: int, targets: dict[int, int]) -> tuple[tuple[int, int, int, int], ...]:
    """Every (r, u, targets[M], sg) with u^2 - r^2 + 2*sg*r*u*P = M, P = p^(k+1),
    over coprime r, u >= 0 with r*u < p^k, ordered by r, u, -sg.

    With X = u + sg*P*r and D = P^2 + 1 this is X^2 - D*r^2 = M: r = 0 needs M
    square, and the hits with 1 <= r <= max(p^k - 1, 1) (the max keeps the ray
    (r, u) = (1, 0) of k = 0) are read off the class search of X^2 - D*r^2 = M
    streamed in increasing r.  sqrt(D) = [P; 2P], so the class search is short.
    """
    pk, big_p, d = p**k, p ** (k + 1), p ** (2 * k + 2) + 1
    r_max = max(pk - 1, 1)
    hits = set()
    for m, t in targets.items():
        rt = is_perfect_square(m)
        stream = itertools.takewhile(lambda xy: xy[1] <= r_max,
                                     _positive_solutions(d, _cf_class_solutions(d, m)))
        for x, r in itertools.chain([(rt, 0)] if rt is not None else [], stream):
            for big_x, sg in itertools.product((x, -x), (1, -1)):
                u = big_x - sg * big_p * r
                if u >= 0 and r * u < pk and math.gcd(r, u) == 1:
                    hits.add((r, u, t, sg))
    return tuple(sorted(hits, key=lambda h: (h[0], h[1], -h[3])))


def case2_residue_search(p: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every (r, u, t, sg) with u^2 - r^2 + 2*sg*r*u*p^(k+1) = p^(2k-2t+1), 0 <= t <= k,
    over coprime r, u >= 0 with r*u < p^k (expected: none): the solutions of
    X^2 - (p^(2k+2)+1)*r^2 = p^(2k-2t+1) with small r (_residue_hits)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _residue_hits(p, k, {p ** (2 * k - 2 * t + 1): t for t in range(k + 1)})


@lru_cache(maxsize=CACHE_SIZE)
def decide_paper_equation(p: int, k: int, l: int) -> PellianOutcome:
    """Decide x^2 - (p^(2k+2)+1)*y^2 = -p^(2l+1) for odd prime p, 0 <= l <= k.

    Three routes (Fujita chain with prime descent, the residue check for
    l = k, read off the class search of +p^(2k-2t+1) and the solution stream,
    descent to l = k), each confirmed by the class search of -p^(2l+1), which
    finds a solution in every class if there is one; a hit is fatal.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if not 0 <= l <= k:
        raise ValueError("l must satisfy 0 <= l <= k")
    d = p ** (2 * k + 2) + 1
    n = -(p ** (2 * l + 1))
    certificate: object
    if 2 * l + 1 <= k + 1:
        # primitive solutions are excluded outright; a non-primitive one
        # descends by p until the same exclusion applies again
        method = "fujita"
        certificate = _fujita_chain(p, k, l)
    elif l == k:
        method = "residue"
        hits = case2_residue_search(p, k)
        if hits:  # pragma: no cover
            raise RuntimeError(f"residue search found unexpected hits: {hits}")
        certificate = {"residue_hits": 0}
    else:
        method = "descent"
        inner = decide_paper_equation(p, k, k)
        if inner.verdict != UNSOLVABLE:  # pragma: no cover
            raise RuntimeError("descent target unexpectedly solvable")
        certificate = {"multiplier": p ** (k - l), "reduces_to": (p, k, k)}
    check = _class_search_outcome(d, n)
    if check.verdict != UNSOLVABLE:
        raise RuntimeError(
            f"fatal discrepancy: complete search found {check.witnesses} "
            f"for (p={p}, k={k}, l={l})"
        )
    return PellianOutcome(UNSOLVABLE, (), method, check.search_bound_used, certificate)


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


def p2_decide(k: int, l: int) -> PellianOutcome:
    """Decide x^2 - (2^(2k+2)+1)*y^2 = -2^(2l+1), cross-checked with the class search."""
    if not 0 <= l <= k:
        raise ValueError("l must satisfy 0 <= l <= k")
    d = 2 ** (2 * k + 2) + 1
    n = -(2 ** (2 * l + 1))
    check = _class_search_outcome(d, n)
    if k % 2 == 0:
        cert = _mod5_certificate(d, n)
        out = PellianOutcome(UNSOLVABLE, (), "residue", check.search_bound_used, cert)
    elif 2 * l > k:
        x, y = p2_family_witness(k, l)
        if x * x - d * y * y != n:  # pragma: no cover
            raise RuntimeError("family witness does not satisfy the equation")
        out = PellianOutcome(SOLVABLE, check.witnesses, "paper-family",
                             check.search_bound_used, {"family_witness": (x, y)})
    else:
        out = PellianOutcome(UNSOLVABLE, (), "fujita", check.search_bound_used,
                             _fujita_chain(2, k, l))
    if out.verdict != check.verdict:
        raise RuntimeError(f"fatal discrepancy at (k={k}, l={l}): "
                           f"{out.verdict} vs {check.verdict}")
    return out


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


def all_solutions_stream(prob: PellianProblem, count: int) -> list[tuple[int, int]]:
    """First `count` positive solutions in increasing y, by unit composition."""
    if count < 1:
        raise ValueError("count must be >= 1")
    oc = solve_complete(prob)
    if oc.verdict != SOLVABLE:
        raise ValueError("no solutions to stream")
    return list(itertools.islice(_positive_solutions(prob.d, oc.witnesses), count))
