"""Exact references and output checkers for the benchmark.

Nothing here imports pelltuples: every verdict the benchmark accepts is
checked against a committed table, a certificate built with the input, or
a direct substitution into the equation.  A checker returns None when the
output is correct and a one-line reason when it is not.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

PELL_GRID_TABLE = Path(__file__).resolve().parent / "reference" / "pell_grid.json"

#: N values covered by one row of the pell-grid table, in row order
PELL_GRID_NS = [n for n in range(-50, 51) if n != 0]

# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson & Webster)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n < 3.3e24; the benchmark never asks above that."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def solves(d: int, n: int, x: int, y: int) -> bool:
    return x * x - d * y * y == n


def same_class(d: int, n: int, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether two solutions of x^2 - d*y^2 = n lie in the same class.

    Classical criterion (Nagell): x*x' - d*y*y' and x*y' - x'*y are both
    divisible by |n|.  Needs no Pell unit, so it is independent of the solver.
    """
    (x, y), (u, v) = a, b
    m = abs(n)
    return (x * u - d * y * v) % m == 0 and (x * v - u * y) % m == 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    s = pow(a % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


# ---------------------------------------------------------------------------
# pell-grid: committed verdict table


def load_pell_grid_table(path: Path = PELL_GRID_TABLE) -> dict[tuple[int, int], str]:
    """(D, N) -> 'S' (solvable), 'U' (unsolvable) or '?' (witnesses only)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    table = {}
    for d, row in doc["rows"].items():
        if len(row) != len(PELL_GRID_NS):
            raise ValueError(f"pell-grid table row D={d} has {len(row)} entries")
        for n, mark in zip(PELL_GRID_NS, row):
            table[(int(d), n)] = mark
    return table


def check_pell_outcome(d: int, n: int, verdict: str, witnesses, expected: str) -> str | None:
    """Verdict against a reference mark ('S', 'U' or '?') plus witness substitution."""
    if verdict not in ("SOLVABLE", "UNSOLVABLE"):
        return f"unknown verdict {verdict!r}"
    if expected in ("S", "U") and verdict[0] != expected:
        return f"verdict {verdict}, reference {'SOLVABLE' if expected == 'S' else 'UNSOLVABLE'}"
    if (verdict == "SOLVABLE") != bool(witnesses):
        return f"verdict {verdict} with {len(witnesses)} witnesses"
    for x, y in witnesses:
        if not solves(d, n, x, y):
            return f"witness ({x}, {y}) does not satisfy x^2 - {d}y^2 = {n}"
    return None


# ---------------------------------------------------------------------------
# pell-wide: planted classes and local obstructions


def check_planted(d: int, n: int, planted: tuple[int, int], verdict: str, witnesses) -> str | None:
    """SOLVABLE, valid witnesses, and the planted class among them or their conjugates."""
    if not solves(d, n, *planted):  # a broken certificate, never the solver's fault
        raise ValueError(f"planted pair does not solve x^2 - {d}y^2 = {n}")
    bad = check_pell_outcome(d, n, verdict, witnesses, "S")
    if bad:
        return bad
    for x, y in witnesses:
        if same_class(d, n, planted, (x, y)) or same_class(d, n, planted, (x, -y)):
            return None
    return "planted solution class missing from the witnesses"


def obstruction_holds(d: int, n: int, p: int) -> bool:
    """p is an odd prime dividing d and n is a non-residue mod p, so
    x^2 = n + d*y^2 = n (mod p) has no solution."""
    return p > 2 and is_prime(p) and d % p == 0 and legendre(n, p) == -1


def check_obstructed(d: int, n: int, p: int, verdict: str, witnesses) -> str | None:
    if not obstruction_holds(d, n, p):
        raise ValueError(f"no obstruction mod {p} for D={d}, N={n}")
    return check_pell_outcome(d, n, verdict, witnesses, "U")


# ---------------------------------------------------------------------------
# ring-tuples: planted roots, norm certificates, D(-1)-quadruples


def canonical_root(x: int, y: int) -> tuple[int, int]:
    """The root sqrt_in_ring lists for +-(x + y*sqrt(-t)): re > 0, or re = 0 and im >= 0."""
    return (-x, -y) if x < 0 or (x == 0 and y < 0) else (x, y)


def norm_is_square(re: int, im: int, t: int) -> bool:
    """N(re + im*sqrt(-t)) = re^2 + t*im^2; a square element has a square norm."""
    return is_square(re * re + t * im * im)


def check_sqrt(re: int, im: int, t: int, roots, expected_root) -> str | None:
    """`roots` as (re, im) pairs; expected_root None means certified non-square."""
    roots = list(roots)
    if expected_root is None:
        if norm_is_square(re, im, t):
            raise ValueError("non-square certificate fails: the norm is a square")
        return None if not roots else f"non-square returned roots {roots}"
    x, y = expected_root
    if (x * x - t * y * y, 2 * x * y) != (re, im):
        raise ValueError("planted root does not square to the element")
    want = canonical_root(x, y)
    return None if roots == [want] else f"roots {roots}, expected [{want}]"


def pell_minus_one(n: int, j: int) -> tuple[int, int]:
    """j-th positive (x, y) with y^2 - (n^2+1)*x^2 = -1: y + x*sqrt(n^2+1) = (n + sqrt(n^2+1))^(2j-1)."""
    dd = n * n + 1
    y, x = n, 1
    for _ in range(j - 1):  # multiply by (n + sqrt(dd))^2 = (2n^2+1) + 2n*sqrt(dd)
        y, x = y * (2 * n * n + 1) + x * dd * 2 * n, y * 2 * n + x * (2 * n * n + 1)
    return x, y


def quadruple(n: int, j: int, sign: int) -> tuple[int, int, int, int]:
    """{1, n^2+1, -c_j, d_+-} from the closed form, without the solver."""
    x, y = pell_minus_one(n, j)
    c = n * n * x * x - 1
    d = sign * 2 * n**3 * x * y + (2 * n * n + 1) * c + n * n + 2
    return (1, n * n + 1, -c, d)


def is_ring_square_int(v: int, t: int) -> bool:
    """An integer v is a square in Z[sqrt(-t)] iff v = a^2 or v = -t*b^2."""
    if v >= 0:
        return is_square(v)
    return (-v) % t == 0 and is_square(-v // t)


def check_tuple_report(elems, t: int, verified: bool, witnesses: dict) -> str | None:
    """One check_tuple answer for integer elements with property D(-1) in Z[sqrt(-t)].

    `witnesses` maps (i, j) to an (re, im) root of elems[i]*elems[j] - 1.
    """
    pairs = [(i, j) for i in range(len(elems)) for j in range(i + 1, len(elems))]
    want = all(is_ring_square_int(elems[i] * elems[j] - 1, t) for i, j in pairs)
    if verified != want:
        return f"verified={verified} in t={t}, reference {want}"
    for (i, j), (a, b) in witnesses.items():
        if (a * a - t * b * b, 2 * a * b) != (elems[i] * elems[j] - 1, 0):
            return f"witness {a}{b:+}*sqrt(-{t}) for pair {(i, j)} does not square to the product - 1"
    return None


def check_prop_case(n: int, j: int, branches) -> str | None:
    """Branches: [(sign, elements, degenerate, [(t, verified, witnesses), ...])].

    The elements must match the closed form, a branch is degenerate exactly
    when it has a zero or repeated element, and a non-degenerate branch is
    reported for Z[sqrt(-n^2)] by prop_family and again for every subring
    t = m^2 with m | n (m = n included).
    """
    if sorted(b[0] for b in branches) != [-1, 1]:
        return "expected one + and one - branch"
    for sign, elems, degenerate, reports in branches:
        want = quadruple(n, j, sign)
        if tuple(elems) != want:
            return f"branch {sign:+d}: elements {elems}, closed form {want}"
        if degenerate != (0 in want or len(set(want)) != 4):
            return f"branch {sign:+d}: degenerate={degenerate}"
        if degenerate:
            continue
        for t, verified, witnesses in reports:
            bad = check_tuple_report(want, t, verified, witnesses)
            if bad:
                return f"branch {sign:+d}: {bad}"
        ts = sorted(t for t, _, _ in reports)
        if ts != sorted([n * n] + [m * m for m in range(1, n + 1) if n % m == 0]):
            return f"branch {sign:+d}: subrings {ts}"
    return None


# ---------------------------------------------------------------------------
# tm1-grid: report content


def tm1_expected_keys(p_max: int, k_max: int):
    primes = [p for p in range(3, p_max + 1, 2) if is_prime(p)]
    residue = {(p, k) for p in primes for k in range(k_max + 1)}
    decision = {(p, k, l) for p in primes for k in range(k_max + 1) for l in range(k + 1)}
    return residue, decision


def check_tm1_report(doc: dict, p_max: int, k_max: int) -> str | None:
    """Status CONFIRMED, every record present once, all UNSOLVABLE, no residue hits.

    Only the content is compared: `method` and `search_bound` may change.
    """
    if doc.get("status") != "CONFIRMED":
        return f"status {doc.get('status')!r}"
    residue, decision = tm1_expected_keys(p_max, k_max)
    seen_r, seen_d = [], []
    for rec in doc.get("evidence", []):
        if rec.get("kind") == "residue-search":
            seen_r.append((int(rec["p"]), int(rec["k"])))
            if rec["hits"]:
                return f"residue hits at p={rec['p']}, k={rec['k']}"
        elif rec.get("kind") == "decision":
            seen_d.append((int(rec["p"]), int(rec["k"]), int(rec["l"])))
            if rec["verdict"] != "UNSOLVABLE":
                return f"verdict {rec['verdict']} at p={rec['p']}, k={rec['k']}, l={rec['l']}"
        else:
            return f"unexpected record {rec}"
    if sorted(seen_r) != sorted(residue) or sorted(seen_d) != sorted(decision):
        return (f"{len(seen_r) + len(seen_d)} records, expected "
                f"{len(residue) + len(decision)} distinct ones")
    return None
