"""Arithmetic in Z[sqrt(-t)], D(n)-tuple verification and quadruple families.

Ring elements are a + b*sqrt(-t) with integer a, b and a fixed positive t
per ring; t = 0 embeds plain integers.  Square detection, the triple
extension identities and the closed-form {1, n^2+1, -c, d} quadruple family
are all done in exact integers.  The reports are NamedTuples; `RingElem` is a
slotted class of its own, because a NamedTuple would equal a plain tuple.
"""
from __future__ import annotations

from itertools import combinations, takewhile
from operator import index
from typing import NamedTuple

from .arith import is_perfect_square, is_prime, isqrt, odd_primes_upto
from .pellian import (
    PellianProblem,
    PellianOutcome,
    UNSOLVABLE,
    all_solutions_stream,
    decide_paper_equation,
)

EXISTS_INFINITE = "EXISTS_INFINITE"
NONE = "NONE"
UNDECIDED_BY_PAPER = "UNDECIDED_BY_PAPER"


class RingElem:
    """re + im*sqrt(-t); t = 0 means a plain integer (im must be 0).

    A value type: equality and hash go by (re, im, t), and its fields are
    never mutated after construction, so as_elem and the reports share
    instances instead of copying them.
    """

    __slots__ = ("re", "im", "t")

    def __init__(self, re: int, im: int, t: int):
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0 and im != 0:
            raise ValueError("t=0 embeds plain integers only")
        self.re, self.im, self.t = re, im, t

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.im, self.t) == (other.re, other.im, other.t)

    def __hash__(self):
        return hash((self.re, self.im, self.t))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(re={self.re!r}, im={self.im!r}, t={self.t!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{self.im:+}*sqrt(-{self.t})"


def as_elem(v, t: int) -> RingElem:
    """v in Z[sqrt(-t)]: an integer, or a RingElem of this ring or with im = 0.

    A value that is not an integer (a float, str or Fraction) raises
    TypeError instead of being truncated.
    """
    if type(v) is int:
        return RingElem(v, 0, t)
    if isinstance(v, RingElem):
        if v.t == t:
            return v
        if v.im != 0:
            raise ValueError(f"mixed rings: t={v.t} vs t={t}")
        return RingElem(v.re, 0, t)
    return RingElem(index(v), 0, t)


def _root(re: int, im: int, t: int) -> RingElem | None:
    """The canonical w = x + y*sqrt(-t) with w^2 = re + im*sqrt(-t), or None.

    Canonical means x > 0, or x = 0 and y >= 0.  If w = x + y*sqrt(-t)
    squares to z = re + im*sqrt(-t) then x^2 - t*y^2 = re and 2*x*y = im,
    and the norm N(w) = x^2 + t*y^2 is the exact square root nw of
    N(z) = re^2 + t*im^2.  So x^2 = (nw + re)/2 and t*y^2 = (nw - re)/2,
    and y takes the sign of im.  When im = 0, 2*x*y = 0, so re >= 0 is a
    square iff re = x^2 and re < 0 iff re = -t*y^2: one isqrt decides it
    (t = 0 embeds the integers, where im is always 0).  Z[sqrt(-t)] is an
    integral domain, so the only roots are +-w and exactly one of them is
    canonical.
    """
    if im == 0:
        if re >= 0:
            x = isqrt(re)
            return RingElem(x, 0, t) if x * x == re else None
        if t == 0:
            return None
        y = isqrt(-re // t)
        return RingElem(0, y, t) if t * y * y == -re else None
    nw = is_perfect_square(re * re + t * im * im)
    if nw is None or (nw + re) % 2:
        return None
    x = is_perfect_square((nw + re) // 2)
    ty2, rem = divmod((nw - re) // 2, t)
    y = is_perfect_square(ty2) if rem == 0 else None
    if x is None or y is None or 2 * x * y != abs(im):
        return None
    return RingElem(x, y if im > 0 else -y, t)


def sqrt_in_ring(z: RingElem) -> list[RingElem]:
    """The canonical w with w^2 = z (re > 0, or re = 0 and im >= 0), or []."""
    root = _root(z.re, z.im, z.t)
    return [root] if root is not None else []


class TupleReport(NamedTuple):
    """Verification record for a D(n)-tuple candidate."""

    elements: tuple[RingElem, ...]
    n: int
    t: int
    verified: bool
    witnesses: dict[tuple[int, int], RingElem]
    failing_pair: tuple[int, int] | None = None
    degenerate: bool = False
    note: str = ""


#: the pairs (i, j), i < j, in check order, of each tuple length checked so
#: far: every report of one length keys its witnesses by the same tuples.
#: Tuples longer than _PAIR_KEYS_MAX_LEN get their own, so the table stays small.
_PAIR_KEYS: dict[int, tuple[tuple[int, int], ...]] = {}
_PAIR_KEYS_MAX_LEN = 16


def _pair_keys(k: int) -> tuple[tuple[int, int], ...]:
    keys = _PAIR_KEYS.get(k)
    if keys is None:
        keys = tuple(combinations(range(k), 2))
        if k <= _PAIR_KEYS_MAX_LEN:
            _PAIR_KEYS[k] = keys
    return keys


def check_tuple(elements, n: int, t: int = 0) -> TupleReport:
    """Verify that every pairwise product plus n is a square in Z[sqrt(-t)].

    Elements may be ints or RingElems sharing the ring's t.  Fewer than two,
    zero or duplicate elements are rejected, the latter on their integer
    parts (re, im), which all share t.  Each pair value is formed on those
    parts and its root, the pair's witness, taken by _root: a pair of
    rational integers a, c goes straight to _root's im = 0 rule on a*c + n.
    A check allocates only what its report keeps: the elements, one RingElem
    witness per square pair, and the (i, j) keys, which every tuple of one
    length shares.
    """
    elems = tuple([as_elem(e, t) for e in elements])
    parts = [(e.re, e.im) for e in elems]
    if len(parts) < 2:
        raise ValueError(f"a tuple needs at least two elements, got {len(parts)}: "
                         f"it has no pair to check")
    if (0, 0) in parts:
        raise ValueError("tuple elements must be nonzero")
    if len(set(parts)) != len(parts):
        raise ValueError("tuple elements must be pairwise distinct")
    witnesses: dict[tuple[int, int], RingElem] = {}
    for key in _pair_keys(len(parts)):
        (a, b), (c, d) = parts[key[0]], parts[key[1]]
        if b == 0 == d:
            root = _root(a * c + n, 0, t)
        else:
            root = _root(a * c - t * b * d + n, a * d + b * c, t)
        if root is None:
            return TupleReport(elems, n, t, False, witnesses, key)
        witnesses[key] = root
    return TupleReport(elems, n, t, True, witnesses)


class ExtensionData(NamedTuple):
    """Integers (e, x, y, z) attached to a D(l) triple by the extension identity."""

    e: int
    x: int
    y: int
    z: int


def lemma3_extend_data(a: int, b: int, c: int, l: int,
                       r: int, s: int, tp: int) -> ExtensionData:
    """Extension data of a D(l) triple (a, b, c) with pair roots (r, s, tp).

    Checks ab+l = r^2, ac+l = s^2, bc+l = tp^2 first, then asserts
    a*e+l^2, b*e+l^2, c*e+l^2 are the squares of x, y, z and that the
    closed-form identity c = a + b + e/l + 2(abe + rxy)/l^2 holds, times l^2.
    """
    if l == 0:
        raise ValueError("l must be nonzero")
    if a * b + l != r * r or a * c + l != s * s or b * c + l != tp * tp:
        raise ValueError("pair roots do not match the D(l) triple")
    e = l * (a + b + c) + 2 * a * b * c - 2 * r * s * tp
    x = a * tp - r * s
    y = b * s - r * tp
    z = c * r - s * tp
    if a * e + l * l != x * x or b * e + l * l != y * y or c * e + l * l != z * z:
        raise AssertionError("square identities violated")
    if c * l * l != (a + b) * l * l + e * l + 2 * (a * b * e + r * x * y):
        raise AssertionError("closed-form identity for c violated")
    return ExtensionData(e, x, y, z)


def _pell_xy(n: int, j: int) -> tuple[int, int]:
    """j-th positive solution (x_j, y_j) of y^2 - (n^2+1)x^2 = -1.  As sqrt(n^2+1) = [n; 2n],
    y_j + x_j*sqrt(n^2+1) = e^(2j-1) for e = n + sqrt(n^2+1), and e^2 = t + u*sqrt(n^2+1)."""
    t, u = 2 * n * n + 1, 2 * n
    y, x = n, 1
    for _ in range(j - 1):
        y, x = y * t + (n * n + 1) * x * u, y * u + x * t
    return x, y


def prop_family(n: int, j: int, m: int) -> tuple[TupleReport, TupleReport]:
    """Quadruples {1, n^2+1, -c_j, d+-} with the property D(-1) in Z[sqrt(-n^2)].

    m is only validated: it must divide n (Z[n*i] sits inside Z[m*i], so a
    verified report also holds with t = m^2).  Degenerate branches (d
    collides with another element or vanishes) are flagged, not verified.
    """
    if n < 1 or j < 1 or m < 1 or n % m != 0:
        raise ValueError("need positive n, j and m | n")
    b = n * n + 1
    t = n * n
    xj, yj = _pell_xy(n, j)
    c = n * n * xj * xj - 1
    reports = []
    for sg in (1, -1):
        d = sg * 2 * n**3 * xj * yj + (2 * n * n + 1) * c + n * n + 2
        elems = (1, b, -c, d)
        ring_elems = tuple([RingElem(e, 0, t) for e in elems])
        if 0 in elems or len({*elems}) != 4:
            reports.append(TupleReport(ring_elems, -1, t, False, {}, degenerate=True,
                                       note=f"d{'+' if sg > 0 else '-'}={d} degenerate"))
            continue
        # the canonical roots of the six pair values, in check_tuple's pair
        # order, each checked by substitution: x^2 - t*y^2 = v
        w1 = n * n * xj + sg * n * yj
        w2 = n * (n * n + 1) * xj + sg * n * n * yj
        w3 = c + sg * n * xj * yj
        roots = ((n, 0), (0, xj), (abs(w1), 0), (0, yj), (abs(w2), 0), (0, abs(w3)))
        values = (b - 1, -c - 1, d - 1, -b * c - 1, b * d - 1, -c * d - 1)
        witnesses = {}
        for key, (x, y), v in zip(_pair_keys(4), roots, values):
            if x * x - t * y * y != v:
                raise RuntimeError("closed-form witnesses violated")
            witnesses[key] = RingElem(x, y, t)
        reports.append(TupleReport(ring_elems, -1, t, True, witnesses))
    return reports[0], reports[1]


def _sqrt_chain(v: int) -> tuple[int, int]:
    """(root, e): the square root of v >= 2 taken e times, while it is a square.
    The chain ends within log2(bit length of v) roots."""
    e = 0
    while (r := is_perfect_square(v)) is not None:
        v = r
        e += 1
    return v, e


def find_admissible_pairs(search_limit: int) -> list[tuple[int, int, int, int]]:
    """All (p, k, q, l_exp) with 2*p^k = q^(2^l_exp) + 1, p odd prime <= limit,
    k in {1, 2, 4}, q an odd prime, l_exp >= 1."""
    out = []
    for p in odd_primes_upto(search_limit):
        for k in (1, 2, 4):
            v, e = _sqrt_chain(2 * p**k - 1)
            if e >= 1 and v > 2 and is_prime(v):
                out.append((p, k, v, e))
    return sorted(out)


def remark2_reduction(b: int, t: int) -> PellianProblem:
    """The Pellian problem x^2 - b*y^2 = (1-b)/t gating negative c in {1, b, c}."""
    if t < 1:
        raise ValueError("t must be positive")
    if (b - 1) % t != 0:
        raise ValueError(f"t={t} does not divide b-1={b - 1}")
    return PellianProblem(b, (1 - b) // t)


class ClassifyResult(NamedTuple):
    status: str
    witness: TupleReport | None = None
    certificate: PellianOutcome | None = None
    reason: str = ""


def theorem3_classify(p: int, k: int, q: int, l_exp: int, t: int) -> ClassifyResult:
    """Existence of D(-1)-quadruples {1, 2p^k, ...} in Z[sqrt(-t)].

    Even t: none exist.  t an even power of q up to q^(2^l_exp): infinitely
    many, with a constructive quadruple witness.  t an odd power of q below
    q^(2^l_exp): none, certified by the unsolvable Pellian reduction.
    Anything else is left undecided.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if l_exp < 1:
        raise ValueError("l_exp must be >= 1")
    b = 2 * p**k
    if not (is_prime(p) and p % 2 == 1 and is_prime(q) and q % 2 == 1):
        raise ValueError("p and q must be odd primes")
    # b - 1 = q^(2^l_exp) iff its square-root chain ends at q after l_exp roots,
    # as the odd prime q is no square; the chain builds no power of q
    if _sqrt_chain(b - 1) != (q, l_exp):
        raise ValueError(f"2*{p}^{k} != {q}^(2^{l_exp}) + 1")
    if t % 2 == 0:
        return ClassifyResult(NONE, reason="even t cannot divide b-1")
    e = 0
    v = t
    while v % q == 0:
        v //= q
        e += 1
    if v != 1:
        return ClassifyResult(UNDECIDED_BY_PAPER, reason=f"t={t} is not a power of {q}")
    top = 2**l_exp
    if e % 2 == 0 and e <= top:
        # verified in Z[sqrt(-n^2)], a subring of Z[sqrt(-t)]; checked in the latter
        plus, _minus = prop_family(q ** (2 ** (l_exp - 1)), 1, 1)
        witness = check_tuple(plus.elements, -1, t)
        if not witness.verified:  # pragma: no cover
            raise RuntimeError("constructive witness failed verification")
        return ClassifyResult(EXISTS_INFINITE, witness=witness,
                              reason=f"t={q}^{e} is an even power of q")
    if e % 2 == 1 and e <= top - 1:
        prob = remark2_reduction(b, t)
        s = top - e
        kk = 2 ** (l_exp - 1) - 1
        ll = (s - 1) // 2
        cert = decide_paper_equation(q, kk, ll)
        if -(q**s) != prob.n or cert.verdict != UNSOLVABLE:  # pragma: no cover
            raise RuntimeError("reduction mismatch")
        return ClassifyResult(NONE, certificate=cert,
                              reason=f"t={q}^{e} odd power; reduction unsolvable")
    return ClassifyResult(UNDECIDED_BY_PAPER, reason=f"t={t} outside the covered sets")


def _third_elements(b: int, c_max: int) -> list[int]:
    """Every c = x^2 + 1 <= c_max (x >= 1) with bc - 1 a square, increasing, for
    b = r^2 + 1 >= 2.  bc - 1 = y^2 is y^2 - b*x^2 = b - 1, so the c are read off
    that equation's solution stream, which grows geometrically in x."""
    stream = all_solutions_stream(PellianProblem(b, b - 1))
    return [x * x + 1 for _, x in takewhile(lambda yx: yx[1] * yx[1] + 1 <= c_max, stream)]


def integer_quadruple_search(b: int, c_max: int) -> list[tuple[int, int, int, int]]:
    """Exhaustive search for integer D(-1)-quadruples {1, b, c, d}, 1 < c < d <= c_max.

    Requires b = r^2 + 1 with r >= 1, so {1, b} is a D(-1)-pair, and at least two
    _third_elements up to c_max, so there is a pair (c, d) to test; tests every
    such pair.  Returns every quadruple found, expected none:
    N. C. Bonciocat, M. Cipu and M. Mignotte, J. London Math. Soc. 105 (2022).
    """
    if not is_perfect_square(b - 1):
        raise ValueError(f"b={b} is not r^2+1 with r >= 1: {{1, b}} is no D(-1)-pair")
    cs = _third_elements(b, c_max)
    if len(cs) < 2:
        raise ValueError(f"c_max={c_max} leaves b={b} fewer than two c <= c_max "
                         f"with bc - 1 a square: no pair (c, d) to check")
    return [(1, b, c, d) for c, d in combinations(cs, 2)
            if is_perfect_square(c * d - 1) is not None]
