"""Arithmetic in Z[sqrt(-t)], tuple verification, and the quadruple families."""

import copy
import pickle
import random
import time
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import combinations, islice

import pytest

from pelltuples import harness, pellian, zring
from pelltuples.arith import is_perfect_square, is_prime, isqrt
from pelltuples.pellian import PellianProblem, UNSOLVABLE, all_solutions_stream, solve_complete
from pelltuples.zring import (
    EXISTS_INFINITE,
    NONE,
    UNDECIDED_BY_PAPER,
    RingElem,
    TupleReport,
    as_elem,
    check_tuple,
    find_admissible_pairs,
    integer_quadruple_search,
    lemma3_extend_data,
    prop_family,
    remark2_reduction,
    sqrt_in_ring,
    theorem3_classify,
    _pell_xy,
    _third_elements,
)


def _mul(a, b):
    """a*b for a and b of one ring Z[sqrt(-t)]."""
    t = a.t
    return RingElem(a.re * b.re - t * a.im * b.im, a.re * b.im + a.im * b.re, t)


def test_ring_elem_validation():
    with pytest.raises(ValueError):
        RingElem(1, 2, 0)  # t = 0 embeds the integers: no imaginary part
    with pytest.raises(ValueError):
        RingElem(1, 0, -1)
    assert RingElem(5, 0, 0).re == 5


@dataclass(frozen=True)
class _FrozenRingElem:
    """RingElem as it was declared before it was slotted: the value-semantics oracle."""

    re: int
    im: int
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.t == 0 and self.im != 0:
            raise ValueError("t=0 embeds plain integers only")

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{self.im:+}*sqrt(-{self.t})"


def _built(cls, re, im, t):
    try:
        return cls(re, im, t)
    except ValueError as exc:
        return str(exc)


def test_ring_elem_value_semantics_match_frozen_class():
    rng = random.Random(19)
    grid = [(0, 0, 0), (1, 0, 0), (0, 0, 4), (0, 1, 4), (5, 0, 4), (5, 0, 9)]
    grid += [(rng.randint(-3, 3), rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(-1, 4))
             for _ in range(400)]
    grid.append((10**40 + 1, -(10**30), 7))
    pairs = [(_built(RingElem, *g), _built(_FrozenRingElem, *g)) for g in grid]
    errors = {old for new, old in pairs if isinstance(old, str)}
    assert errors == {"t must be >= 0", "t=0 embeds plain integers only"}
    values = []
    for new, old in pairs:
        if isinstance(old, str):
            assert new == old  # the same validation error
            continue
        assert (new.re, new.im, new.t) == (old.re, old.im, old.t)
        assert hash(new) == hash(old)
        assert repr(new) == repr(old).replace("_FrozenRingElem", "RingElem")
        assert str(new) == str(old)
        for twin in (copy.copy(new), pickle.loads(pickle.dumps(new))):
            assert type(twin) is RingElem and twin == new and hash(twin) == hash(new)
            assert repr(twin) == repr(new)
        values.append((new, old))
    assert len(values) > 250
    for new_a, old_a in values[:120]:
        for new_b, old_b in values[:120]:
            assert (new_a == new_b) == (old_a == old_b)
            assert (new_a != new_b) == (old_a != old_b)
    assert len({new for new, _ in values}) == len({old for _, old in values})
    assert RingElem(1, 0, 0) != (1, 0, 0)
    assert _FrozenRingElem(1, 0, 0) != (1, 0, 0)


def test_as_elem():
    assert as_elem(7, 4) == RingElem(7, 0, 4)
    assert as_elem(RingElem(1, 2, 4), 4) == RingElem(1, 2, 4)
    e = RingElem(1, 2, 4)
    assert as_elem(e, e.t) is e  # fields are never mutated, so shared rather than copied
    assert as_elem(RingElem(5, 0, 4), 9) == RingElem(5, 0, 9)  # integers move between rings
    with pytest.raises(ValueError, match="mixed rings"):
        as_elem(RingElem(1, 2, 4), 9)


class _Small(IntEnum):
    TWO = 2


def test_as_elem_takes_integers_only():
    # bool and IntEnum are int subclasses; their parts become plain ints
    for v, want in ((True, 1), (_Small.TWO, 2), (7, 7)):
        e = as_elem(v, 3)
        assert e == RingElem(want, 0, 3) and type(e.re) is int and type(e.im) is int
    r = check_tuple((True, _Small.TWO, 5), -1, 1)  # 1, 4 and 9
    assert r.verified and [type(e.re) for e in r.elements] == [int, int, int]
    for v in (3.5, 7.0, "7", Fraction(7), Fraction(7, 2), None):
        with pytest.raises(TypeError):
            as_elem(v, 2)
    # once truncated to {1, 3, 8} and reported as a verified D(1)-triple
    with pytest.raises(TypeError):
        check_tuple((1, 3.5, 8.2), 1)


def test_sqrt_in_ring_examples():
    assert sqrt_in_ring(RingElem(-196, 0, 4)) == [RingElem(0, 7, 4)]
    assert sqrt_in_ring(RingElem(4, 0, 0)) == [RingElem(2, 0, 0)]
    assert sqrt_in_ring(RingElem(3, 0, 0)) == []
    assert sqrt_in_ring(RingElem(-4, 0, 0)) == []
    # (2 + 3w)^2 = 4 - 9t + 12w with t = 1: -5 + 12w
    assert RingElem(2, 3, 1) in sqrt_in_ring(RingElem(-5, 12, 1))
    # im = 0: re >= 0 must be x^2, re < 0 must be -t*y^2
    assert sqrt_in_ring(RingElem(-10, 0, 4)) == []  # 4 does not divide -10
    assert sqrt_in_ring(RingElem(-12, 0, 4)) == []  # -12 = -4*3, 3 not a square
    assert sqrt_in_ring(RingElem(-7 * 11**2, 0, 7)) == [RingElem(0, 11, 7)]
    for t in (0, 1, 7):
        assert sqrt_in_ring(RingElem(0, 0, t)) == [RingElem(0, 0, t)]
    s = 4 * 10**74 + 12345678901234567890123
    assert len(str(s * s)) == 150
    for t in (0, 3):
        assert sqrt_in_ring(RingElem(s * s, 0, t)) == [RingElem(s, 0, t)]
        assert sqrt_in_ring(RingElem(s * s + 1, 0, t)) == []
    assert sqrt_in_ring(RingElem(-3 * s * s, 0, 3)) == [RingElem(0, s, 3)]
    # a pair value of 0 has the root 0
    assert check_tuple((1, -1), 1).witnesses == {(0, 1): RingElem(0, 0, 0)}


def test_sqrt_in_ring_complete_small():
    # Brute-force oracle over a small window of the ring.  Any root of an
    # element in the box |re|, |im| <= 40 has x^2 + t*y^2 <= 40*sqrt(1 + t),
    # so it lies inside the window and the box is answered exactly.
    for t in (1, 2, 3, 4, 9, 13):
        table = {}
        for x in range(-12, 13):
            for y in range(-12, 13):
                sq = _mul(RingElem(x, y, t), RingElem(x, y, t))
                table.setdefault(sq, set()).add((x, y))
        for z, roots in table.items():
            got = set(sqrt_in_ring(z))
            # sqrt_in_ring returns one canonical root per +/- pair.
            assert {_mul(r, r) for r in got} == {z}
            for x, y in roots:
                assert RingElem(x, y, t) in got or RingElem(-x, -y, t) in got
        for re in range(-40, 41):
            for im in range(-40, 41):
                z = RingElem(re, im, t)
                want = [RingElem(x, y, t) for x, y in table.get(z, ())
                        if x > 0 or (x == 0 and y >= 0)]
                assert sqrt_in_ring(z) == want, z


# Two 31-digit primes: im/2 = P*Q is far beyond trial division.
_P = 1000000000000000000000000000057
_Q = 2000000000000000000000000000071


def test_sqrt_in_ring_large_planted_square():
    assert is_prime(_P) and is_prime(_Q)
    w = RingElem(_P, -_Q, 7)
    z = _mul(w, w)
    assert len(str(abs(z.re))) >= 60 and z.im == -2 * _P * _Q
    assert sqrt_in_ring(z) == [w]


def test_sqrt_in_ring_large_non_square():
    z = RingElem(_P * _P - 7 * _Q * _Q + 2, 2 * _P * _Q, 7)
    assert is_perfect_square(z.re**2 + 7 * z.im**2) is None
    assert sqrt_in_ring(z) == []


def test_sqrt_roundtrip_random():
    rng = random.Random(9)
    for _ in range(200):
        t = rng.randrange(0, 6)
        x = rng.randrange(-50, 51)
        y = 0 if t == 0 else rng.randrange(-50, 51)
        e = RingElem(x, y, t)
        sq = _mul(e, e)
        roots = sqrt_in_ring(sq)
        assert any(r in (e, RingElem(-x, -y, t)) for r in roots) or (x, y) == (0, 0) and roots == [e]


def test_check_tuple_fermat():
    r = check_tuple((1, 3, 8, 120), 1)
    assert r.verified
    assert r.failing_pair is None
    assert len(r.witnesses) == 6
    # 3*120 + 1 = 361 = 19^2
    assert r.witnesses[(1, 3)] == RingElem(19, 0, 0)


def test_check_tuple_ring_example():
    r = check_tuple((1, 5, -3, 65), -1, t=4)
    assert r.verified
    r2 = check_tuple((1, 2, 5), -1, t=1)
    assert r2.verified  # 1*2 - 1 = 1, 1*5 - 1 = 4, 2*5 - 1 = 9
    r3 = check_tuple((1, 2, 5), 1)
    assert not r3.verified
    assert r3.failing_pair == (0, 1)  # 1*2 + 1 = 3 is not a square


def test_check_tuple_rejects_degenerate_input():
    with pytest.raises(ValueError):
        check_tuple((1, 5, -3, 1), -1, t=4)  # duplicate
    with pytest.raises(ValueError):
        check_tuple((0, 3, 8), 1)


def test_check_tuple_needs_two_elements():
    # a tuple with no pair would check nothing, so it is refused, not verified
    for elements in ((), (5,), [RingElem(1, 2, 4)], (0,)):
        with pytest.raises(ValueError, match="^a tuple needs at least two elements"):
            check_tuple(elements, -1, 4)
    assert check_tuple((1, 2), -1, 4).verified  # 1*2 - 1 = 1


def test_check_tuple_rejects_mixed_ints_and_ring_elems():
    distinct, nonzero = "^tuple elements must be pairwise distinct$", "^tuple elements must be nonzero$"
    for elements, t, message in (
        ((5, RingElem(5, 0, 4)), 4, distinct),
        ((5, RingElem(5, 0, 4)), 9, distinct),  # an integer RingElem moves to t = 9
        ((RingElem(1, 2, 4), 3, RingElem(1, 2, 4)), 4, distinct),
        ((1, RingElem(0, 0, 4)), 4, nonzero),
        ((RingElem(0, 0, 4), 7), 0, nonzero),
        ((RingElem(0, 0, 4), 0, RingElem(0, 0, 4)), 4, nonzero),  # zero is checked first
    ):
        with pytest.raises(ValueError, match=message):
            check_tuple(elements, -1, t)
    # 5*sqrt(-4) and 5 have the parts (0, 5) and (5, 0): distinct, so checked
    assert not check_tuple((RingElem(0, 5, 4), 5), 1, 4).verified


def _sqrt_by_norm(z):
    """sqrt_in_ring as it was before the integer kernel: the root read off the norm."""
    t, re, im = z.t, z.re, z.im
    if t == 0:
        r = is_perfect_square(re)
        return [RingElem(r, 0, 0)] if r is not None else []
    nw = abs(re) if im == 0 else is_perfect_square(re * re + t * im * im)
    if nw is None or (nw + re) % 2:
        return []
    x = is_perfect_square((nw + re) // 2)
    ty2, rem = divmod((nw - re) // 2, t)
    y = is_perfect_square(ty2) if rem == 0 else None
    if x is None or y is None or 2 * x * y != abs(im):
        return []
    return [RingElem(x, y if im >= 0 else -y, t)]


def _check_tuple_per_pair(elements, n, t):
    """check_tuple's earlier route: each pair value built as a RingElem and
    handed to sqrt_in_ring, which must agree with _sqrt_by_norm."""
    elems = []
    for v in elements:
        if not isinstance(v, RingElem):
            v = RingElem(int(v), 0, t)
        elif v.im != 0 and v.t != t:
            raise ValueError(f"mixed rings: t={v.t} vs t={t}")
        elems.append(RingElem(v.re, v.im, t))
    elems = tuple(elems)
    if any((e.re, e.im) == (0, 0) for e in elems):
        raise ValueError("tuple elements must be nonzero")
    if len(set(elems)) != len(elems):
        raise ValueError("tuple elements must be pairwise distinct")
    witnesses = {}
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            p = _mul(elems[i], elems[j])
            val = RingElem(p.re + n, p.im, t)
            roots = sqrt_in_ring(val)
            assert roots == _sqrt_by_norm(val), val
            if not roots:
                return TupleReport(elems, n, t, False, witnesses, (i, j))
            witnesses[(i, j)] = roots[0]
    return TupleReport(elems, n, t, True, witnesses)


def _outcome(check, elements, n, t):
    try:
        r = check(elements, n, t)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (r.elements, r.n, r.t, r.verified, list(r.witnesses.items()), r.failing_pair,
            r.degenerate)


def _random_tuple(rng, t):
    """2-5 elements, ints and RingElems mixed; often a planted D(n)-tuple.

    With ac + n = r^2 and b = a + c + 2r, ab + n = (a + r)^2 and
    bc + n = (c + r)^2 in any commutative ring; a = 1 needs no division.
    For n = +-1 the extension d = a + b + c + 2n*abc +- 2*r*s*u adds a
    fourth element; this triple is regular, so one of the two d is 0.
    """
    def elem(lo, hi):
        return RingElem(rng.randint(lo, hi), 0 if t == 0 else rng.randint(lo, hi), t)

    def add(*zs):
        return RingElem(sum(z.re for z in zs), sum(z.im for z in zs), t)

    def scale(k, z):
        return RingElem(k * z.re, k * z.im, t)

    n = rng.randint(-5, 5)
    size = rng.randint(2, 5)
    if rng.random() < 0.6:
        one = RingElem(1, 0, t)
        r = elem(-30, 30)
        c = add(_mul(r, r), RingElem(-n, 0, t))
        b = add(one, c, scale(2, r))
        elems = [one, b, c]
        if n in (1, -1) and size >= 4:
            s, u = add(one, r), add(c, r)
            abc, rsu = _mul(b, c), _mul(_mul(r, s), u)
            ds = [add(one, b, c, scale(2 * n, abc), scale(2 * sg, rsu)) for sg in (1, -1)]
            elems.append(rng.choice([d for d in ds if (d.re, d.im) != (0, 0)] or ds))
        elems = elems[:size]
        while len(elems) < size:
            elems.append(elem(-50, 50))
        rng.shuffle(elems)
    else:
        elems = [elem(-50, 50) for _ in range(size)]
    out = []
    for e in elems:
        if e.im == 0 and rng.random() < 0.5:
            out.append(e.re if rng.random() < 0.7 else RingElem(e.re, 0, rng.choice(_RING_TS)))
        else:
            out.append(e)
    return out, n


def _real_tuple(rng, t):
    """2-4 rational integers, as ints or RingElems with im = 0 of any ring,
    and an n that mostly makes the first pair value a*c + n = -t*y^2: a
    negative square in Z[sqrt(-t)] when t > 0 and y > 0, never one at t = 0."""
    a, c = (rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(2))
    if rng.random() < 0.7:
        n = -t * rng.randint(0, 30) ** 2 - a * c
    else:
        n = rng.randint(-60, 60)
    elems = [a, c] + [rng.randint(-60, 60) for _ in range(rng.randint(0, 2))]
    return [e if rng.random() < 0.5 else RingElem(e, 0, rng.choice(_RING_TS)) for e in elems], n


_RING_TS = (0, 1, 2, 3, 4, 7, 9, 25)
_REJECTIONS = ("tuple elements must be nonzero", "tuple elements must be pairwise distinct")


def test_check_tuple_matches_per_pair_route():
    rng = random.Random(1717)
    kinds = {True: 0, False: 0, "ValueError": 0}
    for _ in range(2400):
        t = rng.choice(_RING_TS)
        elements, n = _random_tuple(rng, t)
        want = _outcome(_check_tuple_per_pair, elements, n, t)
        assert _outcome(check_tuple, elements, n, t) == want, (elements, n, t)
        if want[0] == "ValueError":
            assert want[1] in _REJECTIONS, want
            kinds["ValueError"] += 1
        else:
            kinds[want[3]] += 1
    assert kinds[True] >= 600 and kinds[False] >= 600 and kinds["ValueError"] >= 10, kinds
    # rational-integer tuples, whose pairs check_tuple decides on v = a*c + n
    # alone: negative pair values that are -t*y^2 in a ring t = m^2 or t not
    # a square, and negative values at t = 0, where none is a square
    negative = {"root": 0, "fails at t = 0": 0, "fails at t > 0": 0}
    for _ in range(2400):
        t = rng.choice(_RING_TS)
        elements, n = _real_tuple(rng, t)
        want = _outcome(_check_tuple_per_pair, elements, n, t)
        assert _outcome(check_tuple, elements, n, t) == want, (elements, n, t)
        if want[0] == "ValueError":
            continue
        elems, witnesses, pair = want[0], dict(want[4]), want[5]
        negative["root"] += sum(w.re == 0 and w.im > 0 for w in witnesses.values())
        if pair is not None and elems[pair[0]].re * elems[pair[1]].re + n < 0:
            negative["fails at t = 0" if t == 0 else "fails at t > 0"] += 1
    assert min(negative.values()) >= 100, negative


def test_check_tuple_matches_per_pair_route_on_prop_traffic():
    # the ring-tuples workload's calls: every prop_family branch, as integers
    # in each subring t = m^2 with m | n, and as the RingElems prop_family
    # returns in Z[sqrt(-n^2)].  Each verified quadruple {1, b, -c, d} also
    # gets a failing pair planted first (1*(b+1) - 1 = n^2 + 1), in the
    # middle (1*(d+1) - 1 = d = w1^2 + 1) and last (-c_j * -c_(j+1) - 1, no
    # square for any n, j here; {1, b, -c_(j+1)} is a D(-1)-triple)
    checked = 0
    planted = {(0, 1): 0, (0, 3): 0, (2, 3): 0}
    for n in range(1, 13):
        ms = [m for m in range(1, n + 1) if n % m == 0]
        for j in range(1, 5):
            c_next = -prop_family(n, j + 1, 1)[0].elements[2].re
            cases = []
            for rep in prop_family(n, j, 1):
                one, b, minus_c, d = ints = [e.re for e in rep.elements]
                cases += [(rep.elements, n * n, rep, None)]
                cases += [(ints, m * m, rep, None) for m in ms]
                if rep.verified:
                    cases += [(elements, m * m, rep, pair) for m in ms for elements, pair in (
                        ((one, b + 1, minus_c, d), (0, 1)),
                        ((one, b, minus_c, d + 1), (0, 3)),
                        ((one, b, minus_c, -c_next), (2, 3)))]
            for elements, t, rep, pair in cases:
                want = _outcome(_check_tuple_per_pair, elements, -1, t)
                assert _outcome(check_tuple, elements, -1, t) == want, (elements, t)
                if want[0] == "ValueError":
                    assert rep.degenerate and pair is None and want[1] in _REJECTIONS, want
                elif pair is not None:
                    assert not want[3] and want[5] == pair, (elements, t, want[5])
                    planted[pair] += 1
                else:
                    checked += want[3]
    assert checked > 300
    assert min(planted.values()) > 150, planted


def test_tuple_report_is_a_slotted_value():
    for r in (check_tuple((1, 3, 8, 120), 1), check_tuple((1, 2, 5), 1),
              prop_family(1, 1, 1)[0]):
        assert not hasattr(r, "__dict__")
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r)),
                     r._replace()):
            assert type(twin) is TupleReport and twin == r
        assert r._replace(degenerate=not r.degenerate) != r


def test_reports_of_one_length_share_their_pair_keys():
    zring._pair_keys.cache_clear()
    a = check_tuple((1, 3, 8, 120), 1)
    b = check_tuple((1, 5, -3, 65), -1, t=4)
    assert list(a.witnesses) == list(combinations(range(4), 2)) == list(b.witnesses)
    assert all(ka is kb for ka, kb in zip(a.witnesses, b.witnesses))
    failed = check_tuple((1, 3, 8, 121), 1)  # 1*121 + 1 = 122
    assert failed.failing_pair == (0, 3) and failed.failing_pair is list(a.witnesses)[2]
    assert all(ka is kf for ka, kf in zip(a.witnesses, failed.witnesses))
    assert zring._pair_keys.cache_info().misses == 1


def test_pair_keys_hold_one_entry_per_tuple_length():
    keys = zring._pair_keys
    keys.cache_clear()
    for k in range(2, 6):
        check_tuple(range(1, k + 1), -1, 1)
    assert keys.cache_info().currsize == 4
    rng = random.Random(31)
    for _ in range(1000):
        t = rng.choice(_RING_TS)
        elements, n = _random_tuple(rng, t)
        try:
            check_tuple(elements, n, t)
        except ValueError:
            pass
    info = keys.cache_info()
    assert (info.misses, info.currsize) == (4, 4) and info.hits > 0
    for k in range(2, 6):
        assert keys(k) == tuple(combinations(range(k), 2))
    assert keys.cache_info().misses == 4
    # once more lengths are checked than the memo's bound, it keeps the most
    # recent ones; squares form a D(0)-tuple, so every pair is walked
    maxsize = keys.cache_parameters()["maxsize"]
    for k in range(2, maxsize + 4):
        assert check_tuple([i * i for i in range(1, k + 1)], 0, 1).verified
    assert keys.cache_info().currsize == maxsize
    longest = [check_tuple([i * i for i in range(1, maxsize + 4)], 0, 1) for _ in range(2)]
    assert all(ka is kb for ka, kb in zip(*(r.witnesses for r in longest)))


def test_lemma3_extension_examples():
    ext = lemma3_extend_data(1, 2, 5, -1, 1, 2, 3)
    assert (ext.x * ext.x, ext.y * ext.y, ext.z * ext.z) == (
        1 * ext.e + 1,
        2 * ext.e + 1,
        5 * ext.e + 1,
    )
    ext2 = lemma3_extend_data(1, 3, 8, 1, 2, 3, 5)
    assert ext2.x * ext2.x == 1 * ext2.e + 1
    assert ext2.y * ext2.y == 3 * ext2.e + 1
    assert ext2.z * ext2.z == 8 * ext2.e + 1
    # regular triples c = a + b + 2r have e = 0; these have e != 0 and |l| = 2
    assert lemma3_extend_data(1, 3, 66, -2, 1, 8, 14) == (32, 6, 10, -46)
    assert lemma3_extend_data(1, 2, 287, 2, 2, 17, 24) == (96, -10, -14, 166)


def test_lemma3_rejects_inconsistent_witnesses():
    with pytest.raises(ValueError):
        lemma3_extend_data(1, 2, 5, -1, 1, 2, 4)  # 2*5 - 1 != 4^2
    for c in (4, 6):  # a mutated c
        with pytest.raises(ValueError):
            lemma3_extend_data(1, 2, c, -1, 1, 2, 3)


def test_lemma3_rejects_l_zero():
    # a D(0) triple: 1*4, 1*9 and 4*9 are squares, but e/l is undefined
    with pytest.raises(ValueError, match="l must be nonzero"):
        lemma3_extend_data(1, 4, 9, 0, 2, 3, 6)


def test_lemma3_random_triples():
    rng = random.Random(21)
    checked = 0
    for _ in range(2000):
        a = rng.randrange(1, 60)
        b = rng.randrange(1, 60)
        if a == b:
            continue
        for l in range(-10, 11):
            if l == 0:
                continue
            ab = a * b + l
            if ab <= 0:
                continue
            r = int(ab**0.5)
            if r * r != ab or r == 0:
                continue
            c = a + b + 2 * r
            if c in (a, b) or c == 0:
                continue
            s2 = a * c + l
            t2 = b * c + l
            s = int(s2**0.5)
            tt = int(t2**0.5)
            if s * s != s2 or tt * tt != t2:
                continue
            ext = lemma3_extend_data(a, b, c, l, r, s, tt)
            assert a * ext.e + l * l == ext.x * ext.x
            assert b * ext.e + l * l == ext.y * ext.y
            assert c * ext.e + l * l == ext.z * ext.z
            checked += 1
    assert checked > 50


def test_prop_family_first_cases():
    plus, minus = prop_family(2, 1, 1)
    assert [e.re for e in plus.elements] == [1, 5, -3, 65]
    assert plus.verified and not plus.degenerate
    # d_minus collapses to 1 at j = 1: flagged degenerate, not a quadruple.
    assert minus.degenerate
    plus2, minus2 = prop_family(2, 2, 1)
    assert [e.re for e in plus2.elements] == [1, 5, -1155, 20737]
    assert plus2.verified
    assert minus2.verified and not minus2.degenerate


def test_prop_family_reports_equal_check_tuple_on_the_ring_tuples_grid():
    # prop_family builds each report from its six closed-form pair roots;
    # check_tuple takes every root by isqrt and must give the same report in
    # Z[sqrt(-n^2)], pair keys in the same order.  A branch is flagged
    # degenerate exactly when check_tuple refuses its elements.
    counts = {"verified": 0, "degenerate": 0}
    for n in range(1, 61):
        for j in range(1, 11):
            for sign, rep in zip("+-", prop_family(n, j, 1)):
                ints = [e.re for e in rep.elements]
                assert rep.elements == tuple(RingElem(e, 0, n * n) for e in ints)
                if rep.degenerate:
                    with pytest.raises(ValueError, match="|".join(_REJECTIONS)):
                        check_tuple(ints, -1, n * n)
                    assert rep == TupleReport(rep.elements, -1, n * n, False, {}, degenerate=True)
                    counts["degenerate"] += 1
                    continue
                want = check_tuple(ints, -1, n * n)
                assert rep == want and list(rep.witnesses) == list(want.witnesses), (n, j, sign)
                counts["verified"] += rep.verified
    assert counts["verified"] + counts["degenerate"] == 1200 and counts["degenerate"] >= 60, counts


def test_prop_family_various_n_j():
    for n in (2, 3, 4):
        for j in (1, 2, 3):
            plus, minus = prop_family(n, j, 1)
            assert plus.verified
            assert [e.re for e in plus.elements][:2] == [1, n * n + 1]
            if not minus.degenerate:
                assert minus.verified
            # Re-verify in the subring given by a divisor m of n.
            ints = [e.re for e in plus.elements]
            for m in range(1, n + 1):
                if n % m:
                    continue
                plus_m, _ = prop_family(n, j, m)
                assert plus_m.verified
                assert plus_m.elements[0].t == n * n
                assert check_tuple(ints, -1, t=m * m).verified


def test_pell_xy_matches_solution_stream():
    # the closed form against the general solver's stream of y^2 - (n^2+1)x^2 = -1
    for n in range(1, 41):
        stream = islice(all_solutions_stream(PellianProblem(n * n + 1, -1)), 10)
        assert [_pell_xy(n, j) for j in range(1, 11)] == [(x, y) for y, x in stream], n


def test_quadruple_family_runs_no_solver(monkeypatch):
    def no_solver(*args):
        raise AssertionError("general solver called")

    for name in ("solve_complete", "solve_brute", "all_solutions_stream"):
        monkeypatch.setattr(pellian, name, no_solver)
    pellian.case2_residue_search.cache_clear()
    for n in (2, 3, 9, 40):
        for j in (1, 2, 8):
            plus, minus = prop_family(n, j, 1)
            assert plus.verified and (minus.verified or minus.degenerate)
    for p, k, q, l_exp in ((5, 1, 3, 1), (41, 1, 3, 2)):
        for e in range(2**l_exp + 1):
            status = theorem3_classify(p, k, q, l_exp, q**e).status
            assert status == (EXISTS_INFINITE if e % 2 == 0 else NONE)
    assert harness.run_claim("prop26", harness.SweepConfig()).status == harness.CONFIRMED
    pellian.case2_residue_search.cache_clear()


def test_prop_family_degenerate_only_at_j1():
    for n in (2, 3, 5):
        _, minus = prop_family(n, 1, 1)
        assert minus.degenerate
        for j in (2, 3):
            _, minus_j = prop_family(n, j, 1)
            assert not minus_j.degenerate


def test_find_admissible_pairs_matches_is_prime_scan():
    # the search as it was before the sieve: is_prime on every odd p
    oracle = []
    for p in range(3, 3001, 2):
        if not is_prime(p):
            continue
        for k in (1, 2, 4):
            v, e = zring._sqrt_chain(2 * p**k - 1)
            if e >= 1 and v > 2 and is_prime(v):
                oracle.append((p, k, v, e))
    assert find_admissible_pairs(3000) == sorted(oracle)


def test_find_admissible_pairs():
    got = find_admissible_pairs(50)
    # Every returned (p, k, q, l) satisfies 2 p^k = q^(2^l) + 1 with p, q prime.
    for p, k, q, l in got:
        assert 2 * p**k == q ** (2**l) + 1
    assert (5, 1, 3, 1) in got
    assert (5, 2, 7, 1) in got
    assert (13, 4, 239, 1) in got
    assert (29, 2, 41, 1) in got
    assert (41, 1, 3, 2) in got
    # (13, 1, 5, 1) also qualifies: 2*13 = 5^2 + 1.
    assert (13, 1, 5, 1) in got
    assert len(got) == 6


def test_remark2_reduction():
    prob = remark2_reduction(10, 3)
    assert prob == PellianProblem(10, -3)
    assert remark2_reduction(1682, 41) == PellianProblem(1682, -41)
    with pytest.raises(ValueError):
        remark2_reduction(10, 4)  # t must divide b - 1


@pytest.mark.parametrize("call, args, message", [
    (prop_family, (0, 1, 1), "need positive n, j and m | n"),
    (prop_family, (2, 0, 1), "need positive n, j and m | n"),
    (prop_family, (4, 1, 3), "need positive n, j and m | n"),
    (remark2_reduction, (10, 0), "t must be positive"),
    (theorem3_classify, (5, 1, 9, 1, 1), "p and q must be odd primes"),
])
def test_zring_input_errors(call, args, message):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert message in str(exc.value)


def test_theorem3_classify_cases():
    assert theorem3_classify(5, 1, 3, 1, 2).status == NONE
    r3 = theorem3_classify(5, 1, 3, 1, 3)
    assert r3.status == NONE
    assert r3.certificate is not None
    r9 = theorem3_classify(5, 1, 3, 1, 9)
    assert r9.status == EXISTS_INFINITE
    assert r9.witness is not None
    assert theorem3_classify(5, 1, 3, 1, 27).status == UNDECIDED_BY_PAPER
    assert theorem3_classify(5, 1, 3, 1, 5).status == UNDECIDED_BY_PAPER
    assert theorem3_classify(41, 1, 3, 2, 3).status == NONE
    assert theorem3_classify(41, 1, 3, 2, 81).status == EXISTS_INFINITE


@pytest.mark.parametrize("pair, t", [((5, 1, 3, 1), 1), ((5, 1, 3, 1), 9),
                                     ((41, 1, 3, 2), 1), ((41, 1, 3, 2), 9),
                                     ((41, 1, 3, 2), 81)])
def test_theorem3_witness_checked_in_its_ring(pair, t):
    # the witness of Z[sqrt(-t)] is checked in Z[sqrt(-t)], not in the
    # subring Z[sqrt(-n^2)] its quadruple comes from
    res = theorem3_classify(*pair, t)
    assert res.status == EXISTS_INFINITE
    assert res.witness.t == t and res.witness.verified
    assert all(e.t == t for e in res.witness.elements)


def test_theorem3_none_backed_by_unsolvable_reduction():
    for (p, k, q, l_exp), t in (((5, 1, 3, 1), 3), ((41, 1, 3, 2), 3), ((41, 1, 3, 2), 27)):
        res = theorem3_classify(p, k, q, l_exp, t)
        assert res.status == NONE
        prob = remark2_reduction(2 * p**k, t)
        assert solve_complete(prob).verdict == UNSOLVABLE


def test_theorem3_validation():
    with pytest.raises(ValueError):
        theorem3_classify(5, 1, 3, 1, 0)
    with pytest.raises(ValueError):
        theorem3_classify(7, 1, 3, 1, 3)  # 2*7 != 3^2 + 1
    # 2*3 = 5^(2^0) + 1, but the theorem needs l >= 1
    with pytest.raises(ValueError, match="l_exp must be >= 1"):
        theorem3_classify(3, 1, 5, 0, 1)


def test_theorem3_power_check_matches_power():
    # the square-root chain accepts exactly the 2p^k = q^(2^l_exp) + 1, eight on
    # this grid, among them (5, 1, 3, 1), (41, 1, 3, 2), (5, 2, 7, 1), (29, 2, 41, 1)
    accepted = 0
    primes = [p for p in range(3, 400, 2) if is_prime(p)]
    for q in (p for p in primes if p < 50):
        for l_exp in range(1, 5):
            for p in primes:
                for k in range(1, 4):
                    equal = 2 * p**k == q ** (2**l_exp) + 1
                    try:
                        theorem3_classify(p, k, q, l_exp, q)
                    except ValueError as exc:
                        assert not equal and str(exc) == f"2*{p}^{k} != {q}^(2^{l_exp}) + 1"
                    else:
                        assert equal, (p, k, q, l_exp)
                        accepted += 1
    assert accepted == 8


def test_theorem3_power_check_fails_fast():
    # 3^(2^22) has 6.6 million bits; the check must reject 2*5 without building it
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^2\*5\^1 != 3\^\(2\^22\) \+ 1$"):
        theorem3_classify(5, 1, 3, 22, 1)
    assert time.perf_counter() - start < 0.1


def test_integer_quadruple_search_empty_cases():
    assert integer_quadruple_search(2, 2000) == []
    assert integer_quadruple_search(5, 2000) == []
    assert integer_quadruple_search(10, 2000) == []
    # no c = x^2 + 1 with x >= 1 lies below 2, so there is no pair to check
    for c_max in (-5, 0, 1):
        with pytest.raises(ValueError, match=rf"^c_max={c_max} leaves b=5 "):
            integer_quadruple_search(5, c_max)


def test_integer_quadruple_search_needs_a_pair():
    # the first c with 57122*c - 1 a square is 56645; the second is 57601
    with pytest.raises(ValueError, match=r"^c_max=10000 leaves b=57122 "):
        integer_quadruple_search(57122, 10**4)
    with pytest.raises(ValueError, match=r"^c_max=57600 leaves b=57122 "):
        integer_quadruple_search(57122, 57600)
    assert _third_elements(57122, 10**5) == [56645, 57601]
    assert integer_quadruple_search(57122, 10**5) == []


def test_integer_quadruple_search_validation():
    with pytest.raises(ValueError):
        integer_quadruple_search(0, 100)
    # {1, 1} is no pair, though 1 - 1 is a square
    with pytest.raises(ValueError, match=r"^b=1 "):
        integer_quadruple_search(1, 30)


def _scan_third_elements(b, c_max):
    """The c = x^2 + 1 <= c_max, c != b, with bc - 1 a square, by scanning every
    x <= isqrt(c_max - 1): the search before it read the Pell stream (oracle)."""
    cands = []
    for x in range(1, isqrt(c_max - 1) + 1):
        c = x * x + 1
        if c == b or c > c_max:
            continue
        if is_perfect_square(b * c - 1) is not None:
            cands.append(c)
    return cands


def test_third_elements_match_scan():
    # every D(-1)-pair {1, r^2 + 1} with r < 200, and the tm-ii-1-desk b = 2p^k
    # (1682 and 57122 among them)
    tm_bs = [2 * p**k for p, k, _, _ in find_admissible_pairs(50)]
    assert {1682, 57122} <= set(tm_bs)
    for b in sorted({r * r + 1 for r in range(1, 200)} | set(tm_bs)):
        scan = _scan_third_elements(b, 10**8)
        for c_max in (2, 5, 10, 10**4, 10**6, 10**8):
            assert _third_elements(b, c_max) == [c for c in scan if c <= c_max], (b, c_max)


def test_third_elements_reach_planted_triple():
    # (y, x) = 2 * (9 + 4*sqrt(5))^j solves y^2 - 5x^2 = 4, so c = x^2 + 1 makes
    # {1, 5, c} a D(-1)-triple; j = 24 puts c near 10^60
    y, x = 2, 0
    for _ in range(24):
        y, x = 9 * y + 20 * x, 4 * y + 9 * x
    c = x * x + 1
    assert 10**59 < c < 10**61
    assert check_tuple((1, 5, c), -1).verified
    assert _third_elements(5, c)[-1] == c
    assert c in _third_elements(5, 10**61)
