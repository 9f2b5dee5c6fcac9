"""The class walk keyed on the signed m, kept verbatim, uncached, as the
oracle of pellian's sign-free walk memo: _pqa_first_hit(d, z, m) here is
the hit of norm m that pellian._pqa_first_hit(d, z, |m|) and
pellian._generator_hit give together."""
from __future__ import annotations

from pelltuples.arith import isqrt
from pelltuples.contfrac import last_denominators, walk
from pelltuples.pellian import _negative_unit


def _pqa_first_hit(d: int, z: int, m: int) -> tuple[int, int] | None:
    """A (G, B), B > 0, with G^2 - d*B^2 = m in the class of root z or of
    root |m| - z (the conjugate class), for m | z^2 - d; None if none.

    Walks A of (z + sqrt(d))/|m| and B of (|m| - z + sqrt(d))/|m| take a row
    each in turn, and the first row with |t| = 1 settles (_generator_hit).
    Both start from the element |m| of the ideal I of root z: A passes the
    minima of I whose conjugate is below |m|, B (conjugated) those below |m|
    themselves, no minimum tops |m| on both sides, and a principal I has a
    generator, |t| = 1, among them.  alpha -> -1/conj(alpha), (s_{i+1},
    t_{i+1}) -> (s_{i+1}, t_i), runs A's cycle of reduced ideals backwards
    as B's, so B's state mirrors A's newest only once the two arcs close
    the cycle, and I is then not principal.  z = -z (mod |m|) and d = f^2 + 1,
    whose principal cycle is the one state (f, 1), take one walk alone.
    """
    m_abs, f = abs(m), isqrt(d)
    if not 0 < 2 * z < m_abs or d == f * f + 1:
        quots = []
        for a, s, t in walk(d, z, m_abs):
            quots.append(a)
            if abs(t) == 1:
                return _generator_hit(d, m, quots, s, t)
        return None
    quots_a, quots_b, t_a, state_b = [], [], m_abs, None
    for (a, s, t), (b, s_b, t_b) in zip(walk(d, z, m_abs), walk(d, m_abs - z, m_abs)):
        quots_a.append(a)
        quots_b.append(b)
        if abs(t) == 1:
            return _generator_hit(d, m, quots_a, s, t)
        if abs(t_b) == 1:
            return _generator_hit(d, m, quots_b, s_b, t_b)
        # B's state before or after its row mirrors A's newest
        mirror, t_a = (s, t_a), t
        if mirror in (state_b, (s_b, t_b)):
            return None
        state_b = s_b, t_b
    return None


def _generator_hit(d: int, m: int, quots: list[int], s: int, t: int) -> tuple[int, int] | None:
    """The hit, B > 0, of the walk row (a_i, s, t), |t| = 1, after quotients
    quots = [a_0, ..., a_i]: theta = G + q_i*sqrt(d), G = s*q_i + t*q_{i-1},
    of norm (-1)^(i+1) * t * |m| (Robertson) if that is m, else theta times
    the unit of norm -1; None if there is none."""
    q1, q = last_denominators(quots)
    g = s * q + t * q1
    if (t if len(quots) % 2 == 0 else -t) * abs(m) != m:
        unit = _negative_unit(d)
        if unit is None:
            return None
        x, y = unit
        g, q = g * x + d * q * y, g * y + q * x
    return (g, q) if q > 0 else (-g, -q)
