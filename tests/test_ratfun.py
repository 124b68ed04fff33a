from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from evenlat.ratfun import _divmod, mobius_images, render

S, ONE = (0, 1), (1,)
INF = ((1,), ())
# z -> (s + s^3)/2 * (z - s)/(s*z - 1), the map of Theorem 4.5
PREFACTOR = ((0, 1, 0, 1), (2,))
ABCD = (ONE, (0, -1), S, (-1,))

POLY = st.lists(st.integers(-3, 3), max_size=3).map(tuple)
NONZERO = POLY.filter(any)
# rational sample values of s; five or more distinct values pin a
# polynomial of degree at most 4
SAMPLES = [Fraction(k, 3) for k in range(-7, 8)]


def _at(p, s):
    return sum(c * s**i for i, c in enumerate(p))


def _times(p, q):
    return tuple(
        sum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q))
        for k in range(len(p) + len(q) - 1)
    )


def _reference(prefactor, abcd, point, s):
    """The map evaluated at s over Q with Fractions: z = u(s)/v(s), then
    P(s)*(a z + b)/(c z + d); None is infinity."""
    a, b, c, d = (_at(p, s) for p in abcd)
    u, v = (_at(p, s) for p in point)
    num, den = (a, c) if v == 0 else (a * u / v + b, c * u / v + d)
    return None if den == 0 else _at(prefactor[0], s) / _at(prefactor[1], s) * num / den


class TestPolyArithmetic:
    def test_gcd_normalization(self):
        # (s^2 - 1)/(2s + 2) is reduced to (s - 1)/2 with a monic denominator
        image, = mobius_images((ONE, ONE), (ONE, (), (), ONE), [((-1, 0, 1), (2, 2))])
        assert image == ((Fraction(-1, 2), Fraction(1, 2)), (1,))

    def test_divmod(self):
        assert _divmod((1, 0, 1), S) == (S, (1,))


class TestMobius:
    def test_branch_point_images(self):
        points = [(S, ONE), ((0, -1), ONE), ((-1,), S), (ONE, S)]
        images = mobius_images(PREFACTOR, ABCD, points)
        q = Fraction(1, 4)
        assert images == [((), ONE), ((0, 0, 1), ONE), ((q, 0, 2 * q, 0, q), ONE), INF]
        assert list(map(render, images)) == ["0", "s^2", "1/4 + 1/2*s^2 + 1/4*s^4", "INFINITY"]

    def test_infinity_input(self):
        # z -> prefactor * a/c = (1 + s^2)/2 as z -> infinity
        images = mobius_images(PREFACTOR, ABCD, [INF])
        assert images == [((Fraction(1, 2), 0, Fraction(1, 2)), ONE)]

    def test_render_of_a_fraction(self):
        assert render(((-1, 0, 3), (2, 1))) == "(-1 + 3*s^2)/(2 + s)"

    def test_degenerate_map_rejected(self):
        with pytest.raises(ValueError, match="a\\*d - b\\*c = 0"):
            mobius_images((ONE, ONE), (ONE, ONE, ONE, ONE), [(ONE, ONE)])
        with pytest.raises(ValueError, match="zero prefactor"):
            mobius_images(((), ONE), ABCD, [(S, ONE)])
        with pytest.raises(ValueError, match="zero prefactor denominator"):
            mobius_images((ONE, ()), ABCD, [(S, ONE)])
        with pytest.raises(ValueError, match="not a point"):
            mobius_images(PREFACTOR, ABCD, [((), ())])

    def test_inverse_round_trip(self):
        # w = (Pn/Pd)*(a z + b)/(c z + d)  =>  z = (d Pd w - b Pn)/(-c Pd w + a Pn)
        points = [(S, ONE), ((0, -1), ONE), ((0, 0, 1), ONE), ((7,), ONE), (ONE, (2, 1)), INF]
        images = mobius_images(PREFACTOR, ABCD, points)
        inverse = ((-2,), (0, 0, 1, 0, 1), (0, -2), (0, 1, 0, 1))
        assert mobius_images((ONE, ONE), inverse, images) == points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    prefactor=st.tuples(NONZERO, NONZERO),
    abcd=st.tuples(POLY, POLY, POLY, POLY),
    point=st.tuples(POLY, POLY).filter(lambda p: any(p[0]) or any(p[1])),
    scale=NONZERO,
)
def test_matches_fraction_reference(prefactor, abcd, point, scale):
    """The reduced image agrees with the map evaluated over Q at every
    sample s where the prefactor, a*d - b*c and the point are defined and
    nonzero; its second coordinate is monic (infinity is ((1,), ())); and
    scaling the point by a nonzero polynomial gives the identical pair."""
    a, b, c, d = abcd
    det = [_at(a, s) * _at(d, s) - _at(b, s) * _at(c, s) for s in SAMPLES]
    assume(any(det))
    u, v = point
    image, again = mobius_images(prefactor, abcd, [point, (_times(u, scale), _times(v, scale))])
    assert again == image
    top, bottom = image
    assert bottom[-1] == 1 if bottom else top == (1,)
    for s, dets in zip(SAMPLES, det):
        if dets == 0 or _at(prefactor[0], s) == 0 or _at(prefactor[1], s) == 0:
            continue
        if _at(u, s) == 0 and _at(v, s) == 0:
            continue
        want = _reference(prefactor, abcd, point, s)
        assert (None if _at(bottom, s) == 0 else _at(top, s) / _at(bottom, s)) == want
