"""Fractional linear maps on P^1 over Q(s), in homogeneous coordinates.

A polynomial in s is a tuple of coefficients, constant term first, with no
trailing zero; () is the zero polynomial.  A point of P^1 is a pair (u, v)
of polynomials, not both zero, meaning u/v; v = () is the point at
infinity.  An image is reduced once: the gcd of its two coordinates is
divided out and the second coordinate made monic, so each point has one
representative and infinity is ((1,), ()).
"""

from __future__ import annotations

from fractions import Fraction


def _trim(coeffs) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _add(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return _trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def _mul(p: tuple, q: tuple) -> tuple:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _trim(out)


def _divmod(p: tuple, q: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of p by a nonzero q."""
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quot))):
        quot[k] = c = rem[k + len(q) - 1] / q[-1]
        for j, y in enumerate(q):
            rem[k + j] -= c * y
    return _trim(quot), _trim(rem)


def _reduce(u: tuple, v: tuple) -> tuple[tuple, tuple]:
    g, r = u, v
    while r:
        g, r = r, _divmod(g, r)[1]
    u, v = _divmod(u, g)[0], _divmod(v, g)[0]
    lead = (v or u)[-1]
    return tuple(c / lead for c in u), tuple(c / lead for c in v)


def mobius_images(prefactor, abcd, points) -> list:
    """Images of points of P^1 over Q(s) under z -> P*(a*z+b)/(c*z+d).

    The prefactor P is a pair (Pn, Pd) meaning Pn/Pd, and abcd holds four
    polynomials.  The image of (u, v) is (Pn*(a*u+b*v), Pd*(c*u+d*v)),
    reduced.  Degenerate maps (a*d - b*c = 0, or a zero prefactor or
    prefactor denominator) and the point (0, 0) are rejected.
    """
    pn, pd = map(_trim, prefactor)
    a, b, c, d = map(_trim, abcd)
    if not _add(_mul(a, d), _mul(_mul(b, c), (-1,))):
        raise ValueError("degenerate fractional linear map: a*d - b*c = 0")
    if not pn:
        raise ValueError("degenerate map: zero prefactor")
    if not pd:
        raise ValueError("zero prefactor denominator")
    images = []
    for u, v in points:
        u, v = _trim(u), _trim(v)
        if not (u or v):
            raise ValueError("(0, 0) is not a point of P^1")
        images.append(_reduce(
            _mul(pn, _add(_mul(a, u), _mul(b, v))), _mul(pd, _add(_mul(c, u), _mul(d, v)))
        ))
    return images


def _poly_str(p: tuple) -> str:
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "s" if i == 1 else f"s^{i}"
            parts.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(parts) or "0"


def render(point) -> str:
    """A reduced point as text: u, (u)/(v), or INFINITY."""
    u, v = point
    if not v:
        return "INFINITY"
    return _poly_str(u) if v == (1,) else f"({_poly_str(u)})/({_poly_str(v)})"
