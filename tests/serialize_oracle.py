"""Reference JSON encoders for exact values.

The field-by-field encoders that the CLI called before ``serialize.dumps``
wrote Fractions itself: an integral rational as an int, any other as the
string "p/q", and an ``IntMat`` or ``RatMat`` as nested lists.
``encode`` applies them through nested dicts, lists and tuples, so that
``json.dumps(encode(x), indent=2)`` is the text ``dumps(x)`` must print.
Nothing here shares code with the package.
"""

import contextlib
import sys
from fractions import Fraction


@contextlib.contextmanager
def no_digit_cap():
    """Lift Python's cap on int-to-str conversion inside this block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def rational_to_json(x):
    if x.denominator == 1:
        return int(x)
    with no_digit_cap():
        return f"{x.numerator}/{x.denominator}"


def intmat_to_json(m) -> list:
    return [list(row) for row in m.entries]


def ratmat_to_json(m) -> list:
    return [[rational_to_json(e) for e in row] for row in m.entries]


def encode(x):
    """x with every Fraction encoded and every tuple a list."""
    if isinstance(x, Fraction):
        return rational_to_json(x)
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    return x
