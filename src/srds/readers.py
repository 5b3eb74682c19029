"""One set of value readers: the one rule for what counts as an integer, a
finite number, a flag or a list of them.

Config blocks, experiment and suite parameters and the library's
constructors all read their values here, so the library refuses what the
command line refuses, with the same message.  An integer is an int or a
numpy integer; a number is an int, a float or a numpy float no wider than
float64, and finite; neither is ever a bool (int() and float() would read
true as 1).  Bounds are ``least`` (inclusive), ``above`` (exclusive) and
``below`` (exclusive, the rng key ranges).  Each reader raises ValueError
naming the argument and the value it got.  An integer is returned as a
Python int, and a number as a float, ints included, so that equal values
(8, 8.0, a numpy 8) are stored, recorded, hashed and dumped alike.  The
number in a named rule ("power:2") is a bare JSON number literal, read by
``read_numeral``.

This module imports nothing from srds: every layer reads through it.
"""

from __future__ import annotations

import json
import re
import sys

import numpy as np

_LARGEST = sys.float_info.max
# a JSON number literal: no sign +, spaces, digit-group underscores, nan or
# inf, all of which float() reads
_NUMERAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _bounded(key: str, value, least, above, below):
    """``value``, unless it is below ``least``, not above ``above`` or not
    below ``below``."""
    if least is not None and not value >= least:
        raise ValueError(f"{key} must be >= {least}, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"{key} must be > {above}, got {value!r}")
    if below is not None and not value < below:
        raise ValueError(f"{key} must be < {below}, got {value!r}")
    return value


def _python(value):
    """``value``, a numpy scalar as the equal Python one (a numpy integer as
    an int, a float64 or narrower float as a float)."""
    return value.item() if isinstance(value, np.generic) else value


def read_integer(key: str, value, least: int | None = None,
                 below: int | None = None) -> int:
    """``value``, an integer in [least, below), as an int: int() would
    truncate a float such as 8.7, and a count of zero would let a check
    pass on no samples."""
    if type(value) is not int:  # the common case first: a run reads its values per member
        value = _python(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    return _bounded(key, value, least, None, below)


def read_number(key: str, value, least=None, above=None) -> float:
    """``value``, a finite number of at least ``least`` and above ``above``,
    as a float: float() alone would read the string "2" or true, and an int
    kept an int would record and hash 8 unlike 8.0."""
    if type(value) is not float:  # the common case first, as above
        value = _python(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a finite number, got {value!r}")
    # NaN compares false, and so does an int beyond the largest float
    if not abs(value) <= _LARGEST:
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(_bounded(key, value, least, above, None))


def read_numeral(key: str, text: str, least=None, above=None) -> float:
    """The number that ``text``, a bare JSON number literal, spells, as
    ``read_number`` reads it: the number of a named rule ("power:2"), which
    float() would read from "0_1" as 1 or from " 2 " as 2; other text is
    refused as ``read_number`` refuses a string."""
    return read_number(key, json.loads(text) if _NUMERAL.fullmatch(text) else text,
                       least, above)


def read_flag(key: str, value) -> bool:
    """``value``, a boolean: a string such as "false" would be read by its
    truthiness."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def read_list(key: str, values, read, size: int | None = None, **bounds) -> list:
    """``values``, a list (or a tuple) of ``size`` entries, if given, each
    of which ``read`` (``read_integer`` or ``read_number``) accepts within
    ``bounds``: a string would be iterated per character, and a list of
    another length read past its end or ignored entries."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {values!r}")
    if size is not None and len(values) != size:
        raise ValueError(f"{key} must hold {size} entries, got {len(values)}")
    return [read(f"{key}[{i}]", v, **bounds) for i, v in enumerate(values)]
