"""The Osgood modulus and its numeric Yamada-Watanabe mollifier families.

The modulus of the uniqueness argument is rho(s) = C s^power
(`PowerModulus`): an alpha-Hölder amplitude square-sums to power = 2 alpha,
and int_0+ ds/rho diverges exactly when power >= 1 (`osgood_check` tabulates
the integral).

Given an increasing modulus rho with divergent Osgood integral, the levels
a_0 = 1 > a_1 > ... are fixed by int_{a_n}^{a_{n-1}} ds/rho(s) = n, the
densities psi_n are taken as exactly 1/(n rho) on (a_n, a_{n-1}) (which
integrates to one by construction and sits inside the 2/(n rho) envelope
with factor-2 headroom), and phi_n(t) = int_0^{|t|} int_0^s psi_n.  The
defining sandwich |t| - a_{n-1} <= phi_n(t) <= |t| is preserved exactly by
the table construction: cumulative integrals are clipped into [0, 1] before
the second integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AuditError
from .readers import read_integer, read_number


class MollifierRangeError(ValueError):
    """Raised when a_n underflows, or rounds to a_{n-1}, before reaching the
    requested level: a value the family cannot be built at, so a config
    error where one asks for it."""

    def __init__(self, requested: int, max_feasible: int):
        self.requested = requested
        self.max_feasible = max_feasible
        super().__init__(
            f"level {requested} not representable; largest feasible level is "
            f"{max_feasible}")


class PowerModulus:
    """rho(s) = C*s^power, the squared-sum modulus of an alpha-Hölder
    amplitude (power = 2*alpha); the default power 1 is the linear modulus
    C*s of a 1/2-Hölder one, and C*s^1.0 is bitwise C*s."""

    def __init__(self, constant: float, power: float = 1.0):
        self.constant = read_number("modulus constant", constant)
        self.power = read_number("modulus power", power)
        # int_0+ ds/(C s^power) = infinity exactly when power >= 1
        self.osgood_diverges = self.power >= 1.0

    def __call__(self, s):
        return self.constant * np.asarray(s, dtype=float) ** self.power


def _osgood_integral(rho, lo: float, hi: float) -> float:
    """int_lo^hi ds/rho(s), integrated in log space for stability near 0."""
    # SciPy's quadrature and root finder load on first use: a run that
    # integrates no modulus and builds no mollifier never holds them
    from scipy.integrate import quad

    def integrand(y):
        s = math.exp(y)
        return s / float(rho(np.asarray(s)))

    val, _ = quad(integrand, math.log(lo), math.log(hi), limit=400,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def osgood_check(rho, eps_grid) -> dict:
    """Tabulate I(eps) = int_eps^1 ds/rho(s) and classify the divergence.

    ``rho`` may be any callable modulus, a `PowerModulus` among them.
    The slope of I against ln(1/eps) is eps/rho(eps): constant for the
    linear modulus, growing for stronger singularities, and decaying to
    zero exactly when the integral converges.  Verdict "diverges" when I is
    increasing and the tail slope either fails to decay (last/previous >=
    0.9) or still exceeds 0.05.
    """
    eps = np.asarray(list(eps_grid), dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise ValueError("eps_grid must be strictly decreasing")
    if eps[-1] <= 0:
        raise ValueError("eps values must be positive")

    probe = rho(np.minimum(eps, 1.0))
    if np.any(~np.isfinite(probe)) or np.any(probe <= 0):
        raise ValueError("rho must be positive and finite on (0, 1]")

    values = np.asarray([_osgood_integral(rho, e, 1.0) for e in eps])
    x = np.log(1.0 / eps)
    increasing = bool(np.all(np.diff(values) > -1e-12))
    slopes = np.diff(values) / np.diff(x)
    # one slope has no trend (ratio 1); no slope, no decay either
    tail_slope = float(slopes[-1]) if slopes.size else math.inf
    ratio = 1.0 if slopes.size < 2 else (
        tail_slope / float(slopes[-2]) if slopes[-2] > 0 else math.inf)
    diverges = increasing and (ratio >= 0.9 or tail_slope >= 0.05)
    return {
        "eps": eps,
        "integral": values,
        "tail_slope": tail_slope,
        "slope_ratio": ratio,
        "verdict": "diverges" if diverges else "converges",
    }


@dataclass
class _LevelTable:
    a_lo: float  # a_n
    a_hi: float  # a_{n-1}
    s: np.ndarray  # log-spaced nodes on [a_n, a_{n-1}]
    psi: np.ndarray  # exact density values 1/(n rho)
    big_psi: np.ndarray  # cumulative int psi, clipped to [0, 1]
    phi_table: np.ndarray  # cumulative int big_psi from a_n


class MollifierFamily:
    """Levels a_n with per-level densities psi_n and primitives phi_n."""

    def __init__(self, rho, a_seq: np.ndarray, tables: list[_LevelTable]):
        self.rho = rho
        self.a_seq = np.asarray(a_seq, dtype=float)
        self._tables = tables

    @property
    def n_levels(self) -> int:
        return len(self._tables)

    def _table(self, level: int) -> _LevelTable:
        if not 1 <= level <= self.n_levels:
            raise ValueError(f"level {level} outside 1..{self.n_levels}")
        return self._tables[level - 1]

    def psi(self, level: int, t) -> np.ndarray:
        """psi_n(t) = 1/(n rho(t)) on (a_n, a_{n-1}), zero outside."""
        tab = self._table(level)
        t = np.asarray(t, dtype=float)
        inside = (t > tab.a_lo) & (t < tab.a_hi)
        out = np.zeros_like(t)
        if np.any(inside):
            out[inside] = 1.0 / (level * self.rho(t[inside]))
        return out

    def psi_integral(self, level: int) -> float:
        """Quadrature of psi_n over its support (equals 1 by construction)."""
        tab = self._table(level)
        return _osgood_integral(self.rho, tab.a_lo, tab.a_hi) / level

    def big_psi(self, level: int, t) -> np.ndarray:
        """int_0^t psi_n for t >= 0 (0 below a_n, 1 above a_{n-1})."""
        tab = self._table(level)
        t = np.asarray(t, dtype=float)
        out = np.interp(t, tab.s, tab.big_psi, left=0.0, right=1.0)
        out = np.where(t <= tab.a_lo, 0.0, out)
        out = np.where(t >= tab.a_hi, 1.0, out)
        return out

    def phi(self, level: int, t) -> np.ndarray:
        """phi_n(t) = int_0^{|t|} int_0^s psi_n(tau) dtau ds."""
        tab = self._table(level)
        x = np.abs(np.asarray(t, dtype=float))
        inner = np.interp(x, tab.s, tab.phi_table, left=0.0,
                          right=tab.phi_table[-1])
        inner = np.where(x <= tab.a_lo, 0.0, inner)
        beyond = x >= tab.a_hi
        return np.where(beyond, tab.phi_table[-1] + (x - tab.a_hi), inner)

    def phi_prime(self, level: int, t) -> np.ndarray:
        """phi_n'(t) = sgn(t) int_0^{|t|} psi_n; |phi_n'| <= 1."""
        t = np.asarray(t, dtype=float)
        return np.sign(t) * self.big_psi(level, np.abs(t))


class OneSidedMollifier:
    """Positive-part variant: phi_n(t) = 1_{(0,inf)}(t) int_0^t int_0^s psi_n."""

    def __init__(self, family: MollifierFamily, level: int):
        self.family = family
        self.level = level
        self.a_seq = family.a_seq

    def phi(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, self.family.phi(self.level, t), 0.0)

    def phi_prime(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, self.family.big_psi(self.level, t), 0.0)


def build_mollifier(rho, n_max: int) -> MollifierFamily:
    """Construct levels 1..n_max from a_0 = 1 by root-solving the Osgood integral.

    a_n solves int_{a_n}^{a_{n-1}} ds/rho(s) = n (adaptive quadrature plus
    bracketed root finding, relative tolerance well below 1e-10); each
    level's table has 4097 log-spaced nodes.  Raises MollifierRangeError
    with the largest feasible level if a_n underflows or rounds to a_{n-1}.
    """
    n_max = read_integer("n_max", n_max, least=1)
    probe = rho(np.asarray([0.5, 1.0]))
    if np.any(probe <= 0) or probe[1] < probe[0]:
        raise AuditError("modulus", "rho must be positive and increasing on (0, 1]")
    from scipy.optimize import brentq

    a = [1.0]
    tables: list[_LevelTable] = []
    for n in range(1, n_max + 1):
        hi = a[-1]

        def gap_log(y, hi=hi, n=n):
            return _osgood_integral(rho, math.exp(y), hi) - n

        lo = hi / 16.0
        while gap_log(math.log(lo)) < 0.0:
            lo /= 16.0
            if lo < 1e-280:
                raise MollifierRangeError(n_max, n - 1)
        if gap_log(math.log(hi) - 1e-15) > 0.0:  # a_n rounds to a_{n-1}
            raise MollifierRangeError(n_max, n - 1)
        # root finding in log space keeps the tolerance relative in a_n
        y_n = brentq(gap_log, math.log(lo), math.log(hi) - 1e-15,
                     xtol=1e-13, rtol=8.9e-16, maxiter=200)
        a_n = math.exp(y_n)
        a.append(float(a_n))

        y = np.linspace(math.log(a_n), math.log(hi), 4097)
        s = np.exp(y)
        s[0], s[-1] = a_n, hi
        psi = 1.0 / (n * rho(s))
        ds = np.diff(s)
        big = np.concatenate(([0.0], np.cumsum(0.5 * (psi[1:] + psi[:-1]) * ds)))
        big = np.clip(big, 0.0, 1.0)
        phi_tab = np.concatenate(([0.0], np.cumsum(0.5 * (big[1:] + big[:-1]) * ds)))
        tables.append(_LevelTable(a_lo=a_n, a_hi=hi, s=s, psi=psi,
                                  big_psi=big, phi_table=phi_tab))
    return MollifierFamily(rho, np.asarray(a), tables)


def positivity_mollifier(rho, n: int) -> OneSidedMollifier:
    """One-sided family for the positivity argument: phi_n(t) increases to t^+."""
    family = build_mollifier(rho, n)
    return OneSidedMollifier(family, n)
