"""Reaction terms f_l = h_l + k_l: odd polynomial drifts with negative
leading coefficients plus locally Lipschitz couplings of linear growth.

``ReactionSystem.certificates`` certifies, on first read, the one-sided
polynomial bounds

    h(s) <= a2 - b2 s^q   on s >= 0,      a1 - b1 s^q <= h(s)   on s <= 0,

(q = 2N+1 the odd degree) together with the sup/ratio constants feeding the
dissipativity margins, all by exact critical-point analysis of the
polynomials involved.  Couplings are user-supplied callables with declared
constants which are trusted but audited on seeded samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AuditError
from .readers import read_integer, read_number


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients ascending, constant term omitted: j = 1..q)


# constants on the per-step path are 0-d float64 arrays, built once: a ufunc
# takes one without the scalar discovery it runs on a Python float operand
# at every call, and the value, so every bit of the result, is the same
_ZERO = np.array(0.0)


def _horner(cols, s: np.ndarray, out=None) -> np.ndarray:
    """Evaluate sum_j cols[j-1] * s^j, into ``out`` when given; cols[j - 1]
    is w_j, a constant or one value per cell."""
    r = np.multiply(s, cols[-1], out)
    for c in cols[-2::-1]:
        r += c
        r *= s
    return r


def _with_constant(coeffs: np.ndarray) -> np.ndarray:
    """Ascending coefficient vector [0, w_1, ..., w_q] for numpy.polynomial."""
    return np.concatenate(([0.0], coeffs))


def _nonneg_candidates(stationary: np.polynomial.Polynomial) -> list[float]:
    """0 and the positive real roots of ``stationary``, in numpy's order:
    where a function stationary at those roots can peak on s >= 0."""
    return [0.0] + [float(z.real) for z in stationary.roots()
                    if abs(z.imag) < 1e-9 and z.real > 0]


def _poly_max_nonneg(asc: np.ndarray) -> float:
    """max over s >= 0 of the polynomial with ascending coefficients ``asc``.

    Requires a negative leading coefficient so the max is attained.
    """
    p = np.polynomial.Polynomial(asc)
    return float(max(p(c) for c in _nonneg_candidates(p.deriv())))


def _ratio_sup_nonneg(asc: np.ndarray, q: int) -> float:
    """sup over t >= 0 of P(t) / (1 + t^q) for a degree-q polynomial P.

    The sup is either at a stationary point (root of P'(1+t^q) - q t^{q-1} P)
    or the t -> infinity limit, which is the leading coefficient.
    """
    P = np.polynomial.Polynomial(asc)
    dP = P.deriv()
    tq = np.polynomial.Polynomial([1.0] + [0.0] * (q - 1) + [1.0])  # 1 + t^q
    dtq = tq.deriv()
    num = dP * tq - dtq * P
    best = max(_ratio_at(P, q, c) for c in _nonneg_candidates(num))
    return max(best, float(asc[-1]))


def _ratio_at(P: np.polynomial.Polynomial, q: int, c: float) -> float:
    """P(c) / (1 + c^q).  Where P(c) or c^q overflows (a spurious huge
    critical point, from cancelling top coefficients of the stationarity
    polynomial), the same ratio in the rescaled form
    sum_j a_j c^(j-q) / (1 + c^-q), which tends to the leading coefficient."""
    try:
        with np.errstate(over="raise"):
            return float(P(c)) / (1.0 + c**q)
    except (OverflowError, FloatingPointError):
        j = np.arange(len(P.coef))
        return float(np.sum(P.coef * c ** (j - q))) / (1.0 + c**-q)


def _flip(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of s -> h(-s) (ascending, constant omitted)."""
    signs = (-1.0) ** np.arange(1, len(coeffs) + 1)
    return coeffs * signs


# ---------------------------------------------------------------------------
# drifts


class PolynomialDrift:
    """h(x, s) = sum_{j=1}^{q} w_j(x) s^j with odd q and w_q <= -epsilon_lead.

    ``coeffs`` is either a constant vector of length q or a per-cell array
    of shape (n_cells, q).
    """

    def __init__(self, coeffs, epsilon_lead: float = 1e-8):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] < 1:
            raise AuditError("drift-shape", f"bad coefficient shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise AuditError("drift-coefficients", "coefficients must be finite, "
                                                   f"got {coeffs[~np.isfinite(coeffs)][0]}")
        q = coeffs.shape[-1]
        if q % 2 == 0:
            raise AuditError("even-degree", f"drift degree {q} must be odd")
        if not epsilon_lead > 0:
            raise AuditError("leading-coefficient", "epsilon_lead must be positive")
        lead = coeffs[..., -1]
        if np.any(lead > -epsilon_lead):
            raise AuditError(
                "leading-coefficient",
                f"leading coefficient max {np.max(lead):.6g} above -{epsilon_lead}")
        self.coeffs = coeffs
        self.degree = q
        self.epsilon_lead = float(epsilon_lead)
        # the Horner columns w_1..w_q, built once: constant coefficients as
        # 0-d arrays (not Python floats or numpy scalars, see _ZERO), per-cell
        # ones as contiguous columns
        self.columns = tuple(np.ascontiguousarray(coeffs.T) if self.per_cell
                             else [np.array(w) for w in coeffs])

    @property
    def per_cell(self) -> bool:
        return self.coeffs.ndim == 2

    def evaluate(self, s: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """h(s), a new array."""
        s = np.asarray(s, dtype=float)
        if cells is None or not self.per_cell:
            return _horner(self.columns, s)
        return _horner(self.coeffs[cells].T, s)

    def lipschitz_bound(self, m: float) -> float:
        """sup_{|s|<=m} |h'| bounded by sum_j j |w_j| m^{j-1}."""
        j = np.arange(1, self.degree + 1)
        wmax = np.max(np.abs(self.coeffs), axis=0) if self.per_cell else np.abs(self.coeffs)
        return float(np.sum(j * wmax * m ** (j - 1)))

    def coefficient_rows(self) -> np.ndarray:
        return self.coeffs if self.per_cell else self.coeffs[None, :]

    def descriptor(self) -> bytes:
        return b"poly:" + self.coeffs.tobytes() + repr(self.degree).encode()


# ---------------------------------------------------------------------------
# (F1)/(F2) certificates


@dataclass(frozen=True)
class F1F2Certificate:
    """Certified constants for one drift.

    ``a`` is the one-sided bound (h <= a on s >= 0, h >= -a on s <= 0);
    ``a_sym`` additionally covers the opposite-sign directions through the
    ratio sup of |h(s)| / (1 + |s|^q).  The sandwich constants satisfy
    h <= a2 - b2 s^q on s >= 0 and h >= a1 - b1 s^q on s <= 0.  a_prime,
    a_dd, b_dd are the derived dissipativity-margin constants.
    """

    degree: int
    a: float
    a_sym: float
    a1: float
    a2: float
    b1: float
    b2: float
    a_prime: float
    a_dd: float
    b_dd: float


ZERO_CERTIFICATE = F1F2Certificate(degree=1, a=0.0, a_sym=0.0, a1=0.0, a2=0.0,
                                   b1=0.0, b2=0.0, a_prime=0.0, a_dd=0.0, b_dd=0.0)


def check_f1_f2(drift: PolynomialDrift) -> F1F2Certificate:
    """Certify the one-sided polynomial bounds for a drift.

    b1 = b2 = half the smallest leading-coefficient magnitude; a2 and a1
    bound the auxiliary polynomials h + b2 s^q on s >= 0 and h + b1 s^q on
    s <= 0 via exact critical points, worst case over cells.
    """
    q = drift.degree
    rows = drift.coefficient_rows()
    eps_min = float(np.min(-rows[:, -1]))
    b = 0.5 * eps_min

    a2 = -np.inf
    a1 = np.inf
    m_plus = -np.inf
    m_minus_neg = -np.inf  # max over t>=0 of -h(-t), i.e. -min_{s<=0} h
    ratio_pos = 0.0  # sup_{s>=0} -h/(1+s^q)
    ratio_neg = 0.0  # sup_{s<=0} h/(1+|s|^q)
    shift = np.zeros(q)
    shift[-1] = b
    for w in rows:
        a2 = max(a2, _poly_max_nonneg(_with_constant(w + shift)))
        # min_{s<=0}(h + b s^q) = -max_{t>=0}(-h(-t) + b t^q)
        a1 = min(a1, -_poly_max_nonneg(_with_constant(-_flip(w) + shift)))
        m_plus = max(m_plus, _poly_max_nonneg(_with_constant(w)))
        m_minus_neg = max(m_minus_neg, _poly_max_nonneg(_with_constant(-_flip(w))))
        ratio_pos = max(ratio_pos, _ratio_sup_nonneg(_with_constant(-w), q))
        ratio_neg = max(ratio_neg, _ratio_sup_nonneg(_with_constant(_flip(w)), q))

    a_one = max(m_plus, m_minus_neg, 0.0)
    a_sym = max(a_one, ratio_pos, ratio_neg)
    a_prime = max(a_sym, a2, -a1, 0.0)
    b_dd = b * 2.0 ** (1 - q)
    a_dd = max(a2, 0.0) + max(-a1, 0.0) + 2.0 * b + 2.0 * a_sym
    return F1F2Certificate(degree=q, a=a_one, a_sym=a_sym, a1=float(a1), a2=float(a2),
                           b1=b, b2=b, a_prime=a_prime, a_dd=a_dd, b_dd=b_dd)


# ---------------------------------------------------------------------------
# couplings


class CouplingTerm:
    """k_l(x, s_1..s_r) with declared growth and local Lipschitz constants.

    ``fn`` is vectorized: it maps a state block of shape (r, n) to (n,),
    which may be a view of the block; callers only read it.
    ``audit`` requires each L_m to be finite and checks the declared
    constants on 2048 seeded sample pairs in each of the boxes [-m, m]^r,
    m = 1, 10, 100, to absolute tolerance 1e-9.
    """

    def __init__(self, fn, c1: float, c2: float, lipschitz, name: str = "custom"):
        self.fn = fn
        # coupling_linear's c2 is the max |row|: a NaN or inf entry shows there
        self.c1 = read_number(f"coupling {name!r} growth constant c1", c1)
        self.c2 = read_number(f"coupling {name!r} growth constant c2", c2)
        self._lipschitz = lipschitz if callable(lipschitz) else (lambda m, L=lipschitz: L)
        self.name = name

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return self.fn(states)

    def lipschitz(self, m: float) -> float:
        return float(self._lipschitz(m))

    def audit(self, r: int) -> None:
        rng = np.random.default_rng(99)
        for m in (1.0, 10.0, 100.0):
            L = self.lipschitz(m)
            if not np.isfinite(L):  # a NaN bound is never exceeded
                raise AuditError("non-finite-constant", f"L_{m:g} = {L!r}")
            s = rng.uniform(-m, m, size=(r, 2048))
            t = rng.uniform(-m, m, size=(r, 2048))
            ks, kt = self.fn(s), self.fn(t)
            growth = self.c1 + self.c2 * np.sum(np.abs(s), axis=0)
            if np.any(np.abs(ks) > growth + 1e-9):
                i = int(np.argmax(np.abs(ks) - growth))
                raise AuditError("growth",
                                 f"coupling |k|={abs(ks[i]):.6g} exceeds "
                                 f"{self.c1}+{self.c2}*sum|s| at sample {i}")
            lip = L * np.sum(np.abs(s - t), axis=0)
            if np.any(np.abs(ks - kt) > lip + 1e-9):
                i = int(np.argmax(np.abs(ks - kt) - lip))
                raise AuditError("lipschitz",
                                 f"coupling increment {abs(ks[i]-kt[i]):.6g} exceeds "
                                 f"L_{m}={L:.6g} bound at sample {i}")

    def descriptor(self) -> bytes:
        return f"coupling:{self.name}:{self.c1!r}:{self.c2!r}".encode()


def coupling_none(r: int) -> CouplingTerm:
    return CouplingTerm(lambda s: np.zeros(s.shape[1]), 0.0, 0.0, 0.0, name="none")


def coupling_linear(row: np.ndarray) -> CouplingTerm:
    """k(s) = sum_j row[j] * s_j."""
    row = np.asarray(row, dtype=float)
    cmax = float(np.max(np.abs(row))) if row.size else 0.0
    return CouplingTerm(lambda s, w=row: w @ s, 0.0, cmax, cmax, name="linear")


# ---------------------------------------------------------------------------
# the reaction system


class ReactionSystem:
    """F_l(u)(x) = h_l(x, u_l(x)) + k_l(x, u_1(x), ..., u_r(x))."""

    def __init__(self, drifts, couplings, audit: bool = True):
        if len(drifts) != len(couplings):
            raise AuditError("component-count",
                             f"{len(drifts)} drifts vs {len(couplings)} couplings")
        self.r = len(drifts)
        self.drifts = list(drifts)
        self.couplings = list(couplings)
        # what ``evaluate`` runs per component: the drift's Horner columns
        # (None without a drift) and the coupling's function
        self._plan = [(None if h is None else h.columns, k.fn)
                      for h, k in zip(self.drifts, self.couplings)]
        if audit:
            for k in self.couplings:
                k.audit(self.r)

    @functools.cached_property
    def certificates(self) -> list[F1F2Certificate]:
        """The (F1)/(F2) certificate of each drift, derived on first read:
        only the dissipativity margins and the est2 bound read them."""
        return [ZERO_CERTIFICATE if h is None else check_f1_f2(h)
                for h in self.drifts]

    def evaluate(self, u: np.ndarray, coupling_at: np.ndarray | None = None) -> np.ndarray:
        """F(u): each drift h_l reads u_l and the couplings read the state
        ``coupling_at`` of the same shape, u when None.  The result is a new
        array, which the caller may write; neither state is written."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[0] != self.r:
            raise ValueError(f"state must have shape ({self.r}, n), got {u.shape}")
        coupling_at = u if coupling_at is None else coupling_at
        out = np.empty_like(u)
        for l, (columns, fn) in enumerate(self._plan):
            k = fn(coupling_at)
            row = out[l]
            if columns is None:
                np.add(_ZERO, k, row)  # 0.0 + k: no negative zeros
            else:
                _horner(columns, u[l], row)
                row += k  # h + k
        return out

    def evaluate_samples(self, component: int, samples: np.ndarray,
                         cells: np.ndarray | None = None) -> np.ndarray:
        """F_l at arbitrary state vectors, shape (r, n_samples)."""
        drift = self.drifts[component]
        h = 0.0 if drift is None else drift.evaluate(samples[component], cells)
        return h + self.couplings[component](samples)

    def coupling_lipschitz(self, m: float) -> float:
        return max(k.lipschitz(m) for k in self.couplings)

    def lipschitz(self, m: float) -> float:
        """Bound for the full f on [-m, m]^r (drift derivative + coupling)."""
        drift = 0.0
        for h in self.drifts:
            if h is not None:
                drift = max(drift, h.lipschitz_bound(m))
        return drift + self.coupling_lipschitz(m)

    def descriptor(self) -> bytes:
        parts = []
        for h, k in zip(self.drifts, self.couplings):
            parts.append(b"0" if h is None else h.descriptor())
            parts.append(k.descriptor())
        return b"|".join(parts)


# ---------------------------------------------------------------------------
# checkers


def dissipativity_gap(sys: ReactionSystem, component: int, u: np.ndarray,
                      v: np.ndarray, mode: int = 1) -> float:
    """Signed dissipativity margin at the sup-norm argmax of u.

    The subdifferential element is the signed point evaluation at
    x* = argmax |u| (lowest cell index on ties).  Mode 1 returns
    a'(1+||v||)^q - <H(u+v), phi>; mode 2 returns
    a''(1+||v||)^q - b''||u||^q - <H(u+v) - H(v), phi>.
    """
    component = read_integer("component", component, least=0, below=sys.r)
    mode = read_integer("mode", mode, least=1, below=3)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.all(u == 0.0):
        raise ValueError("zero u field: subdifferential evaluation needs an argmax")
    xstar = int(np.argmax(np.abs(u)))
    sgn = 1.0 if u[xstar] > 0 else -1.0
    cert = sys.certificates[component]
    drift = sys.drifts[component]
    q = cert.degree
    vnorm = float(np.max(np.abs(v)))
    envelope = (1.0 + vnorm) ** q

    def h_at(field):
        if drift is None:
            return 0.0
        return float(drift.evaluate(field[xstar:xstar + 1],
                                    cells=np.array([xstar]))[0])

    if mode == 1:
        return cert.a_prime * envelope - sgn * h_at(u + v)
    unorm = float(np.max(np.abs(u)))
    pairing = sgn * (h_at(u + v) - h_at(v))
    return cert.a_dd * envelope - cert.b_dd * unorm**q - pairing


@dataclass
class QuasiPositivityReport:
    passed: bool
    witness: tuple | None
    audit_margin_min: float


def check_quasi_positive(sys: ReactionSystem, grid_samples: int = 10_000,
                         range_m: float = 1.0, seed: int = 2024,
                         lipschitz_m: float | None = None) -> QuasiPositivityReport:
    """Sample-based quasi-positivity check plus its Lipschitz consequence.

    Phase 1 samples states with s_l = 0 and s_j >= 0 elsewhere and requires
    F_l >= 0 (witness returned on failure).  Phase 2 samples s_l <= 0 in
    [-m, m]^r and audits -F_l <= L_m * sum_j s_j^- + 1e-9.
    """
    range_m = read_number("range_m", range_m, above=0)
    grid_samples = read_integer("grid_samples", grid_samples, least=1)
    # a NaN margin is never negative
    L = read_number("Lipschitz constant",
                    sys.lipschitz(range_m) if lipschitz_m is None else lipschitz_m)
    rng = np.random.default_rng(seed)
    # per-cell drift coefficients are sampled through random cell indices
    n_cells = max((h.coeffs.shape[0] for h in sys.drifts
                   if h is not None and getattr(h, "per_cell", False)),
                  default=0)
    cells = rng.integers(0, n_cells, size=grid_samples) if n_cells else None
    margin_min = np.inf
    for l in range(sys.r):
        s = rng.uniform(0.0, range_m, size=(sys.r, grid_samples))
        s[l] = 0.0
        vals = sys.evaluate_samples(l, s, cells)
        if np.any(vals < -1e-12):
            i = int(np.argmin(vals))
            return QuasiPositivityReport(False, (l, s[:, i].copy(), float(vals[i])),
                                         float("nan"))
        t = rng.uniform(-range_m, range_m, size=(sys.r, grid_samples))
        t[l] = -np.abs(t[l])
        neg_part = np.sum(np.maximum(-t, 0.0), axis=0)
        margins = L * neg_part + 1e-9 - (-sys.evaluate_samples(l, t, cells))
        margin_min = min(margin_min, float(np.min(margins)))
        if margin_min < 0:
            return QuasiPositivityReport(False, None, margin_min)
    return QuasiPositivityReport(True, None, margin_min)


# ---------------------------------------------------------------------------
# the FitzHugh-Nagumo instance


def _fhn_k1(s):
    return s[1]  # a view: callers of a coupling only read its result


class _FhnK2:
    def __init__(self, a: float, b: float):
        self.a = np.array(a, dtype=float)  # 0-d, see _ZERO
        self.b = np.array(b, dtype=float)

    def __call__(self, s):
        k = self.a * s[0]
        k -= self.b * s[1]  # bitwise a*u - b*v
        return k


def fhn_couplings(a: float, b: float) -> list[CouplingTerm]:
    """The FitzHugh-Nagumo couplings k1 = v and k2 = a*u - b*v."""
    if not (a > 0 and b > 0):
        raise AuditError("fhn-parameters", f"a={a}, b={b} must be positive")
    return [CouplingTerm(_fhn_k1, 0.0, 1.0, 1.0, name="fhn-k1"),
            CouplingTerm(_FhnK2(a, b), 0.0, max(a, b), max(a, b), name="fhn-k2")]


def fhn_system(a: float = 1.0, b: float = 1.0) -> ReactionSystem:
    """FitzHugh-Nagumo reaction: f1 = u - u^3 + v, f2 = a*u - b*v.

    Split as h1(s) = s - s^3 with coupling v, h2 = 0 with coupling a*u - b*v.
    Quasi-positivity is certified at construction.
    """
    h1 = PolynomialDrift([1.0, 0.0, -1.0], epsilon_lead=1.0)
    sys = ReactionSystem([h1, None], fhn_couplings(a, b))
    report = check_quasi_positive(sys, grid_samples=2000, range_m=5.0,
                                  lipschitz_m=max(1.0, a, b) * sys.r)
    if not report.passed:
        raise AuditError("quasi-positivity", f"witness {report.witness}")
    return sys
