"""Diagonal multiplicative spectral noise: g(u) * sum_k lambda_k e_k dbeta_k.

Each component carries its own orthonormal mode family e_k, spectral weights
lambda_k and scalar amplitude g.  The per-mode moduli sigma_k,m(s) =
c_m ||lambda_k e_k||_inf sqrt(s) square-sum to the linear modulus
rho_m(s) = C_m s whose Osgood divergence underpins the uniqueness
machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AuditError
from .grid import DomainGrid
from .mollifier import _osgood_integral


# ---------------------------------------------------------------------------
# spectral bases


@dataclass(frozen=True)
class SpectralBasis:
    """Mode table: values[k, cell] = e_k evaluated at the cell center."""

    kind: str
    grid: DomainGrid
    values: np.ndarray  # (K, n_total)
    sup_norms: np.ndarray  # (K,)

    @property
    def modes(self) -> int:
        return self.values.shape[0]

    def orthonormality_defect(self) -> float:
        gram = self.values @ self.values.T * self.grid.cell_volume
        return float(np.max(np.abs(gram - np.eye(self.modes))))

    def descriptor(self) -> bytes:
        return (self.kind.encode() + self.grid.descriptor() + self.values.tobytes())


def _cosine_modes_1d(grid: DomainGrid, axis: int, kmax: int) -> np.ndarray:
    L = grid.extents[axis]
    x = grid.axis_centers(axis)
    rows = np.empty((kmax, len(x)))
    rows[0] = 1.0 / math.sqrt(L)
    for k in range(1, kmax):
        rows[k] = math.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)
    return rows


def cosine_neumann_basis(grid: DomainGrid, modes: int) -> SpectralBasis:
    """Neumann cosine family; sup norms uniformly bounded by prod sqrt(2/L_i).

    The sup norms are the exact function norms (1/sqrt(L) for the constant
    mode, sqrt(2/L) otherwise), not the cell-center sample maxima.  In 2D
    the modes are tensor products ordered by total frequency (k0 + k1, then
    k0), starting from the constant mode.
    """

    def axis_sup(axis: int, k: int) -> float:
        L = grid.extents[axis]
        return 1.0 / math.sqrt(L) if k == 0 else math.sqrt(2.0 / L)

    if grid.dim == 1:
        vals = _cosine_modes_1d(grid, 0, modes)
        sup = np.array([axis_sup(0, k) for k in range(modes)])
    else:
        # enough per-axis frequencies to fill `modes` tensor products
        per_axis = modes
        rows0 = _cosine_modes_1d(grid, 0, per_axis)
        rows1 = _cosine_modes_1d(grid, 1, per_axis)
        pairs = sorted(
            ((k0 + k1, k0, k1) for k0 in range(per_axis) for k1 in range(per_axis))
        )[:modes]
        vals = np.empty((modes, grid.n_total))
        sup = np.empty(modes)
        for i, (_, k0, k1) in enumerate(pairs):
            vals[i] = np.outer(rows0[k0], rows1[k1]).ravel()
            sup[i] = axis_sup(0, k0) * axis_sup(1, k1)
    return SpectralBasis(kind="cosine-neumann", grid=grid, values=vals, sup_norms=sup)


# ---------------------------------------------------------------------------
# scalar amplitudes


@dataclass(frozen=True)
class HolderFunction:
    """Scalar amplitude g with declared linear growth and 1/2-Hölder moduli.

    ``holder_c`` maps a radius m to the constant c_m valid on [-m, m].  The
    declared constants are trusted but audited on seeded samples at build
    time: 4096 sample pairs on each of [-1, 1], [-10, 10] and [-100, 100],
    with absolute tolerance 1e-9.
    """

    fn: object  # vectorized callable
    growth_a: float
    growth_b: float
    holder_c: object  # callable m -> c_m
    name: str = "custom"
    exponent: float = 0.5

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.fn(s)

    def audit(self) -> None:
        rng = np.random.default_rng(1234)
        for m in (1.0, 10.0, 100.0):
            s = rng.uniform(-m, m, size=4096)
            g = self.fn(s)
            bound = self.growth_a + self.growth_b * np.abs(s)
            bad = np.abs(g) > bound + 1e-9
            if np.any(bad):
                i = int(np.argmax(np.abs(g) - bound))
                raise AuditError(
                    "growth", f"|g({s[i]:.6g})|={abs(g[i]):.6g} exceeds "
                              f"{self.growth_a}+{self.growth_b}|s|")
            s2 = rng.uniform(-m, m, size=4096)
            cm = float(self.holder_c(m))
            lhs = np.abs(g - self.fn(s2))
            rhs = cm * np.abs(s - s2) ** self.exponent
            bad = lhs > rhs + 1e-9
            if np.any(bad):
                i = int(np.argmax(lhs - rhs))
                raise AuditError(
                    "holder", f"|g({s[i]:.6g})-g({s2[i]:.6g})|={lhs[i]:.6g} exceeds "
                              f"c_m|ds|^{self.exponent} with c_{m}={cm:.6g}")


def _sqrt_abs(s):
    return np.sqrt(np.abs(s))


def _sqrt_pos(s):
    return np.sqrt(np.maximum(s, 0.0))


def _sqrt_clipped_01(s):
    t = np.clip(s, 0.0, 1.0)
    return np.sqrt(t * (1.0 - t))


def _sqrt_abs_shifted(s):
    return np.sqrt(np.abs(s) + 0.01)


class _Linear:
    def __init__(self, slope: float):
        self.slope = slope

    def __call__(self, s):
        return self.slope * np.asarray(s, dtype=float)


def named_g(name: str) -> HolderFunction:
    """Built-in amplitudes addressable from run configs.

    "sqrt-abs":        g(s) = sqrt|s|
    "sqrt-pos":        g(s) = sqrt(s^+)            (g(0) = 0)
    "sqrt-clipped-01": g(s) = sqrt(s(1-s)) on [0,1], clipped outside
    "sqrt-abs-shifted": g(s) = sqrt(|s| + 0.01)    (g(0) != 0 control)
    "lipschitz:L":     g(s) = L*s
    """
    if name == "sqrt-abs":
        return HolderFunction(_sqrt_abs, 1.0, 1.0, lambda m: 1.0, name=name)
    if name == "sqrt-pos":
        return HolderFunction(_sqrt_pos, 1.0, 1.0, lambda m: 1.0, name=name)
    if name == "sqrt-clipped-01":
        return HolderFunction(_sqrt_clipped_01, 0.5, 0.0, lambda m: 1.0, name=name)
    if name == "sqrt-abs-shifted":
        return HolderFunction(_sqrt_abs_shifted, 1.0, 1.0, lambda m: 1.0, name=name)
    if name.startswith("lipschitz:"):
        L = float(name.split(":", 1)[1])
        return HolderFunction(_Linear(L), 0.0, abs(L),
                              lambda m, L=L: abs(L) * math.sqrt(2.0 * m), name=name)
    raise AuditError("noise-g", f"unknown amplitude name {name!r}")


# ---------------------------------------------------------------------------
# moduli


class LinearModulus:
    """rho(s) = C*s, the squared-sum modulus of the separable noise family."""

    def __init__(self, constant: float):
        self.constant = float(constant)

    def __call__(self, s):
        return self.constant * np.asarray(s, dtype=float)

    def adjusted(self) -> "LinearModulus":
        """Ensure rho(s) >= s by adding the identity when needed."""
        if self.constant >= 1.0:
            return self
        return LinearModulus(self.constant + 1.0)


# ---------------------------------------------------------------------------
# the noise model


@dataclass(frozen=True)
class ComponentNoise:
    """One component's spectral noise: g(u) * sum_k lambda_k e_k dbeta_k."""

    basis: SpectralBasis
    lambdas: np.ndarray
    g: HolderFunction
    mode_fields: np.ndarray = field(init=False)  # (n_total, K): lambda_k e_k columns
    sup_lambda_e: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (self.basis.modes,):
            raise AuditError("noise-shape",
                             f"{lam.shape[0] if lam.ndim else 0} lambdas for "
                             f"{self.basis.modes} modes")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "mode_fields",
                           (self.basis.values * lam[:, None]).T.copy())
        object.__setattr__(self, "sup_lambda_e", np.abs(lam) * self.basis.sup_norms)

    @property
    def modes(self) -> int:
        return self.basis.modes

    @property
    def alpha(self) -> np.ndarray:
        return self.g.growth_a * self.sup_lambda_e

    @property
    def beta(self) -> np.ndarray:
        return self.g.growth_b * self.sup_lambda_e

    def rho_constant(self, m: float) -> float:
        cm = float(self.g.holder_c(m))
        return cm**2 * float(np.sum(self.sup_lambda_e**2))

    def rho(self, m: float) -> LinearModulus:
        return LinearModulus(self.rho_constant(m))

    def is_zero(self) -> bool:
        return bool(np.all(self.lambdas == 0.0))

    def modal_field(self, increments: np.ndarray) -> np.ndarray:
        """sum_k lambda_k e_k(x) * db_k; independent of the state."""
        if increments.shape != (self.modes,):
            raise ValueError(f"expected {self.modes} increments, got {increments.shape}")
        return self.mode_fields @ increments

    def descriptor(self) -> bytes:
        return (self.basis.descriptor() + self.lambdas.tobytes()
                + self.g.name.encode()
                + repr((self.g.growth_a, self.g.growth_b)).encode())


@dataclass(frozen=True)
class NoiseModel:
    """Diagonal noise: one independent ComponentNoise per equation."""

    components: tuple[ComponentNoise, ...]

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def modes(self) -> int:
        return max(c.modes for c in self.components)

    def descriptor(self) -> bytes:
        return b"|".join(c.descriptor() for c in self.components)


def build_noise(bases, lambdas, gs, audit: bool = True) -> NoiseModel:
    """Assemble a NoiseModel from per-component bases, lambdas and amplitudes.

    The declared growth/Hölder constants of each amplitude are audited on
    seeded samples unless ``audit=False``.
    """
    if not len(bases) == len(lambdas) == len(gs):
        raise ValueError(f"need one basis, lambda vector and amplitude per component, "
                         f"got {len(bases)}, {len(lambdas)} and {len(gs)}")
    comps = []
    for b, lam, gg in zip(bases, lambdas, gs):
        if audit:
            gg.audit()
        comps.append(ComponentNoise(basis=b, lambdas=np.asarray(lam, dtype=float), g=gg))
    return NoiseModel(components=tuple(comps))


def apply_noise(noise: NoiseModel, component: int, u: np.ndarray,
                increments: np.ndarray) -> np.ndarray:
    """Field x -> g(u(x)) * sum_k lambda_k e_k(x) db_k for one component."""
    comp = noise.components[component]
    return comp.g(u) * comp.modal_field(np.asarray(increments, dtype=float))


# ---------------------------------------------------------------------------
# Osgood check


def osgood_check(rho, eps_grid) -> dict:
    """Tabulate I(eps) = int_eps^1 ds/rho(s) and classify the divergence.

    ``rho`` may be a callable modulus or a NoiseModel component modulus.
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
    if len(slopes) >= 2:
        tail_slope = float(slopes[-1])
        prev = float(slopes[-2])
        ratio = tail_slope / prev if prev > 0 else float("inf")
    elif len(slopes) == 1:
        tail_slope = float(slopes[-1])
        ratio = 1.0
    else:
        tail_slope, ratio = float("inf"), 1.0
    diverges = increasing and (ratio >= 0.9 or tail_slope >= 0.05)
    return {
        "eps": eps,
        "integral": values,
        "tail_slope": tail_slope,
        "slope_ratio": ratio,
        "verdict": "diverges" if diverges else "converges",
    }


def osgood_check_model(noise: NoiseModel, component: int, m: float,
                       eps_grid) -> dict:
    comp = noise.components[component]
    if comp.is_zero() or comp.rho_constant(m) == 0.0:
        raise ValueError("rho not positive: zero noise component")
    return osgood_check(comp.rho(m), eps_grid)
