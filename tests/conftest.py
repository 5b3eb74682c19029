import numpy as np
import pytest
from hypothesis import settings

import srds

# one reproducibility policy for every property test: each draws the same
# examples on every run (derandomized), and none has a deadline, since a
# shared host's timings vary
settings.register_profile("srds", deadline=None, derandomize=True)
settings.load_profile("srds")


def build_fhn_problem(g_name="sqrt-abs", scale=1.0, n=32, modes=8,
                      a=1.0, b=1.0, lam_power=2.0):
    grid = srds.build_grid(1, [1.0], [n])
    coeffs = srds.CoefficientField.constant(grid, a=1.0, c=0.0)
    op = srds.EllipticOperator(grid, coeffs)
    basis = srds.cosine_neumann_basis(grid, modes)
    lam = (np.arange(modes) + 1.0) ** (-lam_power) * scale
    noise = srds.build_noise([basis] * 2, [lam] * 2,
                             [srds.named_g(g_name)] * 2)
    return srds.Problem(grid=grid, operators=(op, op),
                        reaction=srds.fhn_system(a, b), noise=noise)


def const_init(problem, *values):
    return np.outer(np.asarray(values, dtype=float),
                    np.ones(problem.grid.n_total))


def build_scalar_heat_problem(n=64, a=1.0, c=0.0, modes=4, lam=None,
                              g_name="lipschitz:0"):
    """Single-component problem with zero reaction (heat equation when
    lam is zero)."""
    from srds.reaction import ReactionSystem, coupling_none

    grid = srds.build_grid(1, [1.0], [n])
    op = srds.EllipticOperator(grid, srds.CoefficientField.constant(grid, a=a, c=c))
    basis = srds.cosine_neumann_basis(grid, modes)
    lam = np.zeros(modes) if lam is None else np.asarray(lam, dtype=float)
    noise = srds.build_noise([basis], [lam], [srds.named_g(g_name)], audit=False)
    reaction = ReactionSystem([None], [coupling_none(1)], audit=False)
    return srds.Problem(grid=grid, operators=(op,), reaction=reaction, noise=noise)


@pytest.fixture(scope="session")
def fhn_problem():
    return build_fhn_problem()


@pytest.fixture(scope="session")
def heat_problem():
    return build_scalar_heat_problem()
