"""srds: stochastic reaction-diffusion systems with Hölder multiplicative noise.

A numpy/scipy library for simulating systems of reaction-diffusion SPDEs
with diagonal spectral noise, plus experiments that check the discrete
consequences of the underlying well-posedness theory: pathwise-uniqueness
proxies, positivity preservation, and uniform moment bounds along a
coefficient-truncation ladder.
"""

from ._version import __version__
from .errors import AuditError, ConfigError, SolverFailure
from .grid import DomainGrid, build_grid
from .operators import (CoefficientField, EllipticOperator, apply_resolvent,
                        assemble_operator, coefficient_field_from_csv,
                        dump_spectrum_csv, evolve_semigroup, semigroup_step,
                        smoothing_profile)
from .rng import (WienerPath, gaussian_entry, load_path, normal_inverse,
                  sample_path, save_path, uniform_stream)
from .noise import (ComponentNoise, HolderFunction, LinearModulus, NoiseModel,
                    SpectralBasis, apply_noise, build_noise,
                    cosine_neumann_basis, named_g, osgood_check,
                    osgood_check_model)
from .reaction import (CouplingTerm, F1F2Certificate, PolynomialDrift,
                       ReactionSystem, check_f1_f2, check_quasi_positive,
                       coupling_linear, coupling_none, dissipativity_gap,
                       evaluate_reaction, fhn_system)
from .solver import (LadderReport, Problem, SolverConfig, StoppingRecord,
                     Trajectory, exit_index, glue_ladder, mild_residual,
                     save_trajectory, simulate, step, truncate_problem)
from .mollifier import (MollifierFamily, MollifierRangeError, OneSidedMollifier,
                        build_mollifier, positivity_mollifier)
from .experiments import (ExperimentReport, est2_bound_check, moment_experiment,
                          negative_control_problem, positivity_experiment,
                          residual_refinement, uniqueness_experiment)
from .config import (build_problem, config_digest, load_config, preset,
                     preset_fhn, validate_config)

__all__ = [name for name in dir() if not name.startswith("_")]
