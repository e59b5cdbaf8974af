"""Haar-type stochastic Galerkin formulations for hyperbolic conservation laws.

The package provides wavelet bases with a shared constant eigenvector frame,
closed-form nonlinear gPC operations, intrusive formulations of four model
systems, a third-order CWENO/SSPRK3 finite-volume solver, reference
solutions, and the experiment CLI.
"""

from .basis import (BasisKind, HaarTypeBasis, build_canonical_haar,
                    build_classical_haar, build_dct, build_piecewise_linear,
                    custom_basis, evaluate_wavelet)
from .errors import (AdmissibilityError, BasisError, ConfigError, HaarsgError,
                     SolverAbort)
from .galerkin import (Admissibility, GalerkinTensor, abs_modes, build_tensors,
                       convex_root_objective, from_spectrum, galerkin_matrix,
                       galerkin_product, is_admissible, jacobian_abs,
                       jacobian_pnorm, jacobian_power, moment_modes,
                       nth_root_modes, pnorm_modes, power_modes, project,
                       sign_modes, to_spectrum)
from .models import (Euler2D, ExperimentPreset, LevelSet2D, LinearAdvection,
                     ModelSystem, PSystem1D, ScalarLipschitz, constant_modes,
                     flux, get_preset, initial_data, is_admissible_state,
                     jacobian, max_wave_speed, wave_speeds)
from .reference import (CollocationReference, ExactScalarReference,
                        MonteCarloEnvelope, collocation_reference, exact_scalar,
                        expansion_values, l1_distance, mean_std,
                        monte_carlo_reference, mse, solve_deterministic_batch)
from .solver import (Grid, GpcField, SemiDiscreteSystem, advance, fill_ghosts,
                     source_quadrature, ssprk3_step)
from .config import RunConfig, parse_config, render_config
from .experiments import run_experiment, run_level_sweep

__version__ = "0.1.0"
