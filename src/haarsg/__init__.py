"""Haar-type stochastic Galerkin formulations for hyperbolic conservation laws.

The package provides the four Haar-type wavelet bases a run can name
(classical and canonical Haar, DCT, piecewise-linear), which share one
constant eigenvector frame, the spectral transforms and projection of that
frame, four model systems given as pointwise maps on realization values
(flux, speed bound, admissibility) that the shared frame turns into their
intrusive formulations, experiment presets that define each model and its
initial data once, a third-order CWENO/SSPRK3 finite-volume solver,
reference solutions, and the experiment CLI.  The closed-form nonlinear gPC
operations (Galerkin product, powers, roots, |u|, p-norms, moments) are the
same spectrum map with a fixed function; no run calls them, so they live in
``tests/galerkin_reference.py`` as test oracles, beside the dense Galerkin
matrix, the custom bases that only tests build, and the pointwise wavelets
and expansion, since runs are scored on spectrum values.
"""

from .basis import (BasisKind, HaarTypeBasis, build_canonical_haar,
                    build_classical_haar, build_dct, build_piecewise_linear)
from .errors import (AdmissibilityError, BasisError, ConfigError, HaarsgError,
                     SolverAbort)
from .galerkin import GalerkinTensor, build_tensors, from_spectrum, project, to_spectrum
from .models import (Euler2D, ExperimentPreset, LevelSet2D, ModelSystem, PSystem1D,
                     ScalarLipschitz, constant_modes, get_preset, initial_data)
from .reference import (CollocationReference, ExactScalarReference,
                        MonteCarloEnvelope, collocation_reference, exact_scalar,
                        l1_distance, mean_std, monte_carlo_reference, mse,
                        solve_deterministic_batch)
from .solver import Grid, GpcField, SemiDiscreteSystem, advance, fill_ghosts, ssprk3_step
from .config import RunConfig, parse_config, render_config
from .experiments import run_experiment, run_level_sweep

__version__ = "0.1.0"
