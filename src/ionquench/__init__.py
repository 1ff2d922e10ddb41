"""Quench dynamics of long-range Ising chains of trapped ions.

The package splits along the physics: lattice (chain geometry and
transverse phonons), coupling (spin-spin matrices and the emergent
potential), spinwave (quadratic boson model and its GGE), exact
(full and sector-resolved diagonalization), stochastic (noise and
measurement emulation) and cli (reproducible runs to CSV/JSON).
"""

__version__ = "0.1.0"

from .coupling import (CouplingMatrix, EffectivePotential, effective_potential,
                       eigen_spectrum_lambda, fit_alpha, ion_couplings,
                       power_law_couplings, scale_rabi_for_jmax,
                       tune_mu_for_alpha)
from .errors import (ConfigError, ConvergenceError, EmptySelectionError,
                     ResonanceError, SectorError, SimulationError, SizeError,
                     StabilityError)
from .exact import (HamiltonianRep, build_full_ising, build_xy_sector,
                    default_time_grid, diagonal_ensemble, evolve_draws,
                    level_gaps)
from .lattice import (Geometry, PhononModes, TrapConfig, equilibrium_positions,
                      exact_modes, k_matrix)
from .observables import ExcitationPattern, QuenchTrace, assemble_trace
from .spinwave import (GgeState, SpinWaveSystem, build_spinwave, gge_lambdas,
                       gge_magnetization, gge_occupations, gge_state,
                       pair_gap_spectrum, quench_sz)
from .stochastic import (NoiseModel, PostselectionResult, ShotCounts,
                         noise_scales, shot_blocks)
