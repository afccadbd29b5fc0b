"""Capacities of lossy bosonic channels with correlated squeezed environments.

A block of n channel uses mixes each signal mode, at a beamsplitter of
transmissivity eta, with one mode of an n-mode environment: a thermal state
(temperature T) squeezed along the normal modes of a nearest-neighbour
coupling chain.  The package computes classical, quantum and
entanglement-assisted rates under a mean photon number constraint, both from
closed-form bounds and by numerical optimization over Gaussian encodings,
along with the entanglement structure of the optimal seed states.

The names below are the documented API; every other helper is importable
from its submodule (``memchan.channel``, ``memchan.gaussian``, ...).
"""

from .allocation import allocate_photons
from .analytic import (
    AnalyticBound,
    asymptotic_ent_assisted,
    asymptotic_quantum,
    classical_lower_analytic,
    classical_lower_asymptotic,
    classical_upper_bound,
    local_classical_lower,
    m_parameter,
)
from .channel import ChannelConfig, GlobalEnvMode
from .entanglement import SeedState, mean_reduced_entropy, separability_boundary_temp
from .gaussian import g_entropy, symplectic_eigenvalues
from .information import (
    EncodingParams,
    chi_mode,
    chi_mode_gradient,
    coherent_information,
    coherent_information_gradient,
    quantum_mutual_information,
    quantum_mutual_information_gradient,
)
from .optimize import (
    OptResult,
    brute_force_oracle,
    maximize_classical,
    maximize_ent_assisted,
    maximize_ent_assisted_local,
    maximize_quantum,
    maximize_quantum_local,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnalyticBound",
    "ChannelConfig",
    "EncodingParams",
    "GlobalEnvMode",
    "OptResult",
    "SeedState",
    "allocate_photons",
    "asymptotic_ent_assisted",
    "asymptotic_quantum",
    "brute_force_oracle",
    "chi_mode",
    "chi_mode_gradient",
    "classical_lower_analytic",
    "classical_lower_asymptotic",
    "classical_upper_bound",
    "coherent_information",
    "coherent_information_gradient",
    "g_entropy",
    "local_classical_lower",
    "m_parameter",
    "maximize_classical",
    "maximize_ent_assisted",
    "maximize_ent_assisted_local",
    "maximize_quantum",
    "maximize_quantum_local",
    "mean_reduced_entropy",
    "quantum_mutual_information",
    "quantum_mutual_information_gradient",
    "separability_boundary_temp",
    "symplectic_eigenvalues",
]
