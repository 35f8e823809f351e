"""boltzflow: the space-homogeneous Boltzmann equation as a gradient flow.

A finite velocity lattice carries a reaction network of elastic
collision quadruples.  The package cross-validates three realizations
of the same dynamics: a forward ODE solver for the collision operator,
a minimizing-movement (JKO) scheme for the entropy in a collision-flux
transport metric, and a Kac N-particle jump process.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config, parse_config_dict
from .errors import ConfigError, DomainError, NumericalError
from .forward import (
    ForwardTrajectory,
    collision_operator,
    dissipation,
    energy_identity_report,
    entropy,
    solve_forward,
)
from .jko import JkoStep, JkoTrajectory, compare_to_forward, jko_step, jko_trajectory
from .kac import (
    EventLog,
    ParticleState,
    consistency_report,
    empirical_entropy,
    empirical_moments,
    sample_initial,
    simulate,
)
from .kinematics import Kernel, collide
from .metric import (
    MetricSolution,
    SolverOptions,
    cre_residual,
    single_quadruple_oracle,
    solve_distance,
    w1_distance,
)
from .network import (
    VelocityNetwork,
    build_network,
    maxent_project,
    restrict_quadruples,
    tilt_to_moments,
)
from .scalars import GaussianMixture, log_mean

__all__ = [
    "__version__",
    "ConfigError",
    "DomainError",
    "EventLog",
    "ForwardTrajectory",
    "GaussianMixture",
    "JkoStep",
    "JkoTrajectory",
    "Kernel",
    "MetricSolution",
    "NumericalError",
    "ParticleState",
    "RunConfig",
    "SolverOptions",
    "VelocityNetwork",
    "build_network",
    "collide",
    "collision_operator",
    "compare_to_forward",
    "consistency_report",
    "cre_residual",
    "dissipation",
    "empirical_entropy",
    "empirical_moments",
    "energy_identity_report",
    "entropy",
    "jko_step",
    "jko_trajectory",
    "log_mean",
    "maxent_project",
    "parse_config",
    "parse_config_dict",
    "restrict_quadruples",
    "sample_initial",
    "simulate",
    "single_quadruple_oracle",
    "solve_distance",
    "solve_forward",
    "tilt_to_moments",
    "w1_distance",
]
