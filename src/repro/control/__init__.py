"""Control-theory substrate: plants, discretization, LQG.

Implements the paper's control model (Sec. II-C): continuous LTI plants
sampled periodically, discrete LQG controllers, and the benchmark plant
database of Sec. VI, plus exact jittery closed-loop simulation used to
validate the stability analysis empirically.
"""

from .discretize import c2d, c2d_delayed, expm
from .lqg import LqgWeights, closed_loop, design_lqg
from .lti import StateSpace, tf_to_ss
from .plants import (
    PLANT_FACTORIES,
    PlantSpec,
    ball_and_beam,
    dc_servo,
    harmonic_oscillator,
    inverted_pendulum,
    plant_database,
    random_plant,
)
from .riccati import kalman_gain, lqr_gain, solve_dare
from .simulate import SimulationResult, simulate_with_delays

__all__ = [
    "LqgWeights",
    "PLANT_FACTORIES",
    "PlantSpec",
    "SimulationResult",
    "StateSpace",
    "ball_and_beam",
    "c2d",
    "c2d_delayed",
    "closed_loop",
    "dc_servo",
    "design_lqg",
    "expm",
    "harmonic_oscillator",
    "inverted_pendulum",
    "kalman_gain",
    "lqr_gain",
    "plant_database",
    "random_plant",
    "simulate_with_delays",
    "solve_dare",
    "tf_to_ss",
]
