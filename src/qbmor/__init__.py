"""Moment-matching model order reduction for quadratic-bilinear systems."""

__version__ = "0.1.0"

from .qb_model import (
    QBSystem,
    InputSignal,
    apply_quadratic,
    symmetrize_quadratic,
    mode2_matricization,
    save_system,
    load_system,
)
from .projection import ReducedQBSystem, orth_extend, build_interpolation_bases, reduce, verify_hermite
from .error_bound import BoundEvaluator, BoundValue, beta
from .greedy import GreedyConfig, GreedyResult, run_greedy, reduce_final, default_grid
from .irka import IrkaConfig, irka_linear, irka_rom
from .sim import Trajectory, simulate_qb, compare_outputs
