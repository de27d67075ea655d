"""Relay placement for seafloor optical wireless backhaul.

The library answers one question in several forms: given an optical channel
model and a line (or rectangle) of seafloor to cover, where should relay
nodes sit so the harvested traffic the chain can carry is largest, and how
large is that load?  `solve` returns the optimal spacings and the supportable
load; `evaluate` scores arbitrary placements; `solver2d` extends the design
to a planar grid; `simqueue` checks the analytic boundary with a
tandem-queue simulation solved node by node as Lindley recursions.
"""

from .channel import (ChannelParams, FecRateParams, RateFunction,
                      ShannonRateParams, ValidationReport, fec_rate,
                      fec_rate_function, load_channel_config, preset,
                      preset_names, shannon_rate, shannon_rate_function, snr,
                      validate_rate_assumption)
from .evaluate import (PERTURB_CSV_HEADER, PerturbStats, PlacementLimit,
                       TrafficModel, constant_placement, hop_limits,
                       perturb_csv_row, perturb_eval, qsup_of_placement,
                       tradeoff, vertical_qsup)
from .scalar import (MaxItersError, NoBracketError, bisect_monotone,
                     bracket_monotone)
from .simqueue import (InconclusiveProbeError, ProbePoint, ProbeResult,
                       QueueStats, SimConfig, is_stable, simulate,
                       stability_probe)
from .solver1d import (NumericalInfeasibleError, OutOfRangeError, Placement,
                       SolveResult, SubproblemResult, WrongBranchError,
                       critical_length, critical_load, decay_factor, solve,
                       solve_subproblem, surplus, surplus_inverse,
                       surplus_slope)
from .solver2d import (Grid2D, Grid2DResult, NoFeasibleGridError, grid_qsup,
                       solve_2d, strip_heights)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "ShannonRateParams", "FecRateParams", "RateFunction",
    "ValidationReport", "snr", "shannon_rate", "fec_rate",
    "shannon_rate_function", "fec_rate_function", "validate_rate_assumption",
    "preset", "preset_names", "load_channel_config",
    "NoBracketError", "MaxItersError", "bracket_monotone", "bisect_monotone",
    "Placement", "SubproblemResult", "SolveResult", "OutOfRangeError",
    "WrongBranchError", "NumericalInfeasibleError", "surplus",
    "surplus_inverse", "surplus_slope", "critical_load", "critical_length",
    "decay_factor", "solve_subproblem", "solve",
    "TrafficModel", "PlacementLimit", "PerturbStats", "hop_limits",
    "qsup_of_placement",
    "constant_placement", "tradeoff", "vertical_qsup", "perturb_eval",
    "PERTURB_CSV_HEADER", "perturb_csv_row",
    "Grid2D", "Grid2DResult", "NoFeasibleGridError", "strip_heights",
    "grid_qsup", "solve_2d",
    "SimConfig", "QueueStats", "ProbePoint", "ProbeResult",
    "InconclusiveProbeError", "simulate", "is_stable", "stability_probe",
    "__version__",
]
