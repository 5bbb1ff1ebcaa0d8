"""Gossip-based software-update dissemination simulator for mobile WSNs."""

from .engine import EngineParams, Simulation, run, verify_digest
from .metrics import (
    RunRecord,
    TheoreticalParams,
    bound_fcp,
    bound_flooding,
    bound_gcp,
    bound_pbp,
    convergence_series,
    gossip_reliability,
    load_histogram,
    savings,
    time_to_fraction,
)
from .mobility import AreaRect, ContactTrace, MobilityParams, load_trace
from .protocols import ProtocolConfig, fcp, fp, from_name, gcp, on_beacon, on_software, pbp
from .radio import RadioParams, delivery_probability
from .scenarios import ScenarioSpec, builtin, desk_scale, parse, render

__version__ = "0.1.0"
