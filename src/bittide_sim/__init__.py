"""Deterministic simulation and numerical verification of bittide reframing control."""

from .graph import (Topology, IncidenceSet, TopologyError, build_incidence,
                    generate_topology, is_strongly_connected)
from .spectral import (ClosedLoopMatrix, SpectralData, SpectralError,
                       build_closed_loop, matrix_exponential, metzler_eigenvector,
                       predict_beta_ss, predict_omega_ss, steady_state_correction)
from .dynamics import (IntegratorSettings, SimTrace, System, SystemParams,
                       init_state, make_system_params, observe, prepare, run, step)
from .controller import (NodeView, OneShotReset, ReframeSchedule, ReframeError,
                         auto_reframe_trigger, node_views, proportional_correction)

__all__ = [
    "Topology", "IncidenceSet", "TopologyError", "build_incidence",
    "generate_topology", "is_strongly_connected",
    "ClosedLoopMatrix", "SpectralData", "SpectralError", "build_closed_loop",
    "matrix_exponential", "metzler_eigenvector", "predict_beta_ss",
    "predict_omega_ss", "steady_state_correction",
    "IntegratorSettings", "SimTrace", "System", "SystemParams",
    "init_state", "make_system_params", "observe", "prepare", "run", "step",
    "NodeView", "OneShotReset", "ReframeSchedule", "ReframeError",
    "auto_reframe_trigger", "node_views", "proportional_correction",
]
