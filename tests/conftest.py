import sys

import pytest

from bittide_sim import (IntegratorSettings, ReframeSchedule, Topology,
                         make_system_params, prepare, spectral)
from bittide_sim.dynamics import horizon_sample_interval
from bittide_sim.verify import make_random_scenario


# trace files `read_trace_csv` refuses, each with the end of its error: the
# text after the file's name
_HEADER = b"t,mode,omega_1,c_1,beta_1\n"
BAD_TRACES = {
    "non-numeric": (_HEADER + b"0,pre-reframe,1,x,10\n",
                    ", line 2: could not convert string to float: 'x'"),
    "short-row": (_HEADER + b"0,pre-reframe,1,0\n",
                  ", line 2: 4 cells, the header has 5"),
    "wide-row": (_HEADER + b"0,pre-reframe,1,0,10,7\n",
                 ", line 2: 6 cells, the header has 5"),
    "non-utf-8": (_HEADER + b"0,pre-reframe,1,0,10\n2.5,pre-\xff,1,0,10\n",
                  ", line 3: not UTF-8"),
    "empty": (b"", ": no header"),
}


@pytest.fixture
def two_cycle():
    return Topology(n=2, edges=[(1, 2), (2, 1)])


@pytest.fixture
def ring3():
    return Topology(n=3, edges=[(1, 2), (2, 3), (3, 1)])


@pytest.fixture
def ring3_chord():
    # has a defective eigenvalue (-2 twice, one eigenvector) at k = 1
    return Topology(n=3, edges=[(1, 2), (2, 3), (3, 1), (1, 3)])


@pytest.fixture
def e1(two_cycle):
    """2-node hand-oracle scenario: k=0.1, omega_u=(1.00, 1.02), lambda=10,
    feasible offsets at theta0 = 0 (so beta_off = (10, 10) and r = 0)."""
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.00, 1.02],
                                lam=10.0, beta_off=10.0)
    s = prepare(two_cycle, params)
    return two_cycle, s.inc, s.params, s.clm, s.sd


def spectral_setup(topology, k, omega_u, lam=10.0, beta_off=None, theta0=0.0, q=0.0):
    """Build (inc, params-with-materialized-offsets, clm, sd) for a scenario."""
    params = make_system_params(topology, k=k, omega_u=omega_u, lam=lam,
                                beta_off=beta_off, q=q)
    s = prepare(topology, params, theta0)
    return s.inc, s.params, s.clm, s.sd


def random_scenario(seed):
    """Random strongly connected scenario with feasible offsets, q = 0."""
    sc = make_random_scenario(seed)
    return sc.topology, sc.params, sc.theta0


def horizon_reframe(system) -> dict:
    """The arguments with which `run` runs `system` as
    `run_horizon_reframes` does: one fixed-time reframe at the horizon h,
    h after it, and a sample every h/8."""
    horizon = system.sd.horizon()
    return {"schedule": ReframeSchedule(mode="fixed-time", T1=horizon),
            "settings": IntegratorSettings(
                horizon=horizon, post_horizon=horizon,
                sample_interval=horizon_sample_interval(system))}


def count_calls(monkeypatch, original) -> list:
    """Records one entry per call of `original`, counted at every module
    binding of the function, so calls through any import are seen."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "bittide_sim"
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, counting)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """One entry per metzler_eigenvector call."""
    return count_calls(monkeypatch, spectral.metzler_eigenvector)
