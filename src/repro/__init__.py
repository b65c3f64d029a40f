"""MINPSID reproduction: input-aware selective instruction duplication.

A from-scratch Python reproduction of *"Mitigating Silent Data Corruptions in
HPC Applications across Multiple Program Inputs"* (SC'22): a typed mini-IR
and interpreter stand in for LLVM, an LLFI-style bit-flip injector drives the
Monte-Carlo campaigns, the paper's 11 benchmarks are re-implemented against
the IR, and the SID baseline plus the MINPSID pipeline (weighted-CFG-guided
GA input search, incubative-instruction re-prioritization) run end to end.

Quick start::

    from repro import (get_app, classic_sid, minpsid, Program, SIDConfig,
                       MINPSIDConfig)

    app = get_app("pathfinder")
    args, bindings = app.encode(app.reference_input)
    baseline = classic_sid(Program(app.module), args, bindings, SIDConfig(0.5))
    hardened = minpsid(app, MINPSIDConfig(protection_level=0.5))

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the drivers
that regenerate every table and figure of the paper.
"""

from repro.apps import all_app_names, get_app
from repro.cache import CampaignCache
from repro.fi import run_campaign, run_per_instruction_campaign
from repro.ir import Builder, Module, parse_module, print_module
from repro.minpsid import MINPSIDConfig, MINPSIDResult, minpsid
from repro.runconfig import RunConfig, run_scope
from repro.sid import SIDConfig, SIDResult, classic_sid
from repro.vm import FaultSpec, Program, profile_run

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "get_app",
    "all_app_names",
    "Module",
    "Builder",
    "print_module",
    "parse_module",
    "Program",
    "FaultSpec",
    "profile_run",
    "run_campaign",
    "run_per_instruction_campaign",
    "CampaignCache",
    "RunConfig",
    "run_scope",
    "SIDConfig",
    "SIDResult",
    "classic_sid",
    "MINPSIDConfig",
    "MINPSIDResult",
    "minpsid",
]
