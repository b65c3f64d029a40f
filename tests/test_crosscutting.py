"""Cross-cutting properties: duplication on all apps, outcome bookkeeping,
error taxonomy, and the public API surface."""

import pytest

from repro.detectors.transform import duplicate_instructions
from repro.errors import (
    ArithmeticTrap,
    ConfigError,
    DetectedError,
    HangTimeout,
    IRError,
    MemoryFault,
    ParseError,
    ReproError,
    StackOverflow,
    Trap,
    VerificationError,
)
from repro.fi.faultmodel import injectable_iids
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run


class TestErrorTaxonomy:
    def test_traps_are_traps(self):
        for exc in (MemoryFault, ArithmeticTrap, HangTimeout, DetectedError,
                    StackOverflow):
            assert issubclass(exc, Trap)

    def test_toolchain_errors_are_not_traps(self):
        for exc in (IRError, VerificationError, ParseError, ConfigError):
            assert issubclass(exc, ReproError)
            assert not issubclass(exc, Trap)

    def test_detected_error_payload(self):
        e = DetectedError("chk.5", 1.0, 2.0)
        assert e.check_name == "chk.5" and e.lhs == 1.0 and e.rhs == 2.0


class TestDuplicationOnAllApps:
    """The duplication pass must preserve golden behaviour on every
    benchmark — the strongest end-to-end check of the transformation."""

    def test_protect_quarter_of_instructions(self, each_app):
        app = each_app
        inj = injectable_iids(app.module)
        selected = inj[:: max(1, len(inj) // 20)][:25]
        prot = duplicate_instructions(app.module, selected)
        args, bindings = app.encode(app.reference_input)
        golden = app.program.run(args=args, bindings=bindings)
        run = Program(prot.module).run(args=args, bindings=bindings)
        assert run.output == golden.output
        # Protection adds dynamic work, never removes it.
        assert run.steps >= golden.steps

    def test_protect_everything(self, each_app):
        """Full duplication (Fig. 1b) also preserves behaviour."""
        app = each_app
        prot = duplicate_instructions(app.module, injectable_iids(app.module))
        args, bindings = app.encode(app.reference_input)
        golden = app.program.run(args=args, bindings=bindings)
        run = Program(prot.module).run(args=args, bindings=bindings)
        assert run.output == golden.output


class TestProfilesOnApps:
    def test_profile_consistency(self, each_app):
        app = each_app
        args, bindings = app.encode(app.reference_input)
        prof = profile_run(app.program, args=args, bindings=bindings)
        # Terminator counts define block weights; entry executes >= once.
        entry = app.module.functions["main"].entry
        term_iid = entry.terminator.iid
        assert prof.instr_counts[term_iid] >= 1
        # Steps accounting matches the per-instruction counts.
        assert prof.steps == sum(prof.instr_counts)


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__

    def test_subpackage_exports(self):
        # NB: use importlib — `repro.minpsid` the *attribute* is the pipeline
        # function (it shadows the submodule on the parent package), so
        # attribute-style import would not reach the module object.
        import importlib

        for modname in (
            "repro.exp", "repro.fi", "repro.ir", "repro.minpsid",
            "repro.sid", "repro.vm", "repro.apps", "repro.util",
        ):
            mod = importlib.import_module(modname)
            for name in mod.__all__:
                assert getattr(mod, name) is not None, f"{modname}.{name}"
