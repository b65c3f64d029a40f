"""Unit tests for the static error-propagation analysis (``repro.analysis``)."""

import pytest

from repro.analysis.dataflow import (
    build_def_use,
    dominator_tree,
    loop_depth,
)
from repro.analysis.masking import DEFAULT_MASKING, MaskingModel
from repro.analysis.model import (
    density_ranked,
    model_verify_set,
    predict_sdc_probabilities,
    predicted_whole_program_sdc,
)
from repro.analysis.summaries import module_summaries, summarize_function
from repro.analysis.validate import spearman, top_k_overlap, validate_model
from repro.fi.faultmodel import injectable_iids
from repro.ir.parser import parse_module
from repro.obs import MemorySink, session
from repro.runconfig import run_scope
from repro.vm.profiler import profile_run

LOOP = """
module loop

func @main(%n: i64) -> void {
entry:
  %i.slot.0 = alloca i64 x 1
  store i64 0, ptr %i.slot.0
  br head
head:
  %i.1 = load i64 ptr %i.slot.0
  %cmp.2 = icmp slt i64 %i.1, i64 %n
  condbr i1 %cmp.2, body, done
body:
  %dbl.3 = mul i64 %i.1, i64 2
  emit i64 %dbl.3
  %next.4 = add i64 %i.1, i64 1
  store i64 %next.4, ptr %i.slot.0
  br head
done:
  ret
}
"""


@pytest.fixture()
def loop_module():
    return parse_module(LOOP)


class TestDataflow:
    def test_def_use_edges(self, loop_module):
        fn = loop_module.functions["main"]
        graph = build_def_use(loop_module)
        by_name = {i.name: i for i in fn.instructions() if i.name}
        # %i.1 is consumed by the compare, the multiply, and the add.
        users = {u.user.name for u in graph.uses_of(by_name["i.1"].iid)}
        assert {"cmp.2", "dbl.3", "next.4"} <= users

    def test_dominator_tree(self, loop_module):
        fn = loop_module.functions["main"]
        idom = dominator_tree(fn)
        assert idom["head"] == "entry"
        assert idom["body"] == "head"
        assert idom["done"] == "head"

    def test_loop_depth(self, loop_module):
        fn = loop_module.functions["main"]
        depth = loop_depth(fn)
        assert depth["entry"] == 0
        assert depth["head"] == 1
        assert depth["body"] == 1
        assert depth["done"] == 0


class TestMasking:
    def test_bit_observability_integer_is_full(self, loop_module):
        instr = next(
            i for i in loop_module.instructions() if i.opcode == "mul"
        )
        assert DEFAULT_MASKING.bit_observability(instr, rel_tol=0.0) == 1.0

    def test_tolerance_hides_low_mantissa_bits(self):
        mod = parse_module(
            "module t\n\nfunc @main(%x: f64) -> void {\nentry:\n"
            "  %y.0 = fadd f64 %x, f64 %x\n  emit f64 %y.0\n  ret\n}\n"
        )
        instr = next(i for i in mod.instructions() if i.opcode == "fadd")
        full = DEFAULT_MASKING.bit_observability(instr, rel_tol=0.0)
        loose = DEFAULT_MASKING.bit_observability(instr, rel_tol=1e-3)
        assert 0.0 < loose < full <= 1.0

    def test_fingerprint_tracks_constants(self):
        a = MaskingModel()
        b = MaskingModel(cmp_equality=0.999)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == MaskingModel().fingerprint()


class TestSummaries:
    def test_emit_feeds_the_sink_channel(self, loop_module):
        fn = loop_module.functions["main"]
        summary = summarize_function(fn, DEFAULT_MASKING, cache=False)
        instrs = list(fn.instructions())
        mul_idx = next(
            k for k, i in enumerate(instrs) if i.opcode == "mul"
        )
        assert summary.instr[mul_idx].sink > 0.5  # emitted directly

    def test_section_summaries_are_cached_per_function(
        self, loop_module, tmp_path
    ):
        sink = MemorySink()
        with run_scope(cache=tmp_path / "store"), session(sink=sink):
            module_summaries(loop_module, DEFAULT_MASKING)
            module_summaries(loop_module, DEFAULT_MASKING)
        counters = sink.records[-1]["fields"]["counters"]
        assert counters["model.summary_misses"] == 1
        assert counters["model.summary_hits"] == 1

    def test_masking_change_invalidates_the_summary_cache(
        self, loop_module, tmp_path
    ):
        sink = MemorySink()
        with run_scope(cache=tmp_path / "store"), session(sink=sink):
            module_summaries(loop_module, DEFAULT_MASKING)
            module_summaries(loop_module, MaskingModel(cmp_equality=0.999))
        counters = sink.records[-1]["fields"]["counters"]
        assert counters["model.summary_misses"] == 2
        assert counters.get("model.summary_hits", 0) == 0


class TestModel:
    def test_predictions_cover_executed_instructions(self, loop_module):
        from repro.vm.interpreter import Program

        program = Program(loop_module)
        dyn = profile_run(program, args=[4])
        predicted = predict_sdc_probabilities(loop_module, dyn)
        assert set(predicted.sdc_prob) == set(injectable_iids(loop_module))
        executed = [
            iid for iid in predicted.sdc_prob if dyn.instr_counts[iid] > 0
        ]
        assert any(predicted.sdc_prob[iid] > 0 for iid in executed)
        assert all(
            predicted.sdc_prob[iid] == 0.0
            for iid in predicted.sdc_prob
            if dyn.instr_counts[iid] == 0
        )
        assert 0.0 <= predicted_whole_program_sdc(predicted) <= 1.0

    def test_emitted_value_ranks_above_dead_arithmetic(self, loop_module):
        from repro.vm.interpreter import Program

        program = Program(loop_module)
        dyn = profile_run(program, args=[4])
        predicted = predict_sdc_probabilities(loop_module, dyn)
        instrs = {i.iid: i for i in loop_module.instructions()}
        mul = next(
            iid for iid, i in instrs.items() if i.opcode == "mul"
        )
        cmp = next(
            iid for iid, i in instrs.items() if i.opcode == "icmp"
        )
        # The multiply is emitted verbatim; the compare only steers an
        # already-converging loop exit.
        assert predicted.sdc_prob[mul] > 0.5
        assert predicted.sdc_prob[mul] >= predicted.sdc_prob[cmp] * 0.5

    def test_verify_set_is_a_band_around_the_cut(self, loop_module):
        from repro.vm.interpreter import Program

        program = Program(loop_module)
        dyn = profile_run(program, args=[4])
        predicted = predict_sdc_probabilities(loop_module, dyn)
        cycles = {
            iid: dyn.instr_cycles[iid] for iid in injectable_iids(loop_module)
        }
        ranked = density_ranked(predicted, cycles, dyn.total_cycles)
        band = model_verify_set(
            predicted, cycles, dyn.total_cycles, 0.5, verify_margin=0.3
        )
        assert band
        assert set(band) <= set(ranked)
        positions = sorted(ranked.index(iid) for iid in band)
        # Contiguous slice of the density ranking.
        assert positions == list(
            range(positions[0], positions[0] + len(positions))
        )


class TestValidate:
    def test_spearman_perfect_and_inverted(self):
        xs = [0.1, 0.4, 0.9, 0.2]
        assert spearman(xs, xs) == pytest.approx(1.0)
        assert spearman(xs, [-v for v in xs]) == pytest.approx(-1.0)

    def test_spearman_handles_ties_and_degenerates(self):
        assert spearman([1.0, 1.0], [0.3, 0.9]) == 0.0
        assert spearman([], []) == 0.0
        with pytest.raises(ValueError):
            spearman([1.0], [1.0, 2.0])

    def test_top_k_overlap(self):
        pred = {1: 0.9, 2: 0.8, 3: 0.1, 4: 0.0}
        meas = {1: 0.7, 2: 0.1, 3: 0.8, 4: 0.0}
        assert top_k_overlap(pred, meas, 2) == pytest.approx(0.5)

    def test_validate_model_end_to_end(self, pathfinder_app):
        from repro.fi.campaign import run_per_instruction_campaign

        app = pathfinder_app
        a, b = app.encode(app.reference_input)
        dyn = profile_run(app.program, args=a, bindings=b)
        fi = run_per_instruction_campaign(
            app.program, 4, seed=7, args=a, bindings=b,
            rel_tol=app.rel_tol, abs_tol=app.abs_tol, profile=dyn,
        )
        predicted = predict_sdc_probabilities(
            app.module, dyn, rel_tol=app.rel_tol
        )
        v = validate_model(predicted, fi, app=app.name)
        assert v.app == app.name
        assert v.n_instructions > 0
        assert -1.0 <= v.spearman <= 1.0
        assert 0.0 <= v.top_k_overlap <= 1.0
        assert v.mean_abs_error >= 0.0
        # The model must beat random ranking comfortably on this app.
        assert v.spearman > 0.3
        payload = v.to_dict()
        assert payload["spearman"] == v.spearman
