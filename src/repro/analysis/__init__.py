"""Static error-propagation analysis and model-guided fault injection.

Every SDC probability elsewhere in the repo is bought with fault-injection
trials. This package is the repo's first *static-analysis* layer: it predicts
per-instruction SDC probabilities from program structure alone — operand
roles, dominators and loop depth over the mini-IR
(:mod:`repro.analysis.dataflow`), a per-instruction masking classification
(:mod:`repro.analysis.masking`), and a compositional error-propagation
model (:mod:`repro.analysis.model`) in the spirit of FastFlip's
section-level analysis. Per-function **section
summaries** (:mod:`repro.analysis.summaries`) are content-addressed through
:mod:`repro.util.digest` and persisted in :mod:`repro.cache`, so editing one
function only re-analyzes that function.

The model alone never injects a fault; combined with a golden run's dynamic
counts it yields a full cost/benefit profile in milliseconds. The hybrid
predict-then-verify campaign mode (:func:`repro.fi.campaign.
run_model_guided_campaign`) spends FI trials only where the model is
uncertain or near the knapsack cut. :mod:`repro.analysis.validate` measures
how well predictions track injected ground truth (rank correlation, top-k
overlap, hybrid trial savings).
"""

from repro.analysis.dataflow import dominator_tree
from repro.analysis.model import (
    PredictedResult,
    density_ranked,
    model_verify_set,
    predict_sdc_probabilities,
    predicted_whole_program_sdc,
)
from repro.analysis.summaries import FunctionSummary, summarize_function
from repro.analysis.validate import ValidationResult, spearman, validate_model

__all__ = [
    "dominator_tree",
    "FunctionSummary",
    "summarize_function",
    "PredictedResult",
    "density_ranked",
    "model_verify_set",
    "predict_sdc_probabilities",
    "predicted_whole_program_sdc",
    "ValidationResult",
    "spearman",
    "validate_model",
]
