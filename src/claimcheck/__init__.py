"""claimcheck: an explain-then-predict claim-verification pipeline toolkit.

Cleans claim/evidence corpora, generates bounded rationales from evidence,
classifies verdicts through a two-choice question-answer prompt, assembles
template-based natural-language explanations, and audits every outcome
with Shapley attribution, macro-F1 scoring, and entailment checks.
"""

from .attribution import (
    AttributionResult,
    CoalitionValueFn,
    evidence_features,
    exact_shapley,
    export_highlights,
    rationale_value_fn,
    sampled_shapley,
)
from .corpus import (
    ClaimRecord,
    CorpusSplits,
    CorpusStats,
    SourceBlocklist,
    VerdictLabel,
    compute_stats,
    filter_evidence,
    map_verdict_label,
    parse_corpus,
    split_corpus,
)
from .errors import BackendError, BackendFailure, PipelineError, ValidationError
from .evaluation import (
    AnnotationSummary,
    NliReport,
    NliVerdict,
    aggregate_annotations,
    build_nli_prompt,
    evaluate_nli,
    macro_f1,
)
from .nle import NleText, compose_nle, parse_nle
from .rationale import (
    Rationale,
    SummarizationBackend,
    SummaryConfig,
    generate_rationale,
    stub_summarize,
)
from .verdict import (
    MemorizingBackend,
    Text2TextBackend,
    TrainConfig,
    TrainLog,
    VerdictPrediction,
    build_copa_prompt,
    classify,
    decode_verdict,
    fine_tune,
    make_training_pairs,
)

__version__ = "0.1.0"
