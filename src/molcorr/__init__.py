"""molcorr: training-free refinement of ML molecular property predictions.

A trained model's predictions are ingested from files, relevant labeled
molecules (and the model's own validation behaviour) are retrieved by
embedding similarity, and an LLM backend is asked to refine each
prediction, with an optional self-correction round. Deterministic mock
backends make every part of the pipeline runnable offline.
"""

from .correct import (
    CorrectionOutcome,
    RunConfig,
    correct_one,
    correct_split,
    run_summary,
    should_self_correct,
    write_outcomes,
)
from .embed import (
    LocalHashConfig,
    embed_molecule,
    embed_text,
    embed_texts,
    embedder_fingerprint,
)
from .evaluate import (
    MetricValue,
    ablation_points,
    improvement_pct,
    report_table,
    rmse,
    roc_auc,
    run_ablation,
)
from .ingest import (
    CLASSIFICATION,
    REGRESSION,
    DatasetBundle,
    Metric,
    MoleculeRecord,
    Split,
    TaskKind,
    TaskSpec,
    load_molecules,
    load_predictions,
)
from .knowledge import (
    Entry,
    Jump,
    KnowledgeDatabase,
    Random,
    RetrievedContext,
    TopK,
    build_database,
    load_database,
    retrieve,
    save_database,
)
from .llmclient import (
    LlmExchange,
    MockEcho,
    MockNoisyOracle,
    MockPerfectOracle,
    MockScripted,
    QueryMeta,
    RemoteChatConfig,
    complete,
)
from .parse import (
    ConsistencyStats,
    ParseError,
    ParsedAnswer,
    consistency_rate,
    parse_response,
    render_answer,
)
from .prompt import (
    PromptBundle,
    PromptKind,
    build_corrector_prompt,
    build_predictor_prompt,
    build_self_correction_prompt,
)

__version__ = "0.1.0"
