"""Joint / partially joint / individual multi-subject source separation."""

from .baseline import run_ji_thica
from .classify import (
    classify_by_feature,
    cluster_subjects,
    detect_joint_slots,
    label_decomposition,
    select_sigma_opt,
)
from .engine import (
    CostMatrix,
    build_cost_matrix,
    build_features,
    cost,
    inner_extract,
    run_jpji_ica,
)
from .metrics import (
    EvaluationReport,
    acc_c,
    acc_counts_run,
    acc_k,
    acc_peer_sets_run,
    evaluate_run,
    jsir,
    jsir_db,
    match_sources,
)
from .numerics import (
    bh_fdr,
    covariance,
    dominant_eigenvector,
)
from .preprocess import (
    PreprocessedSubject,
    estimate_order_bic,
    pca_reduce,
    preprocess_subject,
    whiten,
)
from .simulate import (
    ScenarioSpec,
    add_noise,
    generate_dataset,
    generate_spatial_source,
)
from .types import (
    AlgoConfig,
    Decomposition,
    FeatureTable,
    GroundTruth,
    SourceKind,
    SourceLabel,
    SubjectDataset,
    validate_analysis_input,
)

__version__ = "0.1.0"

__all__ = [
    "AlgoConfig",
    "CostMatrix",
    "Decomposition",
    "EvaluationReport",
    "FeatureTable",
    "GroundTruth",
    "PreprocessedSubject",
    "ScenarioSpec",
    "SourceKind",
    "SourceLabel",
    "SubjectDataset",
    "acc_c",
    "acc_counts_run",
    "acc_k",
    "acc_peer_sets_run",
    "add_noise",
    "bh_fdr",
    "build_cost_matrix",
    "build_features",
    "classify_by_feature",
    "cluster_subjects",
    "cost",
    "covariance",
    "detect_joint_slots",
    "dominant_eigenvector",
    "estimate_order_bic",
    "evaluate_run",
    "generate_dataset",
    "generate_spatial_source",
    "inner_extract",
    "jsir",
    "jsir_db",
    "label_decomposition",
    "match_sources",
    "pca_reduce",
    "preprocess_subject",
    "run_ji_thica",
    "run_jpji_ica",
    "select_sigma_opt",
    "validate_analysis_input",
    "whiten",
]
