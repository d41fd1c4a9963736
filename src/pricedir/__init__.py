"""Index-membership stock price direction prediction pipeline."""

from .cohort import (
    GroupAssignment,
    MembershipCount,
    membership_counts,
    partition_into_fifths,
    sample_cohort,
)
from .config import PipelineConfig, load_config
from .dataset import (
    LabeledDataset,
    assemble_dataset,
    attach_direction_label,
    attach_lagged_features,
    attach_membership_indicator,
    chronological_split,
    drop_sparse_columns,
    impute_missing,
    normalize_column,
    trim_timespan,
)
from .ingest import (
    CompanyPanel,
    MembershipSnapshot,
    parse_company_panel,
    parse_membership_file,
)
from .logit import LogitFit, fit_logit, predict_proba, select_features
from .mlp import (
    EvalReport,
    NetworkModel,
    backprop_gradients,
    evaluate,
    forward,
    init_network,
    train,
    train_stack,
)
from .pipeline import render_report, run_pipeline
from .synth import (
    PlantedModel,
    bayes_accuracy,
    generate_company_panel,
    generate_membership_series,
)

__version__ = "0.1.0"
