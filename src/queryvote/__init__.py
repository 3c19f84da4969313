"""Committee selection from budgeted preference queries.

Simulates elections in which voters answer structured refinement questions
under a spending cap, scores the resulting partial rankings positionally,
and measures how far the chosen committee lands from the full-information
Borda committee.
"""

from types import ModuleType as _ModuleType

from .core import (
    Committee,
    Election,
    PreferenceOrder,
    borda_scores,
    hamming,
    k_borda,
    select_top_k,
)
from .costs import (
    COST_FUNCTIONS,
    Axiom,
    AxiomVerdict,
    audit_axiom,
    audit_grid,
    cost_bucket_count,
    cost_candidates,
    cost_computational,
    cost_last_bucket,
    cost_variance_aware,
    format_audit_table,
    get_cost_function,
    variance,
)
from .cultures import (
    KINDS,
    CultureSpec,
    generate,
)
from .election_io import (
    load_election,
    write_native,
    write_preflib,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    default_budget_grid,
    difficulty_scores,
    emit_csv,
    expected_random_distance,
    full_resolution_cost,
    load_config,
    parse_config,
    random_baseline,
    read_csv_rows,
    run_budget_sweep,
)
from .queries import (
    InfeasibleQueryError,
    OrderedPartition,
    QuestionType,
    RefinementQuery,
    answer_query,
    bucket_sizes,
    make_question,
)
from .scoring import borda_vector, partial_scores, query_based_committee
from .strategies import (
    ALL_STRATEGIES,
    UNLIMITED,
    BudgetPolicy,
    ElicitationRun,
    ProtocolError,
    parse_strategy,
    read_log,
    replay_log,
    run_elicitation,
    strategy_label,
    write_log,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
