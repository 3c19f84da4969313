"""The public API is ``queryvote.__all__``; growing or shrinking it is a test edit here.

The README may name only public names, and its Python examples must run.
"""

import re
from pathlib import Path

import queryvote as qv

PUBLIC_API = [
    "ALL_STRATEGIES",
    "Axiom",
    "AxiomVerdict",
    "BudgetPolicy",
    "COST_FUNCTIONS",
    "Committee",
    "CultureSpec",
    "Election",
    "ElicitationRun",
    "ExperimentConfig",
    "InfeasibleQueryError",
    "KINDS",
    "OrderedPartition",
    "PreferenceOrder",
    "QuestionType",
    "RefinementQuery",
    "ResultRow",
    "UNLIMITED",
    "answer_query",
    "audit_axiom",
    "audit_grid",
    "borda_scores",
    "borda_vector",
    "bucket_sizes",
    "cost_bucket_count",
    "cost_candidates",
    "cost_computational",
    "cost_last_bucket",
    "cost_variance_aware",
    "default_budget_grid",
    "difficulty_scores",
    "emit_csv",
    "expected_random_distance",
    "format_audit_table",
    "full_resolution_cost",
    "generate",
    "get_cost_function",
    "hamming",
    "k_borda",
    "load_config",
    "load_election",
    "make_question",
    "parse_config",
    "parse_strategy",
    "partial_scores",
    "query_based_committee",
    "random_baseline",
    "read_csv_rows",
    "run_budget_sweep",
    "run_elicitation",
    "select_top_k",
    "strategy_label",
    "variance",
    "write_native",
    "write_preflib",
]


def test_public_api_is_pinned():
    assert sorted(qv.__all__) == PUBLIC_API
    assert all(hasattr(qv, name) for name in PUBLIC_API)


def test_public_api_covers_the_acceptance_suite():
    source = (Path(__file__).parent / "test_acceptance.py").read_text()
    used = set(re.findall(r"\bqv\.(\w+)", source)) | {"BudgetPolicy", "QuestionType"}
    assert used <= set(PUBLIC_API), sorted(used - set(PUBLIC_API))


def test_readme_python_runs_and_names_only_public_api():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for number, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    used = set(re.findall(r"\bqv\.(\w+)", readme))
    assert used <= set(qv.__all__), sorted(used - set(qv.__all__))
