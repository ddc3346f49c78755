"""Experiment harness regenerating every figure of the paper's evaluation.

Every figure is expressed as a grid of independent cells and executed by the
:mod:`repro.experiments.grid` engine (parallel workers, deterministic
per-cell seeding, on-disk result cache).  Importing this package registers
the cell runners of all seven experiment modules.
"""

from .analytical_acc import (
    FIG1_PROTOCOLS,
    FIG1_SIZES,
    plan_analytical_acc,
    postprocess_analytical_acc,
    run_analytical_acc,
)
from .attribute_inference_rsfd import (
    NK_FACTORS,
    PK_FRACTIONS,
    RSFD_PROTOCOLS,
    classifier_name,
    parse_rsfd_protocol,
    plan_attribute_inference_rsfd,
    postprocess_attribute_inference_rsfd,
    register_classifier_factory,
    resolve_classifier_factory,
    run_attribute_inference_rsfd,
)
from .attribute_inference_rsrfd import (
    RSRFD_PROTOCOLS,
    plan_attribute_inference_rsrfd,
    postprocess_attribute_inference_rsrfd,
    run_attribute_inference_rsrfd,
)
from .cellstore import CELLSTORE_SCHEMA_VERSION, SQLiteCellStore
from .config import FULL, PAPER_EPSILONS, PIE_BETAS, QUICK, SMOKE, UTILITY_EPSILONS, ExperimentConfig
from .grid import (
    GRID_SCHEMA_VERSION,
    CellOutcome,
    CellStore,
    Executor,
    GridCell,
    GridResult,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadedExecutor,
    cell_runner,
    execute_plan,
    get_cell_runner,
    registered_cell_runners,
    resolve_executor,
    run_grid,
)
from .remote import (
    CHAOS_ENV,
    WORKER_INDEX_ENV,
    ChaosConfig,
    CoordinatorClient,
    LeaseTable,
    RemoteExecutor,
    parse_chaos,
    worker_loop,
)
from .reident_rsfd import (
    plan_reidentification_rsfd,
    postprocess_reidentification_rsfd,
    run_reidentification_rsfd,
)
from .reident_smp import (
    SMP_PROTOCOLS,
    plan_reidentification_smp,
    postprocess_reidentification_smp,
    run_reidentification_smp,
)
from .reporting import format_table, mean_rows, pivot_series, save_artifact
from .runner import FigureSpec, available_experiments, figure_spec, main, run_experiment
from .sharding import (
    SHARD_DB_NAME,
    MergedShards,
    ShardedExecutor,
    ShardRunResult,
    journal_artifacts,
    load_plan,
    merge_artifacts,
    plan_fingerprint,
    run_shard,
    shard_positions,
    workspace_store,
    write_plan,
)
from .utility_rsrfd import (
    UTILITY_PROTOCOLS,
    plan_utility_rsrfd,
    postprocess_utility_rsrfd,
    run_utility_rsrfd,
)

__all__ = [
    "ExperimentConfig",
    "QUICK",
    "SMOKE",
    "FULL",
    "PAPER_EPSILONS",
    "UTILITY_EPSILONS",
    "PIE_BETAS",
    # grid engine and cell stores
    "GRID_SCHEMA_VERSION",
    "CELLSTORE_SCHEMA_VERSION",
    "GridCell",
    "CellStore",
    "SQLiteCellStore",
    "GridResult",
    "CellOutcome",
    "cell_runner",
    "get_cell_runner",
    "registered_cell_runners",
    "run_grid",
    "execute_plan",
    # executors and sharding
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "ThreadedExecutor",
    "ShardedExecutor",
    "RemoteExecutor",
    "LeaseTable",
    "CoordinatorClient",
    "ChaosConfig",
    "parse_chaos",
    "worker_loop",
    "CHAOS_ENV",
    "WORKER_INDEX_ENV",
    "resolve_executor",
    "MergedShards",
    "ShardRunResult",
    "plan_fingerprint",
    "shard_positions",
    "write_plan",
    "load_plan",
    "run_shard",
    "merge_artifacts",
    "journal_artifacts",
    "workspace_store",
    "SHARD_DB_NAME",
    "register_classifier_factory",
    "resolve_classifier_factory",
    "classifier_name",
    # figure experiments
    "run_analytical_acc",
    "plan_analytical_acc",
    "postprocess_analytical_acc",
    "FIG1_SIZES",
    "FIG1_PROTOCOLS",
    "run_reidentification_smp",
    "plan_reidentification_smp",
    "postprocess_reidentification_smp",
    "SMP_PROTOCOLS",
    "run_attribute_inference_rsfd",
    "plan_attribute_inference_rsfd",
    "postprocess_attribute_inference_rsfd",
    "RSFD_PROTOCOLS",
    "NK_FACTORS",
    "PK_FRACTIONS",
    "parse_rsfd_protocol",
    "run_reidentification_rsfd",
    "plan_reidentification_rsfd",
    "postprocess_reidentification_rsfd",
    "run_utility_rsrfd",
    "plan_utility_rsrfd",
    "postprocess_utility_rsrfd",
    "UTILITY_PROTOCOLS",
    "run_attribute_inference_rsrfd",
    "plan_attribute_inference_rsrfd",
    "postprocess_attribute_inference_rsrfd",
    "RSRFD_PROTOCOLS",
    # reporting
    "format_table",
    "pivot_series",
    "mean_rows",
    "save_artifact",
    "run_experiment",
    "available_experiments",
    "figure_spec",
    "FigureSpec",
    "main",
]
