"""Experiment harness: the five reproduced tables (T1-T5) as row
builders over one timed decomposition cell, rendered by
``jobs/tables.py``."""
from .harness import (  # noqa: F401
    BUDGET_S,
    INF,
    fmt_seconds,
    host_line,
    markdown_table,
    run_cell,
    run_serial_iterations_cell,
    table1,
    table2,
    table3,
    table4,
    table5,
    warm_up,
)
