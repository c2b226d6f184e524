"""Performance benchmarks and the perf-regression harness.

``python -m repro bench`` times the sort/retrieve hot paths — one
workload × engine matrix of cells, each parity-checked on an untimed
probe pass before it is timed — and writes a machine-readable baseline
(``BENCH_sort_retrieve.json``).  ``--check`` compares a fresh run
against the committed baseline and fails loudly on regression.  See
:mod:`repro.bench.perf`.
"""

from .perf import (  # noqa: F401
    BASELINE_FILENAME,
    GATES,
    REGRESSION_TOLERANCE,
    check_against_baseline,
    main,
    run_bench,
)
