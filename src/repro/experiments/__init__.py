"""Experiment harnesses: one module per paper table/figure.

Each module exposes a ``run_*`` function returning plain dataclasses /
dicts, and a ``format_*`` helper printing the same rows/series the
paper reports side by side with the measured values.  The benchmarks in
``benchmarks/`` are thin wrappers around these.  Import the harness
module itself (``repro.experiments.figure4``, ...): this package
re-exports nothing, so the campaign engine every process imports does
not load the figure and table harnesses with it.
"""
