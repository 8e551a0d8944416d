"""Fault-injection framework.

One fault class per Table 1 failure row, plus the operator / network /
unknown categories needed by the Figures 1-2 dependability study.  Each
fault perturbs the simulator the way its real counterpart would and
knows (as ground truth for benchmarks only) which fix applications
repair it.
"""
