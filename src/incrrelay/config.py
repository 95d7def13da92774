"""Numerical thresholds shared by the pipeline and the simulator check."""

# Denominator floor below which a fault loop is declared unenergized.
I_MIN = 1e-9

# Condition-number level at which linear systems are flagged as near-singular.
COND_WARN = 1e12
