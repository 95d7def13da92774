"""Shared numerical settings."""

import math
import os

DEFAULT_EPS = 1e-6

# Denominator floor below which a fault loop is declared unenergized.
I_MIN = 1e-9

# Condition-number level at which linear systems are flagged as near-singular.
COND_WARN = 1e12


def eps() -> float:
    """Clamp distance for the normalized fault location.

    Fault locations are restricted to [eps, 1-eps] because the endpoints put
    the fault bus on top of a terminal bus and break the two-segment split.
    Override with the INCRRELAY_EPS environment variable, a finite number
    in (0, 0.5); any other value raises ValueError.
    """
    text = os.environ.get("INCRRELAY_EPS")
    if text is None:
        return DEFAULT_EPS
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 0.5:  # NaN fails too
        raise ValueError(f"INCRRELAY_EPS={text!r} is not a finite number in (0, 0.5)")
    return value
