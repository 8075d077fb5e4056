"""fairmon: streaming monitors for time-varying group disparity.

A single observation stream drives per-group shift-corrected mean
estimators; per step, each monitor emits a confidence interval for the
disparity between the two groups' expected well-being, valid under a
known change function and sub-exponential feature tails.
"""

from .discovery import eta, eta_interval, poisson_subexp_params
from .estimator import ShiftedMeanEstimator, SubExpParams, azuma_epsilon
from .errors import AssumptionViolation, ConfigError, TraceFormatError
from .intervals import ConfidenceInterval, interval_sub
from .monitors import (AttentionConfig, AttentionMonitor,
                       AttentionObservation, CoinMonitor, CoinMonitorConfig,
                       CoinObservation, LendingConfig, LendingMonitor,
                       LendingObservation, MonitorOutput, attention_change,
                       build_monitor, coin_change, lending_change)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "AttentionConfig", "AttentionMonitor",
    "AttentionObservation", "CoinMonitor", "CoinMonitorConfig",
    "CoinObservation", "ConfidenceInterval", "ConfigError",
    "LendingConfig", "LendingMonitor", "LendingObservation",
    "MonitorOutput", "ShiftedMeanEstimator", "SubExpParams",
    "TraceFormatError", "attention_change", "azuma_epsilon",
    "build_monitor", "coin_change", "eta", "eta_interval", "interval_sub",
    "lending_change", "poisson_subexp_params",
]
