"""Hardness-aware dynamic curriculum fine-tuning engine."""

__version__ = "0.1.0"

from . import curriculum, data, harness, metrics, numcore, slidelevel  # noqa: F401
from .exceptions import (  # noqa: F401
    DimensionError, NumericError, ValidationError,
)
