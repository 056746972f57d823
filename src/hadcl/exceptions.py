"""Shared exception types."""


class ValidationError(ValueError):
    """Bad arguments or configuration (label out of range, empty mask, ...)."""


class DimensionError(ValidationError):
    """Shape mismatch between arrays or model layers."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required (NaN loss, exploding
    gradient); raised for a whole stack of models when any of them fails."""
