"""Shared exception types."""


class ValidationError(ValueError):
    """Bad arguments or configuration (label out of range, empty mask, ...)."""


class DimensionError(ValidationError):
    """Shape mismatch between arrays or model layers."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required (NaN loss, exploding gradient).

    `slices`, set by a step on a stack of models, lists the positions in the
    stack of the models it failed for; None means every model it ran on."""

    def __init__(self, *args, slices=None):
        super().__init__(*args)
        self.slices = slices

