"""Exception types shared across the package."""


class DataError(Exception):
    """Invalid or inconsistent input data (bad COO records, dimension
    mismatches, empty required sets)."""


class DivergenceError(Exception):
    """Training produced a non-finite accumulator or parameter, or a model
    whose predictions could overflow; the model has diverged."""
