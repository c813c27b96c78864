"""Exception types shared across the package."""


class DataError(Exception):
    """Invalid or inconsistent input data (bad COO records, dimension
    mismatches, empty required sets)."""


class DivergenceError(Exception):
    """Training produced a non-finite accumulator, parameter or validation
    score, or a model whose predictions could overflow; it has diverged."""
