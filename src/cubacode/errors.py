"""Exception hierarchy shared across the package.

Validation errors signal bad user input (unknown catalog name, malformed
code file, out-of-range parameter) and map to CLI exit status 2.
Numerical failures signal a computation that could not be carried out at
the requested operating point (degenerate Gram matrix) and map to exit
status 1.  The truncated Fock space of the ``stab`` Z-check is input: a
cutoff below 2, a dimension over ``CUBACODE_DIM_BUDGET`` or a malformed
budget is a validation error.  A cutoff that is merely too small for an
accurate Z-check is neither: ``stab`` warns that the cutoff is strained,
reports the truncation-limited residual and exits 0.  A codeword that
vanishes in the truncated space (its coefficients underflow below the
cutoff) or a residual that is not finite is a numerical failure, never a
residual of 0.
"""


class ValidationError(ValueError):
    """Bad input: unknown name, malformed file, parameter out of range."""


class NumericalFailure(RuntimeError):
    """A computation failed at the requested operating point."""


class DegenerateCodewordsError(NumericalFailure):
    """Codeword Gram matrix is numerically singular at this scale."""
