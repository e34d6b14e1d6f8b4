"""Exception hierarchy shared across the package.

Validation errors signal bad user input (unknown catalog name, malformed
code file, out-of-range parameter) and map to CLI exit status 2.
Numerical failures signal a computation that could not be carried out at
the requested operating point (degenerate Gram matrix) and map to exit
status 1.  The truncated Fock space of the ``stab`` Z-check is input: a
cutoff below 2, or one at which the check would hold more than its cap of
2^28 bytes (``stabilizer._ZCHECK_BYTES``), is a validation error, raised
before any array is built.  A cutoff that is merely too small for an
accurate Z-check is neither: ``stab`` warns that the cutoff is strained,
reports the truncation-limited residual and exits 0.  A codeword that
vanishes in the truncated space (its coefficients underflow below the
cutoff) or a residual that is not finite is a numerical failure, never a
residual of 0.  A request whose work is counted in exact integers before
it starts, and exceeds its cap, is a validation error too: the moment
pairs of ``moments``, the KL block entries of ``kl`` and the degree of
``bounds``.
"""


class ValidationError(ValueError):
    """Bad input: unknown name, malformed file, parameter out of range."""


class NumericalFailure(RuntimeError):
    """A computation failed at the requested operating point."""


class DegenerateCodewordsError(NumericalFailure):
    """Codeword Gram matrix is numerically singular at this scale."""


def count_text(count: int) -> str:
    """An exact integer count for an error message: in full up to 64 bits,
    else by its power of two (the digits of a huge integer can exceed
    Python's limit on int-to-str conversion)."""
    return str(count) if count.bit_length() <= 64 else f"over 2^{count.bit_length() - 1}"
