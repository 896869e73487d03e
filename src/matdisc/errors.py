"""Exception types shared across the package.

Each class carries the exit code the command line returns for it: 2 for
any input or parameter the package rejects, unless a subclass says
otherwise.
"""


class MatdiscError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class FormatError(MatdiscError):
    """Malformed input file (bad header, wrong counts, asymmetric data)."""


class NonSymmetricError(MatdiscError):
    """Matrix is not symmetric / Hermitian within tolerance."""


class NoConvergenceError(MatdiscError):
    """Eigendecomposition failed or did not reach the residual target."""


class ZeroVectorError(MatdiscError):
    """A nonzero vector was required."""


class NotBinaryError(MatdiscError):
    """Matrix entries were required to be exactly 0 or 1."""


class TooLargeError(MatdiscError):
    """Input exceeds the size cap of the exact search."""

    exit_code = 4


class TooManyVerticesError(MatdiscError):
    """Graph would exceed linalg.MAX_VERTICES, the dense representation's cap."""


class BadEpsilonError(MatdiscError):
    """Quantization accuracy parameter must lie in (0, 1)."""


class NotNormalizedError(MatdiscError):
    """Input vector must have unit p-norm."""


class ImproperPartitionError(MatdiscError):
    """Partition classes must be nonempty, disjoint, and cover all indices."""


class InvariantError(MatdiscError):
    """A result failed a check that holds by construction; indicates a bug."""

    exit_code = 5


class CertificateLinkViolatedError(InvariantError):
    """An inequality link of a certificate failed; indicates a bug."""


class NotPrimeError(MatdiscError):
    """Parameter p must be prime."""


class BadTError(MatdiscError):
    """Threshold t must lie in 1..p."""


class EmptyCliqueError(MatdiscError):
    """Requested clique would be empty."""


class NotRegularError(MatdiscError):
    """Graph must be regular."""


class ZeroDegreeError(MatdiscError):
    """Graph must have nonzero degree."""


class EmptyGraphError(MatdiscError):
    """Graph must contain at least one edge."""


class FamilyTooSmallError(MatdiscError):
    """A family needs at least three members."""
