"""Exceptions and warning categories shared across the package.

Warnings flag physically meaningful but numerically delicate situations
(near-exceptional points, overlap matching that became ambiguous, finite
difference steps that were too coarse).  Errors flag contract violations
that make a result meaningless.
"""


class NonConvergenceError(RuntimeError):
    """The underlying QR iteration failed to converge."""


class NotSkewSymmetricError(ValueError):
    """Matrix failed the skew-symmetry tolerance check."""


class PfaffianOverflowError(OverflowError):
    """A Pfaffian's magnitude lies outside the floating-point range."""


class DegenerateAbscissaError(ValueError):
    """All x values coincide; a line fit is undefined."""


class PotentialSingularError(ValueError):
    """Quasiperiodic on-site potential has a vanishing denominator."""


class AlphaZeroError(ValueError):
    """No mobility edge exists in the alpha = 0 limit."""


class ConfigInvalidError(ValueError):
    """Sweep configuration failed validation before any work started."""


class SeriesTooShortError(ValueError):
    """Peak detection needs at least five samples."""


class PeakNotFoundError(RuntimeError):
    """No peak with sufficient prominence was found for some system size.

    Carries the per-size results collected so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else {}


class ExportError(OSError):
    """File export failed; the message carries the offending path."""


class DefectiveMatrixWarning(UserWarning):
    """Two eigenvalues coincide and their eigenvectors have merged."""


class AmbiguousMatchWarning(UserWarning):
    """Best eigenstate overlap fell below 0.5 while matching systems."""


class StepTooLargeWarning(UserWarning):
    """Fidelity stayed below 0.5 after repeated step halving."""


class ModeSingularWarning(UserWarning):
    """Singular momenta were excluded from a mode sum or quadrature."""


class DegenerateGroundStateWarning(UserWarning):
    """The minimum real eigenvalue is degenerate; 'ground state' is ambiguous."""
