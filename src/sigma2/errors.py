"""Exception hierarchy shared by every sigma2 module.

All failures raised by the library derive from :class:`Sigma2Error`, so callers
can catch one type at the boundary (the CLI maps subclasses to exit codes).
"""


class Sigma2Error(Exception):
    """Base class for all sigma2 errors."""


class DegenerateCurve(Sigma2Error):
    """The genus-1 curve is singular: 4*gamma4^3 + 27*gamma6^2 ~ 0."""


class NumericalFailure(Sigma2Error):
    """An iteration did not reach the requested accuracy."""


class PoleAtArgument(Sigma2Error):
    """Evaluation was requested within the pole-exclusion radius."""


class NotOnStratum(Sigma2Error):
    """The parameter point does not lie on the stratum the operation needs."""


class AmbiguousClassification(Sigma2Error):
    """Root clustering and discriminant magnitudes disagree near a boundary."""


class SingularConfiguration(Sigma2Error):
    """Arguments hit the sigma divisor or another removable-singular locus."""


class BranchPointCase(Sigma2Error):
    """wp'(alpha) = 0: the generic formula does not apply, use the branch-point one."""


class NotBranchPoint(Sigma2Error):
    """A branch-point-only operation was called on a generic context."""


class NotRealLattice(Sigma2Error):
    """Real potential families need Im(omega) = 0 and Re(omega') = 0."""


class NotRealAlpha(Sigma2Error):
    """Real potential families need wp(alpha) real (alpha on a rectangle edge)."""
