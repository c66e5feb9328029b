"""Exception types shared across the toolkit."""


class GeometryError(ValueError):
    """Invalid geometry: self-intersecting loop, degenerate input, inverted element."""


class MeshFormatError(ValueError):
    """Malformed or unsupported mesh file content.

    Carries ``line`` (1-based) when the offending line is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StepTooLargeError(ValueError):
    """Vertex perturbation would invert an element.

    ``max_t`` is the largest admissible step for the same velocity field.
    """

    def __init__(self, message, max_t):
        super().__init__(f"{message} (max admissible t = {max_t:.17g})")
        self.max_t = max_t


class SolverError(RuntimeError):
    """Iterative eigensolver failed to converge; ``residuals`` holds the best ones."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class NearDegenerateError(RuntimeError):
    """Deflated linear solve hit a (near-)singular system: multiple eigenvalue
    or a deflation vector that is not its eigenvector."""


class SingularParametrizationError(ValueError):
    """Curve parametrization has |gamma'| ~ 0 somewhere in the window."""


class StepSizeError(RuntimeError):
    """Curve sampling too coarse: too few samples for the spline, or an
    arclength grid on which one step turns the tangent by more than
    ``curves.MAX_STEP_TURN`` or the transported frame drifts from orthonormal;
    more samples (a larger N) are needed."""


class DegenerateSectionError(ValueError):
    """Closed-form cross-section requested at a degenerate parameter choice."""


class UndefinedAngleError(ValueError):
    """Alignment angle is undefined because one of the vectors vanishes."""


class InadmissibleGeometryError(ValueError):
    """b * sup-curvature >= 1: the tube map is not a diffeomorphism."""


class HypothesisViolationError(ValueError):
    """Input lies outside the stated hypothesis range of a formula."""


class TrackingError(RuntimeError):
    """Eigenpair tracking lost along a sweep (eigenvalue crossing detected)."""
