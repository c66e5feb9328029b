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
    """Curve parametrization has |gamma'| ~ 0, or not finite, somewhere in
    the window, or a window too wide for a finite parameter grid step."""


class StepSizeError(RuntimeError):
    """Curve sampling too coarse: too few samples for the spline, or a
    grid on which one step turns the tangent by more than
    ``curves.MAX_STEP_TURN``, the transported frame drifts from orthonormal,
    or the trapezoid rule's integral of kappa falls below the summed step
    turns by more than ``curves.KAPPA_L1_TOL``; more samples (a larger N)
    are needed."""


class DegenerateSectionError(ValueError):
    """Closed-form cross-section requested at a degenerate parameter choice."""


class UndefinedAngleError(ValueError):
    """Alignment angle is undefined because one of the vectors vanishes."""


class InadmissibleGeometryError(ValueError):
    """b * sup-curvature >= 1: the tube map is not a diffeomorphism."""


class TrackingError(RuntimeError):
    """lambda2 too close to lambda3 for its eigenpair to be differentiated
    along a shape deformation."""


class OutsideHypothesesError(ValueError):
    """An input of conditions.build_report outside the theorem's hypotheses,
    e.g. a scale delta or a lambda2 that is not positive."""
