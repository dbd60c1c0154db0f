"""Exception types shared across the library."""


class PisotCodingError(Exception):
    """Base class for all library-specific errors."""


class Reducible(PisotCodingError):
    """Input polynomial factors over the integers; carries a witness factor."""

    def __init__(self, factor, message=None):
        self.factor = tuple(factor)
        super().__init__(message or f"polynomial is reducible, witness factor (ascending) {self.factor}")


class NotPisot(PisotCodingError):
    """Input polynomial has no Pisot root; carries an approximate offending root box."""

    def __init__(self, root_box=None, message=None):
        self.root_box = root_box
        super().__init__(message or f"polynomial is not Pisot, offending root near {root_box}")


class NotUnit(PisotCodingError):
    """Operation requires a unit Pisot field (|constant term| = 1)."""


class PrecisionCapExceeded(PisotCodingError):
    """Newton refinement of the complex root boxes did not converge in its step budget."""


class OrbitCapExceeded(PisotCodingError):
    """Exact orbit ran past the configured cap before cycling."""


class OutOfRange(PisotCodingError):
    """Argument outside the operation's required range."""


class NotInHomoclinicGroup(PisotCodingError):
    """xi is not of the form xi0 * (integer element)."""


class ZeroHomoclinicPoint(PisotCodingError):
    """The zero homoclinic point parametrises no coding."""


class NotAUnit(PisotCodingError):
    """Element is not an invertible integer element of the ring."""


class CharPolyMismatch(PisotCodingError):
    """Matrix characteristic polynomial does not match the field polynomial."""


class NotUnimodular(PisotCodingError):
    """Associated form value is not +-1 at the given integer vector."""


class SearchBudgetExceeded(PisotCodingError):
    """Work counted before it starts exceeds a fixed budget: an exhaustive search
    box's points, estimate_L1's words or the automaton report's table entries."""


class NotConjugatePair(PisotCodingError):
    """Matrices are not conjugated by the supplied unimodular matrix."""


class ConvergenceFailure(PisotCodingError):
    """Iterative eigen computation failed to converge."""


class CounterexampleFound(PisotCodingError):
    """A collision not explained by the kernel lattice; would falsify the run's premises."""

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or "unexplained collision in injectivity experiment")


class OracleMismatch(PisotCodingError):
    """Two independent enumerations disagreed; a defect to report, never expected."""


class SchurCohnDegenerate(PisotCodingError):
    """Singular case in the disk root count; caller retries with a perturbed radius."""
