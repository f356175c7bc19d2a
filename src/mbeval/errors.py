"""Exception taxonomy for the evaluation engine."""


class EvalError(Exception):
    """Base class for evaluation failures."""


class DivergentArgument(EvalError):
    """Series argument outside the divergence boundary (e.g. pFq with p=q+1, |z|>=1)."""


class LowerPole(EvalError):
    """A lower series parameter is a nonpositive integer."""


class OutsideROC(EvalError):
    """Arguments outside the region of convergence of the series family."""


class DomainError(EvalError, ValueError):
    """Argument outside the domain of a special function or catalog entry."""


class NoConvergence(EvalError):
    """Quadrature or summation failed to meet tolerance within budget."""


class PoleProximity(EvalError):
    """Parameter too close to a pole of the integral family."""


class PoleError(EvalError):
    """Parameter exactly at a pole of the integral family."""


class InfeasibleContour(EvalError):
    """No straight contour separates the gamma pole families."""


class SingularElimination(EvalError):
    """Bracket elimination block is singular for the requested choice."""


class NegativeDimension(EvalError):
    """Contour-variable declaration inconsistent with bracket count."""


class NoCandidates(EvalError):
    """Every choice of free indices gives a singular dependent block."""


class NoneNonsingular(EvalError):
    """No pole subset with nonsingular coefficient matrix."""


class NoCover(EvalError):
    """No residue-series group converges at the requested parameter direction."""


class SlowConvergence(EvalError):
    """Residue-series ratio test too close to 1 at this parameter point."""


class JetOrderOverflow(EvalError):
    """Pole multiplicity exceeds the configured maximum jet order."""


class ResonantLattice(EvalError):
    """Pole hyperplanes of distinct families coincide at this parameter point."""


class NoClosedForm(EvalError):
    """The catalog has no closed form for the requested entry/parameters."""


class DegenerateParameters(EvalError):
    """Pole families collide at the requested parameter point (exact rational test)."""


class MethodUnavailable(EvalError):
    """The requested evaluation method is not available for this entry."""


class UsageError(Exception):
    """Command-line usage error (exit code 64)."""
