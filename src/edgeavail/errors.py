"""Exception types shared across the package."""


class EdgeavailError(Exception):
    """Base class for every error raised by this package."""


class ParseError(EdgeavailError):
    """Syntax error in an expression, model document, or fault-tree file.

    Carries the 1-based ``line`` and ``column`` of the offending token and
    the set of token descriptions that would have been accepted there.
    """

    def __init__(self, message, line=None, column=None, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        loc = f" at line {line}, column {column}" if line is not None else ""
        hint = f" (expected: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{hint}")


class SemanticError(EdgeavailError):
    """Well-formed syntax but an invalid model (undeclared name, bad probability, ...)."""


class EvaluationError(EdgeavailError):
    """Expression evaluation failed."""


class UnknownIdentifier(EvaluationError):
    def __init__(self, name, kind="identifier"):
        self.name = name
        super().__init__(f"unknown {kind} '{name}'")


class DivisionByZero(EvaluationError):
    def __init__(self, context=""):
        suffix = f" in {context}" if context else ""
        super().__init__(f"division by zero{suffix}")


class NonFiniteExitRate(EvaluationError):
    """The enabled rates of a marking sum past the largest float."""

    def __init__(self, rate, marking):
        super().__init__(f"exit rate {rate!r} in marking {marking} is not finite")


class ComputationError(EdgeavailError):
    """A valid model that exploration, solving or simulation cannot finish."""


class NegativeTokens(EdgeavailError):
    def __init__(self, place, activity):
        self.place = place
        self.activity = activity
        super().__init__(
            f"firing '{activity}' would drive place '{place}' below zero tokens"
        )


class StateSpaceExceeded(ComputationError):
    def __init__(self, max_states):
        self.max_states = max_states
        super().__init__(f"state space exceeds max_states={max_states}")


class VanishingLoop(ComputationError):
    """A cycle of vanishing markings with return probability ~1."""


class NotIrreducible(ComputationError):
    """The tangible chain is not a single strongly connected class."""


class DenseBlockTooLarge(ComputationError):
    """Exact elimination would leave a dense block too large to allocate."""

    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(
            f"exact GTH would need a dense block of {size} states "
            f"({8 * size * size / 1e6:.0f} MB, limit {limit} states); "
            "use --method iter")


class SparseStagesTooLarge(ComputationError):
    """Exact elimination's sparse stages outgrew their memory budget."""

    def __init__(self, nbytes, states, limit):
        self.nbytes = nbytes
        self.states = states
        self.limit = limit
        super().__init__(
            f"exact GTH's sparse stages hold {nbytes / 1e6:.0f} MB with "
            f"{states} states left (limit {limit / 1e6:.0f} MB); use --method iter")


class UnknownReward(EdgeavailError):
    def __init__(self, name, known):
        self.name = name
        super().__init__(f"unknown reward '{name}' (declared: {', '.join(known) or 'none'})")


class NotConverged(ComputationError):
    def __init__(self, iterations, change, residual):
        self.iterations = iterations
        self.change = change
        self.residual = residual
        super().__init__(
            f"iterative solver did not converge after {iterations} sweeps "
            f"(last change {change:.3e}, residual {residual:.3e})"
        )


class VanishingLivelock(ComputationError):
    def __init__(self, limit):
        super().__init__(
            f"more than {limit} consecutive instantaneous firings without time advance"
        )
