"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error raised by this package."""


class NotAPoset(Error):
    """The supplied order pairs violate antisymmetry."""


class NotALattice(Error):
    """Some pair of elements has no unique meet or join."""


class NotBounded(Error):
    """The poset has no global bottom or no global top."""


class UnknownBuiltin(Error):
    """No builtin lattice is registered under the requested name."""


class IndexOutOfRange(Error):
    """An element or factor index is outside the valid range."""


class ParseError(Error):
    """A lattice or quasimodule file could not be parsed."""

    def __init__(self, message, source=None, line=None):
        self.source = source
        self.line = line
        where = ""
        if source is not None:
            where = f"{source}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)


class FactorNotIdeal(Error):
    """A canonical quasimodule factor is not an ideal of the scalar lattice."""


class FactorNotPrincipal(Error):
    """A factor is not an interval of the form [bottom, q]."""


class CarrierTooLarge(Error):
    """The requested carrier exceeds the configured size cap."""


class NotInCarrier(Error):
    """A vector or carrier position does not belong to the quasimodule."""


class EnumerationBudgetExceeded(Error):
    """An exhaustive enumeration outgrew its configured budget."""


class NotZeroDistributive(Error):
    """An operation requiring 0-distributive factors met a factor that is not."""

    def __init__(self, message, factor=None, witness=None):
        self.factor = factor
        self.witness = witness
        super().__init__(message)


class NotClosed(Error):
    """An operation requiring closed input received a non-closed set."""


class FactorizationFailed(Error):
    """A closed set did not factor into closed factor components.

    This never fires when every factor is 0-distributive; reaching it means
    a library bug, not bad input.
    """


class CompanionNotClosed(Error):
    """The companion of a closed set is not itself closed.

    Companions are always closed (A* = A***); reaching this means a library
    bug, not bad input.
    """


class CompanionOverlap(Error):
    """A subquasimodule meets its companion in more or less than {zero}.

    Only the zero vector is orthogonal to itself and every subquasimodule
    holds it; reaching this means a library bug, not bad input.
    """


class SplittingNotClosed(Error):
    """A splitting subquasimodule is not closed.

    Every splitting subquasimodule is closed; reaching this means a library
    bug, not bad input.
    """


class LatticeBoundsMissing(Error):
    """A subquasimodule lattice's nodes do not run from {zero} to the full carrier.

    Every enumerator in this package produces both bounds; reaching this
    from one of them means a library bug, not bad input.
    """


class BasisCheckFailed(Error):
    """A generating set produced as a basis fails the basis test.

    The standard basis of principal factors and every minimal generating set
    found by search are bases; reaching this means a library bug, not bad
    input.
    """


class NodeSetEscaped(Error):
    """The meet or join of two lattice nodes is not a node.

    Subquasimodule and closed-set lattices are closed under intersection and
    under the closure of unions; reaching this means a library bug, not bad
    input.
    """


class UnknownInstance(Error):
    """No bundled reference instance is registered under the requested name."""
