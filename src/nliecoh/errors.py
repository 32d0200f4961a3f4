"""Exception hierarchy shared by every nliecoh module."""


class NliecohError(Exception):
    """Base class for all library errors."""


class ParseError(NliecohError):
    """Malformed input file, or a rational too long to read or write."""


class DimensionMismatch(NliecohError):
    """Vector or matrix shapes do not agree."""


class IndexOutOfRange(NliecohError):
    """A structure-constant key addresses a nonexistent basis vector."""


class ArityMismatch(NliecohError):
    """Two algebras of different arity were combined."""


class DegreeMismatch(NliecohError):
    """A cochain was used at the wrong degree."""


class OrderMismatch(NliecohError):
    """Truncation orders of deformation data do not agree."""


class InvalidAlgebra(NliecohError):
    """An operation required a structure passing the fundamental identity."""


class InvalidMorphism(NliecohError):
    """An operation required a validated morphism."""


class SubspaceViolation(NliecohError):
    """Claimed coboundaries fall outside the cocycle space."""


class BrokenComplex(NliecohError):
    """Consecutive differentials fail to compose to zero."""


class NotCocycle(NliecohError):
    """A cohomologous-class operation received a non-cocycle."""


class NotValidated(NliecohError):
    """Deformation data used before its order-by-order checks passed."""


class ObstructionNotCocycle(NliecohError):
    """The extension obstruction failed its cocycle check (internal bug)."""
