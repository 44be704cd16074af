"""Typed errors shared by the library and surfaced as machine-readable tokens by the CLI."""


class ChainError(Exception):
    """Base class for all typed errors raised by this package.

    ``str(err)`` is the human-readable message; :attr:`token` is the stable
    machine-readable name the CLI prints.
    """

    @property
    def token(self) -> str:
        return type(self).__name__


class OverflowRisk(ChainError):
    """A transfer-matrix entry, tunnel factor or wavefunction value is not finite in float64."""


class GridTooCoarse(ChainError):
    """Counted band edges or bound roots could not be isolated; the message
    names the interval and the reason."""


class OutOfBand(ChainError):
    """|x| > 1: the requested energy lies outside the band germ."""


class DegenerateCell(ChainError):
    """The cell has no band structure to diagonalize (e.g. zero-strength potential)."""


class BoundOutsideGerm(ChainError):
    """The single-well bound energy does not lie inside the cell's band germ."""


class ResonancePole(ChainError):
    """The scattering denominator d vanished (|d| below threshold)."""


class OrderTooLarge(ChainError):
    """Substitution order exceeds the word-length guard."""


class TraceMapMismatch(ChainError, ArithmeticError):
    """The scalar trace map and the matrix recursion disagree beyond tolerance."""


class ParseError(ChainError):
    """A word specification failed to parse.

    ``position`` is the 0-based index of the offending character when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
