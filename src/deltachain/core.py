"""Exponential-basis transfer-matrix algebra for 1D delta-potential chains.

Every cell of a chain is one delta potential of dimensionless strength
``gamma = u*b`` plus a tunnel of length ``ratio*b``.  The physics is reduced
to the dimensionless energy variable ``beta`` (``kappa*b`` below threshold,
``k*b`` above; the regime flag selects the sign of the energy
``E = -(hbar^2 / 2 m b^2) beta^2`` or ``+...beta^2``) and to
``delta = gamma/beta``.  Transfer matrices act on the coefficients of
``exp(-kappa x), exp(+kappa x)`` (Bound) or ``exp(-i k x), exp(+i k x)``
(Scattering) and are unimodular: SL(2,R) in the Bound regime, SU(1,1) form
(``d = conj(a)``, ``c = conj(b)``) in the Scattering regime.

Only exponential-basis matrices are public; the scans multiply Scattering
cells in the real basis (psi, psi'/beta) (_real_cell, _from_real).
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .errors import OverflowRisk

# Golden ratio, the default length ratio of the L cell to the S cell.
TAU = (1.0 + math.sqrt(5.0)) / 2.0

# Exponent guard: roughly half the double-precision limit, leaving headroom
# for products of grown entries.
EXP_LIMIT = 300.0


class Regime(Enum):
    """Energy-sign selector; beta stays positive in both regimes."""

    BOUND = "bound"
    SCATTERING = "scattering"


class CellKind(Enum):
    """The two cell species: S has tunnel length b, L has tunnel length q*b."""

    S = "S"
    L = "L"

    def ratio(self, q: float) -> float:
        return 1.0 if self is CellKind.S else q


@dataclass(frozen=True)
class ChainParams:
    """Dimensionless chain parameters.

    Parameters
    ----------
    beta : float
        Positive energy variable (kappa*b in the Bound regime, k*b in the
        Scattering regime).  The regime flag, not the sign of beta, selects
        the energy sign.
    gamma : float
        Dimensionless potential strength u*b; gamma > 0 is attractive.
    q : float
        Length ratio of cell L to cell S, default the golden ratio.
    regime : Regime
        Bound (negative energy) or Scattering (positive energy).
    """

    beta: float
    gamma: float
    q: float = TAU
    regime: Regime = Regime.BOUND

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.gamma / self.beta):  # gamma and delta = gamma/beta
            raise ValueError(f"gamma and gamma/beta must be finite, got {self.gamma}/{self.beta}")
        if not 0.0 < self.q < math.inf:
            raise ValueError(f"q must be positive and finite, got {self.q}")

    @property
    def delta(self) -> float:
        """delta = gamma / beta, the strength-to-energy ratio."""
        return self.gamma / self.beta

    @property
    def energy(self) -> float:
        """Dimensionless energy: -beta**2 (Bound) or +beta**2 (Scattering)."""
        sign = -1.0 if self.regime is Regime.BOUND else 1.0
        return sign * self.beta * self.beta


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 unimodular matrix in the exponential basis."""

    a: complex
    b: complex
    c: complex
    d: complex

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def x(self) -> complex:
        """Half trace (a + d)/2."""
        return (self.a + self.d) / 2

    @property
    def y(self) -> complex:
        """Half difference (a - d)/2."""
        return (self.a - self.d) / 2

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def adjugate(self) -> "TransferMatrix":
        """[[d, -b], [-c, a]]; the inverse for a unimodular matrix."""
        return TransferMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def max_abs_diff(self, other: "TransferMatrix") -> float:
        """Max-entry norm of the difference."""
        return max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )

    def scaled(self, s: complex) -> "TransferMatrix":
        return TransferMatrix(s * self.a, s * self.b, s * self.c, s * self.d)


def delta_matrix(params: ChainParams) -> TransferMatrix:
    """Transfer matrix of a single delta potential.

    Bound: [[1+delta/2, delta/2], [-delta/2, 1-delta/2]]; Scattering is the
    analytic continuation delta -> i*delta.  det = 1 identically.
    """
    de = params.delta if params.regime is Regime.BOUND else 1j * params.delta
    return TransferMatrix(1 + de / 2, de / 2, -de / 2, 1 - de / 2)


def tunnel_matrix(params: ChainParams, length_ratio: float) -> TransferMatrix:
    """Diagonal transfer matrix of a free tunnel of length ``length_ratio*b``.

    Bound: diag(exp(-beta*r), exp(+beta*r)).  Scattering:
    diag(exp(+i beta r), exp(-i beta r)), so the d slot carries
    lambda = exp(-i beta r) and the S-cell half trace comes out as
    cos(beta) - (delta/2) sin(beta).
    """
    if not length_ratio > 0.0:
        raise ValueError(f"length_ratio must be positive, got {length_ratio}")
    t = params.beta * length_ratio
    if params.regime is Regime.BOUND:
        if t > EXP_LIMIT:
            raise OverflowRisk(
                f"beta*ratio = {t:.3g} exceeds the exponent guard {EXP_LIMIT:g}"
            )
        lam = float(np.exp(t))
        return TransferMatrix(1.0 / lam, 0.0, 0.0, lam)
    lam = cmath.exp(-1j * t)
    return TransferMatrix(1.0 / lam, 0.0, 0.0, lam)


def cell_matrix(params: ChainParams, kind: CellKind) -> TransferMatrix:
    """Transfer matrix of one cell: delta factor times tunnel factor.

    Bound entries: a = lam^-1 (1+delta/2), b = lam delta/2,
    c = -lam^-1 delta/2, d = lam (1-delta/2) with lam = exp(beta*ratio).
    """
    ratio = kind.ratio(params.q)
    return compose(delta_matrix(params), tunnel_matrix(params, ratio))


def _real_cell(delta, c, s):
    """Scattering cell (A, B, C, D) on (psi, psi'/beta), c, s = cos, sin(beta*ratio); floats or arrays alike.

    cell_matrix is T^-1 [[A, B], [C, D]] T, T = [[1, 1], [-i, i]] mapping (cm, cp) to (psi, psi'/beta).
    """
    return c, -s, s + delta * c, c - delta * s


def _from_real(A, B, C, D):
    """(a, b, c, d) of T^-1 [[A, B], [C, D]] T (_real_cell) as complex128; d = conj(a), c = conj(b) exactly.

    Floats give 0-d arrays.  The parts are set, not summed, so a zero keeps its sign.
    """
    a, b = np.empty(np.shape(A), complex), np.empty(np.shape(A), complex)
    a.real, a.imag, b.real, b.imag = 0.5 * (A + D), 0.5 * (C - B), 0.5 * (A - D), 0.5 * (B + C)
    return a, b, b.conj(), a.conj()


def _mul(X, Y):
    """Product of two 2x2 matrices given as (a, b, c, d); floats or arrays alike."""
    a, b, c, d = X
    e, f, g, h = Y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def compose(A: TransferMatrix, B: TransferMatrix) -> TransferMatrix:
    """Ordinary matrix product A*B.

    Word concatenation maps to same-order composition:
    matrix(WV) = matrix(W) * matrix(V).
    """
    return TransferMatrix(*_mul(A.entries(), B.entries()))


# Letters per block of _fold.  A Sturmian word has n + 1 distinct factors of
# length n, so W_m has at most 5 distinct blocks.
_BLOCK = 4


def _fold(letters: str, cells: dict, mul):
    """Product of cells[ch] over letters by mul, each distinct _BLOCK-letter block multiplied once.

    Each block is folded letter by letter from its first cell, then the
    blocks in word order: a word of at most _BLOCK + 1 letters keeps the
    letter fold's order, and no word takes more than its len(letters) - 1
    products.  The right factor of every product is one cell or one block,
    as in the letter fold; a deeper tree multiplies long sub-products, which
    cancel.
    """
    blocks = [letters[i:i + _BLOCK] for i in range(0, len(letters), _BLOCK)]
    memo = {s: reduce(mul, map(cells.__getitem__, s)) for s in dict.fromkeys(blocks)}
    return reduce(mul, map(memo.__getitem__, blocks))


def power_closed(M: TransferMatrix, n: int) -> TransferMatrix:
    """M**n in closed form via the Chebyshev identity.

    M^n = U_{n-1}(x) M - U_{n-2}(x) I with x the half trace and U_k the
    Chebyshev polynomials of the second kind, evaluated by the forward
    recurrence U_{k+1} = 2x U_k - U_{k-1} in complex arithmetic.  Valid for
    all x; inside a band germ (|x| <= 1, x = cos Kb) it reduces to the
    sine-quotient forms sin(n Kb)/sin(Kb) without their edge singularity.
    At n Kb = mu*pi the result is (-1)^mu times the identity.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = M.x
    ax = abs(x)
    if ax > 1.0 and n * math.acosh(ax) > EXP_LIMIT:
        raise OverflowRisk(
            f"n*acosh|x| = {n * math.acosh(ax):.3g} exceeds the exponent guard"
        )
    if n == 1:
        return M
    u_prev, u_cur = 1.0 + 0j, 2 * x  # U_0, U_1
    for _ in range(n - 2):
        u_prev, u_cur = u_cur, 2 * x * u_cur - u_prev
    # u_cur = U_{n-1}, u_prev = U_{n-2}
    return TransferMatrix(
        u_cur * M.a - u_prev,
        u_cur * M.b,
        u_cur * M.c,
        u_cur * M.d - u_prev,
    )


def _finite_matrix(M: TransferMatrix) -> TransferMatrix:
    """M, raising OverflowRisk where an entry has overflowed to inf or NaN."""
    if not all(map(cmath.isfinite, M.entries())):
        raise OverflowRisk("transfer-matrix entries are not finite")
    return M


def commutator(A: TransferMatrix, B: TransferMatrix) -> TransferMatrix:
    """K(A, B) = A B A^-1 B^-1, inverses taken via the adjugate; OverflowRisk if it overflows."""
    return _finite_matrix(compose(compose(compose(A, B), A.adjugate()), B.adjugate()))


def commutator_invariant(params: ChainParams) -> float:
    """Closed-form half trace of the commutator of the S and L cells.

    Bound: 1 + (delta^2/2) sinh^2((q-1) beta);
    Scattering: 1 + (delta^2/2) sin^2((q-1) beta).
    Equals 2*I + 1 for the substitution invariant I; it is >= 1 in the Bound
    regime (strictly > 1 for gamma != 0: the two cells never commute) and
    returns to exactly 1 at positive energies with (q-1)*beta in pi*Z.
    """
    de = params.delta
    t = (params.q - 1.0) * params.beta
    osc = math.sinh(t) if params.regime is Regime.BOUND else math.sin(t)
    return 1.0 + 0.5 * de * de * osc * osc
