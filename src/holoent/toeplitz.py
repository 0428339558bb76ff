"""Toeplitz-type compressions of multiplication operators.

Symbols are finite sums of rational monomials in the affine coordinates
of the two sphere factors. Matrix elements against the orthonormal
product basis reduce to the closed-form monomial moments, so the
orthogonal projection onto the holomorphic subspace never has to be
materialized: expanding against the basis realizes it implicitly.
Every term is a product f(z) g(w), so its compression is the tensor
product of two one-factor compressions, and each of those is a single
shifted diagonal of length at most k+1. Moments and basis weights are
exact; each factor entry is rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .sections import _check_level, _mode_weights, monomial_integral
from .states import StateTensor, _freeze_field, orthonormal_rows


@dataclass(frozen=True)
class SymbolTerm:
    """One term coef * z^pz zbar^qz w^pw wbar^qw / ((1+|z|^2)^nz (1+|w|^2)^nw)."""

    coef: object
    pz: int = 0
    qz: int = 0
    pw: int = 0
    qw: int = 0
    nz: int = 0
    nw: int = 0

    def __post_init__(self):
        for name in ("pz", "qz", "pw", "qw", "nz", "nw"):
            if getattr(self, name) < 0:
                raise ValueError(f"exponent {name} must be nonnegative")


@dataclass(frozen=True)
class SymbolExpr:
    """Finite rational-monomial symbol on the product of two affine charts."""

    terms: tuple = ()
    offset: object = 0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def is_real_valued(self) -> bool:
        """Syntactic check: term set closed under conjugation and real offset."""
        if complex(self.offset).imag != 0.0:
            return False
        combined: dict = {}
        for t in self.terms:
            key = (t.pz, t.qz, t.pw, t.qw, t.nz, t.nw)
            combined[key] = combined.get(key, 0) + complex(t.coef)
        for (pz, qz, pw, qw, nz, nw), coef in combined.items():
            partner = combined.get((qz, pz, qw, pw, nz, nw), 0)
            if partner != coef.conjugate():
                return False
        return True


@dataclass(frozen=True)
class ToeplitzMatrix:
    """Operator matrix in the product basis e_a (x) e_b, lexicographic in (a, b).

    Entries are stored as a read-only complex array (see states._freeze_field).
    """

    k: int
    entries: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "entries", lambda k: ((k + 1) ** 2,) * 2)

    @property
    def dim(self) -> int:
        return (self.k + 1) ** 2

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "dim": self.dim,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }


def evaluate_symbol(symbol: SymbolExpr, z: complex, w: complex) -> complex:
    """Literal pointwise evaluation of the symbol."""
    z = complex(z)
    w = complex(w)
    dz = 1.0 + abs(z) ** 2
    dw = 1.0 + abs(w) ** 2
    total = complex(symbol.offset)
    for t in symbol.terms:
        total += (
            complex(t.coef)
            * z**t.pz
            * z.conjugate() ** t.qz
            * w**t.pw
            * w.conjugate() ** t.qw
            / (dz**t.nz * dw**t.nw)
        )
    return total


def kernel_projection_symbol() -> SymbolExpr:
    """Symbol whose level-1 compression is the projection onto the restriction kernel.

    In homogeneous coordinates this is (9/2) |z0 w0 - z1 w1|^2 normalized
    by (|z0|^2+|z1|^2)(|w0|^2+|w1|^2), minus 2; in the affine chart that
    expands to (9/2) |zw - 1|^2 / ((1+|z|^2)(1+|w|^2)) - 2.
    """
    nine_halves = Fraction(9, 2)
    return SymbolExpr(
        terms=(
            SymbolTerm(nine_halves, pz=1, qz=1, pw=1, qw=1, nz=1, nw=1),
            SymbolTerm(-nine_halves, pz=1, pw=1, nz=1, nw=1),
            SymbolTerm(-nine_halves, qz=1, qw=1, nz=1, nw=1),
            SymbolTerm(nine_halves, nz=1, nw=1),
        ),
        offset=Fraction(-2),
    )


def _factor_diagonal(weights, k: int, p: int, q: int, nu: int):
    """One-factor compression of z^p zbar^q / (1+|z|^2)^nu at level k.

    The factor maps e_a to a multiple of e_c with c = a + p - q, so its
    matrix is a single shifted diagonal, the pairs (a, c) of mode
    a - c = q - p. Requires |p - q| <= k, so that the diagonal is
    nonempty. Returns the source indices a, the targets c (both in
    [0, k]) and the entries (k+1) sqrt(binom(k,a) binom(k,c)) I(a+p, k+nu),
    whose weights are entry q - p + k of the level-k table weights.

    Raises
    ------
    DomainError
        If some entry needs a divergent moment.
    """
    a = np.arange(max(0, q - p), min(k, k + q - p) + 1)
    c = a + p - q
    if a[-1] + p > k + nu:
        raise DomainError(
            f"term needs moment ({a[-1] + p}, {k + nu}); symbol decays too slowly for k={k}"
        )
    moments = [float(monomial_integral(int(i) + p, k + nu)) for i in a]
    return a, c, (k + 1) * weights[q - p + k] * np.array(moments)


def toeplitz_matrix(symbol: SymbolExpr, k: int) -> ToeplitzMatrix:
    """Matrix of the compression of multiplication by the symbol at level k.

    Entry ((c,d),(a,b)) pairs symbol * e_a (x) e_b against e_c (x) e_d.
    Each term is a product f(z) g(w), so its compression is the tensor
    product of two one-factor compressions, each a single shifted
    diagonal (angular-momentum conservation: c = a + pz - qz,
    d = b + pw - qw). Moments and weights are exact; each factor entry
    is one rounded product, so the result is bit-identical to the exact
    value at k = 1 and within a few ulps of it above.

    Raises
    ------
    DomainError
        If a contributing term needs a divergent moment (the symbol decays
        too slowly for this level), or k is above the weight table's 516.
    """
    _check_level(k)
    weights = _mode_weights(k)  # after the guard: the cached table takes True for 1
    n = k + 1
    entries = np.zeros((n * n, n * n), dtype=complex)
    # entries[c*n + d, a*n + b] viewed as blocks[c, d, a, b]
    blocks = entries.reshape(n, n, n, n)
    for t in symbol.terms:
        if abs(t.pz - t.qz) > k or abs(t.pw - t.qw) > k:
            continue  # the shift moves every basis index out of range
        az, cz, vz = _factor_diagonal(weights, k, t.pz, t.qz, t.nz)
        aw, cw, vw = _factor_diagonal(weights, k, t.pw, t.qw, t.nw)
        # (a, b) -> (c, d) is one-to-one within a term, so += never collides
        coef = complex(t.coef)
        blocks[cz[:, None], cw[None, :], az[:, None], aw[None, :]] += coef * np.outer(vz, vw)
    if complex(symbol.offset) != 0:
        entries[np.diag_indices(n * n)] += complex(symbol.offset)
    entries.setflags(write=False)  # frozen here, so ToeplitzMatrix needs no copy
    return ToeplitzMatrix(k, entries)


def projection_matrix(basis: list[StateTensor], k: int | None = None) -> ToeplitzMatrix:
    """Orthogonal projection sum_v |v><v| onto the span of an orthonormal set.

    The level must be given explicitly when the basis is empty
    (DomainError otherwise).

    Raises
    ------
    NotOrthonormal
        If the Gram matrix of the basis deviates from the identity by
        more than 1e-10.
    """
    if not basis:
        _check_level(k)
        dim = (k + 1) ** 2
        return ToeplitzMatrix(k, np.zeros((dim, dim), dtype=complex))
    rows = orthonormal_rows(basis)
    return ToeplitzMatrix(basis[0].k, rows.T @ rows.conj())
