"""Propagators: exact matrix-exponential evolution and the closed-form
pair-exchange map.

Exact evolution goes through one eigh of the hermitian generator:
`make_propagator` returns the unitary with the spectrum (w, v), and
`evolve_exact` and `evolve_times` apply `_series`, which is `_evaluate` of
`_fold`. `_fold` merges the eigenvalues eigh cannot tell apart and keeps one
part per distinct occupied frequency; `_evaluate` multiplies the rows of the
parts it is given by the phases e^{-i w t} of `_phases`: on an evenly spaced
grid from 0 (every exact run's), about 2 sqrt(len(times)) exponentials and one
complex product per time and frequency, otherwise one cos and one sin per time
and frequency. A series costs len(times) x the occupied frequencies:
3 or 4 for the 7 or 8 block states a two-excitation start reaches (the
symmetric Dicke ladder plus one dark level, see model.pair_block), 2 for the
16-state effective generators. `evolve_times` takes amplitudes of the
generator's dimension: 16, 6 for the derived second-order operator, or the
composite dimension of the dense oracle, which only the tests use, with
scaling and squaring and the unfolded sum over every eigenvalue as
cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import NORM_ATOL, Operator, StateVector, is_hermitian
from .model import TWO_EXCITATION_CONFIGS, pair_partner


def _spectrum(h: Operator, times) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a hermitian generator; `times` must be finite."""
    if not np.isfinite(times).all():
        raise ValueError("evolution times must be finite")
    if not is_hermitian(h.matrix):
        raise ValueError("generator must be hermitian")
    return np.linalg.eigh(h.matrix)


def _series(w: np.ndarray, v: np.ndarray, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) applied to `amplitudes` at each of `times`, shape (len(times), dim),
    from the spectrum (w ascending, as eigh returns it; v) of h: `_evaluate` of `_fold`."""
    return _evaluate(*_fold(w, v, amplitudes), times)


def _fold(w: np.ndarray, v: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`amplitudes` folded onto the eigenspaces of h, as (frequencies, parts (dim, frequencies)).

    With tol = dim * eps, an eigenvalue within tol * max|w| above the lowest one of its
    group joins that group (eigh's own eigenvalue error is of this size); a group whose
    projection of the state has norm at most tol * |amplitudes| is dropped; every other
    group evolves at one frequency, the mean of its eigenvalues weighted by the state's
    weight on each. Its series is within tol * (max|w| max|t| + sqrt(dim)) * |amplitudes|
    in norm of the sum over every eigenvalue."""
    tol = len(w) * np.finfo(float).eps
    w_tol = tol * max(abs(w[0]), abs(w[-1]))
    starts = [0]
    for j in range(1, len(w)):
        if w[j] - w[starts[-1]] > w_tol:
            starts.append(j)
    c = v.conj().T @ amplitudes
    weights = np.abs(c) ** 2
    group_weights = np.add.reduceat(weights, starts)
    kept = group_weights > (tol * np.linalg.norm(amplitudes)) ** 2
    freqs = np.add.reduceat(w * weights, starts)[kept] / group_weights[kept]
    return freqs, np.add.reduceat(v * c, starts, axis=1)[:, kept]


def _phases(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp(-i x y) over the outer product, shape (len(x), len(y)).

    On the grid np.linspace(0, x[-1], len(x)), where it saves exponentials, a coarse x
    fine table: with F = ceil(sqrt(len(x))), e^{-i x[aF + b] y} = e^{-i x[aF] y} e^{-i x[b] y},
    so each frequency costs F + ceil(len(x)/F) exponentials and one complex product per
    point, within 1e-12 (1 + max|x| max|y|) of np.exp(-1j * np.outer(x, y)) (x[aF] + x[b]
    is x[aF + b] to a few ulps of max|x|). Any other x: one cos and one sin of -x y per
    entry, bit for bit np.exp(-1j * np.outer(x, y))."""
    x = np.asarray(x, dtype=float)
    points = len(x)
    fine = math.ceil(math.sqrt(points)) or 1
    if (fine + math.ceil(points / fine) < points and x[0] == 0
            and np.array_equal(x, np.linspace(0.0, x[-1], points))):
        # frequency-major (y, coarse, fine), so the product runs along contiguous fine rows
        coarse = _direct_phases(y, x[::fine])
        table = coarse[:, :, None] * _direct_phases(y, x[:fine])[:, None, :]
        return table.reshape(len(coarse), coarse.shape[1] * fine)[:, :points].T
    return _direct_phases(x, y)


def _direct_phases(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp(-i x y) over the outer product from one cos and one sin of -x y per entry."""
    angles = np.outer(np.negative(x), y)
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _evaluate(freqs: np.ndarray, parts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The folded series at `times`, shape (len(times), len(parts)): only the rows of `parts` given."""
    return _phases(times, freqs) @ parts.T


def make_propagator(h: Operator, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-i h t) via eigendecomposition of the hermitian generator, as (unitary, w, v)
    with the spectrum (w, v) of h it was built from."""
    w, v = _spectrum(h, t)
    return (v * np.exp(-1j * w * t)) @ v.conj().T, w, v


def evolve_exact(h: Operator, psi: StateVector, t: float) -> StateVector:
    """exp(-i h t) |psi>; norm is preserved to the working tolerance."""
    out = StateVector(_series(*_spectrum(h, t), psi.amplitudes, [t])[0])
    drift = abs(out.norm() - psi.norm())
    if not drift <= 100 * NORM_ATOL:
        raise RuntimeError(f"norm drift {drift:.2e} in exact evolution")
    return out


def evolve_times(h: Operator, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) applied to `amplitudes` (of h's dimension) at each of `times`,
    shape (len(times), dim); one eigh for all."""
    return _series(*_spectrum(h, times), amplitudes, times)


_ROWS = np.array(TWO_EXCITATION_CONFIGS)  # index arrays: a list is converted on every use
_PARTNERS = np.array([pair_partner(c) for c in TWO_EXCITATION_CONFIGS])
_SUPPORT_ATOL = 1e-12  # largest amplitude dfs_propagate accepts off the six configurations


def pair_exchange(block: np.ndarray, pulse_area: float | np.ndarray) -> np.ndarray:
    """The closed-form pair-exchange map on the rows (axis 0) of a (16, ...) array:

        |c> -> cos(area) |c> - i sin(area) |c_bar>

    for each of the six two-excitation configurations c and its complement
    c_bar; every other row passes through unchanged. `pulse_area` is a scalar
    or, for a (16, k) block, a length-k array (one area per column). Raises
    ValueError for a non-finite area.
    """
    if not np.isfinite(pulse_area).all():
        raise ValueError("pulse area must be finite")
    out = np.array(block, dtype=complex)
    out[_ROWS] = np.cos(pulse_area) * block[_ROWS] - 1j * np.sin(pulse_area) * block[_PARTNERS]
    return out


def dfs_propagate(psi: StateVector, pulse_area: float) -> StateVector:
    """`pair_exchange` on the 16 atomic amplitudes. Exactly unitary; errors
    if psi has support outside the six two-excitation configurations.
    """
    if float(np.max(np.abs(np.delete(psi.amplitudes, _ROWS)))) > _SUPPORT_ATOL:
        raise ValueError("state has support outside the six two-excitation configurations")
    return StateVector(pair_exchange(psi.amplitudes, pulse_area))
