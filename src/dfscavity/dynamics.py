"""Propagators: exact matrix-exponential evolution and the closed-form
pair-exchange map.

Exact evolution goes through the eigendecomposition of the hermitian
generator; `evolve_exact`, `evolve_times` and `Propagator.series` apply it
through `_series`, and a `Propagator` holds the unitary and the spectrum from
one eigh. `_series` first folds the state onto the eigenspaces of the
generator: eigenvalues eigh cannot tell apart are merged, eigenspaces the
state does not occupy are dropped, and one exponential per time and distinct
occupied frequency remains. So a series costs len(times) x that number of
frequencies, not len(times) x dim: 3 or 4 frequencies of the 11 or 16 sector
states from a two-excitation start (the symmetric Dicke ladder plus one dark
level), 2 for the 16-state effective generators that `evolve_exact` and
`evolve_times` apply to a `StateVector`. The validation runs hand the series
H0 + Hint of the full model's conserved-excitation sector (at most 16 states
at any n_max, see model.excitation_sector); the dense composite Hamiltonian
only serves the tests as the oracle, with the scaling-and-squaring route and
the unfolded sum over every eigenvalue as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import NORM_ATOL, Operator, StateVector
from .model import TWO_EXCITATION_CONFIGS, pair_partner


def _spectrum(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a hermitian generator."""
    if not h.hermitian:
        raise ValueError("generator must be hermitian")
    return np.linalg.eigh(h.matrix)


def _series(w: np.ndarray, v: np.ndarray, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) applied to `amplitudes` at each of `times`, shape (len(times), dim),
    from the spectrum (w ascending, as eigh returns it; v) of h.

    The state is folded onto the eigenspaces of h. With tol = dim * eps, an eigenvalue
    within tol * max|w| above the lowest one of its group joins that group (eigh's own
    eigenvalue error is of this size); a group whose projection of the state has norm
    at most tol * |amplitudes| is dropped; every other group evolves at one frequency,
    the mean of its eigenvalues weighted by the state's weight on each. So the cost is
    len(times) x the number of distinct occupied frequencies, and the result is within
    tol * (max|w| max|t| + sqrt(dim)) * |amplitudes| in norm of the sum over every
    eigenvalue.
    """
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
    parts = np.add.reduceat(v * c, starts, axis=1)[:, kept]  # (dim, occupied groups)
    return np.exp(-1j * np.outer(np.asarray(times), freqs)) @ parts.T


@dataclass(frozen=True, eq=False)
class Propagator:
    """exp(-i h t) for one duration, with the spectrum (w, v) of h it was built from."""

    unitary: Operator
    spectrum: tuple[np.ndarray, np.ndarray]

    def series(self, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-i h t) applied to an amplitude vector at each of `times`, shape
        (len(times), dim), with no further eigh."""
        return _series(*self.spectrum, amplitudes, times)


def make_propagator(h: Operator, t: float) -> Propagator:
    """exp(-i h t) via eigendecomposition of the hermitian generator."""
    w, v = _spectrum(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return Propagator(unitary=Operator(u), spectrum=(w, v))


def evolve_exact(h: Operator, psi: StateVector, t: float) -> StateVector:
    """exp(-i h t) |psi>; norm is preserved to the working tolerance."""
    out = StateVector(_series(*_spectrum(h), psi.amplitudes, [t])[0])
    drift = abs(out.norm() - psi.norm())
    if drift > 100 * NORM_ATOL:
        raise RuntimeError(f"norm drift {drift:.2e} in exact evolution")
    return out


def evolve_times(h: Operator, psi: StateVector, times: np.ndarray) -> np.ndarray:
    """Amplitudes at many times, shape (len(times), dim); one eigh for all."""
    return _series(*_spectrum(h), psi.amplitudes, times)


_ROWS = list(TWO_EXCITATION_CONFIGS)
_PARTNERS = [pair_partner(c) for c in TWO_EXCITATION_CONFIGS]
_SUPPORT_ATOL = 1e-12  # largest amplitude dfs_propagate accepts off the six configurations


def _two_excitation_support_ok(psi: StateVector) -> bool:
    return float(np.max(np.abs(np.delete(psi.amplitudes, _ROWS)))) <= _SUPPORT_ATOL


def pair_exchange(block: np.ndarray, pulse_area: float | np.ndarray) -> np.ndarray:
    """The closed-form pair-exchange map on the rows of a (16,) or (16, k) array:

        |c> -> cos(area) |c> - i sin(area) |c_bar>

    for each of the six two-excitation configurations c and its complement
    c_bar; every other row passes through unchanged. `pulse_area` is a scalar
    or, for a (16, k) block, a length-k array (one area per column).
    """
    out = np.array(block, dtype=complex)
    out[_ROWS] = np.cos(pulse_area) * block[_ROWS] - 1j * np.sin(pulse_area) * block[_PARTNERS]
    return out


def dfs_propagate(psi: StateVector, pulse_area: float) -> StateVector:
    """`pair_exchange` on the 16 atomic amplitudes. Exactly unitary; errors
    if psi has support outside the six two-excitation configurations.
    """
    if not _two_excitation_support_ok(psi):
        raise ValueError("state has support outside the six two-excitation configurations")
    return StateVector(pair_exchange(psi.amplitudes, pulse_area))
