"""Propagators: exact evolution from closed-form spectra and the closed-form
pair-exchange map.

No runtime path calls LAPACK: every generator a run evolves has a closed-form
spectrum (w, v), checked by `_checked` against the matrix it diagonalises:
`block_spectrum` (model.pair_block, from model.bright_ladder),
`pair_swap_spectrum` (model.build_h_eff) and `uniform_spectrum` (the derived
second-order operator, c * ones((6, 6))). `_series`, `_evaluate` of `_fold`,
evolves a state from a spectrum: `_fold` keeps one part per distinct occupied
frequency (3 or 4 for the exact block, 2 for the pair swap), and `_evaluate`
multiplies the parts by the phases e^{-i w t} of `_phases`, one cos and one sin
per time and frequency. On an even grid from 0, np.linspace(0, t_max, points)
(every exact run's), the phases separate, e^{-i w t_{aF + b}} = coarse[a] fine[b]:
`_grid_factors` returns the two factors, about 2 sqrt(len(times)) exponentials per
frequency, which the Rabi fit contracts without ever forming the table and
`_grid_phases` multiplies out.
`make_propagator`, `evolve_exact` and `evolve_times` take `numpy.linalg.eigh`
of any hermitian generator: they are the tests' dense oracles, with scaling
and squaring and the unfolded sum over every eigenvalue as cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import NORM_ATOL, UNITARY_ATOL, Operator, StateVector, is_hermitian, unitary_defect
from .model import TWO_EXCITATION_CONFIGS, BrightLadder, pair_partner


def _spectrum(h: Operator, times) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a hermitian generator; `times` must be finite."""
    if not np.isfinite(times).all():
        raise ValueError("evolution times must be finite")
    if not is_hermitian(h.matrix):
        raise ValueError("generator must be hermitian")
    return np.linalg.eigh(h.matrix)


def _series(w: np.ndarray, v: np.ndarray, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) applied to `amplitudes` at each of `times`, shape (len(times), dim),
    from the spectrum (w ascending; v) of h: `_evaluate` of `_fold`."""
    return _evaluate(*_fold(w, v, amplitudes), times)


def _fold(w: np.ndarray, v: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`amplitudes` folded onto the eigenspaces of h, as (frequencies, parts (dim, frequencies)).

    With tol = dim * eps, an eigenvalue within tol * max|w| above the lowest one of its
    group joins that group (an eigensolver's own error is of this size); a group whose
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


def _grid_factors(times: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coarse x fine factors of exp(-i times y) on times = np.linspace(0, t_max, points).

    With F = ceil(sqrt(points)), e^{-i times[aF + b] y} = coarse[a] fine[b], coarse =
    e^{-i times[::F] y} (ceil(points/F) rows) and fine = e^{-i times[:F] y} (F rows): each
    frequency costs F + ceil(points/F) exponentials, and a product is within 1e-12
    (1 + max|times| max|y|) of the exponential (times[aF] + times[b] is times[aF + b] to a
    few ulps of max|times|)."""
    fine = math.ceil(math.sqrt(len(times))) or 1
    return _phases(times[::fine], y), _phases(times[:fine], y)


def _grid_phases(times: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp(-i times y) over the outer product, shape (len(times), len(y)), on times =
    np.linspace(0, t_max, points): the table of its `_grid_factors`' products."""
    # frequency-major, so the product runs along contiguous fine rows
    coarse, fine = (np.ascontiguousarray(factor.T) for factor in _grid_factors(times, y))
    table = coarse[:, :, None] * fine[:, None, :]
    return table.reshape(len(y), -1)[:, :len(times)].T


def _phases(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp(-i x y) over the outer product, shape (len(x), len(y)), from one cos and one sin
    of -x y per entry: bit for bit np.exp(-1j * np.outer(x, y))."""
    angles = np.outer(np.negative(x), y)
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _evaluate(freqs: np.ndarray, parts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The folded series at `times`, shape (len(times), len(parts)): only the rows of `parts` given."""
    return _phases(times, freqs) @ parts.T


def _checked(h: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) sorted by w, once they pass as the spectrum of h: raises ValueError unless
    max|h v - v w| / max(1, max|w|) + unitary_defect(v) < UNITARY_ATOL."""
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    defect = float(np.abs(h @ v - v * w).max()) / max(1.0, -w[0], w[-1]) + unitary_defect(v)
    if not defect < UNITARY_ATOL:
        raise ValueError(f"the closed-form spectrum misses its generator by {defect:.3g}")
    return w, v


def _ladder_spectrum(ladder: BrightLadder) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above `ladder.dark` and eigenvectors (columns over |gggg>, |D2>,
    |eeee>) of the bright ladder, solved on its entries over the largest one. 2x2:
    lambda^2 - d lambda - a^2 = 0. 3x3: lambda^3 - (d^2 + a^2 + b^2) lambda - d (a^2 - b^2)
    = 0, its outer roots in trigonometric form, the small bright shift from Vieta's
    product, so it keeps its relative accuracy, and each eigenvector the longest cross
    product of two rows of the shifted matrix."""
    scale = max(abs(ladder.diagonal[0]), ladder.couplings[0])
    d, a = ladder.diagonal[0] / scale, ladder.couplings[0] / scale
    if len(ladder.couplings) == 1:
        outer = d / 2 + math.copysign(math.hypot(d / 2, a), d)
        return (scale * np.array([outer, -a * a / outer]),
                np.array([[outer, -a], [a, outer]]) / math.hypot(outer, a))
    b = ladder.couplings[1] / scale
    p, q = d * d + a * a + b * b, d * (a - b) * (a + b)
    r = 2 * math.sqrt(p / 3)
    phi = math.acos(max(-1.0, min(1.0, 1.5 * q / p * math.sqrt(3 / p)))) / 3
    top, bottom = r * math.cos(phi), r * math.cos(phi + 2 * math.pi / 3)
    roots = (top, q / (top * bottom), bottom)
    vectors = []
    for x in roots:
        u, w = d - x, -d - x  # rows (u, a, 0), (a, -x, b), (0, b, w)
        normals = ((a * b, -u * b, -u * x - a * a), (a * w, -u * w, u * b),
                   (-x * w - b * b, -a * w, a * b))
        vectors.append(max(normals, key=lambda c: c[0] ** 2 + c[1] ** 2 + c[2] ** 2))
    v = np.array(vectors).T
    return scale * np.array(roots), v / np.sqrt((v * v).sum(axis=0))


# orthogonal: column 0 |D2> (the six configurations over sqrt 6), j >= 1 dark (1, .., 1, -j, 0, ..)
_DICKE = np.array([[1 / math.sqrt(6)] + [((i < j) - j * (i == j)) / math.sqrt(j * (j + 1))
                                         for j in range(1, 6)] for i in range(6)])


def block_spectrum(h: np.ndarray, ladder: BrightLadder) -> tuple[np.ndarray, np.ndarray]:
    """The checked spectrum (w ascending, v) of h = np.diag(energies) + hint of
    `model.pair_block` from its `model.bright_ladder`: five dark states at `ladder.dark`
    and the ladder's eigenvectors, their |D2> part spread over rows 0 to 5."""
    roots, x = _ladder_spectrum(ladder)
    v = np.zeros((len(h), 5 + len(roots)))
    v[:6, :5] = _DICKE[:, 1:]
    v[:6, 5:] = _DICKE[:, :1] * x[1]
    v[6, 5:] = x[0]
    v[7:, 5:] = x[2:]
    return _checked(h, ladder.dark + np.append(np.zeros(5), roots), v)


def pair_swap_spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked spectrum (w ascending, v) of `model.build_h_eff`'s pair swap h (no
    Stark term): +-Omega on (|c> +- |c_bar>)/sqrt2, 0 on the ten other configurations."""
    return _checked(h, float(h[_PARTNERS[0], _ROWS[0]].real) * _SWAP_SIGNS, _SWAP_VECTORS)


def uniform_spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked spectrum (w ascending, v) of the derived second-order operator
    h = c * ones((6, 6)): 6c on |D2>, 0 on the five dark states."""
    w = np.zeros(6)
    w[0] = float(np.sum(h).real) / 6
    return _checked(h, w, _DICKE)


def _propagator(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) from the spectrum (w, v) of h."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def make_propagator(h: Operator, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-i h t) via eigendecomposition of the hermitian generator, as (unitary, w, v)
    with the spectrum (w, v) of h it was built from."""
    w, v = _spectrum(h, t)
    return _propagator(w, v, t), w, v


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
# pair-swap eigenvectors: (|c> +- |c_bar>)/sqrt2 in columns c and c_bar (c > c_bar), signs +-1
_SWAP_SIGNS, _SWAP_VECTORS = np.zeros(16), np.eye(16)
for _c in TWO_EXCITATION_CONFIGS:
    _SWAP_SIGNS[_c] = 1.0 if _c > pair_partner(_c) else -1.0
    _SWAP_VECTORS[_c, _c] = _SWAP_SIGNS[_c] * math.sqrt(0.5)
    _SWAP_VECTORS[pair_partner(_c), _c] = math.sqrt(0.5)


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
