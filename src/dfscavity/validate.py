"""Cross-model validation: full-Hamiltonian numerics against the effective
pair-exchange picture.

extract_rabi evolves |egeg, n> under the full model exactly and fits the
|gege, n> population oscillation by prominence-filtered peak finding with
quadratic interpolation. The fit is compared against the closed-form
pair-exchange rate; leakage into the other two-excitation configurations and
into photon-changed sectors is reported, along with unitarity/normalization
defects and the truncation-guard occupation.

compare_effective_models evolves the same initial state under (a) the
effective Hamiltonian with only the double-flip terms, (b) the full
second-order operator from the perturbation engine, and (c) the exact full
model, reports the pairwise fidelity time series, and enumerates the
operator difference (a)-vs-(b) entry by entry. Whether (b) tracks (c) better
than (a) is measured, not assumed.

Both get the exact run from one helper: the 7 or 8 states the two-excitation
manifold reaches (model.pair_block: the six configurations at n as rows 0 to 5,
|egeg, n> first, then |gggg, n+2> and, for n >= 2, |eeee, n-2>), the grid
np.linspace(0, span, points) over 1.5 exchange periods (RABI_FIT_POINTS or
COMPARISON_POINTS times) and the fold of |egeg, n> onto its 3 or 4 occupied
frequencies w_k (dynamics._fold) from the closed-form spectrum of H0 + Hint
(dynamics.block_spectrum). The pair-swap and derived operators evolve from
closed-form spectra too, so no step calls LAPACK, and internal_consistency_defect
compares the cos/sin pair map with a spectrum checked against build_h_eff's
matrix. On the grid, e^{-i w t} is a coarse x fine product (dynamics._grid_factors),
and extract_rabi forms no (times x frequencies) array: each population group (rows
r), sum_k h_kk + 2 sum_{k<l} Re(h_kl e^{i(w_k - w_l)t}) with h_kl = sum_r
conj(parts[r, k]) parts[r, l], comes from one real product of the weighted coarse
beat factors with the fine ones, and the Stark phase of row 0, sum_k parts[0, k]
e^{-i w_k t}, from one (coarse x K)(K x fine) product; compare_effective_models
evaluates only rows 0 to 5, each model's from the table of the factors' products
(dynamics._grid_phases; all 16 pair-swap amplitudes only at the 26 times of its
pair_exchange check, by one cos and one sin each), and derives the 6x6 second-order
operator once, from the block's energies and hint, for its (row, col, value)
difference entries. Both need 0 <= n <= n_max - 4, so the block stops at m = n + 2
<= n_max - 2 and the guard occupation is 0 by construction.

Model comparisons use the classical fidelity between atomic population
distributions, (sum_i |a_i| |b_i|)^2, over the six manifold states the effective
runs occupy; the full model's weight outside them counts against it. Populations
are immune to the interaction-picture and sign conventions that differ between
the effective layer (which keeps the +Omega sign of the closed-form map) and
lab-frame numerics (where the standard second-order shift carries the opposite
sign); raw amplitude overlaps would measure that convention, not the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    _evaluate,
    _fold,
    _grid_factors,
    _grid_phases,
    _propagator,
    block_spectrum,
    pair_exchange,
    pair_swap_spectrum,
    uniform_spectrum,
)
from .hilbert import N_ATOMIC_CONFIGS, Operator, SystemParams, unitary_defect
from .model import (
    MANIFOLD_ROWS,
    TWO_EXCITATION_CONFIGS,
    TWO_EXCITATION_LABELS,
    bright_ladder,
    build_h_eff,
    derive_second_order,
    effective_coupling,
    pair_block,
)

GUARD_LEAKAGE_MAX = 1e-6
PEAK_PROMINENCE_FRACTION = 0.4
RABI_FIT_POINTS = 6001     # time samples of extract_rabi's grid
COMPARISON_POINTS = 1201   # time samples of compare_effective_models' grid
DIFFERENCE_ATOL = 1e-12    # difference entries below this, relative to max(1, max|derived|), are 0
# the Stark-phase slope of extract_rabi divides by the sum of the grid's centred squared
# times, which leaves the float range for a fit span (s) outside this range
FIT_SPAN_RANGE = (1e-150, 1e150)

_COLS = list(TWO_EXCITATION_CONFIGS)  # the six two-excitation configurations, label order
_GEGE = TWO_EXCITATION_LABELS.index("gege")  # its row in `pair_block`; |egeg, n> is row 0
_EXCHANGE = [i for i, lab in enumerate(TWO_EXCITATION_LABELS) if lab not in ("egeg", "gege")]


class RabiFitError(RuntimeError):
    """Oscillation amplitude too small (or absent) for a frequency fit; carries
    the partial run with the maximum transfer observed."""

    def __init__(self, message: str, run: "ValidationRun"):
        super().__init__(message)
        self.run = run
        self.max_transfer = run.peak_population


@dataclass(frozen=True)  # not a NamedTuple: the report and perfbench's worker read it with asdict
class ValidationRun:
    omega_expected: float
    perturbative_ok: bool                # the ratio at the cut-off n_max, not at the occupied levels
    omega_fit: float = np.nan            # nan when the fit is not possible
    relative_deviation: float = np.nan   # |omega_fit - |omega_expected|| / |omega_expected|
    peak_population: float = 0.0
    leakage_pair: float = np.nan         # max prob outside {egeg, gege} x |n>
    leakage_exchange: float = np.nan     # max prob in the other four two-excitation configs at n
    leakage_photon: float = np.nan       # max prob in photon-changed sectors
    guard_leakage: float = np.nan
    stark_shift_fit: float = np.nan
    unitarity_defect: float = np.nan
    normalization_defect: float = np.nan
    diagnostic: str | None = None


def prominent_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of x whose topographic prominence is at
    least `prominence`, the same as scipy.signal.find_peaks(x,
    prominence=prominence).

    A flat-topped maximum is reported at its midpoint (rounded down); the
    first and last samples are never peaks. The prominence of a peak is its
    height above the higher of the two lowest points reached by walking left
    and right until the series rises strictly above the peak or ends.

    Linear time: runs of equal values are merged; between two neighbouring
    maxima (or a maximum and an end) lies a run with one lowest value. A maximum
    h is dropped when h - global_min < prominence, or when h - run_min <
    prominence for a run whose other maximum is strictly higher (the walk stops
    there). Dropping is exact for the others: a kept maximum whose walk reached a
    dropped one is lower than it, so any run minimum the longer walk now passes
    leaves it below `prominence` too; rounding cannot flip that, since every test
    compares the same difference h - low with `prominence`, and rounding is
    monotone. Each dropped maximum merges its two runs into their minimum, and
    one monotone-stack pass from each side over the kept maxima and the runs
    gives every walk's lowest point.
    """
    x = np.asarray(x, dtype=float)
    empty = np.array([], dtype=np.intp)
    if x.size < 3:
        return empty
    starts = np.flatnonzero(np.diff(x, prepend=np.nan) != 0)  # runs of equal values
    ends = np.append(starts[1:], len(x)) - 1
    level = x[starts]
    tops = 1 + np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:]))
    if not tops.size:
        return empty
    heights = level[tops]
    runs = np.minimum.reduceat(level, np.append(0, tops))  # runs[i]: lowest between tops i - 1 and i
    valleys = runs[1:-1]
    cut = heights - runs.min() < prominence
    cut[:-1] |= (heights[:-1] < heights[1:]) & (heights[:-1] - valleys < prominence)
    cut[1:] |= (heights[1:] < heights[:-1]) & (heights[1:] - valleys < prominence)
    kept = np.flatnonzero(~cut)
    if not kept.size:
        return empty
    walk = np.empty(2 * len(kept) + 1)
    walk[0::2] = np.minimum.reduceat(runs, np.append(0, kept + 1))
    walk[1::2] = heights[kept]
    low = np.maximum(_lowest_since_higher(walk), _lowest_since_higher(walk[::-1])[::-1])[1::2]
    return ((starts[tops] + ends[tops]) // 2)[kept[heights[kept] - low >= prominence]]


def _lowest_since_higher(values: np.ndarray) -> np.ndarray:
    """For each entry, the lowest value from just after the nearest strictly
    higher entry before it (or from the start) up to the entry itself.

    The stack holds each entry's value (`tops`) and the lowest value since the
    entry below it (`lows`); popping every entry that is not strictly higher
    merges their lowest values, so each entry is pushed and popped once."""
    tops: list[float] = []
    lows: list[float] = []
    out: list[float] = []
    for v in values.tolist():
        lowest = v
        while tops and tops[-1] <= v:
            tops.pop()
            if (low := lows.pop()) < lowest:
                lowest = low
        tops.append(v)
        lows.append(lowest)
        out.append(lowest)
    return np.array(out)


def _quadratic_peak_times(times: np.ndarray, series: np.ndarray) -> list[float]:
    span = float(series.max() - series.min())
    dt = times[1] - times[0]
    out = []
    for i in prominent_peaks(series, PEAK_PROMINENCE_FRACTION * span):
        y0, y1, y2 = series[i - 1], series[i], series[i + 1]
        denom = y0 - 2 * y1 + y2
        offset = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        out.append(float(times[i] + offset * dt))
    return out


def fit_span(params: SystemParams, n: int) -> float:
    """The span of the exact runs' time grid, 1.5 exchange periods 3 pi/|Omega(n)|.
    Raises ValueError when the pair rate is out of range (model.effective_coupling),
    when the span lies outside FIT_SPAN_RANGE (G = 0 gives an infinite span), or when
    the float resolution of the block energies cannot resolve the pair dynamics: 16 eps
    (n+2) |delta|/2 (conservative for the 8-state block) must lie below the bright-dark
    splitting 6 |Omega(n)| (at n = 0, delta/G up to 5.81e7 passes and 5.82e7 fails).
    That also keeps the largest bare phase (n+2) |delta|/2 x span, and so the
    propagator's exp(-iEt), finite."""
    omega = abs(effective_coupling(n, params).omega)
    span = 1.5 * 2 * np.pi / omega if omega else np.inf
    if not FIT_SPAN_RANGE[0] <= span <= FIT_SPAN_RANGE[1]:
        raise ValueError(f"the fit spans 3 pi/Omega({n}) = {span} s at G = {params.G}, "
                         f"delta = {params.delta}, outside [{FIT_SPAN_RANGE[0]}, {FIT_SPAN_RANGE[1]}] s")
    error = N_ATOMIC_CONFIGS * np.finfo(float).eps * (n + 2) * abs(params.delta) / 2
    if not error < 6 * omega:
        raise ValueError(f"the float resolution of the block energies, 16 eps x {n + 2} |delta|/2 "
                         f"= {error} at G = {params.G}, delta = {params.delta}, is not below the "
                         f"pair splitting 6 |Omega({n})| = {6 * omega}")
    return span


def _exact_run(params: SystemParams, n: int, points: int):
    """Evolve |egeg, n> exactly on `model.pair_block` over 1.5 exchange periods, at times =
    np.linspace(0, span, points); returns (the pair rate Omega(n), the block (levels,
    energies, hint), times, the unitary over the span, the state's fold (freqs, parts)),
    the unitary and the fold from the block's checked closed-form spectrum
    (`dynamics.block_spectrum`). Raises ValueError unless 0 <= n <= n_max - 4 and the rate
    and span pass `fit_span`, RabiFitError when G = 0."""
    block = pair_block(params, n)  # the domain check, before effective_coupling
    omega = effective_coupling(n, params).omega
    if omega == 0:
        raise RabiFitError("no oscillation to fit (G = 0)", ValidationRun(
            omega_expected=omega, perturbative_ok=params.perturbative_ok,
            diagnostic="no coupling, no oscillation"))
    t_max = fit_span(params, n)
    times = np.linspace(0.0, t_max, points)
    levels, energies, hint = block
    psi0 = np.zeros(len(levels), dtype=complex)
    psi0[0] = 1.0  # |egeg, n>
    w, v = block_spectrum(np.diag(energies) + hint, bright_ladder(params, n))
    return omega, block, times, _propagator(w, v, t_max), _fold(w, v, psi0)


def _stark_rate(times: np.ndarray, freqs: np.ndarray, amplitudes: np.ndarray) -> float:
    """Minus the least-squares slope of the phase of sum_k amplitudes[k] e^{-i w_k t} on the
    grid of `_exact_run`, unwrapped as the running sum from 0 of each step's phase in
    (-pi, pi], the branch np.unwrap picks; the series is one (coarse x K)(K x fine) product
    of the phase factors, short enough for OpenBLAS to run on one thread."""
    coarse, fine = _grid_factors(times, freqs)
    steps = ((coarse * amplitudes) @ fine.T).ravel()[:len(times)]
    steps[1:] *= steps[:-1].conj()
    steps[0] = 1.0
    phase = np.cumsum(np.angle(steps))
    centred = times - times.mean()
    return -float(centred @ phase / (centred @ centred))


def extract_rabi(params: SystemParams, n: int = 0,
                 min_peak_population: float = 0.5) -> ValidationRun:
    """Fit the |egeg,n> -> |gege,n> population-transfer frequency under the
    exact full model.

    The time grid covers 1.5 periods of the expected exchange rate in
    RABI_FIT_POINTS samples. Raises RabiFitError (carrying the partial run and
    its diagnostic) when the peak transfer stays below min_peak_population,
    when the |gege> population has no prominent peak, or when no oscillation
    exists; lower the threshold to force a fit of whatever oscillation is
    present. Raises ValueError unless 0 <= n <= n_max - 4, or unless
    min_peak_population is a number in [0, 1] (NaN would switch the gate off).
    """
    if not 0.0 <= min_peak_population <= 1.0:
        raise ValueError(f"the fit threshold min_peak_population must be a number in [0, 1], "
                         f"got {min_peak_population}")
    omega, (levels, _, _), times, u, (freqs, parts) = _exact_run(params, n, RABI_FIT_POINTS)
    stark_fit = _stark_rate(times, freqs, parts[0])  # of the autocorrelation <egeg|psi(t)>
    k, l = np.triu_indices(len(freqs), 1)
    one_hot = np.eye(len(levels))
    groups = np.array([one_hot[0], one_hot[_GEGE], one_hot[_EXCHANGE].sum(axis=0),
                       levels == n, levels >= 0, levels >= params.n_max - 1], dtype=float)
    # 0/1 population groups, one row each; no block state is a guard level, so its row is 0.
    # Each is its constant plus 2 Re sum_j h_j e^{i(w_k - w_l)t} over the 3 or 6 beats j, each
    # beat a coarse x fine product: Re(z f) = Re z Re f - Im z Im f, one real product
    beat_coarse, beat_fine = _grid_factors(times, freqs[l] - freqs[k])
    weighted = (2 * groups @ (parts[:, k].conj() * parts[:, l]))[:, None, :] * beat_coarse
    np.conjugate(weighted, out=weighted)  # (groups, coarse times, beats)
    pops = (weighted.view(float) @ beat_fine.view(float).T).reshape(len(groups), -1)[:, :len(times)]
    pops += groups @ (np.abs(parts) ** 2).sum(axis=1)[:, None]
    p_egeg, p_gege, p_exchange, p_level_n, totals, guard = pops

    norm_defect = float(np.max(np.abs(np.sqrt(totals) - 1.0)))

    peak_times = _quadratic_peak_times(times, p_gege)
    if len(peak_times) >= 2:
        omega_fit = float(np.pi / np.mean(np.diff(peak_times)))
    elif len(peak_times) == 1:
        omega_fit = float(np.pi / (2 * peak_times[0]))
    else:
        omega_fit = np.nan

    peak_pop = float(p_gege.max())
    too_small = peak_pop < min_peak_population  # its diagnostic takes precedence
    diagnostic = (f"peak transfer {peak_pop:.6f} below the fit threshold {min_peak_population}" if too_small
                  else None if np.isfinite(omega_fit) else "no prominent peak in the |gege> population")
    run = ValidationRun(
        omega_expected=omega,
        perturbative_ok=params.perturbative_ok,
        omega_fit=omega_fit,
        relative_deviation=float(abs(omega_fit - abs(omega)) / abs(omega))
        if np.isfinite(omega_fit) else np.nan,
        peak_population=peak_pop,
        leakage_pair=float(np.max(1.0 - (p_egeg + p_gege) / totals)),
        leakage_exchange=float(p_exchange.max()),
        leakage_photon=float(np.max(totals - p_level_n)),
        guard_leakage=float(guard.max()),
        stark_shift_fit=stark_fit,
        unitarity_defect=unitary_defect(u),
        normalization_defect=norm_defect,
        diagnostic=diagnostic,
    )
    if too_small:
        raise RabiFitError(
            f"oscillation amplitude too small to fit: peak population {peak_pop:.6f} "
            f"< {min_peak_population}", run)
    if diagnostic is not None:
        raise RabiFitError(diagnostic, run)
    return run


def forced_rabi_fit(params: SystemParams, n: int = 0) -> ValidationRun:
    """extract_rabi with the amplitude gate disabled (fit whatever is there)."""
    try:
        return extract_rabi(params, n, min_peak_population=0.0)
    except RabiFitError as err:  # no coupling, or no prominent peak
        return err.run


class EffectiveModelComparison(NamedTuple):
    fidelity_pair_swap_vs_full: np.ndarray
    fidelity_derived_vs_full: np.ndarray
    max_infidelity_pair_swap: float
    max_infidelity_derived: float
    derived_tracks_full_better: bool
    internal_consistency_defect: float   # pair-swap generator vs closed-form map
    difference_entries: tuple[tuple[str, str, complex], ...]  # (row, col, value)
    difference_nonempty: bool


def _difference_entries(derived: np.ndarray,
                        pair_swap: Operator) -> tuple[tuple[str, str, complex], ...]:
    """(row label, column label, value) of each entry of the 6x6 derived operator minus the
    pair-swap operator on the two-excitation configurations, above DIFFERENCE_ATOL *
    max(1, max|derived|), row by row."""
    diff = derived - pair_swap.matrix[np.ix_(_COLS, _COLS)]
    scale = max(1.0, float(np.max(np.abs(derived))))
    return tuple((TWO_EXCITATION_LABELS[i], TWO_EXCITATION_LABELS[j], complex(diff[i, j]))
                 for i, j in zip(*np.nonzero(np.abs(diff) > DIFFERENCE_ATOL * scale)))


def effective_difference_entries(params: SystemParams,
                                 n: int = 0) -> tuple[tuple[str, str, complex], ...]:
    """Nonzero entries, as (row, col, value), of (PT-derived second-order operator)
    minus (double-flip-only effective operator) on the two-excitation manifold."""
    _, energies, hint = pair_block(params, n)
    derived = derive_second_order(energies, hint, MANIFOLD_ROWS)
    return _difference_entries(derived, build_h_eff(params, n, include_stark=False))


def compare_effective_models(params: SystemParams, n: int = 0) -> EffectiveModelComparison:
    """Evolve |egeg, n> under the pair-swap effective operator, the PT-derived
    operator, and the exact full model on COMPARISON_POINTS times; report
    fidelity time series and the operator difference. Raises ValueError
    unless 0 <= n <= n_max - 4."""
    omega, (_, energies, hint), times, _, (freqs, parts) = _exact_run(params, n, COMPARISON_POINTS)

    egeg = np.eye(N_ATOMIC_CONFIGS, dtype=complex)[_COLS[0]]  # one-hot |egeg>
    h_pair_swap = build_h_eff(params, n, include_stark=False)
    swap_freqs, swap_parts = _fold(*pair_swap_spectrum(h_pair_swap.matrix), egeg)
    # each model's magnitudes on the six configurations, (t, 6)
    mags_pair_swap = np.abs(_grid_phases(times, swap_freqs) @ swap_parts[_COLS].T)
    derived = derive_second_order(energies, hint, MANIFOLD_ROWS)
    derived_freqs, derived_parts = _fold(*uniform_spectrum(derived), egeg[_COLS])
    mags_derived = np.abs(_grid_phases(times, derived_freqs) @ derived_parts.T)
    # the full model's six states at Fock n; weight outside them lowers the fidelity
    full = np.abs(_grid_phases(times, freqs) @ parts[:len(MANIFOLD_ROWS)].T)
    fid_pair_swap = np.sum(mags_pair_swap * full, axis=1) ** 2
    fid_derived = np.sum(mags_derived * full, axis=1) ** 2

    # internal consistency of the pair-swap route against the closed-form map, on all 16 rows
    sampled = times[::COMPARISON_POINTS // 25]
    closed = pair_exchange(np.broadcast_to(egeg[:, None], (16, len(sampled))), omega * sampled)
    defect = float(np.max(np.abs(closed.T - _evaluate(swap_freqs, swap_parts, sampled))))

    entries = _difference_entries(derived, h_pair_swap)
    max_inf_pair_swap = float(np.max(1.0 - fid_pair_swap))
    max_inf_derived = float(np.max(1.0 - fid_derived))
    return EffectiveModelComparison(
        fidelity_pair_swap_vs_full=fid_pair_swap,
        fidelity_derived_vs_full=fid_derived,
        max_infidelity_pair_swap=max_inf_pair_swap,
        max_infidelity_derived=max_inf_derived,
        derived_tracks_full_better=max_inf_derived < max_inf_pair_swap,
        internal_consistency_defect=defect,
        difference_entries=entries,
        difference_nonempty=len(entries) > 0,
    )
