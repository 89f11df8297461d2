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

Both get the exact run from one helper: the conserved-excitation sector
n_e + m = n + 2 (model.excitation_sector, at most 16 states at any n_max),
the grid over 1.5 exchange periods and the series of |egeg, n> from one eigh.
compare_effective_models derives the second-order operator once, from the
sector's H0/Hint blocks, and takes the difference entries from it.
Both need 0 <= n <= n_max - 4, so the sector stops at m = n + 2 <= n_max - 2
and the guard occupation is 0 by construction.

Model comparisons use the classical fidelity between atomic population
distributions, (sum_i sqrt(p_i q_i))^2, with the full model's weight outside
the Fock sector counted against it. Populations are immune to the
interaction-picture and sign conventions that differ between the effective
layer (which keeps the +Omega sign of the closed-form map) and lab-frame numerics
(where the standard second-order shift carries the opposite sign); raw
amplitude overlaps would measure that convention, not the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import dfs_propagate, evolve_times, make_propagator
from .hilbert import Operator, StateVector, SystemParams
from .model import (
    TWO_EXCITATION_CONFIGS,
    TWO_EXCITATION_LABELS,
    build_h_eff,
    derive_second_order,
    effective_coupling,
    excitation_sector,
)

GUARD_LEAKAGE_MAX = 1e-6
PEAK_PROMINENCE_FRACTION = 0.4

_COLS = list(TWO_EXCITATION_CONFIGS)  # the six two-excitation configurations, label order


class RabiFitError(RuntimeError):
    """Oscillation amplitude too small (or absent) for a frequency fit; carries
    the partial run with the maximum transfer observed."""

    def __init__(self, message: str, run: "ValidationRun"):
        super().__init__(message)
        self.run = run
        self.max_transfer = run.peak_population


@dataclass(frozen=True)
class ValidationRun:
    delta_over_g: float
    omega_expected: float
    perturbative_ok: bool
    omega_fit: float = np.nan            # nan when the fit is not possible
    relative_deviation: float = np.nan   # |omega_fit - omega_expected| / omega_expected
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
    and right until the series rises above the peak or ends.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.array([], dtype=np.intp)
    starts = np.flatnonzero(np.diff(x, prepend=np.nan) != 0)  # runs of equal values
    ends = np.append(starts[1:], len(x)) - 1
    level = x[starts]
    top = np.zeros(len(level), dtype=bool)
    top[1:-1] = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = []
    for i in (starts[top] + ends[top]) // 2:
        higher = np.flatnonzero(x > x[i])
        k = np.searchsorted(higher, i)
        lo = higher[k - 1] + 1 if k else 0
        hi = higher[k] if k < len(higher) else len(x)
        if x[i] - max(x[lo:i + 1].min(), x[i:hi].min()) >= prominence:
            peaks.append(i)
    return np.array(peaks, dtype=np.intp)


def _quadratic_peak_times(times: np.ndarray, series: np.ndarray) -> list[float]:
    span = float(series.max() - series.min())
    if span == 0.0:
        return []
    dt = times[1] - times[0]
    out = []
    for i in prominent_peaks(series, PEAK_PROMINENCE_FRACTION * span):
        y0, y1, y2 = series[i - 1], series[i], series[i + 1]
        denom = y0 - 2 * y1 + y2
        offset = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        out.append(float(times[i] + offset * dt))
    return out


def _exact_run(params: SystemParams, n: int, n_points: int):
    """Evolve |egeg, n> exactly on the sector n_e + m = n + 2 over 1.5 exchange periods
    by one eigh; returns (run inputs, sector, times, propagator, amplitudes (n_points,
    sector)). Raises ValueError unless 0 <= n <= n_max - 4, RabiFitError when G = 0."""
    sector = excitation_sector(params, n + 2)  # the domain check, before effective_coupling
    run = ValidationRun(delta_over_g=params.delta / params.G if params.G else np.inf,
                        omega_expected=effective_coupling(n, params).omega,
                        perturbative_ok=params.perturbative_ok)
    if run.omega_expected == 0:
        raise RabiFitError("no oscillation to fit (G = 0)",
                           replace(run, diagnostic="no coupling, no oscillation"))
    t_max = 1.5 * 2 * np.pi / abs(run.omega_expected)
    times = np.linspace(0.0, t_max, n_points)
    psi0 = np.zeros(len(sector.indices), dtype=complex)
    psi0[sector.position("egeg", n)] = 1.0
    propagator = make_propagator(sector.hamiltonian, t_max)  # the one eigh of the run
    return run, sector, times, propagator, propagator.series(psi0, times)


def extract_rabi(params: SystemParams, n: int = 0,
                 min_peak_population: float = 0.5,
                 n_points: int = 6001) -> ValidationRun:
    """Fit the |egeg,n> -> |gege,n> population-transfer frequency under the
    exact full model.

    The time grid covers 1.5 periods of the expected exchange rate. Raises
    RabiFitError (carrying the partial run) when the peak transfer stays
    below min_peak_population or no oscillation exists; lower the threshold
    to force a fit of whatever oscillation is present. Raises ValueError
    unless 0 <= n <= n_max - 4.
    """
    run, sector, times, propagator, amps = _exact_run(params, n, n_points)
    idx = {lab: sector.position(lab, n) for lab in TWO_EXCITATION_LABELS}
    probs = np.abs(amps) ** 2

    levels = sector.fock_levels
    p_gege = probs[:, idx["gege"]]
    p_egeg = probs[:, idx["egeg"]]
    exchange_cols = [idx[lab] for lab in TWO_EXCITATION_LABELS if lab not in ("egeg", "gege")]
    p_exchange = probs[:, exchange_cols].sum(axis=1)
    p_sector = probs[:, levels == n].sum(axis=1)
    totals = probs.sum(axis=1)
    guard = probs[:, levels >= params.n_max - 1].sum(axis=1)  # no such column: 0

    # common-phase (Stark) rate from the autocorrelation phase slope
    phase = np.unwrap(np.angle(amps[:, idx["egeg"]]))
    stark_fit = -float(np.polyfit(times, phase, 1)[0])

    u = propagator.unitary
    unde = float(np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(u.dim))))
    norm_defect = float(np.max(np.abs(np.sqrt(totals) - 1.0)))

    peak_times = _quadratic_peak_times(times, p_gege)
    if len(peak_times) >= 2:
        omega_fit = float(np.pi / np.mean(np.diff(peak_times)))
    elif len(peak_times) == 1:
        omega_fit = float(np.pi / (2 * peak_times[0]))
    else:
        omega_fit = np.nan

    peak_pop = float(p_gege.max())
    run = replace(
        run,
        omega_fit=omega_fit,
        relative_deviation=float(abs(omega_fit - run.omega_expected) / abs(run.omega_expected))
        if np.isfinite(omega_fit) else np.nan,
        peak_population=peak_pop,
        leakage_pair=float(np.max(1.0 - (p_egeg + p_gege) / totals)),
        leakage_exchange=float(p_exchange.max()),
        leakage_photon=float(np.max(totals - p_sector)),
        guard_leakage=float(guard.max()),
        stark_shift_fit=stark_fit,
        unitarity_defect=unde,
        normalization_defect=norm_defect,
        diagnostic=None if peak_pop >= min_peak_population else
        f"peak transfer {peak_pop:.6f} below the fit threshold {min_peak_population}",
    )
    if peak_pop < min_peak_population or not np.isfinite(omega_fit):
        raise RabiFitError(
            f"oscillation amplitude too small to fit: peak population {peak_pop:.6f} "
            f"< {min_peak_population}", run)
    return run


def forced_rabi_fit(params: SystemParams, n: int = 0, n_points: int = 6001) -> ValidationRun:
    """extract_rabi with the amplitude gate disabled (fit whatever is there)."""
    try:
        return extract_rabi(params, n, min_peak_population=0.0, n_points=n_points)
    except RabiFitError as err:  # only when no peaks exist at all
        return err.run


@dataclass(frozen=True)
class DifferenceEntry:
    row: str
    col: str
    value: complex


@dataclass(frozen=True)
class EffectiveModelComparison:
    fidelity_pair_swap_vs_full: np.ndarray
    fidelity_derived_vs_full: np.ndarray
    max_infidelity_pair_swap: float
    max_infidelity_derived: float
    derived_tracks_full_better: bool
    internal_consistency_defect: float   # pair-swap generator vs closed-form map
    difference_entries: tuple[DifferenceEntry, ...]
    difference_nonempty: bool


def _difference_entries(derived: np.ndarray, pair_swap: Operator,
                        atol: float) -> tuple[DifferenceEntry, ...]:
    """Entries of the 6x6 derived operator minus the pair-swap operator on the
    two-excitation configurations, above atol * max(1, max|derived|), row by row."""
    diff = derived - pair_swap.matrix[np.ix_(_COLS, _COLS)]
    scale = max(1.0, float(np.max(np.abs(derived))))
    return tuple(DifferenceEntry(row=TWO_EXCITATION_LABELS[i], col=TWO_EXCITATION_LABELS[j],
                                 value=complex(diff[i, j]))
                 for i, j in zip(*np.nonzero(np.abs(diff) > atol * scale)))


def effective_difference_entries(params: SystemParams, n: int = 0,
                                 atol: float = 1e-12) -> tuple[DifferenceEntry, ...]:
    """Nonzero entries of (PT-derived second-order operator) minus (double-
    flip-only effective operator) on the two-excitation manifold."""
    sector = excitation_sector(params, n + 2)
    derived = derive_second_order(sector.h0, sector.hint, sector.manifold).matrix
    return _difference_entries(derived, build_h_eff(params, n, include_stark=False), atol)


def compare_effective_models(params: SystemParams, n: int = 0,
                             n_points: int = 1201) -> EffectiveModelComparison:
    """Evolve |egeg, n> under the pair-swap effective operator, the PT-derived
    operator, and the exact full model; report fidelity time series and the
    operator difference. Raises ValueError unless 0 <= n <= n_max - 4."""
    run, sector, times, _, amps_full = _exact_run(params, n, n_points)  # (t, sector)
    omega = run.omega_expected

    psi_atomic = StateVector.basis_state("egeg")
    h_pair_swap = build_h_eff(params, n, include_stark=False)
    amps_pair_swap = evolve_times(h_pair_swap, psi_atomic, times)  # (t, 16)

    derived6 = derive_second_order(sector.h0, sector.hint, sector.manifold).matrix
    derived16 = np.zeros((16, 16), dtype=complex)
    derived16[np.ix_(_COLS, _COLS)] = derived6
    amps_derived = evolve_times(Operator(derived16), psi_atomic, times)

    local = [sector.position(c, n) for c in _COLS]  # the sector's states at Fock n
    pops_full = np.zeros((len(times), 16))  # atomic populations at Fock n
    pops_full[:, _COLS] = np.abs(amps_full[:, local]) ** 2  # weight outside lowers the fidelity
    fid_pair_swap = np.sum(np.sqrt(np.abs(amps_pair_swap) ** 2 * pops_full), axis=1) ** 2
    fid_derived = np.sum(np.sqrt(np.abs(amps_derived) ** 2 * pops_full), axis=1) ** 2

    # internal consistency of the pair-swap route against the closed-form map
    defect = 0.0
    for k in range(0, n_points, max(1, n_points // 25)):
        closed = dfs_propagate(psi_atomic, omega * times[k])
        defect = max(defect, float(np.max(np.abs(closed.amplitudes - amps_pair_swap[k]))))

    entries = _difference_entries(derived6, h_pair_swap, atol=1e-12)
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
