import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import dfscavity
from dfscavity.dynamics import (
    _evaluate,
    _fold,
    _grid_phases,
    _series,
    block_spectrum,
    evolve_times,
    pair_exchange,
    pair_swap_spectrum,
    uniform_spectrum,
)
from dfscavity.hilbert import Operator, StateVector, SystemParams, unitary_defect
from dfscavity.model import (
    MANIFOLD_ROWS,
    TWO_EXCITATION_CONFIGS,
    TWO_EXCITATION_LABELS,
    bright_ladder,
    build_h_eff,
    derive_second_order,
    derived_coupling,
    effective_coupling,
    pair_block,
)
from dfscavity.validate import (
    COMPARISON_POINTS,
    PEAK_PROMINENCE_FRACTION,
    RABI_FIT_POINTS,
    RabiFitError,
    ValidationRun,
    _exact_run,
    _quadratic_peak_times,
    compare_effective_models,
    effective_difference_entries,
    extract_rabi,
    fit_span,
    forced_rabi_fit,
    prominent_peaks,
)


def make_params(ratio, n_max=8):
    return SystemParams(G=1.0, delta=ratio, n_max=n_max)


class TestExtractRabi:
    def test_fit_gate_fires_on_collective_dynamics(self):
        # the exact model confines the egeg->gege transfer to ~1/9, below the
        # 0.5 fit gate; the diagnostic carries the observed maximum transfer
        with pytest.raises(RabiFitError) as excinfo:
            extract_rabi(make_params(10.0), n=0)
        err = excinfo.value
        assert err.max_transfer == pytest.approx(1 / 9, abs=2e-3)
        assert err.run.diagnostic is not None

    def test_zero_coupling_diagnostic(self):
        with pytest.raises(RabiFitError, match="G = 0"):
            extract_rabi(SystemParams(G=0.0, delta=10.0, n_max=8), n=0)

    def test_forced_fit_converges_to_collective_rate(self):
        # the fitted frequency approaches 3*Omega (the collective rate) as
        # delta/G grows; deviation from 3*Omega strictly decreases
        devs = []
        for ratio in (10.0, 20.0, 40.0):
            run = forced_rabi_fit(make_params(ratio), n=0)
            devs.append(abs(run.omega_fit - 3 * run.omega_expected) / (3 * run.omega_expected))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.02

    def test_forced_fit_deviation_from_pair_rate_increases(self):
        # the deviation from the pair-exchange rate GROWS with delta/G
        # (1.73, 1.91, 1.98), approaching 2: frozen oracle behavior
        devs = []
        for ratio in (10.0, 20.0, 40.0):
            run = forced_rabi_fit(make_params(ratio), n=0)
            devs.append(run.relative_deviation)
        assert devs[0] < devs[1] < devs[2]
        assert devs[2] == pytest.approx(2.0, abs=0.05)

    def test_unitarity_normalization_and_guard(self):
        run = forced_rabi_fit(make_params(20.0), n=0)
        assert run.unitarity_defect < 1e-10
        assert run.normalization_defect < 1e-10
        assert run.guard_leakage < 1e-6

    def test_leakage_accounting(self):
        run = forced_rabi_fit(make_params(10.0), n=0)
        # photon leakage is the |gggg, 2> admixture; exchange leakage mirrors
        # the uniform manifold spreading
        assert 0.01 < run.leakage_photon < 0.12
        assert 0.1 < run.leakage_exchange < 0.5
        assert run.leakage_pair > run.leakage_exchange  # pair leakage includes both

    def test_photon_leakage_shrinks_with_detuning(self):
        leak10 = forced_rabi_fit(make_params(10.0), n=0).leakage_photon
        leak40 = forced_rabi_fit(make_params(40.0), n=0).leakage_photon
        assert leak40 < leak10
        # second-order virtual-excitation scale: ~ 48 (G/delta)^2 / 6 per state
        assert leak40 < (np.sqrt(2.0) / 40.0) ** 2 * 4 * 6

    def test_no_prominent_peak_is_diagnosed(self):
        # far outside the perturbative regime (delta/G = 0.1) the grid's 1.5 pair
        # periods end before the slower exact transfer peaks: the population clears
        # a zero threshold but has no interior maximum, and the run says so
        # instead of carrying a bare nan
        params = make_params(0.1)
        with pytest.raises(RabiFitError, match="^no prominent peak") as excinfo:
            extract_rabi(params, n=0, min_peak_population=0.0)
        run = excinfo.value.run
        assert np.isnan(run.omega_fit) and run.peak_population > 0.0
        assert run.diagnostic == str(excinfo.value)
        assert forced_rabi_fit(params, n=0).diagnostic == run.diagnostic
        # below the threshold, the threshold text takes precedence
        with pytest.raises(RabiFitError, match="too small") as excinfo:
            extract_rabi(params, n=0)
        assert excinfo.value.run.diagnostic.startswith("peak transfer")

    def test_deviation_reads_the_same_at_either_sign_of_delta(self):
        # Omega(n) changes sign with delta while the fitted frequency is positive,
        # so the deviation compares the fit with |Omega(n)|
        plus, minus = forced_rabi_fit(make_params(10.0), n=0), forced_rabi_fit(make_params(-10.0), n=0)
        assert minus.omega_expected == -plus.omega_expected
        assert minus.omega_fit == pytest.approx(plus.omega_fit, rel=1e-9)
        assert minus.peak_population == pytest.approx(plus.peak_population, rel=1e-9)
        assert minus.relative_deviation == pytest.approx(plus.relative_deviation, rel=1e-9)

    @pytest.mark.parametrize("ratio", [20.0, -20.0])
    def test_one_peak_fits_a_quarter_period(self, ratio, monkeypatch):
        # a single prominent peak at t1 is read as the first maximum of the
        # transfer, a quarter period: omega_fit = pi / (2 t1)
        monkeypatch.setattr("dfscavity.validate._quadratic_peak_times", lambda times, series: [4.0])
        run = extract_rabi(make_params(ratio), n=0, min_peak_population=0.0)
        omega = abs(effective_coupling(0, make_params(ratio)).omega)
        assert run.omega_fit == np.pi / 8.0
        assert run.relative_deviation == pytest.approx(abs(np.pi / 8.0 - omega) / omega, rel=1e-12)
        assert run.diagnostic is None

    @pytest.mark.parametrize("threshold", [np.nan, -0.1, 1.5])
    def test_fit_threshold_outside_unit_interval_rejected(self, threshold):
        # a NaN threshold compared false against every transfer and switched the gate off
        with pytest.raises(ValueError, match="min_peak_population must be a number in"):
            extract_rabi(make_params(10.0), n=0, min_peak_population=threshold)

    def test_fit_thresholds_zero_and_half_keep_their_behaviour(self):
        # 0.0 forces the fit of the 1/9 transfer; 0.5, the default gate, rejects it
        params = make_params(10.0)
        forced = extract_rabi(params, n=0, min_peak_population=0.0)
        assert forced.diagnostic is None and forced.peak_population == pytest.approx(1 / 9, abs=2e-3)
        with pytest.raises(RabiFitError, match="too small"):
            extract_rabi(params, n=0, min_peak_population=0.5)

    def test_fock_sector_above_guard_rejected(self):
        with pytest.raises(ValueError, match="n_max - 4"):
            extract_rabi(make_params(10.0), n=5)


# every function that takes a Fock level n, called with a non-integer one; each used
# to return plausible numbers (derived_coupling 0.1875 against effective_coupling's
# 0.2 at n = 0.5, a fit with no diagnostic, 36 difference entries instead of 30)
NON_INTEGER_LEVEL_CALLS = {
    "effective_coupling": lambda p: effective_coupling(0.5, p),
    "effective_coupling-bool": lambda p: effective_coupling(True, p),  # read as n = 1
    "pair_block-bool": lambda p: pair_block(p, True),
    "derived_coupling": lambda p: derived_coupling(p, 0.5),
    "pair_block": lambda p: pair_block(p, 0.5),
    "extract_rabi": lambda p: extract_rabi(p, 0.5),
    "forced_rabi_fit": lambda p: forced_rabi_fit(p, 1.5),
    "compare_effective_models": lambda p: compare_effective_models(p, 0.5),
    "effective_difference_entries": lambda p: effective_difference_entries(p, 0.5),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_LEVEL_CALLS))
def test_non_integer_fock_level_rejected(name):
    with pytest.raises(ValueError, match="integer"):
        NON_INTEGER_LEVEL_CALLS[name](make_params(20.0))


@pytest.mark.parametrize("level", [1, np.int64(1), np.int32(1)])
def test_integer_fock_level_accepted(level):
    p = make_params(20.0)
    assert effective_coupling(level, p).omega == effective_coupling(1, p).omega == 0.3
    assert derived_coupling(p, level).omega == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError, match="integer"):
        effective_coupling(1.0, p)  # the test SystemParams applies to n_max


class TestCompareEffectiveModels:
    def test_internal_consistency_pair_swap_vs_closed_form(self):
        comp = compare_effective_models(make_params(20.0), n=0)
        assert comp.internal_consistency_defect < 1e-10

    def test_derived_tracks_full_better_than_pair_swap(self):
        comp = compare_effective_models(make_params(10.0), n=0)
        assert comp.derived_tracks_full_better
        assert comp.max_infidelity_derived < comp.max_infidelity_pair_swap

    def test_derived_infidelity_decreases_with_detuning(self):
        inf10 = compare_effective_models(make_params(10.0), n=0).max_infidelity_derived
        inf40 = compare_effective_models(make_params(40.0), n=0).max_infidelity_derived
        assert inf40 < inf10

    def test_difference_operator_nonempty_as_recorded(self):
        # frozen oracle count: 30 nonzero entries at n=0 (24 exchange + 6 diagonal)
        entries = effective_difference_entries(make_params(10.0), n=0)
        assert len(entries) == 30
        pairs = {(row, col) for row, col, _ in entries}
        assert ("egeg", "eegg") in pairs          # exchange term
        assert ("egeg", "egeg") in pairs          # diagonal (Stark) term
        assert ("egeg", "gege") not in pairs      # the double-flip term agrees

    def test_difference_entries_all_equal_omega(self):
        params = make_params(10.0)
        entries = effective_difference_entries(params, n=0)
        from dfscavity.model import effective_coupling

        omega = effective_coupling(0, params).omega
        for _, _, value in entries:
            assert value == pytest.approx(omega, rel=1e-12)

    def test_probabilities_conserved_along_comparison(self):
        comp = compare_effective_models(make_params(20.0), n=0)
        assert np.all(comp.fidelity_pair_swap_vs_full <= 1 + 1e-12)
        assert np.all(comp.fidelity_derived_vs_full <= 1 + 1e-12)


@pytest.mark.parametrize("G,ratio,message", [
    # Omega(0) = 2e-310 is subnormal: the fit raised LinAlgError, the comparison read NaN
    (1e-100, 1e210, r"the fit spans 3 pi/Omega\(0\) = inf"),
    # the squared times underflow: the Stark-phase polyfit raised LinAlgError
    (1e100, 1e-150, r"the fit spans 3 pi/Omega\(0\) = 4.712"),
    # the bare phase (delta/2) 2 x 3 pi/Omega(0) overflowed: the unitarity defect read NaN
    (1e100, 1e154, r"the float resolution of the block energies, 16 eps x 2 \|delta\|/2 = 3.55\d*e\+239"),
    # eigh's error reaches the splitting: the transfer read 1.3e-31 and omega_fit 141 x 3 Omega(0)
    (1.0, 1e8, r"the float resolution of the block energies, 16 eps x 2 \|delta\|/2 = 3.55\d*e-07 "
               r"at G = 1.0, delta = 100000000.0, is not below the pair splitting 6 \|Omega\(0\)\| = 1.2"),
], ids=["subnormal-rate", "underflowing-times", "overflowing-phase", "unresolved-splitting"])
def test_exact_run_grid_out_of_float_range_rejected(G, ratio, message):
    params = SystemParams(G=G, delta=G * ratio, n_max=8)
    for call in (fit_span, forced_rabi_fit, compare_effective_models):
        with pytest.raises(ValueError, match=message):
            call(params, 0)


@pytest.mark.parametrize("G", [1e-3, 1.0, 2 * np.pi * 47e3])
def test_fit_span_resolution_boundary(G):
    # 16 eps x 2 |delta|/2 < 6 |Omega(0)| = 12 G^2/|delta| holds up to delta/G = sqrt(0.75/eps)
    fit_span(SystemParams(G=G, delta=5.81e7 * G), 0)
    with pytest.raises(ValueError, match="the float resolution of the block energies"):
        fit_span(SystemParams(G=G, delta=5.82e7 * G), 0)


def test_quadratic_peak_times_of_flat_series_is_empty():
    assert _quadratic_peak_times(np.linspace(0.0, 1.0, 50), np.full(50, 0.3)) == []


def test_fit_span_is_the_exact_run_grid():
    params = make_params(20.0)
    assert _exact_run(params, 0, 5)[2][-1] == fit_span(params, 0) == 3 * np.pi / 0.1


def _full_series(params, n, points):
    """The exact run and its whole (points, block) amplitude series from |egeg, n> (row 0),
    through `_series` of the run's own spectrum of the block's H0 + Hint, so the fold's
    observables and the full-series formulas read the same eigenvalues (two
    diagonalisations differ in the last digits of a defect of 1e-15; tests/test_closed_form.py
    holds that spectrum against eigh)."""
    omega, block, times, u, _ = _exact_run(params, n, points)
    levels, energies, hint = block
    psi0 = np.zeros(len(levels), dtype=complex)
    psi0[0] = 1.0
    spectrum = block_spectrum(np.diag(energies) + hint, bright_ladder(params, n))
    return omega, block, times, u, _series(*spectrum, psi0, times)


def _reference_fit(params, n, min_peak_population):
    """extract_rabi's run by the formulas that read the full series: np.abs(amps)**2,
    fancy-index group sums and np.polyfit for the Stark rate."""
    omega, (levels, _, _), times, u, amps = _full_series(params, n, RABI_FIT_POINTS)
    idx = {lab: row for row, lab in enumerate(TWO_EXCITATION_LABELS)}
    probs = np.abs(amps) ** 2
    p_gege, p_egeg = probs[:, idx["gege"]], probs[:, idx["egeg"]]
    exchange = probs[:, [idx[lab] for lab in ("egge", "geeg", "eegg", "ggee")]].sum(axis=1)
    totals = probs.sum(axis=1)
    peak_times = _quadratic_peak_times(times, p_gege)
    omega_fit = (np.pi / np.mean(np.diff(peak_times)) if len(peak_times) >= 2
                 else np.pi / (2 * peak_times[0]) if peak_times else np.nan)
    peak_pop = float(p_gege.max())
    diagnostic = (f"peak transfer {peak_pop:.6f} below the fit threshold {min_peak_population}"
                  if peak_pop < min_peak_population
                  else None if np.isfinite(omega_fit) else "no prominent peak in the |gege> population")
    return ValidationRun(
        omega_expected=omega, perturbative_ok=params.perturbative_ok, omega_fit=omega_fit,
        relative_deviation=abs(omega_fit - abs(omega)) / abs(omega),
        peak_population=peak_pop,
        leakage_pair=np.max(1.0 - (p_egeg + p_gege) / totals),
        leakage_exchange=exchange.max(),
        leakage_photon=np.max(totals - probs[:, levels == n].sum(axis=1)),
        guard_leakage=probs[:, levels >= params.n_max - 1].sum(axis=1).max(),
        stark_shift_fit=-np.polyfit(times, np.unwrap(np.angle(amps[:, idx["egeg"]])), 1)[0],
        unitarity_defect=np.max(np.abs(u.conj().T @ u - np.eye(len(u)))),
        normalization_defect=np.max(np.abs(np.sqrt(totals) - 1.0)),
        diagnostic=diagnostic)


def _reference_fidelities(params, n):
    """compare_effective_models' two fidelity series by the 16-column formula over the
    full series."""
    _, (_, energies, hint), times, _, amps_full = _full_series(params, n, COMPARISON_POINTS)
    psi = StateVector.basis_state("egeg").amplitudes
    cols = list(TWO_EXCITATION_CONFIGS)
    derived16 = np.zeros((16, 16), dtype=complex)
    derived16[np.ix_(cols, cols)] = derive_second_order(energies, hint, MANIFOLD_ROWS)
    pops_full = np.zeros((len(times), 16))
    pops_full[:, cols] = np.abs(amps_full[:, list(MANIFOLD_ROWS)]) ** 2
    return [np.sum(np.sqrt(np.abs(evolve_times(h, psi, times)) ** 2 * pops_full), axis=1) ** 2
            for h in (build_h_eff(params, n, include_stark=False), Operator(derived16))]


def _fit_or_partial(params, n, min_peak_population):
    try:
        return extract_rabi(params, n, min_peak_population=min_peak_population)
    except RabiFitError as err:
        return err.run


@pytest.mark.parametrize("n_max", [8, 16, 32])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0, 40.0, 80.0])
def test_observables_match_the_full_series_formulas(ratio, n, n_max):
    # every observable is read once from the fold (the populations from its beat terms,
    # the closed-form slope, six comparison columns); the formulas on the full series
    # are the oracle, within 1e-12 relative or 1e-15 absolute
    params = make_params(ratio, n_max)
    for threshold in (0.0, 0.5):
        got, want = _fit_or_partial(params, n, threshold), _reference_fit(params, n, threshold)
        for field in fields(got):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(a, float):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15, err_msg=field.name)
            else:
                assert a == b, field.name
    comp = compare_effective_models(params, n)
    pair_swap, derived = _reference_fidelities(params, n)
    np.testing.assert_allclose(comp.fidelity_pair_swap_vs_full, pair_swap, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(comp.fidelity_derived_vs_full, derived, rtol=1e-12, atol=1e-15)
    assert comp.derived_tracks_full_better == (np.max(1 - derived) < np.max(1 - pair_swap))


def _oracle_fit(params, n):
    """forced_rabi_fit by the textbook route, from the block's eigh: every amplitude from
    np.exp(-1j * np.outer(t, w)) over all its eigenvalues, the peaks from scipy's find_peaks
    with the same quadratic interpolation, and the Stark rate from np.unwrap and np.polyfit."""
    omega, (levels, energies, hint), times, u, _ = _exact_run(params, n, RABI_FIT_POINTS)
    w, v = np.linalg.eigh(np.diag(energies) + hint)
    amps = (np.exp(-1j * np.outer(times, w)) * v[0].conj()) @ v.T  # from |egeg, n>, row 0
    idx = {lab: row for row, lab in enumerate(TWO_EXCITATION_LABELS)}
    probs = np.abs(amps) ** 2
    p_gege, p_egeg = probs[:, idx["gege"]], probs[:, idx["egeg"]]
    totals = probs.sum(axis=1)
    peaks, _ = find_peaks(p_gege, prominence=PEAK_PROMINENCE_FRACTION * np.ptp(p_gege))
    y0, y1, y2 = p_gege[peaks - 1], p_gege[peaks], p_gege[peaks + 1]
    peak_times = times[peaks] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (times[1] - times[0])
    omega_fit = (np.pi / np.mean(np.diff(peak_times)) if len(peak_times) >= 2
                 else np.pi / (2 * peak_times[0]) if len(peak_times) else np.nan)
    return ValidationRun(
        omega_expected=omega, perturbative_ok=params.perturbative_ok, omega_fit=omega_fit,
        relative_deviation=abs(omega_fit - abs(omega)) / abs(omega),
        peak_population=p_gege.max(),
        leakage_pair=np.max(1.0 - (p_egeg + p_gege) / totals),
        leakage_exchange=probs[:, [idx[lab] for lab in ("egge", "geeg", "eegg", "ggee")]].sum(axis=1).max(),
        leakage_photon=np.max(totals - probs[:, levels == n].sum(axis=1)),
        guard_leakage=probs[:, levels >= params.n_max - 1].sum(axis=1).max(),
        stark_shift_fit=-np.polyfit(times, np.unwrap(np.angle(amps[:, idx["egeg"]])), 1)[0],
        unitarity_defect=np.max(np.abs(u.conj().T @ u - np.eye(len(u)))),
        normalization_defect=np.max(np.abs(np.sqrt(totals) - 1.0)),
        diagnostic=None if np.isfinite(omega_fit) else "no prominent peak in the |gege> population")


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0, 40.0, 80.0])
def test_forced_fit_matches_the_textbook_oracle(ratio, n, sign):
    # the phase table, the prefiltered peak walk and the summed Stark phase against
    # np.exp, find_peaks and np.unwrap; n = 3 occupies four frequencies
    params = SystemParams(G=1.0, delta=sign * ratio, n_max=8)
    got, want = forced_rabi_fit(params, n), _oracle_fit(params, n)
    assert np.isfinite(got.omega_fit)
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, float):
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10, err_msg=field.name)
        else:
            assert a == b, field.name


def _peak_cases():
    """Series that exercise the prominence filter: seeded random noise,
    integer-valued series with plateaus, a flat series and edge maxima."""
    rng = np.random.default_rng(20260)
    cases = [("flat", np.full(50, 0.3)),
             ("edge_maxima", np.array([5.0, 1.0, 2.0, 1.0, 3.0, 0.0, 6.0])),
             ("edge_plateaus", np.array([4.0, 4.0, 1.0, 3.0, 3.0, 3.0, 1.0, 2.0, 4.0, 4.0])),
             ("short", np.array([1.0, 2.0]))]
    for k in range(40):
        cases.append((f"random{k}", rng.normal(size=int(rng.integers(3, 200)))))
        # values 0..10 put some prominences exactly on the thresholds 1, 4 and 9
        cases.append((f"plateaus{k}", rng.integers(0, 11 if k % 2 else 4,
                                                   size=int(rng.integers(3, 200))).astype(float)))
    cases.append(("sine", np.sin(np.linspace(0, 9 * np.pi, 601)) + 1e-3 * rng.normal(size=601)))
    return cases


class TestProminentPeaks:
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.4, 0.9])
    def test_matches_scipy_find_peaks(self, fraction):
        for name, x in _peak_cases():
            prominence = fraction * float(np.ptp(x))
            expected, _ = find_peaks(x, prominence=prominence)
            np.testing.assert_array_equal(prominent_peaks(x, prominence), expected,
                                          err_msg=f"{name} at prominence fraction {fraction}")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=300), st.data())
    def test_integer_series_with_plateaus_match_scipy(self, values, data):
        x = np.array(values, dtype=float)
        prominence = data.draw(_on_or_between_gaps(x))
        expected, _ = find_peaks(x, prominence=prominence)
        np.testing.assert_array_equal(prominent_peaks(x, prominence), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10_000), st.booleans(), st.data())
    def test_random_walks_match_scipy(self, seed, size, unit_steps, data):
        rng = np.random.default_rng(seed)
        # steps of -1, 0 or +1 give plateaus and repeated levels; normal steps give neither
        steps = rng.integers(-1, 2, size=size) if unit_steps else rng.normal(size=size)
        x = np.cumsum(steps).astype(float)
        prominence = data.draw(_on_or_between_gaps(x))
        expected, _ = find_peaks(x, prominence=prominence)
        np.testing.assert_array_equal(prominent_peaks(x, prominence), expected)

    @pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0, 40.0, 80.0])
    def test_gege_series_peaks_match_scipy(self, ratio):
        # the series the Rabi fit filters, at the fit's threshold and with none
        _, _, times, _, fold = _exact_run(make_params(ratio), 0, RABI_FIT_POINTS)
        gege = _evaluate(*fold, times)[:, TWO_EXCITATION_LABELS.index("gege")]
        p_gege = gege.real ** 2 + gege.imag ** 2
        for fraction in (PEAK_PROMINENCE_FRACTION, 0.0):
            prominence = fraction * float(np.ptp(p_gege))
            expected, _ = find_peaks(p_gege, prominence=prominence)
            np.testing.assert_array_equal(prominent_peaks(p_gege, prominence), expected,
                                          err_msg=f"delta/G {ratio}, fraction {fraction}")

    @pytest.mark.parametrize("x", [
        [-0.27, -0.24, 1.0, -0.89, -0.29, 0.88, 0.58, 0.09, 0.67, -2.83, 1.02, -0.96, -1.67],
        [-1.67, -0.96, 1.02, -2.83, 0.67, 0.09, 0.58, 0.88, -0.29, -0.89, 1.0, -0.24, -0.27],
        [0.1, 0.7, 0.7, 0.3, 0.9, 0.9, 0.9, 0.2, 0.6, 0.6, -0.4, 0.8, 0.3, 0.3, 1.1, 0.0],
        [0.0, 0.3, 0.3, 0.1, 0.7, 0.2, 0.7, 0.7, 0.45, 1.3, 1.3, 0.45, 0.15, 0.5, -0.05],
        [0.2, 0.9, 0.1, 0.9, 0.1, 0.9, 0.3, 0.9, 0.9, 0.2],
        [0.3, 0.3, 0.8, 0.8, 0.1, 0.1, 0.55, 0.55, 0.55, -0.15, 0.7, 0.7, 0.3, 0.3],
    ], ids=["decimals", "decimals-reversed", "plateaus", "shoulders", "equal-tops", "all-plateaus"])
    def test_thresholds_on_level_differences_match_scipy(self, x):
        # every threshold is exactly level - min or max - level for a level of x, or the
        # difference of two of its levels, where rounding decides the comparison. In
        # "decimals", 0.67 (index 8) has prominence 0.67 - 0.09 (its left run, up to the
        # higher 0.88), and 0.09 > 0.67 - (0.67 - 0.09) in floats: a filter testing
        # run_min > h - prominence dropped the peak that find_peaks keeps; its mirror image
        # puts the higher neighbour on the right
        x = np.array(x)
        levels = np.unique(x)
        thresholds = np.concatenate([levels - levels[0], levels[-1] - levels,
                                     (levels[:, None] - levels[None, :]).ravel()])
        for prominence in np.unique(thresholds[thresholds >= 0]).tolist():
            expected, _ = find_peaks(x, prominence=prominence)
            np.testing.assert_array_equal(prominent_peaks(x, prominence), expected,
                                          err_msg=f"prominence {prominence!r}")


def _on_or_between_gaps(x):
    """A prominence threshold on one of the gaps that decide the filter (the
    prominences of the maxima of x), halfway between two neighbouring ones,
    or below or above all of them."""
    gaps = np.unique(find_peaks(x, prominence=0.0)[1]["prominences"])
    candidates = np.concatenate([[0.0], gaps, (gaps[1:] + gaps[:-1]) / 2,
                                 gaps[-1:] + 1.0])
    return st.sampled_from(sorted(candidates.tolist()))


def test_import_leaves_scipy_unloaded():
    src = str(Path(dfscavity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, dfscavity.cli, dfscavity.validate; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _table_route_fit(params, n, min_peak_population):
    """extract_rabi by the earlier table-and-beats route: the (times, frequencies) phase
    table of `_grid_phases`, the (times, beats) array of e^{i(w_k - w_l)t} and the Stark phase
    from an einsum over the table; raises RabiFitError as extract_rabi does."""
    omega, (levels, _, _), times, u, (freqs, parts) = _exact_run(params, n, RABI_FIT_POINTS)
    waves = _grid_phases(times, freqs)
    steps = np.einsum("tk,k->t", waves, parts[0])
    steps[1:] *= steps[:-1].conj()
    steps[0] = 1.0
    phase = np.cumsum(np.angle(steps))
    centred = times - times.mean()
    stark_fit = -float(centred @ phase / (centred @ centred))
    k, l = np.triu_indices(len(freqs), 1)
    beats = np.empty((len(times), len(k)), dtype=complex)
    for j in range(len(k)):
        beats[:, j] = waves[:, k[j]].conj() * waves[:, l[j]]
    one_hot = np.eye(len(levels))
    groups = np.array([one_hot[0], one_hot[TWO_EXCITATION_LABELS.index("gege")],
                       one_hot[[TWO_EXCITATION_LABELS.index(lab) for lab in ("egge", "geeg", "eegg", "ggee")]]
                       .sum(axis=0), levels == n, levels >= 0, levels >= params.n_max - 1], dtype=float)
    coef = (2 * groups @ (parts[:, k] * parts[:, l].conj())).view(float)
    pops = coef @ beats.view(float).T + groups @ (np.abs(parts) ** 2).sum(axis=1)[:, None]
    p_egeg, p_gege, p_exchange, p_level_n, totals, guard = pops
    peak_times = _quadratic_peak_times(times, p_gege)
    omega_fit = (np.pi / np.mean(np.diff(peak_times)) if len(peak_times) >= 2
                 else np.pi / (2 * peak_times[0]) if peak_times else np.nan)
    peak_pop = float(p_gege.max())
    too_small = peak_pop < min_peak_population
    diagnostic = (f"peak transfer {peak_pop:.6f} below the fit threshold {min_peak_population}" if too_small
                  else None if np.isfinite(omega_fit) else "no prominent peak in the |gege> population")
    run = ValidationRun(
        omega_expected=omega, perturbative_ok=params.perturbative_ok, omega_fit=omega_fit,
        relative_deviation=abs(omega_fit - abs(omega)) / abs(omega) if np.isfinite(omega_fit) else np.nan,
        peak_population=peak_pop,
        leakage_pair=np.max(1.0 - (p_egeg + p_gege) / totals),
        leakage_exchange=p_exchange.max(),
        leakage_photon=np.max(totals - p_level_n),
        guard_leakage=guard.max(),
        stark_shift_fit=stark_fit,
        unitarity_defect=unitary_defect(u),
        normalization_defect=np.max(np.abs(np.sqrt(totals) - 1.0)),
        diagnostic=diagnostic)
    if too_small:
        raise RabiFitError(f"oscillation amplitude too small to fit: peak population {peak_pop:.6f} "
                           f"< {min_peak_population}", run)
    if diagnostic is not None:
        raise RabiFitError(diagnostic, run)
    return run


def _table_route_comparison(params, n):
    """compare_effective_models by the earlier route: the pair swap's whole (times, 16)
    series, its six manifold columns for the fidelity and 26 sampled rows for the
    pair_exchange check."""
    omega, (_, energies, hint), times, _, (freqs, parts) = _exact_run(params, n, COMPARISON_POINTS)
    egeg = np.eye(16, dtype=complex)[TWO_EXCITATION_CONFIGS[0]]
    cols = list(TWO_EXCITATION_CONFIGS)
    h_pair_swap = build_h_eff(params, n, include_stark=False)
    swap_freqs, swap_parts = _fold(*pair_swap_spectrum(h_pair_swap.matrix), egeg)
    amps_pair_swap = _grid_phases(times, swap_freqs) @ swap_parts.T
    derived = derive_second_order(energies, hint, MANIFOLD_ROWS)
    derived_freqs, derived_parts = _fold(*uniform_spectrum(derived), egeg[cols])
    amps_derived = _grid_phases(times, derived_freqs) @ derived_parts.T
    full = np.abs(_grid_phases(times, freqs) @ parts[:len(MANIFOLD_ROWS)].T)
    fid_pair_swap = np.sum(np.abs(amps_pair_swap[:, cols]) * full, axis=1) ** 2
    fid_derived = np.sum(np.abs(amps_derived) * full, axis=1) ** 2
    sampled = slice(0, COMPARISON_POINTS, COMPARISON_POINTS // 25)
    closed = pair_exchange(np.broadcast_to(egeg[:, None], (16, 26)), omega * times[sampled])
    return (fid_pair_swap, fid_derived, float(np.max(np.abs(closed.T - amps_pair_swap[sampled]))))


def _outcome(fit, params, n, threshold):
    """(the RabiFitError message or None, the run) of one fit."""
    try:
        return None, fit(params, n, threshold)
    except RabiFitError as err:
        return str(err), err.run


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0, 40.0, 80.0, -20.0])
def test_phase_factor_route_matches_the_table_route(ratio, n):
    # the populations and the Stark phase from the coarse x fine factors against the full
    # phase table and beat array: every value within 1e-10 relative (1e-14 absolute for
    # values of order eps), every message, diagnostic and gate outcome the same
    params = SystemParams(G=1.0, delta=ratio, n_max=16)
    for threshold in (0.0, 0.5):
        (message, got), (want_message, want) = (_outcome(fit, params, n, threshold)
                                                for fit in (extract_rabi, _table_route_fit))
        assert message == want_message
        for field in fields(got):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(a, float):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14, err_msg=field.name)
            else:
                assert a == b, field.name
    comp = compare_effective_models(params, n)
    pair_swap, derived, defect = _table_route_comparison(params, n)
    np.testing.assert_allclose(comp.fidelity_pair_swap_vs_full, pair_swap, rtol=1e-10, atol=0)
    np.testing.assert_allclose(comp.fidelity_derived_vs_full, derived, rtol=1e-10, atol=0)
    assert comp.max_infidelity_pair_swap == float(np.max(1.0 - pair_swap))
    assert comp.max_infidelity_derived == float(np.max(1.0 - derived))
    assert comp.derived_tracks_full_better == (np.max(1.0 - derived) < np.max(1.0 - pair_swap))
    np.testing.assert_allclose(comp.internal_consistency_defect, defect, rtol=1e-10, atol=1e-14)
