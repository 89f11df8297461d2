import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import dfscavity
from dfscavity.hilbert import SystemParams
from dfscavity.model import TWO_EXCITATION_LABELS, derived_coupling, effective_coupling, excitation_sector
from dfscavity.validate import (
    PEAK_PROMINENCE_FRACTION,
    RABI_FIT_POINTS,
    RabiFitError,
    _exact_run,
    compare_effective_models,
    effective_difference_entries,
    extract_rabi,
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

    def test_fock_sector_above_guard_rejected(self):
        with pytest.raises(ValueError, match="n_max - 4"):
            extract_rabi(make_params(10.0), n=5)


# every function that takes a Fock level n, called with a non-integer one; each used
# to return plausible numbers (derived_coupling 0.1875 against effective_coupling's
# 0.2 at n = 0.5, a fit with no diagnostic, 36 difference entries instead of 30)
NON_INTEGER_LEVEL_CALLS = {
    "effective_coupling": lambda p: effective_coupling(0.5, p),
    "derived_coupling": lambda p: derived_coupling(p, 0.5),
    "excitation_sector": lambda p: excitation_sector(p, 2.5),
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
        _, sector, _, _, amps = _exact_run(make_params(ratio), 0, RABI_FIT_POINTS)
        p_gege = np.abs(amps[:, sector.manifold[TWO_EXCITATION_LABELS.index("gege")]]) ** 2
        for fraction in (PEAK_PROMINENCE_FRACTION, 0.0):
            prominence = fraction * float(np.ptp(p_gege))
            expected, _ = find_peaks(p_gege, prominence=prominence)
            np.testing.assert_array_equal(prominent_peaks(p_gege, prominence), expected,
                                          err_msg=f"delta/G {ratio}, fraction {fraction}")


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
    code = "import sys, dfscavity; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
