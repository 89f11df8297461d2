import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfscavity.cli import parse_config, run_experiment
from dfscavity.dynamics import dfs_propagate
from dfscavity.errors import (
    THERMAL_TAIL,
    StaggerParams,
    _closed_form,
    _fidelities,
    _staggered_amplitudes,
    fock_averaged_fidelity,
    stagger_sweep,
    staggered_fidelity,
    staggered_fidelity_closed_form,
    thermal_weights,
)
from dfscavity.hilbert import StateVector, atomic_index

AREA_R = 3 * np.pi / 4


def ideal_output(t: float) -> np.ndarray:
    """The intended pulse output from |egeg>: pair exchange at area Omega t = t."""
    return dfs_propagate(StateVector.basis_state("egeg"), t).amplitudes


class TestStaggeredState:
    def test_no_lead_reduces_to_ideal_map(self):
        np.testing.assert_allclose(_staggered_amplitudes(AREA_R, 0.0), ideal_output(AREA_R), atol=1e-14)

    def test_full_lead_is_pure_two_atom_evolution(self):
        t = 1.3
        amps = _staggered_amplitudes(t, t)
        lam = 0.5  # the two-atom rate, in units of the four-atom rate Omega
        assert amps[atomic_index("egeg")] == pytest.approx(np.cos(lam * t), abs=1e-14)
        assert amps[atomic_index("geeg")] == pytest.approx(-1j * np.sin(lam * t), abs=1e-14)
        assert amps[atomic_index("gege")] == 0.0

    def test_normalized_for_random_parameters(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = rng.uniform(0.1, 18.0)  # Omega t, in units of 1/Omega
            amps = _staggered_amplitudes(t, rng.uniform(0, t, size=3))
            assert amps.shape == (3, 16)
            np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-14)

    def test_lead_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            StaggerParams(t=1.0, t1=1.5)

    def test_ideal_output_is_the_kernel_at_no_lead_bit_for_bit(self):
        # the fidelities take the ideal state from the kernel at t1 = 0, which is the
        # dfs_propagate route exactly
        rng = np.random.default_rng(41)
        for t in [0.0, AREA_R, np.pi, *rng.uniform(0.0, 20.0, size=20)]:
            assert np.array_equal(_staggered_amplitudes(t, 0.0), ideal_output(t))
            t1 = rng.uniform(0.0, t, size=4)
            expected = np.abs(_staggered_amplitudes(t, t1) @ ideal_output(t).conj())
            assert np.array_equal(_fidelities(t, t1), expected)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, t):
        # staggered_fidelity used to return NaN with a RuntimeWarning
        with pytest.raises(ValueError, match="pulse area must be finite"):
            StaggerParams(t=t, t1=1.0)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            StaggerParams(t=t, t1=0.0)

    def test_lambda_is_half_omega(self):
        # times are in units of 1/Omega: a lead of pi swaps the lone pair fully
        # (lambda t1 = pi/2), and the closed form is cos(t1/2) cos(t1)
        amps = _staggered_amplitudes(np.pi, np.pi)
        assert abs(amps[atomic_index("geeg")]) == pytest.approx(1.0, abs=1e-14)
        p = StaggerParams(t=1.0, t1=0.2)
        assert staggered_fidelity_closed_form(p) == pytest.approx(np.cos(0.1) * np.cos(0.2), abs=1e-15)


class TestStaggeredFidelity:
    def test_no_lead_is_unity(self):
        assert staggered_fidelity(StaggerParams(t=AREA_R, t1=0.0)) == pytest.approx(1.0)

    def test_reference_lead_of_two_percent(self):
        p = StaggerParams(t=AREA_R, t1=0.02 * AREA_R)
        fid = staggered_fidelity(p)
        assert fid >= 0.98
        assert fid == pytest.approx(0.9986126, abs=1e-6)

    def test_ten_percent_lead_value(self):
        p = StaggerParams(t=AREA_R, t1=0.1 * AREA_R)
        expected = np.cos(0.5 * 0.1 * AREA_R) * np.cos(0.1 * AREA_R)
        assert staggered_fidelity(p) == pytest.approx(expected, abs=1e-12)
        assert staggered_fidelity(p) == pytest.approx(0.9656, abs=2e-4)

    def test_closed_form_matches_inner_product_on_random_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t = rng.uniform(0.1, 12.5)  # Omega t, in units of 1/Omega
            p = StaggerParams(t=t, t1=rng.uniform(0, t))
            assert staggered_fidelity(p) == pytest.approx(
                abs(staggered_fidelity_closed_form(p)), abs=1e-12)

    def test_closed_form_broadcasts_over_lead_times(self):
        t1 = np.linspace(0.0, 12.5, 40)
        assert np.array_equal(_closed_form(t1),
                              [staggered_fidelity_closed_form(StaggerParams(t=12.5, t1=x)) for x in t1])


class TestStaggerSweep:
    def test_zero_only(self):
        rows = stagger_sweep([0.0])
        assert rows == ((0.0, 1.0, 1.0),)

    def test_single_point_consistency(self):
        rows = stagger_sweep([0.02])
        p = StaggerParams(t=AREA_R, t1=0.02 * AREA_R)
        assert rows[0][1] == pytest.approx(staggered_fidelity(p), abs=1e-15)

    def test_fifty_point_sweep_monotone_on_small_leads(self):
        fractions = np.linspace(0.0, 0.25, 50)
        rows = stagger_sweep(fractions)
        fids = [r[1] for r in rows]
        assert all(b - a <= 0.0 for a, b in zip(fids, fids[1:]))

    def test_csv_format(self):
        text = run_experiment(parse_config("t1_fractions = 0.0, 0.02\n", "stagger-sweep")).to_csv()
        lines = text.split("\n")
        assert lines[0] == "t1_fraction,fidelity_amplitude,fidelity_squared"
        assert lines[1] == "0,1,1"
        assert text.endswith("\n")
        assert len(lines[2].split(",")) == 3

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            stagger_sweep([1.2])

    def test_empty_sweep(self):
        assert stagger_sweep([]) == ()

    @pytest.mark.parametrize("fractions,named", [
        ([0.1, 1.2, -0.5], "1.2"),
        ([0.1, -0.5, 1.2], "-0.5"),
        ([0.0, float("nan"), 2.0], "nan"),
    ])
    def test_first_bad_fraction_is_named(self, fractions, named):
        with pytest.raises(ValueError, match=rf"t1 fraction must lie in \[0, 1\], got {named}$"):
            stagger_sweep(fractions)

    @pytest.mark.parametrize("area", [np.nan, np.inf, -np.inf])
    def test_non_finite_pulse_area_rejected(self, area):
        # used to return NaN rows, with a RuntimeWarning from fraction 0 x inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fractions in ([0.5], [0.0, 0.5], []):
                with pytest.raises(ValueError, match="pulse area must be finite"):
                    stagger_sweep(fractions, pulse_area=area)

    def test_negative_pulse_area_rejected_by_stagger_params(self):
        with pytest.raises(ValueError, match="need 0 <= t1 <= t"):
            stagger_sweep([0.0, 0.5], pulse_area=-1.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.0, 1.0), max_size=12)
           .flatmap(lambda xs: st.permutations(xs + xs[:2] + [0.0, 1.0])),
           st.floats(0.0, 20.0) | st.just(AREA_R))
    def test_array_pass_equals_one_state_at_a_time(self, fractions, t):
        # unsorted, with duplicates and the endpoints: the same rows, bit for bit, as
        # one np.vdot per fraction; staggered_fidelity shares the sweep's kernel
        ideal = ideal_output(t)
        expected = []
        for frac in fractions:
            f = float(abs(np.vdot(ideal, _staggered_amplitudes(t, frac * t))))
            assert staggered_fidelity(StaggerParams(t=t, t1=frac * t)) == f
            expected.append((frac, f, f * f))
        assert stagger_sweep(fractions, pulse_area=t) == tuple(expected)


class TestThermalAveraging:
    def test_vacuum_is_perfect(self):
        assert fock_averaged_fidelity(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_pulse_area_is_perfect_for_any_nbar(self):
        for nbar in (0.0, 0.3, 1.5):
            assert fock_averaged_fidelity(nbar, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_degradation_example(self):
        assert fock_averaged_fidelity(0.1) > fock_averaged_fidelity(0.5)

    def test_matches_independent_sector_sum(self):
        # independent oracle: explicit geometric weights and pair-rotation overlaps
        nbar, area = 0.4, AREA_R
        expected = 0.0
        for n in range(200):
            p_n = nbar**n / (nbar + 1) ** (n + 1)
            expected += p_n * np.cos(area * (4 * n + 2) / 2 - area) ** 2
        assert fock_averaged_fidelity(nbar, area) == pytest.approx(expected, abs=1e-9)

    def test_r_pulse_closed_form(self):
        # for the default area the sector overlap is 1 for even n, 0 for odd,
        # giving F = (nbar+1)/(2 nbar+1)
        for nbar in (0.1, 0.5, 1.0, 2.0):
            assert fock_averaged_fidelity(nbar) == pytest.approx(
                (nbar + 1) / (2 * nbar + 1), abs=1e-8)

    def test_continuous_non_increasing_on_grid(self):
        grid = np.linspace(0.0, 2.0, 50)
        values = [fock_averaged_fidelity(float(nb)) for nb in grid]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_weights_normalized_to_tail(self):
        w = thermal_weights(0.7)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert w.sum() > 1 - 1e-9 - 1e-12

    def test_weights_at_zero_nbar_are_the_vacuum(self):
        assert np.array_equal(thermal_weights(0.0), [1.0])

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            fock_averaged_fidelity(-0.1)
        with pytest.raises(ValueError):
            fock_averaged_fidelity(np.array([0.0, 1.0, -0.1]))

    @pytest.mark.parametrize("nbar", [np.nan, np.inf])
    def test_non_finite_nbar_rejected(self, nbar):
        # both used to return NaN
        with pytest.raises(ValueError, match="finite"):
            fock_averaged_fidelity(nbar)
        with pytest.raises(ValueError, match="finite"):
            fock_averaged_fidelity(np.array([0.0, 1.0, nbar]))

    @pytest.mark.parametrize("nbar", [np.nan, np.inf])
    def test_thermal_weights_reject_non_finite_nbar(self, nbar):
        # used to return array([nan]) and array([0., nan])
        with pytest.raises(ValueError, match="finite"):
            thermal_weights(nbar)

    def test_thermal_weights_reject_array_nbar(self):
        # a one-element array used to give nine equal weights summing to 3.5e-9
        with pytest.raises(ValueError, match="scalar"):
            thermal_weights(np.array([0.1]))
        assert np.array_equal(thermal_weights(np.float64(0.1)), thermal_weights(0.1))

    @pytest.mark.parametrize("area", [np.nan, np.inf, -np.inf])
    def test_non_finite_pulse_area_rejected(self, area):
        # used to return NaN with a RuntimeWarning
        with pytest.raises(ValueError, match="pulse area must be finite"):
            fock_averaged_fidelity(0.5, area)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            fock_averaged_fidelity(np.array([0.0, 1.0]), area)

    @pytest.mark.parametrize("area", [AREA_R, 0.37])
    def test_array_nbar_equals_scalar_calls(self, area):
        grid = np.linspace(0.0, 10.0, 50)
        values = fock_averaged_fidelity(grid, area)
        assert values.shape == grid.shape
        assert np.array_equal(values, [fock_averaged_fidelity(float(nb), area) for nb in grid])

    def test_nbar_beyond_sector_cap_rejected_not_truncated(self):
        # reaching 1 - 1e-9 at nbar = 1e5 takes ~2e6 sectors; weights cut at
        # the cap would sum to only 0.632. The closed form needs no sectors.
        with pytest.raises(ValueError, match="nbar=100000.0"):
            thermal_weights(1e5)
        assert fock_averaged_fidelity(1e5) == pytest.approx((1e5 + 1) / (2e5 + 1), abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("area", [0.0, np.pi / 8, np.pi / 4, 0.37, 3 * np.pi / 4, 2.0])
    def test_closed_form_equals_sector_loop(self, nbar, area):
        # the sector loop truncates once the weights reach 1 - THERMAL_TAIL, so
        # it falls short of the exact average by at most the dropped weight
        start = StateVector.basis_state("egeg")
        target = dfs_propagate(start, area)
        loop = sum(p_n * abs(np.vdot(target.amplitudes,
                                     dfs_propagate(start, area * (4 * n + 2) / 2.0).amplitudes)) ** 2
                   for n, p_n in enumerate(thermal_weights(nbar)))
        assert -1e-12 <= fock_averaged_fidelity(nbar, area) - loop <= THERMAL_TAIL + 1e-12
