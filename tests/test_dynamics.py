import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dfscavity.dynamics import (
    _phases,
    _series,
    dfs_propagate,
    evolve_exact,
    evolve_times,
    make_propagator,
    pair_exchange,
)
from dfscavity.hilbert import (
    UNITARY_ATOL,
    Operator,
    StateVector,
    SystemParams,
    atomic_index,
    basis_index,
    unitary_defect,
)
from dfscavity.model import (
    TWO_EXCITATION_CONFIGS,
    build_full_hamiltonian,
    build_h0,
    build_h_eff,
    effective_coupling,
    stark_diagonal,
)
from dfscavity.validate import COMPARISON_POINTS, RABI_FIT_POINTS, _exact_run


@pytest.fixture(scope="module")
def params():
    return SystemParams(G=1.0, delta=10.0, n_max=6)


def random_two_excitation_state(rng):
    amps = np.zeros(16, dtype=complex)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    amps[list(TWO_EXCITATION_CONFIGS)] = coeffs / np.linalg.norm(coeffs)
    return StateVector(amps)


def one_hot(config, n: int, n_max: int) -> np.ndarray:
    """|config, n> as amplitudes over the composite (atoms x Fock) basis of the dense oracles."""
    amps = np.zeros(16 * (n_max + 1), dtype=complex)
    amps[basis_index(config, n, n_max)] = 1.0
    return amps


def unfolded_series(w, v, amplitudes, times):
    """The sum over every eigenvalue, one exponential per eigenvalue and time: the
    reference for the folded `_series`."""
    return (np.exp(-1j * np.outer(np.asarray(times), w)) * (v.conj().T @ amplitudes)) @ v.T


def planted_spectrum(rng, dim, scale, split):
    """A random hermitian matrix whose eigenvalues are small integer multiples of
    `scale` (so degenerate ones are planted), the second one `split` above the first,
    and its eigenvectors Q in that order."""
    levels = scale * rng.integers(-4, 5, size=dim).astype(float)
    levels[1:2] = levels[0] + split
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    h = (q * levels) @ q.conj().T
    return levels, q, (h + h.conj().T) / 2


class TestFoldedSeries:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
           t_span=st.floats(0.0, 1e3), split=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    def test_matches_unfolded_sum(self, dim, seed, scale, t_span, split):
        rng = np.random.default_rng(seed)
        levels, q, h = planted_spectrum(rng, dim, scale, split * scale)
        w, v = np.linalg.eigh(h)
        # confined to a random subset of the eigenspaces that holds the split pair,
        # with amplitudes down to 1e-10
        occupied = (rng.random(dim) < 0.5) | (np.arange(dim) < 2)
        coeffs = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.uniform(-10, 0, size=dim)
        psi = q @ np.where(np.isin(levels, levels[occupied]), coeffs, 0.0)
        psi /= np.linalg.norm(psi)
        times = rng.uniform(-t_span, t_span, size=int(rng.integers(1, 40))) / scale
        folded = _series(w, v, psi, times)
        reference = unfolded_series(w, v, psi, times)
        bound = 1e-12 * (1.0 + np.max(np.abs(w)) * np.max(np.abs(times)))
        assert folded.shape == (len(times), dim)
        assert np.max(np.abs(folded - reference)) <= bound
        norms = np.linalg.norm(folded, axis=1)
        assert np.max(np.abs(norms - np.linalg.norm(psi))) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_phases_are_the_complex_exponential_bit_for_bit(self, scale):
        # signed zeros included: the first time and the frequency 0 are exact zeros
        rng = np.random.default_rng(7)
        freqs = np.append(rng.normal(scale=scale, size=15), [0.0, -0.0])
        times = np.append(0.0, rng.uniform(0.0, 3e3, size=400))
        for x, y in ((times, freqs), (freqs, times), ([2.5], freqs)):
            got, want = _phases(x, y), np.exp(-1j * np.outer(x, y))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [RABI_FIT_POINTS, COMPARISON_POINTS])
    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("delta", [5.0, -10.0, 20.0, -40.0, 80.0])
    def test_grid_table_on_the_fit_grids_is_within_the_series_bound(self, delta, n, points):
        # the coarse x fine table on the exact runs' own grids and frequencies
        _, _, times, _, (freqs, _) = _exact_run(SystemParams(G=1.0, delta=delta, n_max=8), n, points)
        got, want = _phases(times, freqs), np.exp(-1j * np.outer(times, freqs))
        bound = 1e-12 * (1.0 + np.max(np.abs(freqs)) * np.max(np.abs(times)))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound

    def test_grid_table_holds_on_any_grid_length(self):
        rng = np.random.default_rng(11)
        freqs = np.append(rng.normal(scale=30.0, size=3), 0.0)
        for points in (*range(3, 40), 99, 100, 101, 6000, 6002):
            for t_max in (1.0, -250.0, 3e3):
                times = np.linspace(0.0, t_max, points)
                got, want = _phases(times, freqs), np.exp(-1j * np.outer(times, freqs))
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(freqs)) * abs(t_max))

    def test_short_and_uneven_grids_take_the_direct_path_bit_for_bit(self):
        rng = np.random.default_rng(5)
        freqs = rng.normal(scale=40.0, size=4)
        grid = np.linspace(0.0, 377.0, RABI_FIT_POINTS)
        nudged = grid.copy()
        nudged[1234] = np.nextafter(nudged[1234], np.inf)  # one ulp off the grid
        shifted = np.linspace(1e-3, 377.0, RABI_FIT_POINTS)  # evenly spaced, not from 0
        cases = [np.linspace(0.0, 377.0, points) for points in (1, 2, 3, 4, 5)]
        cases += [[0.0], [377.0], nudged, shifted, grid[::-1], np.sort(rng.uniform(0.0, 377.0, 500))]
        for times in cases:
            got, want = _phases(times, freqs), np.exp(-1j * np.outer(times, freqs))
            assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_zero_state_gives_zeros(self, dim, seed):
        rng = np.random.default_rng(seed)
        _, _, h = planted_spectrum(rng, dim, 1.0, 0.0)
        out = _series(*np.linalg.eigh(h), np.zeros(dim, dtype=complex), np.linspace(0.0, 10.0, 7))
        assert out.shape == (7, dim)
        assert not np.any(out)


class TestEvolveExact:
    """`evolve_exact` on 16-state generators and `evolve_times` on amplitude arrays of
    any length; the dense composite Hamiltonian goes through `evolve_times` on one-hot
    amplitudes."""

    def test_zero_time_is_identity(self, params):
        h = build_h_eff(params, 1, include_stark=True)
        psi = StateVector.basis_state("egeg")
        out = evolve_exact(h, psi, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)
        amps = one_hot("egeg", 1, params.n_max)
        dense = evolve_times(build_full_hamiltonian(params), amps, [0.0])
        np.testing.assert_allclose(dense[0], amps, atol=1e-14)

    def test_diagonal_evolution_phase(self, params):
        shifts = stark_diagonal(params, 1)
        psi = StateVector.basis_state("egeg")
        t = 0.83
        out = evolve_exact(Operator(np.diag(shifts)), psi, t)
        expected = np.exp(-1j * shifts[atomic_index("egeg")] * t) * psi.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        # the bare energy of |egeg, 1> under the dense H0 is delta/2
        amps = one_hot("egeg", 1, params.n_max)
        dense = evolve_times(build_h0(params), amps, [t])[0]
        np.testing.assert_allclose(dense, np.exp(-1j * params.delta / 2.0 * t) * amps, atol=1e-12)

    def test_norm_drift_raises(self, params, monkeypatch):
        # evolve_exact checks the norm of what the series returns
        h = build_h_eff(params, 0)
        monkeypatch.setattr("dfscavity.dynamics._series", lambda w, v, amps, times: 1.01 * amps[None, :])
        with pytest.raises(RuntimeError, match="norm drift"):
            evolve_exact(h, StateVector.basis_state("egeg"), 1.0)

    def test_nan_norm_drift_raises(self, params, monkeypatch):
        # a NaN drift fails every comparison, so the check must fail closed
        h = build_h_eff(params, 0)
        monkeypatch.setattr("dfscavity.dynamics._series", lambda w, v, amps, times: np.full((1, 16), np.nan))
        with pytest.raises(RuntimeError, match="norm drift nan"):
            evolve_exact(h, StateVector.basis_state("egeg"), 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, params, t):
        h = build_h_eff(params, 0)
        with pytest.raises(ValueError, match="evolution times must be finite"):
            evolve_exact(h, StateVector.basis_state("egeg"), t)
        with pytest.raises(ValueError, match="evolution times must be finite"):
            make_propagator(h, t)
        with pytest.raises(ValueError, match="evolution times must be finite"):
            evolve_times(h, StateVector.basis_state("egeg").amplitudes, [0.0, t])

    def test_effective_half_period_transfer(self, params):
        omega = effective_coupling(0, params).omega
        h = build_h_eff(params, 0, include_stark=False)
        psi = StateVector.basis_state("egeg")
        out = evolve_exact(h, psi, (np.pi / 2) / omega)
        expected = np.zeros(16, dtype=complex)
        expected[atomic_index("gege")] = -1j
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_non_hermitian_generator_rejected(self):
        bad = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="hermitian"):
            evolve_exact(bad, StateVector(np.array([1.0] + [0.0] * 15, dtype=complex), 0), 1.0)

    def test_matches_scaling_and_squaring(self, params):
        t = 2.17
        h = build_h_eff(params, 1, include_stark=True)
        psi = StateVector.basis_state("egeg")
        ours = evolve_exact(h, psi, t).amplitudes
        np.testing.assert_allclose(ours, expm(-1j * h.matrix * t) @ psi.amplitudes, atol=1e-10)
        h_full = build_full_hamiltonian(params)
        amps = one_hot("egeg", 0, params.n_max)
        dense = evolve_times(h_full, amps, [t])[0]
        np.testing.assert_allclose(dense, expm(-1j * h_full.matrix * t) @ amps, atol=1e-10)

    def test_conserves_norm_and_energy_over_chained_steps(self, params):
        h = build_full_hamiltonian(params)
        amps = one_hot("egeg", 0, params.n_max)
        e0 = np.real(np.vdot(amps, h.matrix @ amps))
        w, v = np.linalg.eigh(h.matrix)  # one spectrum for every step
        for _ in range(20):
            amps = _series(w, v, amps, [0.31])[0]
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10
        e1 = np.real(np.vdot(amps, h.matrix @ amps))
        assert abs(e1 - e0) < 1e-10 * max(1.0, abs(e0))

    def test_chained_steps_conserve_norm_and_energy_on_sixteen_states(self, params):
        h = build_h_eff(params, 1, include_stark=True)
        psi = StateVector.basis_state("egeg")
        e0 = np.real(np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes))
        for _ in range(20):
            psi = evolve_exact(h, psi, 0.31)
        assert abs(psi.norm() - 1.0) < 1e-10
        e1 = np.real(np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes))
        assert abs(e1 - e0) < 1e-10 * max(1.0, abs(e0))

    def test_evolve_times_matches_single_steps(self, params):
        times = np.array([0.0, 0.4, 1.1])
        h = build_h_eff(params, 1, include_stark=True)
        psi = StateVector.basis_state("gege")
        series = evolve_times(h, psi.amplitudes, times)
        for k, t in enumerate(times):
            np.testing.assert_allclose(series[k], evolve_exact(h, psi, t).amplitudes, atol=1e-12)
        h_full = build_full_hamiltonian(params)
        amps = one_hot("gege", 1, params.n_max)
        dense = evolve_times(h_full, amps, times)
        for k, t in enumerate(times):
            np.testing.assert_allclose(dense[k], make_propagator(h_full, t)[0] @ amps, atol=1e-12)

    def test_propagator_unitarity(self, params):
        h = build_full_hamiltonian(params)
        u, _, _ = make_propagator(h, 5.0)
        assert unitary_defect(u) < UNITARY_ATOL


class TestDfsPropagate:
    def test_bell_phi_plus_maps_to_product_state(self):
        amps = np.zeros(16, dtype=complex)
        amps[atomic_index("egeg")] = 1 / np.sqrt(2)
        amps[atomic_index("gege")] = 1j / np.sqrt(2)
        out = dfs_propagate(StateVector(amps, 0), np.pi / 4)
        expected = np.zeros(16, dtype=complex)
        expected[atomic_index("egeg")] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_bell_phi_minus_maps_to_minus_i_gege(self):
        amps = np.zeros(16, dtype=complex)
        amps[atomic_index("egeg")] = 1 / np.sqrt(2)
        amps[atomic_index("gege")] = -1j / np.sqrt(2)
        out = dfs_propagate(StateVector(amps, 0), np.pi / 4)
        expected = np.zeros(16, dtype=complex)
        expected[atomic_index("gege")] = -1j
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_three_quarter_pulse_from_egeg(self):
        out = dfs_propagate(StateVector.basis_state("egeg"), 3 * np.pi / 4)
        assert out.amplitude("egeg") == pytest.approx(-1 / np.sqrt(2), abs=1e-14)
        assert out.amplitude("gege") == pytest.approx(-1j / np.sqrt(2), abs=1e-14)

    @pytest.mark.parametrize("area", [np.nan, np.inf, -np.inf])
    def test_non_finite_pulse_area_rejected(self, area):
        # used to return NaN amplitudes (with a RuntimeWarning except at NaN)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            dfs_propagate(StateVector.basis_state("egeg"), area)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            pair_exchange(np.eye(16, dtype=complex), area)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            pair_exchange(np.eye(16, 3, dtype=complex), np.array([0.3, area, 1.0]))

    def test_support_outside_manifold_rejected(self):
        psi = StateVector.basis_state("eggg")
        with pytest.raises(ValueError, match="two-excitation"):
            dfs_propagate(psi, 0.3)

    def test_one_parameter_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = random_two_excitation_state(rng)
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            once = dfs_propagate(psi, a + b)
            twice = dfs_propagate(dfs_propagate(psi, a), b)
            assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-12

    def test_agrees_with_matrix_exponential_on_random_states(self, params):
        omega = effective_coupling(0, params).omega
        h = build_h_eff(params, 0, include_stark=False)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            psi = random_two_excitation_state(rng)
            area = rng.uniform(0, 4 * np.pi)
            closed = dfs_propagate(psi, area)
            exact = evolve_exact(h, psi, area / omega)
            worst = max(worst, float(np.max(np.abs(closed.amplitudes - exact.amplitudes))))
        assert worst < 1e-10

    def test_acts_per_fock_sector(self):
        # a (16, k) block holds one Fock sector per column, each with its own pulse
        # area (the sector-by-sector thermal oracle), and gets that area's atomic map
        areas = np.array([np.pi / 2, 0.3, np.pi / 2])
        block = np.zeros((16, 3), dtype=complex)
        block[atomic_index("egeg"), 0] = 1.0
        block[atomic_index("eegg"), 1] = 1.0
        block[atomic_index("egge"), 2] = 1 / np.sqrt(2)
        block[atomic_index("gggg"), 2] = 1 / np.sqrt(2)
        out = pair_exchange(block, areas)
        assert out.shape == (16, 3)
        assert out[atomic_index("gege"), 0] == pytest.approx(-1j, abs=1e-14)
        assert out[atomic_index("egeg"), 0] == pytest.approx(0.0, abs=1e-14)
        assert out[atomic_index("eegg"), 1] == pytest.approx(np.cos(0.3), abs=1e-14)
        assert out[atomic_index("ggee"), 1] == pytest.approx(-1j * np.sin(0.3), abs=1e-14)
        assert out[atomic_index("geeg"), 2] == pytest.approx(-1j / np.sqrt(2), abs=1e-14)
        assert out[atomic_index("gggg"), 2] == 1 / np.sqrt(2)  # off the six configurations: untouched
        for k, area in enumerate(areas):
            assert np.array_equal(out[:, k], pair_exchange(block[:, k], area))
