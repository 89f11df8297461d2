import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfscavity.bell_teleport import teleport
from dfscavity.hilbert import StateVector, atomic_index, basis_index, excitation_number
from dfscavity.logical import (
    LOGICAL_CONFIGS,
    LogicalState,
    collective_dephase,
    collective_phases,
)


class TestCodec:
    """The embedding of two logical qubits into the 16 atomic amplitudes."""

    def test_basis_product_state(self):
        psi = LogicalState(np.kron([1, 0], [1, 0])).to_state_vector()
        assert psi.amplitude("egeg") == 1.0
        assert psi.norm() == pytest.approx(1.0)

    def test_encoded_superposition_matches_stated_form(self):
        theta = 0.0
        qubit_a = [1 / np.sqrt(2), np.exp(1j * theta) / np.sqrt(2)]
        psi = LogicalState(np.kron(qubit_a, [1, 0])).to_state_vector()
        assert psi.amplitude("egeg") == pytest.approx(1 / np.sqrt(2))
        assert psi.amplitude("geeg") == pytest.approx(1 / np.sqrt(2))

    def test_amplitudes_read_only(self):
        state = LogicalState([1, 0, 0, 0])
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("amps", [np.zeros(3), np.zeros(16), np.eye(4)], ids=["3", "16", "4x4"])
    def test_wrong_shape_rejected(self, amps):
        with pytest.raises(ValueError, match=r"expected 4 logical amplitudes, got shape \("):
            LogicalState(amps)

    def test_embedding_lands_exactly_on_named_states(self):
        psi = LogicalState(np.array([0.5, 0.5, 0.5, 0.5])).to_state_vector()
        assert psi.n_max == 0
        populated = {i for i, a in enumerate(psi.amplitudes) if a != 0}
        assert populated == {basis_index(c, 0, 0) for c in LOGICAL_CONFIGS}


class TestCollectiveDephasing:
    def test_code_states_invariant_including_global_phase(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs /= np.linalg.norm(coeffs)
            psi = LogicalState(coeffs).to_state_vector()
            phi = rng.uniform(0, 2 * np.pi)
            out = collective_dephase(psi, phi)
            assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-14

    def test_all_excited_picks_up_double_phase(self):
        psi = StateVector.basis_state("eeee")
        phi = 0.77
        out = collective_dephase(psi, phi)
        assert out.amplitude("eeee") == pytest.approx(np.exp(-2j * phi), abs=1e-14)

    def test_bare_superposition_acquires_relative_phase(self):
        # one atom in (|g>+|e>)/sqrt2, rest ground: relative phase e^{-i phi}
        amps = np.zeros(16, dtype=complex)
        amps[atomic_index("gggg")] = 1 / np.sqrt(2)
        amps[atomic_index("eggg")] = 1 / np.sqrt(2)
        out = collective_dephase(StateVector(amps, 0), 0.91)
        ratio_before = 1.0
        ratio_after = out.amplitude("eggg") / out.amplitude("gggg")
        assert ratio_after == pytest.approx(ratio_before * np.exp(-1j * 0.91), abs=1e-14)


class TestCollectivePhases:
    def test_pair_map_equals_free_evolution_phases(self):
        # the free-evolution form teleport used: energies (-1, 0, 0, +1)*s over
        # (gg, ge, eg, ee), evolved for d
        rng = np.random.default_rng(5)
        pairs = [(1.0, d) for d in np.linspace(0.0, 2 * np.pi, 8)]
        pairs += [(rng.uniform(0.01, 50.0), rng.uniform(0.0, 100.0)) for _ in range(200)]
        for s, d in pairs:
            assert np.array_equal(collective_phases(s * d, 2),
                                  np.exp(-1j * np.array([-1.0, 0.0, 0.0, 1.0]) * s * d))

    def test_four_atom_map_equals_excitation_number_form(self):
        mz = np.array([excitation_number(a) - 2.0 for a in range(16)])
        for phi in (0.0, 0.77, -3.1, 2 * np.pi, 1e5):
            assert np.array_equal(collective_phases(phi, 4), np.exp(-1j * phi * mz))
            assert np.array_equal(collective_phases(phi), collective_phases(phi, 4))

    @pytest.mark.parametrize("n_atoms", [2, 4])
    def test_array_phi_equals_scalar_calls(self, n_atoms):
        phis = np.random.default_rng(3).uniform(-10.0, 10.0, (5, 3))
        grid = collective_phases(phis, n_atoms)
        assert grid.shape == (5, 3, 2**n_atoms)
        for idx in np.ndindex(phis.shape):
            assert np.array_equal(grid[idx], collective_phases(float(phis[idx]), n_atoms))

    @settings(derandomize=True, deadline=None)
    @given(phi=st.floats(-1e6, 1e6, allow_nan=False), n_atoms=st.integers(1, 6))
    def test_unit_modulus_and_identity_on_zero_mz(self, phi, n_atoms):
        phases = collective_phases(phi, n_atoms)
        assert phases.shape == (2**n_atoms,)
        assert np.all(np.abs(np.abs(phases) - 1.0) <= 1e-15)
        for k in range(2**n_atoms):
            if 2 * bin(k).count("1") == n_atoms:
                assert phases[k] == 1.0

    def test_logical_state_compares_by_identity(self):
        a = LogicalState(np.array([1.0, 0.0, 0.0, 0.0]))
        b = LogicalState(np.array([1.0, 0.0, 0.0, 0.0]))
        assert a == a and a != b
        assert len({a, b}) == 2


class TestFreePhaseDrift:
    """The bare comparison channel of `teleport`: one atom drifting freely
    under the splitting e_e - e_g, the one-atom case of `collective_phases`."""

    @staticmethod
    def bare(theta, e_excited, e_ground, delay):
        return teleport(theta, delay, "bare", atom_splitting=e_excited - e_ground)[0]

    def test_dfs_is_unity_on_grid(self):
        thetas = np.linspace(0, 2 * np.pi, 10)
        delays = np.linspace(0, 50.0, 10)
        fid, _ = teleport(thetas[:, None], delays[None, :], "dfs", atom_splitting=4.0)
        assert np.all(np.abs(fid - 1.0) < 1e-10)

    def test_bare_vanishes_at_pi_drift(self):
        # (E_e - E_g) * T = pi
        fid = self.bare(np.pi / 2, 1.0, 0.0, np.pi)
        assert fid == pytest.approx(0.0, abs=1e-30)

    def test_bare_no_delay_is_unity(self):
        assert self.bare(1.234, 7.0, 2.0, 0.0) == pytest.approx(1.0)

    def test_bare_matches_cosine_form(self):
        e_e, e_g = 3.0, 0.5
        for delay in np.linspace(0, 4 * np.pi / (e_e - e_g), 17):
            fid = self.bare(0.3, e_e, e_g, delay)
            assert fid == pytest.approx(np.cos((e_e - e_g) * delay / 2) ** 2, abs=1e-12)

    def test_periodicity_in_delay(self):
        e_e, e_g = 2.0, 0.0
        period = 2 * np.pi / (e_e - e_g)
        for delay in (0.3, 1.1, 2.4):
            assert self.bare(0.9, e_e, e_g, delay) == pytest.approx(
                self.bare(0.9, e_e, e_g, delay + period), abs=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            self.bare(0.0, 1.0, 0.0, -1.0)
