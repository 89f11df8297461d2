import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfscavity.hilbert import (
    HERMITIAN_ATOL,
    UNITARY_ATOL,
    Operator,
    StateVector,
    SystemParams,
    atomic_index,
    basis_index,
    cavity_ladder,
    config_labels,
    index_to_labels,
    single_atom_operator,
)

N_MAX = 4
DIM = 16 * (N_MAX + 1)


class TestSystemParams:
    def test_defaults_resolve_frequencies(self):
        p = SystemParams(G=1.0, delta=40.0, n_max=4)
        assert p.omega_a == 0.0
        assert p.omega == 20.0
        assert p.dim == 80

    def test_explicit_frequencies_must_match_delta(self):
        SystemParams(G=1.0, delta=10.0, omega_a=3.0, omega=8.0, n_max=4)
        with pytest.raises(ValueError, match="inconsistent"):
            SystemParams(G=1.0, delta=10.0, omega_a=3.0, omega=9.0, n_max=4)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(G=-1.0, delta=10.0)
        with pytest.raises(ValueError):
            SystemParams(G=1.0, delta=0.0)
        with pytest.raises(ValueError):
            SystemParams(G=1.0, delta=10.0, n_max=3)

    def test_perturbative_flag_warns(self):
        with pytest.warns(UserWarning, match="perturbative") as record:
            p = SystemParams(G=1.0, delta=10.0, n_max=8)
        assert record[0].filename == __file__  # reported at the caller, not the dataclass __init__
        assert not p.perturbative_ok
        q = SystemParams(G=1.0, delta=100.0, n_max=4)
        assert q.perturbative_ok


class TestBasisIndexing:
    def test_all_ground_is_zero(self):
        assert basis_index("gggg", 0, N_MAX) == 0

    def test_stated_convention_arithmetic(self):
        assert basis_index("egeg", 0, 4) == 50

    def test_round_trip_is_bijective(self):
        seen = set()
        for index in range(DIM):
            labels, n = index_to_labels(index, N_MAX)
            assert basis_index(labels, n, N_MAX) == index
            seen.add((labels, n))
        assert len(seen) == DIM

    def test_out_of_range_fock_rejected(self):
        with pytest.raises(ValueError):
            basis_index("gggg", N_MAX + 1, N_MAX)

    def test_label_parsing_variants(self):
        assert atomic_index("egeg") == atomic_index(["e", "g", "e", "g"]) == atomic_index((1, 0, 1, 0))
        assert config_labels(atomic_index("egge")) == "egge"


class TestSingleAtomOperators:
    def test_sigma_plus_raises_one_atom(self):
        psi = StateVector.basis_state("gggg", 0, N_MAX)
        raised = single_atom_operator(1, "+", N_MAX).matrix @ psi.amplitudes
        expected = StateVector.basis_state("eggg", 0, N_MAX)
        np.testing.assert_allclose(raised, expected.amplitudes, atol=1e-15)

    @pytest.mark.parametrize("atom", [1, 2, 3, 4])
    def test_sigma_plus_squared_is_zero(self, atom):
        sp = single_atom_operator(atom, "+", N_MAX).matrix
        assert np.max(np.abs(sp @ sp)) == 0.0

    def test_disjoint_atoms_commute(self):
        for i, j in [(1, 2), (2, 4), (1, 3)]:
            a = single_atom_operator(i, "+", N_MAX).matrix
            b = single_atom_operator(j, "-", N_MAX).matrix
            assert np.max(np.abs(a @ b - b @ a)) == 0.0

    @pytest.mark.parametrize("atom", [1, 2, 3, 4])
    def test_ladder_completeness_on_each_atom(self, atom):
        sp = single_atom_operator(atom, "+", N_MAX).matrix
        sm = single_atom_operator(atom, "-", N_MAX).matrix
        np.testing.assert_allclose(sp @ sm + sm @ sp, np.eye(DIM), atol=1e-15)

    def test_sigma_z_halves(self):
        sz = single_atom_operator(2, "z", N_MAX).matrix
        psi_e = StateVector.basis_state("gegg", 0, N_MAX).amplitudes
        psi_g = StateVector.basis_state("gggg", 0, N_MAX).amplitudes
        np.testing.assert_allclose(sz @ psi_e, 0.5 * psi_e)
        np.testing.assert_allclose(sz @ psi_g, -0.5 * psi_g)


class TestCavityLadder:
    def test_a_squared_on_two_photons(self):
        a2 = cavity_ladder("a", 2, N_MAX).matrix
        psi = StateVector.basis_state("gggg", 2, N_MAX)
        out = a2 @ psi.amplitudes
        expected = np.sqrt(2.0) * StateVector.basis_state("gggg", 0, N_MAX).amplitudes
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_squared_annihilates_low_levels(self, n):
        a2 = cavity_ladder("a", 2, N_MAX).matrix
        psi = StateVector.basis_state("gggg", n, N_MAX)
        assert np.max(np.abs(a2 @ psi.amplitudes)) == 0.0

    def test_adag_squared_matrix_elements(self):
        adag2 = cavity_ladder("a_dag", 2, N_MAX).matrix
        for n in range(N_MAX - 1):
            bra = StateVector.basis_state("gggg", n + 2, N_MAX).amplitudes
            ket = StateVector.basis_state("gggg", n, N_MAX).amplitudes
            elem = np.vdot(bra, adag2 @ ket)
            assert elem == pytest.approx(np.sqrt((n + 1) * (n + 2)), abs=1e-14)

    def test_adjointness_on_truncated_space(self):
        a = cavity_ladder("a", 1, N_MAX).matrix
        adag = cavity_ladder("a_dag", 1, N_MAX).matrix
        assert np.max(np.abs(a - adag.conj().T)) == 0.0

    def test_truncation_drops_top_amplitude(self):
        adag2 = cavity_ladder("a_dag", 2, N_MAX).matrix
        psi = StateVector.basis_state("gggg", N_MAX - 1, N_MAX)
        assert np.max(np.abs(adag2 @ psi.amplitudes)) == 0.0


class TestOperatorFlags:
    def test_flags_are_verified_not_asserted(self):
        herm = Operator(np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex))
        assert herm.hermitian and not herm.unitary
        unit = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert unit.unitary and unit.hermitian
        neither = Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert not neither.hermitian and not neither.unitary

    @settings(derandomize=True, deadline=None)
    @given(dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_lazy_flags_equal_their_formulas(self, dim, seed):
        rng = np.random.default_rng(seed)
        generic = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = generic + generic.conj().T
        unit = np.linalg.qr(generic)[0]
        assert Operator(herm).hermitian and Operator(unit).unitary
        for m in (herm, unit, generic):
            op = Operator(m)
            assert "hermitian" not in vars(op) and "unitary" not in vars(op)
            assert op.hermitian == (float(np.max(np.abs(m - m.conj().T))) < HERMITIAN_ATOL)
            assert op.unitary == (float(np.max(np.abs(m.conj().T @ m - np.eye(dim)))) < UNITARY_ATOL)
            assert op.dim == dim
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 1.0
        with pytest.raises(TypeError):
            Operator(unit, unitary=True)

    def test_builders_are_deterministic(self):
        a = single_atom_operator(3, "+", N_MAX).matrix
        b = single_atom_operator(3, "+", N_MAX).matrix
        assert np.array_equal(a, b)
        c = cavity_ladder("a", 2, N_MAX).matrix
        d = cavity_ladder("a", 2, N_MAX).matrix
        assert np.array_equal(c, d)


class TestStateVector:
    def test_immutability(self):
        psi = StateVector.basis_state("egeg", 0, N_MAX)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_probability_and_norm(self):
        amps = np.zeros(DIM, dtype=complex)
        amps[basis_index("egeg", 1, N_MAX)] = 1 / np.sqrt(2)
        amps[basis_index("gege", 0, N_MAX)] = 1j / np.sqrt(2)
        psi = StateVector(amps, N_MAX)
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)
        assert psi.probability("egeg") == pytest.approx(0.5)
        assert psi.probability("egeg", 1) == pytest.approx(0.5)
        assert psi.probability("egeg", 0) == 0.0

    def test_compare_and_hash_by_identity(self):
        # the generated __eq__ over an ndarray field raised on ==, and frozen
        # plus eq made __hash__ hash the array, which raised TypeError
        for make in (lambda: Operator(np.eye(2)), lambda: StateVector.basis_state("egeg")):
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2
