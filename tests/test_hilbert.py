import re
import warnings
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfscavity.hilbert import (
    HERMITIAN_ATOL,
    N_ATOMIC_CONFIGS,
    UNITARY_ATOL,
    Operator,
    StateVector,
    SystemParams,
    atomic_index,
    basis_index,
    config_labels,
)

N_MAX = 4
DIM = 16 * (N_MAX + 1)

# The Kronecker-product operator algebra, the reference the formula-built
# Hamiltonians of `model` are checked against: single-atom operators in the
# (|g>, |e>) basis, lifted to the four atoms and the cavity by kron.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_Z = np.diag([-0.5, 0.5]).astype(complex)
IDENTITY_2 = np.eye(2, dtype=complex)
ATOM_OPS = {"+": SIGMA_PLUS, "-": SIGMA_MINUS, "z": SIGMA_Z}


def kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def atomic_operator(kinds: dict[int, str]) -> np.ndarray:
    """16x16 product operator on the four atoms, identity where unspecified;
    `kinds` maps atom index (1..4) to "+", "-" or "z"."""
    mats = [IDENTITY_2] * 4
    for atom, kind in kinds.items():
        mats[atom - 1] = ATOM_OPS[kind]
    return kron_all(mats)


def fock_ladder(kind: str, power: int, n_max: int) -> np.ndarray:
    """(n_max+1)-dim truncated ladder matrix a^power ("a") or (a^dag)^power ("a_dag")."""
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(complex)
    return np.linalg.matrix_power({"a": a, "a_dag": a.conj().T}[kind], power)


def kron_hint(G: float, n_max: int) -> np.ndarray:
    """Reference Hint = G sum_{i<j} (kron(sigma_i^+ sigma_j^+, a^2) + h.c.), one kron per pair."""
    x = sum(np.kron(atomic_operator({i: "+", j: "+"}), fock_ladder("a", 2, n_max))
            for i, j in combinations(range(1, 5), 2))
    return G * (x + x.conj().T)


def one_hot(config, n: int, n_max: int = N_MAX) -> np.ndarray:
    """|config, n> as amplitudes over the composite (atoms x Fock) basis."""
    amps = np.zeros(N_ATOMIC_CONFIGS * (n_max + 1), dtype=complex)
    amps[basis_index(config, n, n_max)] = 1.0
    return amps


def index_to_labels(index: int, n_max: int) -> tuple[str, int]:
    """Composite index -> (atomic label string, Fock level)."""
    return config_labels(index // (n_max + 1)), index % (n_max + 1)


def single_atom_operator(atom: int, kind: str, n_max: int) -> Operator:
    """Reference: sigma^+/sigma^-/sigma_z on one atom, identity elsewhere and on the cavity."""
    return Operator(np.kron(atomic_operator({atom: kind}), np.eye(n_max + 1, dtype=complex)))


def cavity_ladder(kind: str, power: int, n_max: int) -> Operator:
    """Reference: cavity ladder operator on the composite space; amplitude raised
    past n_max is dropped by the truncation."""
    return Operator(np.kron(np.eye(N_ATOMIC_CONFIGS, dtype=complex), fock_ladder(kind, power, n_max)))


class TestSystemParams:
    def test_fields_are_coupling_detuning_and_cutoff(self):
        # the frame rotating at omega_a leaves G, delta and n_max as the only parameters
        p = SystemParams(G=1.0, delta=40.0, n_max=4)
        assert [f.name for f in fields(p)] == ["G", "delta", "n_max"]
        assert p.dim == 80

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(G=-1.0, delta=10.0)
        with pytest.raises(ValueError):
            SystemParams(G=1.0, delta=0.0)
        with pytest.raises(ValueError):
            SystemParams(G=1.0, delta=10.0, n_max=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["G", "delta"])
    def test_non_finite_coupling_or_detuning_rejected(self, field, value):
        # a nan G made every Omega nan; an infinite delta made Omega 0 and the
        # Rabi fit report "no oscillation (G = 0)"
        values = {"G": 1.0, "delta": 10.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SystemParams(**values)

    @pytest.mark.parametrize("value", [6.5, 8.0, "8"])
    def test_non_integer_cutoff_rejected(self, value):
        # a float n_max used to construct, with dim 120.0 at 6.5 and float composite indices
        with pytest.raises(ValueError, match="^n_max must be an integer"):
            SystemParams(G=1.0, delta=100.0, n_max=value)

    @pytest.mark.parametrize("value", [8, np.int64(8), np.int32(8)])
    def test_integer_cutoff_accepted(self, value):
        assert SystemParams(G=1.0, delta=100.0, n_max=value).dim == 16 * 9

    def test_perturbative_flag_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = SystemParams(G=1.0, delta=10.0, n_max=8)
            q = SystemParams(G=1.0, delta=100.0, n_max=4)
        assert not p.perturbative_ok
        assert q.perturbative_ok

    def test_perturbative_ratio_overflows_without_runtime_warning(self):
        # a numpy division used to warn "overflow encountered in scalar divide"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = SystemParams(G=1e100, delta=1e-300, n_max=8)
            assert p.perturbative_ratio == np.inf
            assert not p.perturbative_ok

    def test_perturbative_ratio_zero_without_coupling(self):
        assert SystemParams(G=0.0, delta=10.0, n_max=8).perturbative_ratio == 0.0


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
        assert atomic_index("egeg") == atomic_index(10) == atomic_index(np.int64(10)) == 10
        assert type(atomic_index(np.int64(3))) is int
        assert config_labels(atomic_index("egge")) == "egge"
        indices = list(range(N_ATOMIC_CONFIGS))
        assert [atomic_index(config_labels(i)) for i in indices] == indices

    @pytest.mark.parametrize("config", [True, False, ["e", "g", "e", "g"], (1, 0, 1, 0), 3.0, 16, -1,
                                        np.int64(16), "EGEG", "egg", "egegg", "egex", None],
                             ids=["true", "false", "list", "bits", "float", "16", "minus-1", "int64-16",
                                  "upper-case", "three-letters", "five-letters", "other-letter", "none"])
    def test_other_configurations_rejected(self, config):
        with pytest.raises(ValueError, match=r"four-letter e/g string or an index 0\.\.15, got "):
            atomic_index(config)

    def test_config_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="atomic index out of range: 16"):
            config_labels(16)


class TestSingleAtomOperators:
    def test_sigma_plus_raises_one_atom(self):
        raised = single_atom_operator(1, "+", N_MAX).matrix @ one_hot("gggg", 0)
        np.testing.assert_allclose(raised, one_hot("eggg", 0), atol=1e-15)

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
        psi_e = one_hot("gegg", 0)
        psi_g = one_hot("gggg", 0)
        np.testing.assert_allclose(sz @ psi_e, 0.5 * psi_e)
        np.testing.assert_allclose(sz @ psi_g, -0.5 * psi_g)


class TestCavityLadder:
    def test_a_squared_on_two_photons(self):
        a2 = cavity_ladder("a", 2, N_MAX).matrix
        out = a2 @ one_hot("gggg", 2)
        np.testing.assert_allclose(out, np.sqrt(2.0) * one_hot("gggg", 0), atol=1e-15)

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_squared_annihilates_low_levels(self, n):
        a2 = cavity_ladder("a", 2, N_MAX).matrix
        assert np.max(np.abs(a2 @ one_hot("gggg", n))) == 0.0

    def test_adag_squared_matrix_elements(self):
        adag2 = cavity_ladder("a_dag", 2, N_MAX).matrix
        for n in range(N_MAX - 1):
            elem = np.vdot(one_hot("gggg", n + 2), adag2 @ one_hot("gggg", n))
            assert elem == pytest.approx(np.sqrt((n + 1) * (n + 2)), abs=1e-14)

    def test_adjointness_on_truncated_space(self):
        a = cavity_ladder("a", 1, N_MAX).matrix
        adag = cavity_ladder("a_dag", 1, N_MAX).matrix
        assert np.max(np.abs(a - adag.conj().T)) == 0.0

    def test_truncation_drops_top_amplitude(self):
        adag2 = cavity_ladder("a_dag", 2, N_MAX).matrix
        assert np.max(np.abs(adag2 @ one_hot("gggg", N_MAX - 1))) == 0.0


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

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"operator matrix must be square, got shape {shape}")):
            Operator(np.zeros(shape))

    def test_builders_are_deterministic(self):
        a = single_atom_operator(3, "+", N_MAX).matrix
        b = single_atom_operator(3, "+", N_MAX).matrix
        assert np.array_equal(a, b)
        c = cavity_ladder("a", 2, N_MAX).matrix
        d = cavity_ladder("a", 2, N_MAX).matrix
        assert np.array_equal(c, d)


class TestStateVector:
    def test_immutability(self):
        psi = StateVector.basis_state("egeg")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_probability_and_norm(self):
        amps = np.zeros(N_ATOMIC_CONFIGS, dtype=complex)
        amps[atomic_index("egeg")] = 1 / np.sqrt(2)
        amps[atomic_index("gege")] = 1j / np.sqrt(2)
        psi = StateVector(amps)
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)
        assert psi.probability("egeg") == pytest.approx(0.5)
        assert psi.probability("gege") == pytest.approx(0.5)
        assert psi.probability("gggg") == 0.0
        assert psi.amplitude("gege") == 1j / np.sqrt(2)
        geeg = atomic_index("geeg")
        assert StateVector.basis_state(np.int64(geeg)).amplitude(geeg) == 1.0
        assert StateVector.basis_state("geeg").amplitude(geeg) == 1.0

    def test_holds_the_sixteen_atomic_amplitudes_only(self):
        assert StateVector(np.eye(N_ATOMIC_CONFIGS)[3], 0).n_max == 0
        with pytest.raises(ValueError, match="n_max must be 0"):
            StateVector(np.zeros(N_ATOMIC_CONFIGS * (N_MAX + 1)), N_MAX)
        with pytest.raises(ValueError, match="n_max must be 0"):
            StateVector(np.zeros(N_ATOMIC_CONFIGS), 1)
        for length in (0, 15, 17, DIM):
            with pytest.raises(ValueError, match="length 16"):
                StateVector(np.zeros(length))
        with pytest.raises(ValueError, match="length 16"):
            StateVector(np.zeros((4, 4)))
        with pytest.raises(TypeError):
            StateVector.basis_state("egeg", 1)  # no Fock level: the cavity is factored out

    def test_compare_and_hash_by_identity(self):
        # the generated __eq__ over an ndarray field raised on ==, and frozen
        # plus eq made __hash__ hash the array, which raised TypeError
        for make in (lambda: Operator(np.eye(2)), lambda: StateVector.basis_state("egeg")):
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2
