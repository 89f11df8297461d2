from itertools import combinations

import numpy as np
import pytest

from dfscavity.hilbert import (
    StateVector,
    SystemParams,
    basis_index,
    excitation_number,
)
from dfscavity.model import (
    TWO_EXCITATION_LABELS,
    build_full_hamiltonian,
    build_h0,
    build_h_eff,
    build_hint,
    derive_second_order,
    derived_coupling,
    effective_coupling,
    pair_partner,
    stark_diagonal,
    two_excitation_manifold,
)
from test_hilbert import cavity_ladder, single_atom_operator


@pytest.fixture(scope="module")
def params():
    return SystemParams(G=1.0, delta=10.0, n_max=6)


@pytest.fixture(scope="module")
def h0(params):
    return build_h0(params)


@pytest.fixture(scope="module")
def hint(params):
    return build_hint(params)


def dense_energies_and_hint(params):
    """The arguments `derive_second_order` takes, from the dense oracles: the
    diagonal of build_h0 and the build_hint matrix."""
    return np.real(np.diag(build_h0(params).matrix)), build_hint(params).matrix


class TestBareHamiltonian:
    def test_all_ground_energy(self, params, h0):
        # frame rotating at omega_a: the vacuum has zero energy
        idx = basis_index("gggg", 0, params.n_max)
        assert h0.matrix[idx, idx] == 0.0

    def test_two_excitation_energy_is_photon_only(self, params, h0):
        for n in range(params.n_max + 1):
            idx = basis_index("egeg", n, params.n_max)
            assert h0.matrix[idx, idx] == params.delta / 2.0 * n

    def test_diagonal_by_construction(self, h0):
        off = h0.matrix - np.diag(np.diag(h0.matrix))
        assert np.max(np.abs(off)) == 0.0


class TestInteraction:
    def test_pair_raising_matrix_element(self, params, hint):
        # <egeg,n|Hint|gggg,n+2> = G sqrt((n+1)(n+2))
        for n in range(params.n_max - 1):
            bra = basis_index("egeg", n, params.n_max)
            ket = basis_index("gggg", n + 2, params.n_max)
            expected = params.G * np.sqrt((n + 1) * (n + 2))
            assert hint.matrix[bra, ket] == pytest.approx(expected, rel=1e-14)

    def test_n0_element_is_sqrt2(self, params, hint):
        bra = basis_index("egeg", 0, params.n_max)
        ket = basis_index("gggg", 2, params.n_max)
        assert hint.matrix[bra, ket] == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_hermiticity_defect(self, hint):
        assert np.max(np.abs(hint.matrix - hint.matrix.conj().T)) < 1e-14

    def test_zero_coupling_gives_zero_operator(self):
        p0 = SystemParams(G=0.0, delta=10.0, n_max=4)
        assert np.max(np.abs(build_hint(p0).matrix)) == 0.0

    @pytest.mark.parametrize("n_max,G", [(4, 0.7), (8, 0.7), (16, 0.7), (32, 0.7), (8, 0.0)])
    def test_equals_composite_space_operator_products(self, n_max, G):
        # reference: every factor lifted to the full space, two matmuls per term
        p = SystemParams(G=G, delta=1000.0, n_max=n_max)
        a2 = cavity_ladder("a", 2, n_max).matrix
        adag2 = cavity_ladder("a_dag", 2, n_max).matrix
        ref = np.zeros((p.dim, p.dim), dtype=complex)
        for i, j in combinations(range(1, 5), 2):
            raise_ij = single_atom_operator(i, "+", n_max).matrix @ single_atom_operator(j, "+", n_max).matrix
            lower_ij = single_atom_operator(i, "-", n_max).matrix @ single_atom_operator(j, "-", n_max).matrix
            ref += G * (a2 @ raise_ij + adag2 @ lower_ij)
        assert np.array_equal(build_hint(p).matrix, ref)

    @pytest.mark.parametrize("n_max", [4, 8, 16, 32])
    def test_full_hamiltonian_conserves_total_excitation(self, n_max):
        # [H, n + n_e] = 0 exactly: H is block diagonal in photons plus atomic excitations
        p = SystemParams(G=0.7, delta=1000.0, n_max=n_max)
        h = build_full_hamiltonian(p).matrix
        total = [excitation_number(a) + n for a in range(16) for n in range(n_max + 1)]
        n_op = np.diag(np.array(total, dtype=complex))
        assert np.array_equal(h @ n_op, n_op @ h)

    def test_grading_excitation_vs_photon_pairs(self, params, hint):
        # every nonzero element changes atomic excitation by +-2 and photon number by -+2
        n_levels = params.n_max + 1
        rows, cols = np.nonzero(hint.matrix)
        assert len(rows) > 0
        for r, c in zip(rows, cols):
            exc_change = bin(r // n_levels).count("1") - bin(c // n_levels).count("1")
            photon_change = (r % n_levels) - (c % n_levels)
            assert (exc_change, photon_change) in ((2, -2), (-2, 2))


class TestEffectiveCoupling:
    @pytest.mark.parametrize("n,expected", [(0, 0.2), (2, 1.0)])
    def test_closed_form_reference_values(self, n, expected):
        p = SystemParams(G=1.0, delta=10.0, n_max=6)
        assert effective_coupling(n, p).omega == pytest.approx(expected, rel=1e-15)

    def test_zero_coupling(self):
        p = SystemParams(G=0.0, delta=10.0, n_max=4)
        assert effective_coupling(3, p).omega == 0.0

    def test_negative_sector_rejected(self, params):
        with pytest.raises(ValueError):
            effective_coupling(-1, params)

    @pytest.mark.parametrize("G,delta,rate", [
        (1e200, 1e201, "inf"),    # G**2 overflows: used to raise OverflowError
        (1e-200, 1e-199, "0.0"),  # G**2 underflows: used to return 0.0
        (1e100, 1e-300, "inf"),   # the quotient overflows: used to return inf
    ])
    def test_rate_out_of_float_range_rejected(self, G, delta, rate):
        params = SystemParams(G=G, delta=delta, n_max=4)
        with pytest.raises(ValueError) as err:
            effective_coupling(0, params)
        assert str(err.value) == (f"the pair rate 2 G^2/|delta| at G = {G}, delta = {delta} "
                                  f"is {rate}, not a finite positive number")


class TestEffectiveHamiltonian:
    def test_double_flip_element(self, params):
        h = build_h_eff(params, n=0)
        omega = effective_coupling(0, params).omega
        from dfscavity.hilbert import atomic_index

        assert h.matrix[atomic_index("gege"), atomic_index("egeg")] == pytest.approx(omega)

    def test_no_exchange_elements_in_pair_swap_form(self, params):
        h = build_h_eff(params, n=0)
        from dfscavity.hilbert import atomic_index

        assert h.matrix[atomic_index("eegg"), atomic_index("egeg")] == 0.0

    def test_hermitian(self, params):
        h = build_h_eff(params, n=1, include_stark=True)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-14

    def test_stark_diagonal_matches_pt_engine(self, params):
        # brute-force single-state second-order shifts at n = 2
        n = 2
        energies, hint = dense_energies_and_hint(params)
        shifts = stark_diagonal(params, n)
        for cfg in range(16):
            m = basis_index(cfg, n, params.n_max)
            val = derive_second_order(energies, hint, (m,))[0, 0]
            assert np.real(val) == pytest.approx(shifts[cfg], rel=1e-12, abs=1e-12)

    def test_pair_subspaces_invariant_without_stark(self, params):
        from dfscavity.dynamics import evolve_exact

        h = build_h_eff(params, n=0, include_stark=False)
        rng = np.random.default_rng(11)
        for labels in (("egeg", "gege"), ("egge", "geeg"), ("eegg", "ggee")):
            amps = np.zeros(16, dtype=complex)
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            coeffs /= np.linalg.norm(coeffs)
            from dfscavity.hilbert import atomic_index

            amps[atomic_index(labels[0])], amps[atomic_index(labels[1])] = coeffs
            out = evolve_exact(h, StateVector(amps, 0), 3.7)
            inside = abs(out.amplitudes[atomic_index(labels[0])]) ** 2
            inside += abs(out.amplitudes[atomic_index(labels[1])]) ** 2
            assert inside == pytest.approx(1.0, abs=1e-12)


class TestSecondOrderEngine:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_reproduces_closed_form_coupling(self, n):
        p = SystemParams(G=1.3, delta=17.0, n_max=8)
        expected = effective_coupling(n, p).omega
        derived = derived_coupling(p, n).omega
        assert derived == pytest.approx(expected, rel=1e-12)

    def test_exchange_element_oracle_value(self, params):
        # frozen oracle value: the egeg<->eegg element equals Omega(n), not zero
        manifold = two_excitation_manifold(params, 0)
        heff = derive_second_order(*dense_energies_and_hint(params), manifold)
        i = TWO_EXCITATION_LABELS.index("egeg")
        j = TWO_EXCITATION_LABELS.index("eegg")
        omega = effective_coupling(0, params).omega
        assert np.real(heff[i, j]) == pytest.approx(omega, rel=1e-12)

    def test_full_manifold_operator_is_uniform(self, params):
        # frozen oracle structure: all 36 entries equal Omega(n) (collective coupling)
        for n in (0, 2):
            manifold = two_excitation_manifold(params, n)
            heff = derive_second_order(*dense_energies_and_hint(params), manifold)
            omega = effective_coupling(n, params).omega
            np.testing.assert_allclose(heff, omega * np.ones((6, 6)), rtol=1e-12, atol=1e-12)

    def test_output_hermitian(self, params):
        manifold = two_excitation_manifold(params, 1)
        heff = derive_second_order(*dense_energies_and_hint(params), manifold)
        assert np.max(np.abs(heff - heff.conj().T)) < 1e-12

    def test_non_degenerate_manifold_rejected(self, params):
        bad = (basis_index("egeg", 0, params.n_max), basis_index("egeg", 1, params.n_max))
        with pytest.raises(ValueError, match="degenerate"):
            derive_second_order(*dense_energies_and_hint(params), bad)

    def test_intra_manifold_coupling_rejected(self, params):
        h0 = build_h0(params)
        members = (basis_index("egeg", 0, params.n_max),
                   basis_index("gggg", 2, params.n_max))
        # the two are detuned by delta, so build a crafted degenerate pair coupled by hint
        p = SystemParams(G=1.0, delta=10.0, n_max=6)
        e = np.real(np.diag(build_h0(p).matrix))
        m1 = basis_index("egeg", 2, p.n_max)
        m2 = basis_index("gggg", 4, p.n_max)
        assert e[m1] == pytest.approx(e[m2] - p.delta)  # not degenerate: detuned by delta
        e_crafted = np.where(np.arange(p.dim) == m2, e[m1], e)
        with pytest.raises(ValueError, match="inside the manifold"):
            derive_second_order(e_crafted, build_hint(p).matrix, (m1, m2))

    def test_degenerate_intermediate_rejected(self):
        # state 1 is coupled to the manifold {0} at the manifold's own energy
        hint = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="intermediate state degenerate with the manifold"):
            derive_second_order(np.zeros(2), hint, (0,))


class TestManifold:
    def test_members_share_energy(self, params):
        members = two_excitation_manifold(params, 3)
        e = np.real(np.diag(build_h0(params).matrix))
        np.testing.assert_allclose(e[list(members)], params.delta / 2.0 * 3, rtol=1e-12)

    def test_level_above_cutoff_rejected(self, params):
        # float and bool levels used to give float or level-1 "indices" (90.5, 81.5, ...)
        for n in (params.n_max + 1, 0.5, True):
            with pytest.raises(ValueError, match=rf"^Fock level n={n} outside 0\.\.{params.n_max}$"):
                two_excitation_manifold(params, n)

    def test_pair_partner_is_involution(self):
        for c in range(16):
            assert pair_partner(pair_partner(c)) == c
        from dfscavity.hilbert import atomic_index

        assert pair_partner(atomic_index("egeg")) == atomic_index("gege")
        assert pair_partner(atomic_index("eegg")) == atomic_index("ggee")
