from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from test_hilbert import IDENTITY_2, SIGMA_Z, atomic_operator, kron_all

from dfscavity import bell_teleport
from dfscavity.bell_teleport import (
    BELL_MAP_PULSE_AREA,
    CORRECTION_TABLE,
    BellLabel,
    bell_measure,
    enumerate_bell_branches,
    prepare_bell,
    teleport,
)
from dfscavity.dynamics import pair_exchange
from dfscavity.gates import r_gate_atomic
from dfscavity.hilbert import StateVector, atomic_index, config_labels
from dfscavity.model import TWO_EXCITATION_CONFIGS


# Dense six-atom oracle for teleport (atoms a1 a2 a3 a4 b1 b2, first atom most significant,
# 64 amplitudes), built from the Kronecker algebra of tests/test_hilbert.py and scipy's expm,
# with no code from dfscavity.
KET = {"g": np.array([1.0, 0.0], dtype=complex), "e": np.array([0.0, 1.0], dtype=complex)}


def ket(config: str) -> np.ndarray:
    return kron_all([KET[c] for c in config])


# sum over the six atom pairs {i, j} of s_i^+ s_j^+ s_k^- s_l^- ({k, l} the other two atoms):
# it swaps every two-excitation configuration with its complement
PAIR_EXCHANGE = sum(atomic_operator({i: "+", j: "+", **{k: "-" for k in {1, 2, 3, 4} - {i, j}}})
                    for i, j in combinations(range(1, 5), 2))
DENSE_BELL_MAP = np.kron(expm(-1j * np.pi / 4 * PAIR_EXCHANGE), np.eye(4))
PAIR_SZ = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)  # collective on Bob's pair
PAIR_X = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)
PAIR_Z = np.eye(4) - 2 * np.outer(ket("ge"), ket("ge"))  # -1 on |ge> = |0~>
# Bell outcome -> (Alice's measured configuration, Bob's correction)
DENSE_BRANCHES = {BellLabel.PHI_PLUS: ("egeg", np.eye(4)), BellLabel.PHI_MINUS: ("gege", PAIR_Z),
                  BellLabel.PSI_PLUS: ("egge", PAIR_X @ PAIR_Z), BellLabel.PSI_MINUS: ("geeg", PAIR_X)}


def dense_teleport(theta, delay, splitting, dephase_phi, corrections, generator=PAIR_SZ):
    """{label: (probability, fidelity)}: the input pair and the Phi+ channel as 64 amplitudes,
    the Bell map on Alice's four atoms, one projection per outcome, then Bob's channel
    exp(-i splitting delay generator) exp(-i dephase_phi generator) and correction as 4x4 matrices."""
    psi = (ket("ge") + np.exp(1j * theta) * ket("eg")) / np.sqrt(2)
    state = DENSE_BELL_MAP @ np.kron(psi, (ket("egeg") + 1j * ket("gege")) / np.sqrt(2))
    channel = expm(-1j * splitting * delay * generator) @ expm(-1j * dephase_phi * generator)
    out = {}
    for label, (config, correction) in DENSE_BRANCHES.items():
        bob = np.kron(ket(config)[None, :], np.eye(4)) @ state
        p = np.vdot(bob, bob).real
        c = correction if corrections else np.eye(4)
        out[label] = (p, abs(np.vdot(psi, c @ channel @ bob)) ** 2 / p)
    return out


def check_grid_against_dense(rng, dephased, corrections, generator=PAIR_SZ):
    """A 5 x 4 theta x delay grid call against the dense oracle, every branch at 1e-14;
    returns the grid's fidelities (4, 5, 4)."""
    thetas, delays = rng.uniform(0, 2 * np.pi, 5), rng.uniform(0, 6, 4)
    phis = rng.uniform(0, 2 * np.pi, (5, 4)) if dephased else np.zeros((5, 4))
    _, report = teleport(thetas[:, None], delays[None, :], "dfs", atom_splitting=1.7,
                         dephase_phi=phis if dephased else None, apply_corrections=corrections)
    for i, j in np.ndindex(5, 4):
        dense = dense_teleport(thetas[i], delays[j], 1.7, phis[i, j], corrections, generator)
        for branch in report.branches:
            p, f = dense[branch.label]
            assert branch.probability[i, j] == pytest.approx(p, abs=1e-14)
            assert branch.fidelity[i, j] == pytest.approx(f, abs=1e-14)
    return np.array([b.fidelity for b in report.branches])


def bell_map_route(psi_in):
    """Bob's pair after each outcome the way teleport first computed it: the input pair
    states (..., 4) times the Phi+ channel as Alice's 16 configurations x Bob's pair, the
    Bell map (pair_exchange at pi/4) along the configurations, then the outcome rows."""
    channel = prepare_bell(BellLabel.PHI_PLUS).amplitudes.reshape(4, 4)
    joint = (psi_in[..., :, None, None] * channel).reshape(psi_in.shape[:-1] + (16, 4))
    mapped = pair_exchange(joint.swapaxes(0, -2), BELL_MAP_PULSE_AREA).swapaxes(0, -2)
    return mapped[..., [atomic_index(c) for c in ("egeg", "gege", "egge", "geeg")], :]


class TestBellStates:
    def test_phi_plus_amplitudes(self):
        psi = prepare_bell(BellLabel.PHI_PLUS)
        assert psi.amplitude("egeg") == pytest.approx(1 / np.sqrt(2))
        assert psi.amplitude("gege") == pytest.approx(1j / np.sqrt(2))
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)

    def test_pairwise_orthogonality(self):
        labels = list(BellLabel)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                overlap = np.vdot(prepare_bell(a).amplitudes, prepare_bell(b).amplitudes)
                assert abs(overlap) < 1e-14

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_label_value_gives_the_same_state(self, label):
        assert np.array_equal(prepare_bell(label.value).amplitudes, prepare_bell(label).amplitudes)
        assert bell_measure(prepare_bell(label.value))[0] is label

    @pytest.mark.parametrize("label", ["bogus", None, "phi+", 0])
    def test_other_labels_rejected(self, label):
        with pytest.raises(ValueError, match="is not a valid BellLabel"):
            prepare_bell(label)


class TestBellDiscrimination:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_each_bell_state_identified_deterministically(self, label):
        observed, record = bell_measure(prepare_bell(label))
        assert observed is label
        assert record.label is not None
        assert record.probability >= 1 - 1e-12

    def test_expected_product_outcomes(self):
        expected = {BellLabel.PHI_PLUS: "egeg", BellLabel.PHI_MINUS: "gege",
                    BellLabel.PSI_PLUS: "egge", BellLabel.PSI_MINUS: "geeg"}
        for label, outcome in expected.items():
            _, record = bell_measure(prepare_bell(label))
            assert "".join(record.outcomes) == outcome

    def test_branches_equal_the_dense_pulse_bit_for_bit(self):
        # the map is pair_exchange at pi/4; the dense 16x16 R pulse at that area gives
        # the same branch probabilities, bit for bit, on Bell and random inputs
        r = r_gate_atomic(BELL_MAP_PULSE_AREA)
        rng = np.random.default_rng(23)
        states = [prepare_bell(label).amplitudes for label in BellLabel]
        for _ in range(50):
            amps = np.zeros(16, dtype=complex)
            amps[list(TWO_EXCITATION_CONFIGS)] = rng.normal(size=6) + 1j * rng.normal(size=6)
            states.append(amps / np.linalg.norm(amps))
        for amps in states:
            probs = np.abs(r @ amps) ** 2
            expected = [(config_labels(c), float(probs[c])) for c in range(16) if probs[c] > 1e-15]
            branches = enumerate_bell_branches(StateVector(amps, 0))
            assert [("".join(b.outcomes), b.probability) for b in branches] == expected

    def test_superposition_branch_statistics(self):
        # (Phi+ + Psi+)/sqrt2: each identified with probability 1/2
        sup = StateVector(
            (prepare_bell(BellLabel.PHI_PLUS).amplitudes
             + prepare_bell(BellLabel.PSI_PLUS).amplitudes) / np.sqrt(2), 0)
        branches = {b.label: b.probability for b in enumerate_bell_branches(sup)}
        assert branches[BellLabel.PHI_PLUS] == pytest.approx(0.5, abs=1e-12)
        assert branches[BellLabel.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)

    def test_seeded_sampling_matches_binomial_bounds(self):
        sup = StateVector(
            (prepare_bell(BellLabel.PHI_PLUS).amplitudes
             + prepare_bell(BellLabel.PSI_PLUS).amplitudes) / np.sqrt(2), 0)
        counts = {BellLabel.PHI_PLUS: 0, BellLabel.PSI_PLUS: 0}
        n_trials = 10_000
        for seed in range(n_trials):
            label, _ = bell_measure(sup, seed=seed)
            counts[label] += 1
        # 3 sigma binomial bound around n/2
        sigma = np.sqrt(n_trials * 0.25)
        assert abs(counts[BellLabel.PHI_PLUS] - n_trials / 2) < 3 * sigma

    def test_seeded_sampling_reproducible(self):
        sup = StateVector(
            (prepare_bell(BellLabel.PHI_PLUS).amplitudes
             + prepare_bell(BellLabel.PHI_MINUS).amplitudes) / np.sqrt(2), 0)
        first = [bell_measure(sup, seed=s)[0] for s in range(50)]
        second = [bell_measure(sup, seed=s)[0] for s in range(50)]
        assert first == second

    def test_state_without_support_rejected(self):
        with pytest.raises(ValueError, match="state has no measurable support"):
            bell_measure(StateVector(np.zeros(16), 0))

    def test_non_bell_input_flagged(self):
        # eegg sits in the exchange-coupled part of the manifold, outside the Bell span
        psi = StateVector.basis_state("eegg")
        label, record = bell_measure(psi)
        assert label is None
        assert record.label is None


def numpy_choice(seed, weights):
    """The draw that `_sample` replicates: numpy.random's choice over the normalised weights."""
    weights = np.asarray(weights, dtype=float)
    return int(np.random.default_rng(seed).choice(len(weights), p=weights / weights.sum()))


def weighted(weights):
    """Stand-in branches that carry only a probability; each is its own index."""
    return [SimpleNamespace(probability=w, index=k) for k, w in enumerate(weights)]


# uniform, random and one-dominant weight vectors of every length 1 to 16; the minor
# entries of the dominant one alternate between 1e-3 and 0, a branch never drawn
_WEIGHT_RNG = np.random.default_rng(2024)
WEIGHT_VECTORS = [w for k in range(1, 17)
                  for w in (np.full(k, 1 / k), _WEIGHT_RNG.random(k) ** 3,
                            np.r_[np.resize([1e-3, 0.0], k - 1), 1.0][_WEIGHT_RNG.permutation(k)])]
LARGE_SEEDS = (2**32, 2**64, 2**128 + 3, 2**200)


class TestSeededDraw:
    def test_first_uniform_is_numpys_first_double_bit_for_bit(self):
        for seed in (*range(2001), *LARGE_SEEDS):
            expected = np.random.default_rng(seed).random()
            assert bell_teleport._first_uniform(seed).hex() == expected.hex(), seed

    def test_sampled_index_is_numpys_choice(self):
        # every seed 0 to 2,000 against one weight vector in turn, the large seeds against all
        cases = [(seed, WEIGHT_VECTORS[seed % len(WEIGHT_VECTORS)]) for seed in range(2001)]
        cases += [(seed, w) for seed in LARGE_SEEDS for w in WEIGHT_VECTORS]
        for seed, w in cases:
            assert bell_teleport._sample(weighted(w), seed).index == numpy_choice(seed, w), (seed, w)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(5), 2**200])
    def test_integer_seeds_of_any_type_and_size_give_numpys_draw(self, seed):
        sup = StateVector((prepare_bell(BellLabel.PHI_PLUS).amplitudes
                           + 2 * prepare_bell(BellLabel.PSI_PLUS).amplitudes) / np.sqrt(5), 0)
        branches = enumerate_bell_branches(sup)
        expected = branches[numpy_choice(int(seed), [b.probability for b in branches])]
        assert bell_measure(sup, seed=seed)[1] == expected
        _, report = teleport(1.1, 0.3, "dfs", seed=seed)
        expected = report.branches[numpy_choice(int(seed), [b.probability for b in report.branches])]
        assert (report.sampled_label, report.sampled_fidelity) == (expected.label.value, expected.fidelity)

    @pytest.mark.parametrize("seed", [True, False, 1.5, -1, np.float64(2), np.int64(-4), "3", None])
    def test_seed_other_than_an_integer_at_least_0_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            bell_teleport._sample(weighted([0.5, 0.5]), seed)
        if seed is not None:
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                bell_measure(prepare_bell(BellLabel.PHI_PLUS), seed=seed)
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                teleport(1.1, 0.3, "dfs", seed=seed)

    @pytest.mark.parametrize("weights", [[0.5, -0.1, 0.6], [0.5, np.nan], [np.inf, 1.0], [0.0, 0.0], []])
    def test_weights_not_finite_non_negative_with_a_positive_sum_rejected(self, weights):
        with pytest.raises(ValueError, match="finite and >= 0 with a positive sum"):
            bell_teleport._sample(weighted(weights), 0)


class TestTeleport:
    def test_ideal_teleportation_every_branch(self):
        fid, report = teleport(0.0, 0.0, "dfs")
        assert fid == pytest.approx(1.0, abs=1e-10)
        for branch in report.branches:
            assert branch.fidelity == pytest.approx(1.0, abs=1e-10)
            assert branch.probability == pytest.approx(0.25, abs=1e-12)

    def test_branch_probabilities_sum_to_one_any_theta(self):
        for theta in np.linspace(0, 2 * np.pi, 7):
            _, report = teleport(theta, 0.4, "dfs", atom_splitting=3.0)
            total = sum(b.probability for b in report.branches)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_dfs_fidelity_independent_of_delay_grid(self):
        fids = []
        for theta in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            for delay in np.linspace(0, 8.0, 8):
                fid, report = teleport(theta, delay, "dfs", atom_splitting=2.5)
                fids.append(min(b.fidelity for b in report.branches))
        assert max(fids) - min(fids) < 1e-10
        assert min(fids) > 1 - 1e-10

    def test_dfs_immune_to_collective_dephasing(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            fid, report = teleport(rng.uniform(0, 2 * np.pi), rng.uniform(0, 5),
                                   "dfs", atom_splitting=1.7,
                                   dephase_phi=rng.uniform(0, 2 * np.pi))
            assert min(b.fidelity for b in report.branches) > 1 - 1e-10

    @pytest.mark.parametrize("delay_max", [6.0, 1000.0])
    def test_dfs_branches_are_bit_for_bit_independent_of_the_dephasing_grid(self, delay_max):
        # the channel is exactly 1 on ge/eg and Bob's weights are exactly 0 on gg/ee, so the
        # teleport experiment's dephasing draw never reaches its report
        thetas = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
        delays = np.linspace(0.0, delay_max, 11)
        grids = [None] + [np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (13, 11)) for seed in (1, 2)]
        runs = [teleport(thetas[:, None], delays[None, :], "dfs", atom_splitting=1.7, dephase_phi=phi)
                for phi in grids]
        avg, report = runs[0]
        for other_avg, other in runs[1:]:
            assert other_avg.tobytes() == avg.tobytes()
            for branch, again in zip(report.branches, other.branches):
                assert again.probability.tobytes() == branch.probability.tobytes()
                assert again.fidelity.tobytes() == branch.fidelity.tobytes()

    def test_bare_comparison_dephases_to_zero(self):
        fid, _ = teleport(np.pi / 2, np.pi, "bare", atom_splitting=1.0)
        assert fid == pytest.approx(0.0, abs=1e-12)

    def test_bare_matches_drift_oracle(self):
        # closed form cos^2((s d + phi)/2) of the one-atom drift, with and without dephasing
        for delay in (0.0, 0.9, 2.2):
            fid, _ = teleport(0.4, delay, "bare", atom_splitting=1.3)
            assert fid == pytest.approx(np.cos(1.3 * delay / 2) ** 2, abs=1e-14)
            fid, _ = teleport(0.4, delay, "bare", atom_splitting=1.3, dephase_phi=0.7)
            assert fid == pytest.approx(np.cos((1.3 * delay + 0.7) / 2) ** 2, abs=1e-14)

    def test_correction_table_is_the_derived_one(self):
        assert CORRECTION_TABLE == {
            BellLabel.PHI_PLUS: "I", BellLabel.PHI_MINUS: "Z",
            BellLabel.PSI_PLUS: "XZ", BellLabel.PSI_MINUS: "X",
        }

    def test_corrections_withheld_no_signaling_average(self):
        # without the classical bits, average fidelity stays at or below
        # 1/2 + 1/4 (branch enumeration sanity check)
        for theta in np.linspace(0, 2 * np.pi, 9):
            _, report = teleport(theta, 0.0, "dfs", apply_corrections=False)
            avg = sum(b.probability * b.fidelity for b in report.branches)
            assert avg <= 0.75 + 1e-12

    def test_bare_channel_rejects_withheld_corrections(self):
        # it has no Bell measurement, so withholding corrections would silently read fidelity 1
        assert teleport(0.3, 0.0, "dfs", apply_corrections=False)[0] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="bare channel has no corrections to withhold"):
            teleport(0.3, 0.0, "bare", apply_corrections=False)
        with pytest.raises(ValueError, match="bare channel has no corrections to withhold"):
            teleport(np.zeros((2, 1)), np.ones((1, 3)), "bare", apply_corrections=False)

    def test_seeded_branch_sampling_reproducible(self):
        fid1, rep1 = teleport(1.1, 0.3, "dfs", seed=42)
        fid2, rep2 = teleport(1.1, 0.3, "dfs", seed=42)
        assert rep1.sampled_label == rep2.sampled_label
        assert rep1.sampled_fidelity == rep2.sampled_fidelity

    def test_seeded_bare_channel_samples_a_branch(self):
        fid, rep = teleport(1.1, 0.3, "bare", seed=42)
        labels = {lab.value for lab in BellLabel}
        assert rep.sampled_label in labels
        branch = next(b for b in rep.branches if b.label.value == rep.sampled_label)
        assert rep.sampled_fidelity == branch.fidelity == fid
        again = teleport(1.1, 0.3, "bare", seed=42)[1]
        assert (again.sampled_label, again.sampled_fidelity) == (rep.sampled_label, rep.sampled_fidelity)
        assert teleport(1.1, 0.3, "bare")[1].sampled_label is None

    @pytest.mark.parametrize("dephased", [False, True])
    @pytest.mark.parametrize("corrections", [True, False])
    def test_grid_call_equals_scalar_calls(self, dephased, corrections):
        rng = np.random.default_rng(11)
        thetas = rng.uniform(0, 2 * np.pi, 7)
        delays = rng.uniform(0, 6, 5)
        phis = rng.uniform(0, 2 * np.pi, (7, 5)) if dephased else None
        avg, report = teleport(thetas[:, None], delays[None, :], "dfs", atom_splitting=1.7,
                               dephase_phi=phis, apply_corrections=corrections)
        assert avg.shape == (7, 5)
        scalar_avg = np.empty((7, 5))
        probs = np.empty((4, 7, 5))
        fids = np.empty((4, 7, 5))
        for i, j in np.ndindex(7, 5):
            scalar_avg[i, j], rep = teleport(
                thetas[i], delays[j], "dfs", atom_splitting=1.7,
                dephase_phi=None if phis is None else float(phis[i, j]),
                apply_corrections=corrections)
            probs[:, i, j] = [b.probability for b in rep.branches]
            fids[:, i, j] = [b.fidelity for b in rep.branches]
        assert np.array_equal(avg, scalar_avg)
        for k, branch in enumerate(report.branches):
            assert np.array_equal(branch.probability, probs[k])
            assert np.array_equal(branch.fidelity, fids[k])

    @pytest.mark.parametrize("dephased", [False, True])
    @pytest.mark.parametrize("corrections", [True, False])
    @pytest.mark.parametrize("theta", ["scalar", "vector", "rows"])
    def test_dfs_branches_equal_the_bell_map_route_bit_for_bit(self, theta, dephased, corrections,
                                                               monkeypatch):
        rng = np.random.default_rng(41)
        thetas = {"scalar": 1.3, "vector": rng.uniform(-7.0, 7.0, 9),
                  "rows": np.linspace(0.0, 2 * np.pi, 9, endpoint=False)[:, None]}[theta]
        delays = np.linspace(0.0, 9.0, 6)[None, :] if theta == "rows" else 2.5
        phis = rng.uniform(0, 2 * np.pi, np.broadcast_shapes(np.shape(thetas), np.shape(delays)))
        kwargs = dict(atom_splitting=1.7, dephase_phi=phis if dephased else None,
                      apply_corrections=corrections)
        psi_in = bell_teleport._input_pair_state(thetas)
        assert np.array_equal(bell_teleport._bob_pairs(psi_in), bell_map_route(psi_in))
        avg, report = teleport(thetas, delays, "dfs", **kwargs)
        monkeypatch.setattr(bell_teleport, "_bob_pairs", bell_map_route)
        route_avg, route = teleport(thetas, delays, "dfs", **kwargs)
        assert np.asarray(avg).tobytes() == np.asarray(route_avg).tobytes()
        for branch, expected in zip(report.branches, route.branches, strict=True):
            assert np.asarray(branch.probability).tobytes() == np.asarray(expected.probability).tobytes()
            assert np.asarray(branch.fidelity).tobytes() == np.asarray(expected.fidelity).tobytes()

    @pytest.mark.parametrize("dephased", [False, True])
    @pytest.mark.parametrize("corrections", [True, False])
    def test_grid_matches_dense_six_atom_oracle(self, dephased, corrections):
        fids = check_grid_against_dense(np.random.default_rng(31), dephased, corrections)
        assert np.all(fids > 1 - 1e-10) if corrections else np.any(fids < 0.9)

    @pytest.mark.parametrize("dephased", [False, True])
    def test_grid_applies_the_channel_at_every_point(self, dephased, monkeypatch):
        # a channel whose weight differs between Bob's two atoms gives the code states a
        # relative phase, so the immunity is gone and the fidelities must follow the channel
        weights = np.array([1.0, 0.35])
        bits = (np.arange(4)[:, None] >> np.array([1, 0])) & 1   # (config, atom): e = 1, b1 first

        def per_atom_phases(phi, n_atoms=4):
            assert n_atoms == 2
            return np.exp(-1j * np.asarray(phi)[..., None] * ((bits - 0.5) @ weights))

        monkeypatch.setattr(bell_teleport, "collective_phases", per_atom_phases)
        generator = weights[0] * np.kron(SIGMA_Z, IDENTITY_2) + weights[1] * np.kron(IDENTITY_2, SIGMA_Z)
        fids = check_grid_against_dense(np.random.default_rng(37), dephased, True, generator)
        assert fids.min() < 0.9

    @pytest.mark.parametrize("theta, delay, phi, shape", [
        (0.7, 1.3, np.linspace(0.0, 5.0, 6).reshape(3, 2), (3, 2)),   # only the dephasing varies
        (np.linspace(0.0, 6.0, 5), 1.3, None, (5,)),                  # theta varies, scalar delay
        (np.linspace(0.0, 6.0, 5)[:, None], 1.3, None, (5, 1)),       # theta rows, scalar delay
    ])
    def test_branches_take_the_broadcast_shape(self, theta, delay, phi, shape):
        avg, report = teleport(theta, delay, "dfs", atom_splitting=1.7, dephase_phi=phi)
        assert np.shape(avg) == shape
        for branch in report.branches:
            assert np.shape(branch.probability) == shape
            assert np.shape(branch.fidelity) == shape
        flat_theta = np.broadcast_to(theta, shape).ravel()
        flat_phi = np.broadcast_to(0.0 if phi is None else phi, shape).ravel()
        for k, (t, f) in enumerate(zip(flat_theta, flat_phi)):
            fid, rep = teleport(t, delay, "dfs", atom_splitting=1.7, dephase_phi=None if phi is None else f)
            assert np.ravel(avg)[k] == pytest.approx(fid, abs=1e-15)
            for branch, single in zip(report.branches, rep.branches):
                assert np.ravel(branch.probability)[k] == pytest.approx(single.probability, abs=1e-15)
                assert np.ravel(branch.fidelity)[k] == pytest.approx(single.fidelity, abs=1e-15)

    def test_seeded_sampling_and_bare_channel_need_scalar_inputs(self):
        # seeded sampling needs scalars; the bare channel broadcasts like the dfs one
        with pytest.raises(ValueError, match="scalar"):
            teleport(np.array([0.1, 0.2]), 0.0, "dfs", seed=1)
        with pytest.raises(ValueError, match="scalar"):
            teleport(0.1, 0.0, "dfs", seed=1, dephase_phi=np.array([0.3, 0.4]))
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0, 2 * np.pi, 7)
        delays = rng.uniform(0, 6, 5)
        avg, report = teleport(thetas[:, None], delays[None, :], "bare", atom_splitting=1.7)
        scalar = np.array([[teleport(t, d, "bare", atom_splitting=1.7)[0] for d in delays] for t in thetas])
        assert avg.shape == (7, 5)
        assert np.array_equal(avg, scalar)
        for branch in report.branches:
            assert np.array_equal(branch.fidelity, scalar)
            assert np.array_equal(branch.probability, np.full((7, 5), 0.25))

    @pytest.mark.parametrize("encoding", ["dfs", "bare"])
    def test_negative_delay_rejected_for_both_encodings(self, encoding):
        with pytest.raises(ValueError, match="delay"):
            teleport(0.1, -1.0, encoding)
        with pytest.raises(ValueError, match="delay"):
            teleport(np.array([[0.1], [0.2]]), np.array([0.0, 1.0, -1e-3]), encoding)

    @pytest.mark.parametrize("delay", [np.nan, np.inf])
    @pytest.mark.parametrize("encoding", ["dfs", "bare"])
    def test_non_finite_delay_rejected_for_both_encodings(self, encoding, delay):
        # both used to return a NaN average fidelity
        with pytest.raises(ValueError, match="delay must be finite"):
            teleport(0.3, delay, encoding)
        with pytest.raises(ValueError, match="delay must be finite"):
            teleport(np.array([[0.1], [0.2]]), np.array([0.0, 1.0, delay]), encoding)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("encoding", ["dfs", "bare"])
    def test_non_finite_theta_dephasing_and_splitting_rejected(self, encoding, value):
        # each used to return a NaN average fidelity
        with pytest.raises(ValueError, match="theta must be finite"):
            teleport(value, 0.0, encoding)
        with pytest.raises(ValueError, match="theta must be finite"):
            teleport(np.array([0.1, value]), 0.0, encoding)
        with pytest.raises(ValueError, match="dephase_phi must be finite"):
            teleport(0.3, 0.0, encoding, dephase_phi=value)
        with pytest.raises(ValueError, match="dephase_phi must be finite"):
            teleport(0.3, np.array([0.0, 1.0]), encoding, dephase_phi=np.array([[0.0], [value]]))
        with pytest.raises(ValueError, match="atom_splitting must be finite"):
            teleport(0.3, encoding=encoding, atom_splitting=value)

    @pytest.mark.parametrize("encoding", ["dfs", "bare"])
    def test_overflowing_phase_rejected_for_both_encodings(self, encoding):
        # atom_splitting * delay = 1e310 overflows; both used to return a NaN average
        with pytest.raises(ValueError, match="atom_splitting \\* delay .* is not finite"):
            teleport(0.3, 1e300, encoding, atom_splitting=1e10)
        with pytest.raises(ValueError, match="atom_splitting \\* delay .* is not finite"):
            teleport(np.array([[0.1], [0.2]]), np.array([0.0, 1e300]), encoding, atom_splitting=1e10)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="encoding"):
            teleport(0.0, 0.0, "qubit")
