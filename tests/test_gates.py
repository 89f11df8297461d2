import numpy as np
import pytest

from dfscavity.cli import parse_config, run_experiment
from dfscavity.dynamics import evolve_exact
from dfscavity.gates import (
    H_PULSE_AREA,
    P_PHASE,
    VALID_PAIRS,
    CnotConvention,
    GateDescriptor,
    PulseSequence,
    _first_passing,
    _logical_block,
    cnot_gate_list,
    compile_cnot,
    convention_candidates,
    cnot_duration,
    convention_search,
    entangle_duration,
    h_gate,
    p_gate,
    r_gate_atomic,
    schedule_duration,
    sequence_unitary_atomic,
    sequence_unitary_logical,
    verify_truth_table,
)
from dfscavity.hilbert import Operator, StateVector, SystemParams
from dfscavity.logical import LOGICAL_INDICES
from dfscavity.model import build_h_eff, effective_coupling

PAIR_GE, PAIR_EG = 1, 2  # pair-space indices (basis gg, ge, eg, ee)


class TestHGate:
    def test_defining_transformation(self):
        u = h_gate()
        col = u[:, PAIR_EG]
        assert col[PAIR_EG] == pytest.approx(1 / np.sqrt(2))
        assert col[PAIR_GE] == pytest.approx(-1j / np.sqrt(2))
        col = u[:, PAIR_GE]
        assert col[PAIR_GE] == pytest.approx(1 / np.sqrt(2))
        assert col[PAIR_EG] == pytest.approx(-1j / np.sqrt(2))

    def test_identity_on_gg_and_ee(self):
        u = h_gate()
        assert u[0, 0] == 1.0 and u[3, 3] == 1.0

    def test_square_maps_eg_to_minus_i_ge(self):
        u = h_gate()
        out = (u @ u)[:, PAIR_EG]
        assert out[PAIR_GE] == pytest.approx(-1j, abs=1e-14)
        assert abs(out[PAIR_EG]) < 1e-14

    def test_fourth_power_is_minus_identity_on_code_span(self):
        u = h_gate()
        u4 = np.linalg.matrix_power(u, 4)
        sub = u4[np.ix_([PAIR_GE, PAIR_EG], [PAIR_GE, PAIR_EG])]
        np.testing.assert_allclose(sub, -np.eye(2), atol=1e-14)

    def test_invalid_pair_rejected(self):
        # the lift reads the target: (1, 3) would otherwise land on pair (3, 4)
        seq = PulseSequence((GateDescriptor("H", (1, 3), H_PULSE_AREA),),
                            CnotConvention("listed_first_applied_first", +1))
        with pytest.raises(ValueError, match=r"pair must be one of \(\(1, 2\), \(3, 4\)\), got \(1, 3\)"):
            sequence_unitary_atomic(seq)


class TestPGate:
    def test_plus_sign_phases_eg_only(self):
        u = p_gate(+1)
        assert u[PAIR_EG, PAIR_EG] == pytest.approx(1j)
        assert u[PAIR_GE, PAIR_GE] == 1.0

    def test_inverse_composes_to_identity(self):
        u = p_gate(+1) @ p_gate(-1)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-14)

    def test_fourth_power_is_identity(self):
        u = np.linalg.matrix_power(p_gate(+1), 4)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-14)

    def test_sign_other_than_plus_or_minus_one_rejected(self):
        with pytest.raises(ValueError, match=r"sign must be \+1 or -1, got 0"):
            p_gate(0)


def logical_r(area: float = 3 * np.pi / 4) -> np.ndarray:
    """R on the code space: the logical block of the atomic R pulse."""
    return _logical_block(r_gate_atomic(area))


class TestRGate:
    def test_action_on_egeg(self):
        u = logical_r()
        col = u[:, 0]  # |1~1~> = egeg
        assert col[0] == pytest.approx(-1 / np.sqrt(2))
        assert col[3] == pytest.approx(-1j / np.sqrt(2))

    @pytest.mark.parametrize("area", [0.0, 0.37, np.pi / 4, 3 * np.pi / 4, 2.0])
    def test_equals_exponential_of_xx(self, area):
        # (X (x) X)^2 = 1, so exp(-i area X(x)X) = cos(area) 1 - i sin(area) X(x)X; on the
        # logical basis X(x)X swaps 1~1~ <-> 0~0~ and 1~0~ <-> 0~1~
        xx = np.eye(4)[::-1]
        expected = np.cos(area) * np.eye(4) - 1j * np.sin(area) * xx
        np.testing.assert_allclose(logical_r(area), expected, atol=1e-15)

    def test_matches_effective_model_exponential(self):
        params = SystemParams(G=1.0, delta=20.0, n_max=4)
        omega = effective_coupling(0, params).omega
        h = build_h_eff(params, 0, include_stark=False)
        rng = np.random.default_rng(2)
        for _ in range(5):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs /= np.linalg.norm(coeffs)
            amps = np.zeros(16, dtype=complex)
            amps[list(LOGICAL_INDICES)] = coeffs
            exact = evolve_exact(h, StateVector(amps, 0), (3 * np.pi / 4) / omega)
            via_gate = logical_r() @ coeffs
            np.testing.assert_allclose(via_gate, exact.amplitudes[list(LOGICAL_INDICES)], atol=1e-10)

    @pytest.mark.parametrize("area", [np.nan, np.inf, -np.inf])
    def test_non_finite_pulse_area_rejected(self, area):
        # used to return a NaN matrix that failed the unitarity check
        with pytest.raises(ValueError, match="pulse area must be finite"):
            r_gate_atomic(area)

    def test_unitarity_defect(self):
        u = logical_r()
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestCnotCompilation:
    def test_sequence_has_seven_gates_in_listed_order(self):
        gates = cnot_gate_list()
        assert len(gates) == 7
        assert [g.kind for g in gates] == ["H", "P", "R", "P", "H", "H", "P_inv"]
        assert [g.target for g in gates] == [(3, 4), (3, 4), "all", (3, 4), (1, 2), (3, 4), (3, 4)]

    def test_convention_search_recorded_outcome(self):
        # frozen oracle outcome: sign +1 passes in both orders, -1 in neither
        results = {(conv.application_order, conv.p_sign): rep.passed
                   for conv, rep, _ in convention_search()}
        assert len(results) == 4
        assert results[("listed_first_applied_first", 1)] is True
        assert results[("listed_first_applied_last", 1)] is True
        assert results[("listed_first_applied_first", -1)] is False
        assert results[("listed_first_applied_last", -1)] is False

    def test_compiled_convention_is_first_passing(self):
        seq = compile_cnot()
        assert seq.convention == CnotConvention("listed_first_applied_first", 1)

    def test_search_keeps_each_candidates_atomic_product(self):
        for conv, report, u in convention_search():
            seq = PulseSequence(cnot_gate_list(), conv)
            assert np.array_equal(u, sequence_unitary_atomic(seq))
            assert report == verify_truth_table(Operator(_logical_block(u)))

    def test_first_passing_returns_the_chosen_entry(self):
        search = convention_search()
        seq, report, u = _first_passing(search)
        assert seq == compile_cnot()
        chosen = [entry for entry in search if entry[0] == seq.convention]
        assert len(chosen) == 1 and chosen[0][1] is report and chosen[0][2] is u

    def test_no_passing_convention_is_a_hard_error(self):
        failing = [entry for entry in convention_search() if not entry[1].passed]
        with pytest.raises(RuntimeError, match="worst-case probability"):
            _first_passing(failing)

    def test_logical_unitary_is_the_code_space_block(self):
        for conv in convention_candidates():
            seq = PulseSequence(cnot_gate_list(), conv)
            assert np.array_equal(sequence_unitary_logical(seq).matrix,
                                  _logical_block(sequence_unitary_atomic(seq)))

    def test_truth_table_passes_with_phase_minus_one(self):
        seq = compile_cnot()
        report = verify_truth_table(sequence_unitary_logical(seq))
        assert report.passed
        for row in report.rows:
            assert row.probability >= 1 - 1e-10
            assert row.phase == pytest.approx(-1.0, abs=1e-10)

    def test_truth_table_mapping(self):
        seq = compile_cnot()
        report = verify_truth_table(sequence_unitary_logical(seq))
        mapping = {r.input_state: r.observed for r in report.rows}
        assert mapping == {"egeg": "geeg", "egge": "egge",
                           "geeg": "egeg", "gege": "gege"}

    def test_compiled_cnot_squares_to_identity_up_to_phase(self):
        u = sequence_unitary_logical(compile_cnot()).matrix
        uu = u @ u
        np.testing.assert_allclose(uu / uu[0, 0], np.eye(4), atol=1e-10)

    def test_truth_table_invariant_under_global_phase(self):
        u = sequence_unitary_logical(compile_cnot())
        rotated = Operator(np.exp(1j * 0.7) * u.matrix)
        assert verify_truth_table(rotated).passed

    def test_control_target_asymmetry(self):
        u = sequence_unitary_logical(compile_cnot()).matrix
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = 1.0
        swap[1, 2] = swap[2, 1] = 1.0
        relabeled = swap @ u @ swap
        overlap = abs(np.trace(relabeled.conj().T @ u)) / 4
        assert overlap < 0.99  # not the same gate up to phase

    def test_all_gates_unitary(self):
        assert Operator(h_gate()).unitary
        assert Operator(p_gate()).unitary
        assert Operator(logical_r()).unitary
        assert sequence_unitary_logical(compile_cnot()).unitary

    def test_truth_table_needs_a_four_dim_unitary(self):
        with pytest.raises(ValueError, match="expects a 4-dim logical operator"):
            verify_truth_table(Operator(np.eye(2)))
        with pytest.raises(ValueError, match="operator is not unitary"):
            verify_truth_table(Operator(2 * np.eye(4)))

    def test_code_space_preserved_exactly(self):
        u = sequence_unitary_atomic(compile_cnot())
        cols = u[:, list(LOGICAL_INDICES)]
        outside = np.delete(cols, list(LOGICAL_INDICES), axis=0)
        assert np.max(np.abs(outside)) == 0.0


def _kron_gate(gate: GateDescriptor, sign: int) -> np.ndarray:
    """Oracle: a gate on the atomic space, a pair gate as np.kron with the
    identity on the other pair."""
    if gate.kind == "R":
        return r_gate_atomic(gate.pulse_area)
    u4 = h_gate() if gate.kind == "H" else p_gate(sign if gate.kind == "P" else -sign)
    eye = np.eye(4, dtype=complex)
    return np.kron(u4, eye) if gate.target == (1, 2) else np.kron(eye, u4)


class TestAtomicLift:
    @pytest.mark.parametrize("pair", VALID_PAIRS)
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("kind", ["H", "P", "P_inv"])
    def test_pair_gate_equals_kronecker_product(self, kind, pair, sign):
        gate = GateDescriptor(kind, pair, H_PULSE_AREA if kind == "H" else P_PHASE)
        seq = PulseSequence((gate,), CnotConvention("listed_first_applied_first", sign))
        assert np.array_equal(sequence_unitary_atomic(seq), _kron_gate(gate, sign))

    @pytest.mark.parametrize("conv", convention_candidates())
    def test_sequence_equals_product_of_kronecker_gates(self, conv):
        gates = cnot_gate_list()
        order = gates if conv.application_order == "listed_first_applied_first" else gates[::-1]
        expected = np.eye(16, dtype=complex)
        for g in order:
            expected = _kron_gate(g, conv.p_sign) @ expected
        assert np.array_equal(sequence_unitary_atomic(PulseSequence(gates, conv)), expected)

    def test_unknown_gate_kind_rejected(self):
        seq = PulseSequence((GateDescriptor("X", (1, 2), 0.0),),
                            CnotConvention("listed_first_applied_first", +1))
        with pytest.raises(ValueError, match="unknown gate kind 'X'"):
            sequence_unitary_atomic(seq)

    def test_unknown_application_order_rejected(self):
        seq = PulseSequence(cnot_gate_list(), CnotConvention("sideways", +1))
        with pytest.raises(ValueError, match="unknown application order 'sideways'"):
            sequence_unitary_atomic(seq)


@pytest.fixture(scope="module")
def params():
    return SystemParams(G=2 * np.pi * 47e3, delta=2 * np.pi * 470e3, n_max=8)


class TestDurations:
    def test_entanglement_time_reference(self, params):
        assert entangle_duration(params) == pytest.approx(1.33e-5, rel=0.01)

    def test_cnot_aggregate_reference(self, params):
        report = schedule_duration(compile_cnot(), params)
        assert report.cnot_time_aggregate == pytest.approx(9.31e-5, rel=0.01)
        assert 1e-5 < report.cnot_time_aggregate < 1e-3  # order 1e-4

    def test_lifetime_margin(self, params):
        report = schedule_duration(compile_cnot(), params)
        assert report.cnot_over_lifetime < 0.01

    def test_bottom_up_sum_and_discrepancy_surfaced(self, params):
        report = schedule_duration(compile_cnot(), params)
        tau = entangle_duration(params)
        # three H quarters plus three R quarters at the four-atom rate, P free
        assert report.bottom_up_total == pytest.approx(6 * tau, rel=1e-12)
        assert report.discrepancy == pytest.approx(tau, rel=1e-9)

    def test_negative_detuning_gives_the_same_durations(self, params):
        # a negative delta used to give negative times, and the durations
        # experiment crashed taking log10 of the negative aggregate
        flipped = SystemParams(G=params.G, delta=-params.delta, n_max=params.n_max)
        assert schedule_duration(compile_cnot(), flipped) == schedule_duration(compile_cnot(), params)
        report = run_experiment(parse_config(f"delta = {-params.delta!r}\n", experiment="durations"))
        assert report.passed
        assert report.results["entangle_time_s"] == entangle_duration(params)

    def test_cnot_duration_is_the_schedule_aggregate(self, params):
        assert cnot_duration(params) == schedule_duration(compile_cnot(), params).cnot_time_aggregate

    @pytest.mark.parametrize("G,message", [
        (0.0, r"time .* at G = 0.0, delta = 1.0 is inf, not finite"),  # used to divide by zero
        (1e-200, "the pair rate"),                                   # G**2 underflows to 0
    ])
    def test_durations_without_a_finite_positive_time_rejected(self, G, message):
        params = SystemParams(G=G, delta=1.0, n_max=8)
        for duration in (entangle_duration, cnot_duration,
                         lambda p: schedule_duration(compile_cnot(), p)):
            with pytest.raises(ValueError, match=message):
                duration(params)
