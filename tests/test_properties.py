"""Property tests of the invariants: teleport branch probabilities and
fidelities over random broadcast inputs, and unitarity of every gate and of
exact propagators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dfscavity.bell_teleport import teleport
from dfscavity.dynamics import make_propagator
from dfscavity.gates import (
    compile_cnot,
    h_gate,
    p_gate,
    r_gate_atomic,
    sequence_unitary_atomic,
    sequence_unitary_logical,
)
from dfscavity.hilbert import UNITARY_ATOL, Operator, unitary_defect

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _unitary(m):
    return unitary_defect(m) < UNITARY_ATOL


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def teleport_inputs(draw):
    """theta (T, 1), delay (1, D) and dephase_phi None, scalar or (T, D)."""
    t, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    theta = draw(hnp.arrays(np.float64, (t, 1), elements=_floats(-10.0, 10.0)))
    delay = draw(hnp.arrays(np.float64, (1, d), elements=_floats(0.0, 20.0)))
    phi = draw(st.none() | _floats(-10.0, 10.0)
               | hnp.arrays(np.float64, (t, d), elements=_floats(-10.0, 10.0)))
    return theta, delay, phi, draw(_floats(0.1, 5.0))


class TestTeleportProperties:
    @PROPERTY
    @given(teleport_inputs())
    def test_dfs_probabilities_sum_to_one_and_fidelity_is_one(self, inputs):
        theta, delay, phi, splitting = inputs
        avg, report = teleport(theta, delay, "dfs", atom_splitting=splitting, dephase_phi=phi)
        shape = np.broadcast_shapes(theta.shape, delay.shape, np.shape(phi))
        assert avg.shape == shape
        assert np.all(np.abs(sum(b.probability for b in report.branches) - 1.0) < 1e-12)
        for branch in report.branches:
            assert np.all(np.abs(branch.fidelity - 1.0) < 1e-10)
        assert np.all(np.abs(avg - 1.0) < 1e-10)

    @PROPERTY
    @given(teleport_inputs())
    def test_bare_fidelity_is_cosine_of_total_phase(self, inputs):
        theta, delay, phi, splitting = inputs
        avg, report = teleport(theta, delay, "bare", atom_splitting=splitting, dephase_phi=phi)
        expected = np.cos((splitting * delay + (0.0 if phi is None else phi)) / 2) ** 2
        assert np.allclose(avg, np.broadcast_to(expected, avg.shape), rtol=0, atol=1e-12)
        assert np.all(np.abs(sum(b.probability for b in report.branches) - 1.0) < 1e-12)


class TestUnitarity:
    @settings(derandomize=True, deadline=None)
    @given(st.sampled_from([+1, -1]))
    def test_h_and_p_gates(self, sign):
        assert _unitary(h_gate())
        assert _unitary(p_gate(sign))

    @PROPERTY
    @given(_floats(-20.0, 20.0))
    def test_r_gate_atomic(self, area):
        assert _unitary(r_gate_atomic(area))

    def test_compiled_cnot(self):
        seq = compile_cnot()
        assert _unitary(sequence_unitary_logical(seq))
        assert _unitary(sequence_unitary_atomic(seq))

    @PROPERTY
    @given(st.integers(1, 16).flatmap(
        lambda n: hnp.arrays(np.complex128, (n, n), elements=st.complex_numbers(
            max_magnitude=10.0, allow_nan=False, allow_infinity=False))),
        _floats(-10.0, 10.0))
    def test_propagator_of_random_hermitian(self, m, t):
        h = Operator((m + m.conj().T) / 2)
        assert _unitary(make_propagator(h, t)[0])
