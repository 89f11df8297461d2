"""The value records are NamedTuples: read-only, compared by value (and hashed
by value where every field is hashable), and still usable the way the library
uses them (dict keys, convention selection)."""

import numpy as np
import pytest

from dfscavity.bell_teleport import BellLabel, enumerate_bell_branches, prepare_bell, teleport
from dfscavity.cli import parse_config, run_experiment
from dfscavity.gates import (
    P_PHASE,
    CnotConvention,
    GateDescriptor,
    _gate_atomic,
    cnot_gate_list,
    compile_cnot,
    convention_candidates,
    schedule_duration,
    sequence_unitary_logical,
    verify_truth_table,
)
from dfscavity.hilbert import SystemParams
from dfscavity.model import effective_coupling
from dfscavity.validate import compare_effective_models

PARAMS = SystemParams(G=1.0, delta=10.0, n_max=8)

RECORDS = {
    "EffectiveCoupling": lambda: effective_coupling(0, PARAMS),
    "BellBranch": lambda: enumerate_bell_branches(prepare_bell(BellLabel.PHI_PLUS))[0],
    "TeleportBranch": lambda: teleport(0.3)[1].branches[0],
    "TeleportReport": lambda: teleport(0.3)[1],
    "GateDescriptor": lambda: cnot_gate_list()[0],
    "CnotConvention": lambda: convention_candidates()[0],
    "PulseSequence": compile_cnot,
    "TruthTableRow": lambda: verify_truth_table(sequence_unitary_logical(compile_cnot())).rows[0],
    "TruthTableReport": lambda: verify_truth_table(sequence_unitary_logical(compile_cnot())),
    "DurationReport": lambda: schedule_duration(compile_cnot(), PARAMS),
    "EffectiveModelComparison": lambda: compare_effective_models(PARAMS, 0),
    "ExperimentReport": lambda: run_experiment(parse_config("", "bell")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_attribute_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert isinstance(record, tuple)
    for attribute in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0)


def test_gate_descriptor_keys_the_gate_matrices():
    gates = cnot_gate_list()
    # the two P(3,4) entries, and an equal descriptor built anew, share one cached matrix
    shared = _gate_atomic(gates[1], +1)
    assert _gate_atomic(gates[3], +1) is shared
    assert _gate_atomic(GateDescriptor("P", (3, 4), P_PHASE), +1) is shared
    assert not shared.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 0
    other = _gate_atomic(GateDescriptor("P", (1, 2), P_PHASE), +1)
    assert other is not shared and not np.array_equal(other, shared)


def test_gates_that_read_no_sign_are_lifted_once(fresh_gate_cache):
    # H(1,2), H(3,4) and R read no P sign; P(3,4) and P_inv(3,4) are built once per sign
    assert run_experiment(parse_config("", experiment="cnot-verify")).passed
    assert _gate_atomic.cache_info().currsize == 7


def test_cnot_convention_equality_selects_the_convention():
    chosen = compile_cnot().convention
    assert [c for c in convention_candidates() if c == chosen] == [chosen]
    assert chosen == CnotConvention("listed_first_applied_first", +1)
    assert chosen != CnotConvention("listed_first_applied_first", -1)
    assert chosen != CnotConvention("listed_first_applied_last", +1)
