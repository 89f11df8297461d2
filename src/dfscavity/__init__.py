"""Four-atom decoherence-free-subspace cavity dynamics.

Library layers:

* hilbert  -- atomic states, composite index, parameters and read-only operators
* model    -- full and effective Hamiltonians, second-order PT engine
* dynamics -- exact propagators and the closed-form pair-exchange map
* logical  -- the pair encoding of logical qubits and collective dephasing
* gates    -- H/P/R pulses, CNOT compiler, duration accounting
* bell_teleport -- Bell discrimination and the teleportation protocol
* errors   -- staggered-insertion and thermal-sector error models
* validate -- full-model vs effective-model cross-checks
* cli      -- experiment runner (`dfscavity <experiment> ...`)
"""

__version__ = "0.1.0"

from .bell_teleport import (
    BellLabel,
    CORRECTION_TABLE,
    bell_measure,
    enumerate_bell_branches,
    prepare_bell,
    teleport,
)
from .dynamics import Propagator, dfs_propagate, evolve_exact, evolve_times, make_propagator
from .errors import (
    StaggerParams,
    fock_averaged_fidelity,
    stagger_sweep,
    staggered_fidelity,
    staggered_fidelity_closed_form,
)
from .gates import (
    CnotConvention,
    GateDescriptor,
    PulseSequence,
    compile_cnot,
    convention_search,
    entangle_duration,
    h_gate,
    p_gate,
    schedule_duration,
    sequence_unitary_atomic,
    sequence_unitary_logical,
    verify_truth_table,
)
from .hilbert import (
    Operator,
    StateVector,
    SystemParams,
    atomic_index,
    basis_index,
    config_labels,
)
from .logical import LogicalState, collective_dephase, collective_phases
from .model import (
    EffectiveCoupling,
    build_full_hamiltonian,
    build_h0,
    build_h_eff,
    build_hint,
    derive_second_order,
    derived_coupling,
    effective_coupling,
    two_excitation_manifold,
)
from .validate import (
    RabiFitError,
    ValidationRun,
    compare_effective_models,
    extract_rabi,
    forced_rabi_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
