"""Complete Bell-state discrimination with a quarter-pi exchange pulse.

The Bell states here carry +-i phases: Phi+- = (|egeg> +- i|gege>)/sqrt2 and
Psi+- = (|egge> +- i|geeg>)/sqrt2. A pulse of area pi/4 maps each onto a
distinct product state, so reading out every atom individually identifies
all four outcomes (not just two of them).
"""

import numpy as np

from dfscavity.bell_teleport import BellLabel, bell_measure, enumerate_bell_branches, prepare_bell
from dfscavity.hilbert import StateVector

print("deterministic discrimination of the four Bell states:")
for label in BellLabel:
    observed, record = bell_measure(prepare_bell(label))
    print(f"  {label.value:4s} -> outcome {''.join(record.outcomes)} "
          f"-> labeled {observed.value:4s} (probability {record.probability:.12f})")

print()
print("a superposition splits between branches; sampling is seed-reproducible:")
sup = StateVector(
    (prepare_bell(BellLabel.PHI_PLUS).amplitudes
     + prepare_bell(BellLabel.PSI_PLUS).amplitudes) / np.sqrt(2), 0)
for branch in enumerate_bell_branches(sup):
    print(f"  branch {''.join(branch.outcomes)} ({branch.label.value}): "
          f"probability {branch.probability:.4f}")

counts = {}
n_shots = 2000
for seed in range(n_shots):
    label, _ = bell_measure(sup, seed=seed)
    counts[label.value] = counts.get(label.value, 0) + 1
print(f"  {n_shots} seeded shots:", dict(sorted(counts.items())))

print()
print("states outside the Bell span are flagged, never mislabeled:")
label, record = bell_measure(StateVector.basis_state("eegg"))
print(f"  input |eegg> -> outcome {''.join(record.outcomes)}, "
      f"is_bell={label is not None}, label={label}")
