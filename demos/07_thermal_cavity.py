"""Pulse fidelity in a warm cavity.

The exchange rate depends on the photon number, Omega(n) = (4n+2) G^2/delta,
so a pulse timed against the vacuum rate over- or under-rotates in higher
Fock sectors. For a thermal cavity the sectors mix classically; the averaged
fidelity of the R pulse degrades smoothly with the mean photon number and
stays high while nbar is small.
"""

import numpy as np

from dfscavity.errors import fock_averaged_fidelity

area = 3 * np.pi / 4

print(f"{'nbar':>6s} {'averaged fidelity':>18s}")
for nbar in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
    print(f"{nbar:6.2f} {fock_averaged_fidelity(nbar, area):18.10f}")

print()
print("for this pulse area the sector overlap vanishes for odd n, giving the")
print("closed form (nbar+1)/(2 nbar+1); the table matches it:")
for nbar in (0.1, 0.5, 2.0):
    closed = (nbar + 1) / (2 * nbar + 1)
    print(f"  nbar {nbar:4.1f}: table {fock_averaged_fidelity(nbar, area):.8f}  "
          f"closed {closed:.8f}")
