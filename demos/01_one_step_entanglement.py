"""One-step four-atom entanglement in the pair-exchange picture.

Four atoms sharing one far-detuned cavity mode exchange excitation in
complementary pairs at the rate Omega(n) = (4n+2) G^2 / delta without ever
populating the cavity. A quarter-pi pulse area turns |egeg> into the
maximally entangled (|egeg> - i|gege>)/sqrt2 in a single step.
"""

import numpy as np

from dfscavity.dynamics import dfs_propagate
from dfscavity.gates import entangle_duration
from dfscavity.hilbert import StateVector, SystemParams
from dfscavity.model import effective_coupling

params = SystemParams(G=2 * np.pi * 47e3, delta=10 * 2 * np.pi * 47e3, n_max=8)
omega = effective_coupling(0, params).omega

print("coupling G          :", f"{params.G:.4e} rad/s")
print("detuning delta      :", f"{params.delta:.4e} rad/s")
print("exchange rate Omega :", f"{omega:.4e} rad/s  (vacuum sector)")
print("pulse time to max   :", f"{entangle_duration(params):.4e} s  (area pi/4)")
print()

psi = StateVector.basis_state("egeg")
for area in np.linspace(0, np.pi / 4, 6):
    out = dfs_propagate(psi, area)
    print(f"area {area:6.4f}: |egeg| amp {out.amplitude('egeg').real:+.4f}, "
          f"|gege| amp {out.amplitude('gege').imag:+.4f}i, "
          f"P(gege) = {out.probability('gege'):.4f}")

final = dfs_propagate(psi, np.pi / 4)
print()
print("state at area pi/4  :",
      f"({final.amplitude('egeg'):.4f})|egeg> + ({final.amplitude('gege'):.4f})|gege>")
print("norm                :", f"{final.norm():.12f}")
print()
print("caveat: this is the effective pair-exchange model; demo 06 measures how")
print("the exact Hamiltonian departs from it (exchange terms the pair picture drops).")
