"""Staggered-insertion error: one pair enters the cavity early.

If atoms 1 and 2 sit alone in the cavity for a lead time t1 before atoms 3
and 4 arrive, the pair evolves at the two-atom rate lambda = Omega/2 and the
intended pulse (here the R pulse, area 3pi/4) is distorted. The amplitude
fidelity against the ideal output has the closed form
cos(lambda t1) cos(Omega t1), cross-checked against the direct inner product.
"""

import numpy as np

from dfscavity.cli import parse_config, run_experiment
from dfscavity.errors import StaggerParams, staggered_fidelity, staggered_fidelity_closed_form, stagger_sweep

area = 3 * np.pi / 4

print("lead-time sweep (fractions of the total pulse time):")
print(f"{'t1/t':>8s} {'amplitude fidelity':>20s} {'squared':>10s}")
rows = stagger_sweep(np.linspace(0.0, 0.25, 11), pulse_area=area)
for frac, amp, sq in rows:
    print(f"{frac:8.3f} {amp:20.12f} {sq:10.6f}")

p = StaggerParams(t=area, t1=0.02 * area)
print()
print(f"reference point t1 = 0.02 t:")
print(f"  inner product : {staggered_fidelity(p):.12f}")
print(f"  closed form   : {staggered_fidelity_closed_form(p):.12f}")
print("  the 0.98 operating bound is met with margin; the model gives ~0.9986.")

print()
print("CSV rendering used by the stagger-sweep experiment:")
config = parse_config("t1_fractions = 0.0, 0.025, 0.05, 0.075\n", "stagger-sweep")
print(run_experiment(config).to_csv(), end="")
