"""Exact four-atom dynamics versus the pair-exchange effective picture.

The second-order engine applied to the full Hamiltonian does reproduce the
pair coupling (4n+2)G^2/delta between complementary configurations, but it
produces the SAME coupling between every pair of two-excitation
configurations (and on the diagonal): the operator on the six-state manifold
is Omega times the all-ones matrix, not the block pair-swap the effective
picture keeps. The consequences, measured here:

* starting from |egeg,0>, the exact |gege,0> population never exceeds 1/9
  (five of the six uniform-sum-orthogonal combinations are exactly dark);
* the population oscillates at the collective rate 6 Omega, so a frequency
  fit converges to 3 Omega, not Omega;
* the PT-derived operator tracks the exact populations ever better as
  delta/G grows, while the pair-swap picture does not.
"""

from dfscavity import SystemParams, compare_effective_models, forced_rabi_fit
from dfscavity.validate import effective_difference_entries

G = 1.0
ratios = (10.0, 20.0, 40.0)

print("difference between the PT-derived and pair-swap operators (n = 0):")
entries = effective_difference_entries(SystemParams(G=G, delta=10.0, n_max=8), n=0)
print(f"  {len(entries)} nonzero entries; examples:")
for row, col, value in entries[:4]:
    print(f"    <{row}|.|{col}> = {value.real:+.4f}  (in units of G^2/delta: "
          f"{value.real / (2 * G**2 / 10.0) * 2:.1f}/2)")

print()
print(f"{'delta/G':>8s} {'peak P(gege)':>13s} {'fit/Omega':>10s} {'fit/3Omega':>11s} "
      f"{'pop-infid pair-swap':>20s} {'pop-infid PT':>13s}")
for ratio in ratios:
    params = SystemParams(G=G, delta=ratio * G, n_max=8)
    run = forced_rabi_fit(params, n=0)
    comp = compare_effective_models(params, n=0)
    print(f"{ratio:8.0f} {run.peak_population:13.6f} "
          f"{run.omega_fit / run.omega_expected:10.4f} "
          f"{run.omega_fit / (3 * run.omega_expected):11.6f} "
          f"{comp.max_infidelity_pair_swap:20.4f} {comp.max_infidelity_derived:13.4f}")

print()
print("reading: the fit sits at ~3x the pair rate and converges there; the exact")
print("dynamics never transfers more than 1/9 of the population to |gege>; the")
print("PT operator's population error shrinks with detuning, the pair-swap one's")
print("does not. The pair-exchange layer above (gates, Bell, teleport) is the")
print("scheme's stated contract and is validated on its own terms; this demo")
print("and the validate-effective experiment quantify where the exact model departs.")
