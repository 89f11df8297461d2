"""Workload inputs of the dfscavity benchmark.

A workload is a fixed list of calls that one closed-loop client makes one
after another. Every input is a config text in the package's `key = value`
format, generated from the workload seed alone, so the same seed always gives
the same inputs. This module imports nothing from the package, so the
benchmark's parent process and its tests stay light.
"""

from __future__ import annotations

from dataclasses import dataclass

EXPERIMENTS = (
    "entangle", "cnot-verify", "bell", "teleport",
    "stagger-sweep", "thermal", "validate-effective", "durations",
)

# Seed at which the golden reports were captured; at any other seed only the
# seed-independent fields are compared with them.
GOLDEN_SEED = 0

WORKLOADS = ("cli-defaults", "exact-scaled", "protocol-sweeps")


@dataclass(frozen=True)
class Call:
    """One call of a workload.

    `api` names the entry point: "cli" (a `python -m dfscavity.cli` process,
    or `run_experiment` on the same config when traced in-process),
    "run_experiment" or "forced_rabi_fit". `config_text` is parsed with
    `dfscavity.cli.parse_config` for `experiment`.
    """

    label: str
    api: str
    experiment: str
    config_text: str


def calls(workload: str, seed: int) -> tuple[Call, ...]:
    """The calls of one pass of `workload` at `seed`."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    tag = f"seed = {seed}\n"
    if workload == "cli-defaults":
        return tuple(Call(exp, "cli", exp, tag) for exp in EXPERIMENTS)
    if workload == "exact-scaled":
        # the cost does not depend on the values, so the seed is only echoed
        return (
            Call("validate-effective", "run_experiment", "validate-effective",
                 "n_max = 16\n" + tag),
            Call("forced_rabi_fit", "forced_rabi_fit", "validate-effective",
                 "n_max = 32\ndelta_over_G = 20\n" + tag),
        )
    if workload == "protocol-sweeps":
        # the seed drives the teleport dephasing draw and its sampled branch
        return (
            Call("teleport", "run_experiment", "teleport",
                 "theta_points = 60\ndelay_points = 60\n" + tag),
            Call("thermal", "run_experiment", "thermal", "nbar_max = 10\n" + tag),
            Call("stagger-sweep", "run_experiment", "stagger-sweep", tag),
            Call("cnot-verify", "run_experiment", "cnot-verify", tag),
            Call("bell", "run_experiment", "bell", tag),
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
