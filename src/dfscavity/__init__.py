"""Four-atom decoherence-free-subspace cavity dynamics.

Library layers:

* hilbert  -- atomic states, composite index, parameters, matrix checks and generators
* model    -- full and effective Hamiltonians, second-order PT engine
* dynamics -- exact propagators and the closed-form pair-exchange map
* logical  -- the pair encoding of logical qubits and collective dephasing
* gates    -- H/P/R pulses, CNOT compiler, duration accounting
* bell_teleport -- Bell discrimination and the teleportation protocol
* errors   -- staggered-insertion and thermal-sector error models
* validate -- full-model vs effective-model cross-checks
* cli      -- experiment runner (`dfscavity <experiment> ...`)

Import each name from the module that defines it, for example
`from dfscavity.gates import compile_cnot`. The package itself imports no
layer and re-exports nothing, so `import dfscavity` loads this file alone;
the CLI loads `validate` only for the validate-effective experiment.
"""

__version__ = "0.1.0"
