"""Variational compilation of three-qubit gates into spin-chain evolutions.

The package finds coefficients of a fixed anisotropic Heisenberg chain whose
layered product-formula evolution implements a target gate, and provides
tools to study how the compiled gate degrades under coherent parameter
noise and amplitude damping.
"""

from .ansatz import AnsatzCircuit, apply_circuit, build_hva, circuit_unitary
from .cost import CostEvaluator
from .errors import (ConfigError, DimMismatch, InvalidDepth, InvalidQubitCount,
                     LengthMismatch, NegativeAmplitude, NotHermitian, NotUnitary,
                     NumericalFailure, OutOfRange, SpingateError, UnknownGate)
from .hamiltonian import (HamiltonianSpec, PauliString, assemble,
                          format_parameters, heisenberg_spec, parse_parameters,
                          wrap_angles)
from .linalg import hermitian_expm, hs_overlap, kron
from .noise import CoherentNoise, perturb, robustness_sweep
from .optimize import (InitScheme, OptimizationTrace, OptimizerConfig,
                       RestartSummary, lbfgs_minimize, multi_restart,
                       nelder_mead_minimize)
from .simulator import (KrausChannel, NoisyCircuitPlan, amplitude_damping,
                        evolve_density, hs_test_probability)
from .targets import TargetGate, elementary, fredkin, resolve_target, toffoli

__version__ = "0.1.0"

from .harness import (ExperimentConfig, RunRecord, load_config,  # noqa: E402
                      run_compile, run_coherent_noise_sweep, run_damping_sweep,
                      run_experiment, run_grad_stats, run_trotter_sweep)
