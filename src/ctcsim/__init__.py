"""Exact simulator for programs that loop a register through time.

A program's CTC register must be fed a state the program maps back to
itself.  This package finds those states exactly: rational circuit
elaboration, a projector onto the fixed space of the induced channel,
cycle and stationary analysis for classical and stochastic programs, and
accept/reject/ambiguous verdicts under the all-consistent-states rule.

The projector is built from the right and left kernels V, W of K - I as
R = V (W^dagger V)^(-1) W^dagger.  Eigenvalue 1 of a channel is
semisimple, so this is the same matrix as the paper's resolvent limit
lim_{z -> 0} z (I - (1 - z) K)^(-1).  The literal limit is kept only as a
test oracle in ctcsim.fixpoint (symbolic_resolvent, which interpolates all
entries through one Lagrange basis, and projector_limit); it is not
exported here.
"""

from .errors import ContractViolationError, ResourceLimitError
from .circuits import (
    BUILTIN_GATES,
    ClassicalAssignment,
    ClassicalCircuit,
    CTCProgram,
    FunctionTable,
    GateApplication,
    QuantumCircuit,
    QuantumGate,
    StochasticCircuit,
    StochasticMatrix,
    circuit_unitary,
    classical_table,
)
from .dsl import ParseError, ValidationReport, parse_program, program_to_text, validate_program
from .superop import (
    DensityMatrix,
    KrausCompletenessWarning,
    Superoperator,
    choi_matrix,
    kraus_to_natural,
    program_to_natural,
    unvec,
    vec,
)
from .fixpoint import (
    FixedPointProjector,
    cesaro_oracle,
    compute_fixed_point,
    fixed_point_projector,
    verify_fixed_point,
)
from .semantics import (
    ClassicalDistribution,
    EpsilonReport,
    MachineSpec,
    StationaryResult,
    Verdict,
    accept_probability,
    classical_decide,
    cycle_fixed_point,
    enumerate_cycles,
    epsilon_fixed_point_check,
    gadget_narrow_np,
    gadget_np_search,
    gadget_pspace,
    parse_machine,
    quantum_decide,
    stationary_distribution,
    stochastic_decide,
)
from .gallery import QUANTUM_DEMOS, demo_source, machine_source

__version__ = "0.1.0"

__all__ = [
    "ContractViolationError",
    "ResourceLimitError",
    "BUILTIN_GATES",
    "ClassicalAssignment",
    "ClassicalCircuit",
    "CTCProgram",
    "FunctionTable",
    "GateApplication",
    "QuantumCircuit",
    "QuantumGate",
    "StochasticCircuit",
    "StochasticMatrix",
    "circuit_unitary",
    "classical_table",
    "ParseError",
    "ValidationReport",
    "parse_program",
    "program_to_text",
    "validate_program",
    "DensityMatrix",
    "KrausCompletenessWarning",
    "Superoperator",
    "choi_matrix",
    "kraus_to_natural",
    "program_to_natural",
    "unvec",
    "vec",
    "FixedPointProjector",
    "cesaro_oracle",
    "compute_fixed_point",
    "fixed_point_projector",
    "verify_fixed_point",
    "ClassicalDistribution",
    "EpsilonReport",
    "MachineSpec",
    "StationaryResult",
    "Verdict",
    "accept_probability",
    "classical_decide",
    "cycle_fixed_point",
    "enumerate_cycles",
    "epsilon_fixed_point_check",
    "gadget_narrow_np",
    "gadget_np_search",
    "gadget_pspace",
    "parse_machine",
    "quantum_decide",
    "stationary_distribution",
    "stochastic_decide",
    "QUANTUM_DEMOS",
    "demo_source",
    "machine_source",
    "__version__",
]
