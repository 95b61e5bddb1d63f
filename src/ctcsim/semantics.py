"""Verdict semantics for programs on a causally consistent register.

A program does not run forward in time: the CTC register must be handed a
state that the program maps back to itself.  Deciding a program therefore
means finding the consistent states, pushing each through the circuit,
and reading the designated output bit.

Classical programs induce a function on the CTC bit strings; consistent
distributions are exactly the mixtures of uniform-on-cycle distributions,
so the all-states quantifier is checked by enumerating every cycle.
Stochastic programs induce a column-stochastic chain; the consistent set
is the convex hull of the per-recurrent-class stationary distributions.
terminal_classes, an iterative Tarjan search, finds the terminal strongly
connected components of a graph: on a chain's support graph they are the
recurrent classes, and on a function's graph, where every node has one
successor, they are the cycles that enumerate_cycles lists.
Quantum programs go through the exact fixed-point projector, with the
range of acceptance probabilities over the whole fixed space read off the
eigenvalues of an exact Hermitian acceptance operator.  Those float
eigenvalues, like every other float diagnostic, come from numpy, which is
imported inside the functions that use it: a classical or stochastic
decision never loads it.

Quantum and stochastic verdicts use the 2/3 versus 1/3 acceptance
thresholds; a classical verdict needs certainty, every cycle outputting 1
to accept or 0 to reject.  `ambiguous` is a first-class outcome whenever
different consistent states disagree.  Every verdict checks the
quantifier over all consistent states, so every verdict is certified.
A separate field records the comparison of the canonical acceptance
probability against 1/2 for promise-style use.

The gadget generators build the three classic reductions: a search loop
that only closes on a solution, a clocked machine whose halting answer is
forced around the loop, and a one-bit chain whose tiny reset probability
amplifies a single witness among exponentially many candidates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import circuits
from .circuits import (
    ClassicalCircuit,
    CTCProgram,
    FunctionTable,
    StochasticCircuit,
    StochasticMatrix,
    circuit_unitary,  # noqa: F401  perfbench/tracing.py TARGETS wrap it under this name
    classical_table,
)
from .errors import ContractViolationError, ResourceLimitError
from .exact.matrices import Matrix, _grid_kernel, _grid_psd, _int_grids
from .exact.matrices import nullspace  # noqa: F401  perfbench/tracing.py wraps it under this name
from .exact.scalars import Rational, ZERO
from .fixpoint import (
    FixedPointProjector,
    check_dim_cap,
    compute_fixed_point,
    fixed_point_projector,
    to_complex_array,
)
from .superop import DensityMatrix, Superoperator, induced_kraus, program_to_natural, unvec, vec

__all__ = [
    "ClassicalDistribution",
    "Verdict",
    "StationaryResult",
    "EpsilonReport",
    "MachineSpec",
    "cycle_fixed_point",
    "enumerate_cycles",
    "classical_decide",
    "terminal_classes",
    "stationary_distribution",
    "stochastic_decide",
    "accept_probability",
    "acceptance_operator",
    "program_projector",
    "quantum_decide",
    "check_np_search_bits",
    "gadget_np_search",
    "parse_machine",
    "gadget_pspace",
    "check_narrow_np_bits",
    "gadget_narrow_np",
    "epsilon_fixed_point_check",
    "ACCEPT_THRESHOLD",
    "REJECT_THRESHOLD",
]

ACCEPT_THRESHOLD = Rational(2, 3)
REJECT_THRESHOLD = Rational(1, 3)


@dataclass(frozen=True)
class ClassicalDistribution:
    """Exact probability vector over p-bit strings."""

    bits: int
    probabilities: Tuple[Rational, ...]

    def __post_init__(self):
        if len(self.probabilities) != 1 << self.bits:
            raise ValueError(
                f"need {1 << self.bits} probabilities, got {len(self.probabilities)}"
            )
        total = Rational(0)
        for p in self.probabilities:
            if not p:
                continue  # an exact zero is in range and adds nothing
            if p < 0:
                raise ValueError(f"negative probability {p}")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probabilities) if p > 0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of deciding a program under the all-consistent-states rule.

    exact_accept_probability is taken at the canonical consistent state
    (all-zeros seed); probability_range is the float [min, max] over every
    consistent state, and certified records that the quantifier was
    checked over all of them, as every decision procedure does.
    """

    decision: str
    exact_accept_probability: Rational
    probability_range: Tuple[float, float]
    witness: object
    half_comparison: str
    certified: bool


@dataclass(frozen=True)
class StationaryResult:
    """Canonical stationary distribution plus the per-class breakdown."""

    distribution: ClassicalDistribution
    multiple: bool
    classes: Tuple[ClassicalDistribution, ...]


@dataclass(frozen=True)
class EpsilonReport:
    """Distance between a state and its image, compared against epsilon."""

    ok: bool
    exact_distance: Optional[Rational]
    float_distance: Optional[float]
    exact_upper_bound: Optional[Rational]


def _half_comparison(p: Rational) -> str:
    half = Rational(1, 2)
    if p > half:
        return "greater"
    if p < half:
        return "less"
    return "equal"


# -- classical ------------------------------------------------------------

def cycle_fixed_point(table: FunctionTable) -> Tuple[ClassicalDistribution, Tuple[int, ...]]:
    """Canonical consistent distribution of a function on bit strings.

    The walk from the all-zeros string repeats a state within 2^p steps:
    it enters a cycle after t steps and goes round it with period L.  The
    cycle is listed from f^(2^p)(0), the walk's position after 2^p steps,
    which is step t + (2^p - t) mod L.  The result is uniform on that
    cycle, which the function permutes, so pushing the distribution
    through the function returns it unchanged.
    """
    step: Dict[int, int] = {}  # state -> first step at which the walk is there
    path: List[int] = []
    y = 0
    while y not in step:
        step[y] = len(path)
        path.append(y)
        y = table.apply(y)
    t = step[y]
    start = t + ((1 << table.bits) - t) % (len(path) - t)
    cycle = path[start:] + path[t:start]
    w = Rational(1, len(cycle))
    probs = [Rational(0)] * (1 << table.bits)
    for y in cycle:
        probs[y] = w
    return ClassicalDistribution(table.bits, tuple(probs)), tuple(cycle)


def enumerate_cycles(table: FunctionTable) -> List[Tuple[int, ...]]:
    """All cycles of the functional graph, each starting at its smallest
    element, listed in increasing order of that element: the graph's
    terminal classes, each walked in map order from its first member."""
    cycles = []
    for members in terminal_classes([[y] for y in table.outputs]):
        cycle = [members[0]]
        for _ in members[1:]:
            cycle.append(table.apply(cycle[-1]))
        cycles.append(tuple(cycle))
    return cycles


def classical_decide(
    program: CTCProgram, cr_fixings: Optional[Dict[int, int]] = None
) -> Verdict:
    """Decide a classical program under the all-consistent-distributions
    quantifier.

    The canonical acceptance probability comes from the cycle reached
    from the all-zeros string.  Every cycle is enumerated, in O(2^p)
    steps against the 2^(p+qc) of the table, so every verdict is
    certified: accept means every consistent distribution outputs 1 with
    certainty, reject means 0 with certainty, anything else is
    ambiguous.  cr_fixings pins chosen input bits of the
    causality-respecting register (default all zeros).
    """
    if program.kind != "classical":
        raise ValueError("classical_decide needs a classical program")
    if program.output_bit is None:
        raise ValueError("program has no designated output bit")
    circuit: ClassicalCircuit = program.circuit
    p, qc = circuit.ctc_bits, circuit.cr_bits
    full, _ = classical_table(circuit)
    z = 0
    if cr_fixings:
        for idx, bit in cr_fixings.items():
            if not 0 <= idx < qc:
                raise ValueError(f"cr index {idx} out of range")
            if bit not in (0, 1):
                raise ValueError(f"bit value {bit!r} must be 0 or 1")
            z |= bit << (qc - 1 - idx)
    induced = FunctionTable(
        p, tuple(full.outputs[(y << qc) | z] >> qc for y in range(1 << p))
    )

    out_pos = qc - 1 - program.output_bit

    def ones(cyc: Sequence[int]) -> int:
        return sum((full.outputs[(y << qc) | z] >> out_pos) & 1 for y in cyc)

    dist, cycle = cycle_fixed_point(induced)
    p_acc = Rational(ones(cycle), len(cycle))
    # each cycle's share is ones / length; compare the shares as integer
    # pairs by cross-multiplying, and build a Rational only for the extremes
    lo = hi = None
    for c in enumerate_cycles(induced):
        o, n = ones(c), len(c)
        if lo is None or o * lo[1] < lo[0] * n:
            lo = (o, n)
        if hi is None or o * hi[1] > hi[0] * n:
            hi = (o, n)
    lo, hi = Rational(*lo), Rational(*hi)
    decision = "accept" if lo == 1 else "reject" if hi == 0 else "ambiguous"
    return Verdict(
        decision=decision,
        exact_accept_probability=p_acc,
        probability_range=(float(lo), float(hi)),
        witness=dist,
        half_comparison=_half_comparison(p_acc),
        certified=True,
    )


# -- stochastic -----------------------------------------------------------

def terminal_classes(succ: Sequence[Sequence[int]]) -> List[List[int]]:
    """Terminal strongly connected components of a directed graph.

    succ[v] lists the successors of node v.  A component is terminal when
    no edge leaves it; for the support graph of a chain these are the
    recurrent classes.  Tarjan's algorithm with an explicit stack, so deep
    graphs do not hit the recursion limit.  It closes a component only
    after every component reachable from it, so whether an edge leaves
    can be read off the component labels already assigned.  Returns the
    member lists sorted, each sorted.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    stack: List[int] = []
    classes = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, 0))
                elif label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]  # w is still on the stack
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                members = []
                while not members or members[-1] != v:
                    members.append(stack.pop())
                    label[members[-1]] = v
                if all(label[w] == v for m in members for w in succ[m]):
                    classes.append(sorted(members))
    return sorted(classes)


def stationary_distribution(chain: StochasticMatrix) -> StationaryResult:
    """Every stationary distribution of a finite chain, exactly.

    The recurrent classes are the terminal strongly connected components
    of the support graph; each carries a unique stationary distribution,
    and the stationary set is their convex hull.  A class's block P_cc is
    cleared to the integer grid D (P_cc - I), D the lcm of the block's
    denominators, and _grid_kernel's one integer column v is normalised
    once, pi_i = v_i / sum(v).  The canonical representative averages the
    classes, which for the identity chain gives the uniform distribution.
    """
    defects = chain.column_defects()
    if defects:
        raise ValueError(f"matrix is not column-stochastic: {defects[0]}")
    dim = chain.dim
    bits = dim.bit_length() - 1
    if 1 << bits != dim:
        raise ValueError(f"chain dimension {dim} is not a power of two")
    entries = chain.matrix.entries
    # column j holds the moves out of state j; validated above, so a
    # nonzero entry is positive
    succ = [
        [i for i, e in enumerate(entries[j::dim]) if e.re] for j in range(dim)
    ]
    member_lists = terminal_classes(succ)
    per_class = []
    for members in member_lists:
        k = len(members)
        block = Matrix(k, k, (entries[i * dim + j] for i in members for j in members))
        grid, imag, den = _int_grids(block)
        for i in range(k):
            grid[i][i] -= den
        basis = _grid_kernel(grid, imag, k)[1]
        if len(basis) != 1:
            raise ContractViolationError(
                f"recurrent class {members} has stationary dimension {len(basis)}"
            )
        vals, imag = basis[0]
        if any(imag):
            raise ContractViolationError("stationary solve left the reals")
        total = sum(vals)
        if total == 0:
            raise ContractViolationError("stationary solve returned a vector that sums to zero")
        pi = [Rational(v, total) for v in vals]
        if any(v < 0 for v in pi):
            raise ContractViolationError("stationary solve produced negative mass")
        probs = [Rational(0)] * dim
        for m, v in zip(members, pi):
            probs[m] = v
        per_class.append(ClassicalDistribution(bits, tuple(probs)))
    share = Rational(1, len(per_class))
    avg = [Rational(0)] * dim
    for cls in per_class:
        for i, v in enumerate(cls.probabilities):
            avg[i] += v * share
    return StationaryResult(
        distribution=ClassicalDistribution(bits, tuple(avg)),
        multiple=len(per_class) > 1,
        classes=tuple(per_class),
    )


def stochastic_decide(program: CTCProgram) -> Verdict:
    """Decide a stochastic program over all of its stationary states."""
    if program.kind != "stochastic":
        raise ValueError("stochastic_decide needs a stochastic program")
    if program.output_bit is None:
        raise ValueError("program has no designated output bit")
    circuit: StochasticCircuit = program.circuit
    res = stationary_distribution(circuit.chain)
    accepting = circuit.accepting_states()

    def accept_mass(dist: ClassicalDistribution) -> Rational:
        # states outside the support carry an exact zero: skip them
        return sum(
            (p for x, p in enumerate(dist.probabilities) if x in accepting and p),
            Rational(0),
        )

    p_acc = accept_mass(res.distribution)
    per = [accept_mass(c) for c in res.classes]
    lo, hi = min(per), max(per)
    if lo >= ACCEPT_THRESHOLD:
        decision = "accept"
    elif hi <= REJECT_THRESHOLD:
        decision = "reject"
    else:
        decision = "ambiguous"
    return Verdict(
        decision=decision,
        exact_accept_probability=p_acc,
        probability_range=(float(lo), float(hi)),
        witness=res.distribution,
        half_comparison=_half_comparison(p_acc),
        certified=True,
    )


# -- quantum --------------------------------------------------------------

def _accept_operator(program: CTCProgram) -> Matrix:
    """POVM element A = sum of A_y^dagger A_y over the Kraus operators
    whose ancilla readout y has the output bit set, so that the acceptance
    probability at CTC state rho is trace(A rho).  Built once and kept on
    the (frozen) program, as circuit_isometry keeps V on its circuit."""
    a = program.__dict__.get("_accept")
    if a is None:
        pos = program.circuit.cr_qubits - 1 - program.output_bit
        kraus = induced_kraus(program)
        a = Matrix.zeros(kraus[0].rows, kraus[0].cols)
        for y, a_y in enumerate(kraus):
            if (y >> pos) & 1:
                a = a + a_y.dagger() @ a_y
        program.__dict__["_accept"] = a
    return a


def accept_probability(program: CTCProgram, rho: DensityMatrix) -> Rational:
    """Exact probability that the designated output bit reads 1 when the
    CTC register is fed rho and the ancilla starts at all zeros."""
    if program.kind != "quantum":
        raise ValueError("accept_probability needs a quantum program")
    if program.output_bit is None:
        raise ValueError("program has no designated output bit")
    q = program.circuit.ctc_qubits
    if rho.dim != 1 << q:
        raise ValueError(f"state has dimension {rho.dim}, circuit wants {1 << q}")
    a = _accept_operator(program)
    # trace(A rho) = sum_ij A[i, j] rho[j, i]
    total = sum(
        (x * y for x, y in zip(a.entries, rho.matrix.transpose().entries)), ZERO
    )
    if total.im:
        raise ContractViolationError("acceptance probability left the reals")
    return total.re


def acceptance_operator(program: CTCProgram, proj: FixedPointProjector) -> Matrix:
    """The exact Hermitian operator H with trace(H sigma) equal to the
    acceptance probability of the fixed point grown from seed sigma.

    With A the acceptance POVM element of the program's Kraus family,
    trace(A R(sigma)) = trace(H sigma) for H = (R^T applied to A^T)^T:
    the adjoint of the projector moves A onto the seed side.
    """
    n = 1 << program.circuit.ctc_qubits
    a = _accept_operator(program)
    h = unvec(proj.r_matrix.transpose() @ vec(a.transpose()), n).transpose()
    if h != h.dagger():
        raise ContractViolationError("acceptance operator is not Hermitian")
    return h


def program_projector(program: CTCProgram, allow_large: bool = False) -> FixedPointProjector:
    """Certified fixed-point projector of a quantum program's channel.

    The size cap is checked on the number of looped qubits first, so an
    oversized program is refused before its natural matrix, with 16**q
    entries, is built.  The channel is the projector's source.
    """
    q = program.circuit.ctc_qubits
    if q <= circuits.QUBIT_CAP:  # past it, circuit_isometry refuses at once
        check_dim_cap(1 << (2 * q), allow_large)
    phi = program_to_natural(program)
    return fixed_point_projector(phi, allow_large=allow_large)


def _beyond(grid, t: Rational, sign: int) -> bool:
    """Whether sign * (H - t I) is PSD, given H's cleared grid (re, im, D):
    the test runs on sign * (d_t D H - n_t D I), where t = n_t / d_t."""
    gr, gi, den = grid
    nt, dt = sign * int(t.numerator), sign * int(t.denominator)
    return bool(_grid_psd(
        [[dt * x - (nt * den if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(gr)],
        [[dt * y for y in row] for row in gi],
    ))


def quantum_decide(program: CTCProgram, allow_large: bool = False) -> Verdict:
    """Decide a quantum program over its entire fixed-point set.

    The canonical fixed point is grown from the all-zeros seed and its
    acceptance probability is exact.  Because every fixed point is the
    image of some seed under the projector, the acceptance probabilities
    over all fixed points form the numerical range of the acceptance
    operator H on density matrices, which is exactly [lambda_min,
    lambda_max].  The thresholds are checked exactly: accept needs
    H - (2/3)I to be positive semidefinite, reject needs (1/3)I - H to be.
    The canonical probability must equal H[0][0] exactly.  The eigenvalues
    are evaluated in floats only for the reported range.
    """
    if program.kind != "quantum":
        raise ValueError("quantum_decide needs a quantum program")
    if program.output_bit is None:
        raise ValueError("program has no designated output bit")
    proj = program_projector(program, allow_large=allow_large)
    n = proj.source.input_dim
    rho = compute_fixed_point(proj, DensityMatrix.basis_state(n, 0))
    p_acc = accept_probability(program, rho)
    h = acceptance_operator(program, proj)
    # the seed is |0><0|, so p_acc must be exactly H[0][0]; this ties
    # accept_probability to acceptance_operator
    if p_acc != h.entry(0, 0):
        raise ContractViolationError(
            f"canonical acceptance probability {p_acc} differs from the "
            f"acceptance operator's entry {h.entry(0, 0)}"
        )
    import numpy as np  # float diagnostics only; kept off the import path

    evals = np.linalg.eigvalsh(to_complex_array(h))
    lo, hi = float(evals[0]), float(evals[-1])
    grid = _int_grids(h)
    # each p_acc test is a necessary condition that skips the exact check
    # when it fails
    if p_acc >= ACCEPT_THRESHOLD and _beyond(grid, ACCEPT_THRESHOLD, 1):
        decision = "accept"
    elif p_acc <= REJECT_THRESHOLD and _beyond(grid, REJECT_THRESHOLD, -1):
        decision = "reject"
    else:
        decision = "ambiguous"
    return Verdict(
        decision=decision,
        exact_accept_probability=p_acc,
        probability_range=(lo, hi),
        witness=rho,
        half_comparison=_half_comparison(p_acc),
        certified=True,
    )


# -- gadget generators ----------------------------------------------------

def check_np_search_bits(n: int) -> None:
    """Refuse an np-search width before anything builds its 2^n predicate."""
    if n < 1:
        raise ValueError("need at least one bit")
    if n + 1 > circuits.BIT_CAP:
        raise ResourceLimitError(f"{n} bits exceeds the cap of {circuits.BIT_CAP - 1}")


def gadget_np_search(n: int, solutions: Sequence[bool]) -> CTCProgram:
    """Search loop on n bits: solutions stay put, everything else steps to
    the next string (wrapping), and the output bit reports whether the
    final content is a solution.

    Consistency does the searching: the only cycles are the solution
    loops when any exist, or the full increment cycle (all outputs 0)
    when none do.
    """
    check_np_search_bits(n)
    size = 1 << n
    if len(solutions) != size:
        raise ValueError(f"need {size} predicate entries, got {len(solutions)}")
    outputs = []
    for v in range(size << 1):
        x = v >> 1
        nxt = x if solutions[x] else (x + 1) % size
        outputs.append((nxt << 1) | (1 if solutions[nxt] else 0))
    circuit = ClassicalCircuit(n, 1, (), FunctionTable(n + 1, tuple(outputs)))
    return CTCProgram("classical", circuit, 0)


@dataclass(frozen=True)
class MachineSpec:
    """A clocked machine as an explicit configuration graph.

    names is indexed by configuration code; successors[i] is None for
    halting configurations.  Every configuration must reach a halting one
    (the clock guarantees that for real machines; here it is validated).
    """

    names: Tuple[str, ...]
    start: int
    successors: Tuple[Optional[int], ...]
    accepting: frozenset
    rejecting: frozenset

    def __post_init__(self):
        count = len(self.names)
        if not count:
            raise ValueError("machine has no configurations")
        if not 0 <= self.start < count:
            raise ValueError("start configuration out of range")
        if len(self.successors) != count:
            raise ValueError("successor list length mismatch")
        if self.accepting & self.rejecting:
            both = sorted(self.accepting & self.rejecting)[0]
            raise ValueError(f"configuration {self.names[both]} both accepts and rejects")
        for i, s in enumerate(self.successors):
            halting = i in self.accepting or i in self.rejecting
            if halting:
                continue
            if s is None:
                raise ValueError(f"non-halting configuration {self.names[i]} has no successor")
            if not 0 <= s < count:
                raise ValueError(f"successor of {self.names[i]} out of range")
        # one walk per configuration not yet known to halt, stopping at the
        # first known one, so every successor is read once
        halts = [self._is_halting(i) for i in range(count)]
        for i in range(count):
            path = set()
            j = i
            while not halts[j]:
                if j in path:
                    raise ValueError(
                        f"machine never halts from {self.names[i]} (loops at "
                        f"{self.names[j]})"
                    )
                path.add(j)
                j = self.successors[j]
            for j in path:
                halts[j] = True

    def _is_halting(self, i: int) -> bool:
        return i in self.accepting or i in self.rejecting

    def _run_from(self, i: int) -> Tuple[Tuple[int, ...], int]:
        """Configurations visited from i through halting, plus the answer."""
        path = [i]
        seen = {i}
        while not self._is_halting(path[-1]):
            nxt = self.successors[path[-1]]
            if nxt in seen:
                raise ValueError(
                    f"machine never halts from {self.names[i]} (loops at "
                    f"{self.names[nxt]})"
                )
            path.append(nxt)
            seen.add(nxt)
        return tuple(path), 1 if path[-1] in self.accepting else 0

    def canonical_run(self) -> Tuple[Tuple[int, ...], int]:
        return self._run_from(self.start)


def parse_machine(text: str) -> MachineSpec:
    """Machine files: `start <name>`, `config <name> -> <name>`,
    `accept <name>`, `reject <name>`; # comments allowed."""
    names: List[str] = []
    index: Dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    start: Optional[int] = None
    succ: Dict[int, int] = {}
    accepting = set()
    rejecting = set()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "start" and len(parts) == 2:
            if start is not None:
                raise ValueError(f"line {no}: duplicate start line")
            start = intern(parts[1])
        elif parts[0] == "config" and len(parts) == 4 and parts[2] == "->":
            src = intern(parts[1])
            if src in succ:
                raise ValueError(f"line {no}: duplicate successor for {parts[1]}")
            succ[src] = intern(parts[3])
        elif parts[0] in ("accept", "reject") and len(parts) == 2:
            (accepting if parts[0] == "accept" else rejecting).add(intern(parts[1]))
        else:
            raise ValueError(f"line {no}: cannot parse machine line {line!r}")
    if start is None:
        raise ValueError("machine file has no start line")
    successors = tuple(succ.get(i) for i in range(len(names)))
    return MachineSpec(
        tuple(names), start, successors, frozenset(accepting), frozenset(rejecting)
    )


def gadget_pspace(machine: MachineSpec) -> CTCProgram:
    """Force a machine's halting answer around the loop.

    CTC contents pair a configuration code with a control bit (bit 0).
    Non-halting configurations advance and keep the bit; halting ones
    restart at the start configuration with the bit rewritten to the
    answer; codes above the configuration count drain to the start.  The
    only cycle left is the canonical run carrying the true answer, and
    the output bit reads the control bit.
    """
    count = len(machine.names)
    if count > 1 << (circuits.BIT_CAP - 1):
        raise ResourceLimitError(f"{count} configurations exceeds the bit cap")
    p_cfg = max(1, (count - 1).bit_length())
    p = p_cfg + 1
    outputs = []
    for v in range(1 << (p + 1)):
        y = v >> 1
        m, b = y >> 1, y & 1
        if m >= count:
            y2 = (machine.start << 1) | b
        elif m in machine.accepting:
            y2 = (machine.start << 1) | 1
        elif m in machine.rejecting:
            y2 = (machine.start << 1) | 0
        else:
            y2 = (machine.successors[m] << 1) | b
        outputs.append((y2 << 1) | b)
    circuit = ClassicalCircuit(p, 1, (), FunctionTable(p + 1, tuple(outputs)))
    return CTCProgram("classical", circuit, 0)


def check_narrow_np_bits(n: int) -> None:
    """Refuse a narrow-NP width before anything builds its 2^n witness table."""
    if n < 1 or n > 20:
        raise ValueError("n must be between 1 and 20")


def gadget_narrow_np(n: int, witnesses: Sequence[bool], eps: Rational) -> CTCProgram:
    """One-bit chain that amplifies any witness among 2^n candidates.

    Each round guesses a candidate uniformly; with probability eps the
    bit resets to 0, otherwise a guessed witness forces it to 1 and a
    non-witness leaves it alone.  Marginalizing the guess leaves a 2x2
    chain whose stationary state puts mass pw(1-eps)/(eps + pw(1-eps)) on
    1, where pw is the witness density, so a single witness beats any
    eps well below 2^-n while no witness pins the bit to 0.
    """
    check_narrow_np_bits(n)
    size = 1 << n
    if len(witnesses) != size:
        raise ValueError(f"need {size} witness entries, got {len(witnesses)}")
    eps = Rational(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be strictly between 0 and 1")
    if eps >= Rational(1, size):
        warnings.warn(
            f"eps = {eps} is not below 2^-{n}; a single witness may fail to "
            f"dominate the reset",
            RuntimeWarning,
            stacklevel=2,
        )
    pw = Rational(sum(1 for w in witnesses if w), size)
    stay = 1 - eps
    chain = StochasticMatrix(
        2,
        Matrix.from_rows(
            [
                [1 - pw * stay, eps],
                [pw * stay, stay],
            ]
        ),
    )
    return CTCProgram("stochastic", StochasticCircuit(1, chain, ("1",)), 0)


# -- epsilon-fixed-point analysis -----------------------------------------

def epsilon_fixed_point_check(channel, state, eps) -> EpsilonReport:
    """Is the state within eps of its image, in half-L1 or trace distance?

    Classical pairs (StochasticMatrix, ClassicalDistribution) get an
    exact rational distance.  Quantum pairs (Superoperator,
    DensityMatrix) get a float trace distance (singular values, 1e-9
    tolerance) plus an exact entrywise half-L1 upper bound, since the
    trace norm never exceeds the entrywise absolute sum.
    """
    eps = Rational(eps)
    if isinstance(channel, StochasticMatrix) and isinstance(state, ClassicalDistribution):
        if channel.dim != len(state.probabilities):
            raise ValueError("dimension mismatch")
        image = []
        for i in range(channel.dim):
            total = Rational(0)
            for j in range(channel.dim):
                total += channel.matrix.entry(i, j).re * state.probabilities[j]
            image.append(total)
        l1 = Rational(0)
        for a, b in zip(state.probabilities, image):
            l1 += abs(a - b)
        d = l1 / 2
        return EpsilonReport(
            ok=d <= eps,
            exact_distance=d,
            float_distance=float(d),
            exact_upper_bound=None,
        )
    if isinstance(channel, Superoperator) and isinstance(state, DensityMatrix):
        if channel.input_dim != state.dim:
            raise ValueError("dimension mismatch")
        import numpy as np  # float diagnostics only; kept off the import path

        delta = state.matrix - channel.apply_matrix(state.matrix)
        sv = np.linalg.svd(to_complex_array(delta), compute_uv=False)
        fd = float(np.sum(sv)) / 2.0
        bound = Rational(0)
        for e in delta.entries:
            bound += abs(e.re) + abs(e.im)
        bound = bound / 2
        return EpsilonReport(
            ok=fd <= float(eps) + 1e-9,
            exact_distance=None,
            float_distance=fd,
            exact_upper_bound=bound,
        )
    raise TypeError(
        "expected (StochasticMatrix, ClassicalDistribution) or "
        "(Superoperator, DensityMatrix)"
    )
