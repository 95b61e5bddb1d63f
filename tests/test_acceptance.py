"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion states its tolerance (exact unless noted) and time budget.
"""

import random
import time

import numpy as np
import pytest

from conftest import (
    fixed_space_basis,
    off_cycle_mass,
    random_quantum_program,
    random_rank_one_density,
    table_to_stochastic,
    walk_cyclic_nodes,
)
from ctcsim.circuits import FunctionTable, StochasticMatrix
from ctcsim.dsl import parse_program
from ctcsim.errors import ResourceLimitError
from ctcsim.exact.matrices import Matrix, hermitian_psd_check
from ctcsim.exact.scalars import GaussianRational, Rational
from ctcsim.fixpoint import (
    cesaro_oracle,
    compute_fixed_point,
    fixed_point_projector,
    projector_limit,
    symbolic_resolvent,
    to_complex_array,
    verify_fixed_point,
)
from ctcsim.gallery import MACHINE_DEMOS, QUANTUM_DEMOS
from ctcsim.semantics import (
    ClassicalDistribution,
    MachineSpec,
    accept_probability,
    classical_decide,
    cycle_fixed_point,
    epsilon_fixed_point_check,
    gadget_narrow_np,
    gadget_np_search,
    gadget_pspace,
    parse_machine,
    quantum_decide,
    stationary_distribution,
)
from ctcsim.superop import (
    DensityMatrix,
    Superoperator,
    choi_matrix,
    program_to_natural,
    vec,
)

HALF = Rational(1, 2)

_corpus = None


def corpus():
    """50 deterministic random programs with q <= 2, r <= 2, plus their
    channels and verified projectors; shared by criteria 2 and 3."""
    global _corpus
    if _corpus is None:
        out = []
        for seed in range(50):
            rng = random.Random(1000 + seed)
            q = rng.randint(1, 2)
            prog = random_quantum_program(rng, q=q, r=rng.randint(0, 2))
            phi = program_to_natural(prog)
            proj = fixed_point_projector(phi)
            out.append((prog, phi, proj))
        _corpus = out
    return _corpus


def test_criterion_01_grandfather_paradox():
    t0 = time.perf_counter()
    prog = parse_program(QUANTUM_DEMOS["grandfather"])
    proj = fixed_point_projector(program_to_natural(prog))
    rho = compute_fixed_point(proj, DensityMatrix.basis_state(2, 0))
    assert rho.matrix == Matrix.identity(2).scale(GaussianRational(HALF))
    assert accept_probability(prog, rho) == HALF
    v = quantum_decide(prog)
    assert v.exact_accept_probability == HALF
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS - fixed point I/2 exactly, p_acc = 1/2 exactly "
        f"({elapsed:.3f}s < 1s)"
    )


def test_criterion_02_projector_identities():
    t0 = time.perf_counter()
    for prog, phi, proj in corpus():
        r, k = proj.r_matrix, phi.k_matrix
        # the kernel-pair projector is the paper's resolvent limit
        assert r == projector_limit(symbolic_resolvent(k)).r_matrix
        assert r @ r == r
        assert k @ r == r
        assert r @ k == r
        rs = Superoperator(phi.input_dim, r)
        assert rs.is_trace_preserving()
        assert hermitian_psd_check(choi_matrix(rs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 2: PASS - R equals the resolvent limit, R^2 = R, KR = RK = "
        f"R, trace preservation, and Choi PSD exact on 50 random programs "
        f"({elapsed:.1f}s < 120s)"
    )


def test_criterion_03_soundness_and_completeness():
    seeds_checked = 0
    basis_checked = 0
    for idx, (prog, phi, proj) in enumerate(corpus()):
        rng = random.Random(5000 + idx)
        for sigma in (
            DensityMatrix.basis_state(phi.input_dim, 0),
            random_rank_one_density(rng, phi.input_dim),
        ):
            rho = compute_fixed_point(proj, sigma)
            assert verify_fixed_point(phi, rho)
            seeds_checked += 1
        for b in fixed_space_basis(phi):
            assert proj.r_matrix @ vec(b) == vec(b)
            basis_checked += 1
    assert seeds_checked >= 50
    print(
        f"criterion 3: PASS - {seeds_checked} projected seeds are exact fixed "
        f"points and all {basis_checked} nullspace basis elements are exactly "
        f"R-invariant (zero tolerance)"
    )


def test_criterion_04_cesaro_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for name, text in QUANTUM_DEMOS.items():
        phi = program_to_natural(parse_program(text))
        proj = fixed_point_projector(phi)
        sigma = DensityMatrix.basis_state(phi.input_dim, 0)
        exact = to_complex_array(compute_fixed_point(proj, sigma).matrix)
        approx = cesaro_oracle(phi, sigma, 1_000_000)
        dev = float(np.max(np.abs(exact - approx)))
        assert dev <= 1e-4, (name, dev)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS - T=10^6 Cesaro average within 1e-4 of the exact "
        f"fixed point on all {len(QUANTUM_DEMOS)} demos (worst {worst:.2e}, "
        f"{elapsed:.1f}s < 60s)"
    )


def test_criterion_05_np_search_exhaustive():
    t0 = time.perf_counter()
    n = 3
    size = 1 << n
    everything = frozenset(range(size))
    for mask in range(1 << size):
        sols = [bool(mask >> x & 1) for x in range(size)]
        prog = gadget_np_search(n, sols)
        table = prog.circuit.table
        induced = FunctionTable(n, tuple(table.outputs[y << 1] >> 1 for y in range(size)))
        cyclic = walk_cyclic_nodes(induced)
        v = classical_decide(prog)
        if mask:
            assert cyclic == frozenset(x for x in range(size) if sols[x])
            assert v.decision == "accept"
            assert set(v.witness.support()) <= {x for x in range(size) if sols[x]}
        else:
            assert cyclic == everything
            assert v.decision == "reject"
            assert v.exact_accept_probability == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 5: PASS - all {1 << size} n=3 predicates agree with the "
        f"brute-force cycle oracle, support inside solutions, exact "
        f"({elapsed:.1f}s < 60s)"
    )


def random_machine(rng: random.Random) -> MachineSpec:
    run_len = rng.randint(2, 20)
    stray_count = rng.randint(1, min(10, 64 - run_len))
    names = [f"c{i}" for i in range(run_len)] + [f"s{i}" for i in range(stray_count)]
    succ = [i + 1 for i in range(run_len - 1)] + [None]
    for _ in range(stray_count):
        succ.append(rng.randrange(len(succ)))
    accept = rng.random() < 0.5
    accepting = frozenset({run_len - 1} if accept else set())
    rejecting = frozenset(set() if accept else {run_len - 1})
    return MachineSpec(tuple(names), 0, tuple(succ), accepting, rejecting)


def test_criterion_06_pspace_gadget_zoo():
    zoo = [parse_machine(text) for text in MACHINE_DEMOS.values()]
    zoo += [random_machine(random.Random(7000 + i)) for i in range(8)]
    assert len(zoo) >= 10
    for machine in zoo:
        assert len(machine.names) <= 64
        run, answer = machine.canonical_run()
        t = len(run)
        prog = gadget_pspace(machine)
        p = prog.circuit.ctc_bits
        table = prog.circuit.table
        induced = FunctionTable(
            p, tuple(table.outputs[y << 1] >> 1 for y in range(1 << p))
        )
        expected = frozenset((m << 1) | answer for m in run)
        assert walk_cyclic_nodes(induced) == expected
        v = classical_decide(prog)
        assert v.certified
        assert v.decision == ("accept" if answer else "reject")
        assert v.exact_accept_probability == answer
        w = Rational(1, t)
        for m in run:
            assert v.witness.probabilities[(m << 1) | answer] == w
        assert sum(1 for pr in v.witness.probabilities if pr > 0) == t
    print(
        f"criterion 6: PASS - {len(zoo)} machines (runs up to 64 configurations, "
        f"strays included): unique cycle is the run, uniform 1/T, bit = answer, "
        f"exact"
    )


def test_criterion_07_perturbation_separation():
    one = Rational(1)
    for denom in (10, 100, 1000):
        eps = Rational(1, denom)
        up = StochasticMatrix(2, Matrix.from_rows([[1 - eps, 0], [eps, 1]]))
        down = StochasticMatrix(2, Matrix.from_rows([[1, eps], [0, 1 - eps]]))
        pi_up = stationary_distribution(up).distribution
        pi_down = stationary_distribution(down).distribution
        assert pi_up.probabilities == (Rational(0), one)
        assert pi_down.probabilities == (one, Rational(0))
        cross1 = epsilon_fixed_point_check(down, pi_up, eps)
        cross2 = epsilon_fixed_point_check(up, pi_down, eps)
        assert cross1.exact_distance == eps and cross1.ok
        assert cross2.exact_distance == eps and cross2.ok
    print(
        "criterion 7: PASS - for eps in {1/10, 1/100, 1/1000} the stationary "
        "states are exactly (0,1) and (1,0) and each is an exact eps-fixed-point "
        "of the other chain"
    )


def test_criterion_08_cycle_distance_bound():
    checked = 0
    worst_ratio = Rational(0)
    for i in range(200):
        rng = random.Random(9000 + i)
        p = rng.randint(1, 4)
        size = 1 << p
        t = FunctionTable(p, tuple(rng.randrange(size) for _ in range(size)))
        base, _ = cycle_fixed_point(t)
        weights = [rng.randint(0, 9) for _ in range(size)]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        noise = [Rational(w, total) for w in weights]
        delta = Rational(rng.randint(0, 4), 256)  # at most 1/64
        probs = tuple(
            (1 - delta) * b + delta * n for b, n in zip(base.probabilities, noise)
        )
        dist = ClassicalDistribution(p, probs)
        chain = table_to_stochastic(t)
        eps = epsilon_fixed_point_check(chain, dist, Rational(1)).exact_distance
        assert eps <= Rational(1, 64)
        off = off_cycle_mass(t, dist)
        bound = 2 * size * eps
        assert off <= bound, (i, off, bound)
        if eps > 0:
            worst_ratio = max(worst_ratio, off / bound)
        checked += 1
    assert checked == 200
    print(
        f"criterion 8: PASS - 200 random tables (p <= 4), exact eps-fixed-points "
        f"(eps <= 1/64): off-cycle distance <= 2*2^p*eps, worst fill "
        f"{float(worst_ratio):.3f} of the bound, exact"
    )


def test_criterion_09_narrow_ctc():
    eps = Rational(1, 1 << 10)
    for n in (2, 3, 4):
        v = stochastic_decide_narrow(n, [], eps)
        assert v.decision == "reject"
        assert v.exact_accept_probability == 0
        assert v.probability_range == (0.0, 0.0)
    wit = [False] * 16
    wit[11] = True
    v = stochastic_decide_narrow(4, [11], eps)
    assert v.exact_accept_probability == Rational(1023, 1039)
    assert v.exact_accept_probability > Rational(98, 100)
    assert v.decision == "accept"
    print(
        "criterion 9: PASS - no-witness instances reject with exact certainty; "
        "one witness at n=4, eps=2^-10 gives stationary mass exactly 1023/1039 "
        "> 98/100"
    )


def stochastic_decide_narrow(n, witness_indices, eps):
    from ctcsim.semantics import stochastic_decide

    table = [False] * (1 << n)
    for w in witness_indices:
        table[w] = True
    return stochastic_decide(gadget_narrow_np(n, table, eps))


SCALE_PROGRAM = """quantum
registers ctc=3 cr=1
defgate R = [3/5, -4/5; 4/5, 3/5]
apply R ctc[0]
apply CNOT ctc[0], ctc[1]
apply CNOT ctc[1], ctc[2]
apply CNOT ctc[2], cr[0]
output cr[0]
"""


def test_criterion_10_scale_gate():
    t0 = time.perf_counter()
    prog = parse_program(SCALE_PROGRAM)
    v = quantum_decide(prog)
    elapsed = time.perf_counter() - t0
    assert v.exact_accept_probability == HALF
    assert elapsed < 600.0
    # one more looped qubit needs the explicit flag
    big = Superoperator(16, Matrix.identity(256))
    with pytest.raises(ResourceLimitError, match="allow_large"):
        fixed_point_projector(big)
    print(
        f"criterion 10: PASS - q=3 pipeline (64x64 natural representation) "
        f"decided exactly in {elapsed:.1f}s < 600s; q=4 gated behind allow_large"
    )
