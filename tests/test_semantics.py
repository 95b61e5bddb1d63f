import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    acceptance_operator_by_definition,
    brute_terminal_classes,
    dense_accept_operator,
    off_cycle_mass,
    random_class_graph,
    random_planted_chain,
    random_quantum_program,
    random_rank_one_density,
    random_table,
    squaring_cycle,
    stationary_by_nullspace,
    table_to_stochastic,
    walk_cyclic_nodes,
)
from ctcsim.circuits import (
    ClassicalCircuit,
    CTCProgram,
    FunctionTable,
    QuantumCircuit,
    StochasticCircuit,
    StochasticMatrix,
)
from ctcsim.dsl import parse_program
from ctcsim.errors import ContractViolationError
from ctcsim import semantics
from ctcsim.exact.matrices import Matrix, _int_grids, hermitian_psd_check
from ctcsim.exact.scalars import GaussianRational, Rational
from ctcsim.fixpoint import compute_fixed_point, fixed_point_projector, verify_fixed_point
from ctcsim.gallery import MACHINE_DEMOS, QUANTUM_DEMOS
from ctcsim.semantics import (
    ACCEPT_THRESHOLD,
    REJECT_THRESHOLD,
    ClassicalDistribution,
    MachineSpec,
    accept_probability,
    acceptance_operator,
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
    terminal_classes,
    stochastic_decide,
    _accept_operator,
    _beyond,
)
from ctcsim.superop import DensityMatrix, program_to_natural

HALF = Rational(1, 2)


# -- cycles -----------------------------------------------------------------

def test_cycle_fixed_point_identity_table():
    t = FunctionTable(2, (0, 1, 2, 3))
    dist, cycle = cycle_fixed_point(t)
    assert cycle == (0,)
    assert dist.probabilities[0] == 1


def test_cycle_fixed_point_full_rotation():
    t = FunctionTable(2, (1, 2, 3, 0))
    dist, cycle = cycle_fixed_point(t)
    assert set(cycle) == {0, 1, 2, 3}
    assert all(p == Rational(1, 4) for p in dist.probabilities)


def test_cycle_fixed_point_with_tail():
    # 0 -> 1 -> 2 -> 1: the all-zeros walk lands on the {1, 2} loop
    t = FunctionTable(2, (1, 2, 1, 0))
    dist, cycle = cycle_fixed_point(t)
    assert set(cycle) == {1, 2}
    assert dist.probabilities[1] == HALF
    assert dist.probabilities[0] == 0


@given(st.integers(0, 100_000), st.integers(1, 4))
def test_cycle_fixed_point_is_actually_fixed(seed, bits):
    """Pushing the distribution through the table leaves it unchanged."""
    rng = random.Random(seed)
    t = random_table(rng, bits)
    dist, _ = cycle_fixed_point(t)
    size = 1 << bits
    pushed = [Rational(0)] * size
    for x, p in enumerate(dist.probabilities):
        pushed[t.apply(x)] += p
    assert tuple(pushed) == dist.probabilities


@given(st.integers(0, 100_000), st.integers(1, 7))
def test_cycle_fixed_point_matches_squaring_oracle(seed, bits):
    """Same cycle, listed from the same start, as iterated squaring."""
    t = random_table(random.Random(seed), bits)
    _, cycle = cycle_fixed_point(t)
    assert cycle == squaring_cycle(t)


def test_cycle_fixed_point_order_on_every_two_bit_table():
    for code in range(256):
        t = FunctionTable(2, tuple((code >> (2 * x)) & 3 for x in range(4)))
        assert cycle_fixed_point(t)[1] == squaring_cycle(t)


@given(st.integers(0, 100_000), st.integers(1, 4))
def test_enumerate_cycles_matches_walk_oracle(seed, bits):
    rng = random.Random(seed)
    t = random_table(rng, bits)
    cycles = enumerate_cycles(t)
    assert frozenset(y for c in cycles for y in c) == walk_cyclic_nodes(t)
    seen = set()
    for c in cycles:
        assert c[0] == min(c)
        for i, y in enumerate(c):
            assert t.apply(y) == c[(i + 1) % len(c)]
            assert y not in seen
            seen.add(y)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


def test_off_cycle_mass_example():
    t = FunctionTable(2, (1, 2, 1, 0))  # cycle support {1, 2}
    assert walk_cyclic_nodes(t) == frozenset({1, 2})
    uniform = ClassicalDistribution(2, (Rational(1, 4),) * 4)
    assert off_cycle_mass(t, uniform) == HALF


def test_table_to_stochastic_point_masses():
    t = FunctionTable(1, (1, 1))
    s = table_to_stochastic(t)
    assert s.column_defects() == []
    assert s.matrix.entry(1, 0) == GaussianRational(1)
    assert s.matrix.entry(1, 1) == GaussianRational(1)


# -- classical decisions ------------------------------------------------------

def test_np_search_induced_table_frozen():
    prog = gadget_np_search(2, [False, False, True, False])
    table = prog.circuit.table
    # with the ancilla at 0: 0 -> 1, 1 -> 2, 2 -> 2, 3 -> 0
    induced = [table.outputs[y << 1] >> 1 for y in range(4)]
    assert induced == [1, 2, 2, 0]


def test_np_search_with_solution_accepts():
    prog = gadget_np_search(2, [False, False, True, False])
    v = classical_decide(prog)
    assert v.decision == "accept"
    assert v.exact_accept_probability == 1
    assert v.certified
    assert v.witness.probabilities[2] == 1


def test_np_search_without_solution_rejects():
    prog = gadget_np_search(2, [False] * 4)
    v = classical_decide(prog)
    assert v.decision == "reject"
    assert v.exact_accept_probability == 0
    assert v.certified
    # the only consistent distribution walks the whole increment cycle
    assert all(p == Rational(1, 4) for p in v.witness.probabilities)


@given(st.integers(0, 100_000))
def test_np_search_decision_matches_predicate(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    sols = [rng.random() < 0.3 for _ in range(1 << n)]
    v = classical_decide(gadget_np_search(n, sols))
    assert v.decision == ("accept" if any(sols) else "reject")
    if any(sols):
        assert all(sols[y] for y in v.witness.support())


def test_classical_decide_cr_fixings():
    text = "classical\nregisters ctc=1 cr=2\ncopy cr[1] <- cr[0]\noutput cr[1]\n"
    prog = parse_program(text)
    assert classical_decide(prog).decision == "reject"
    assert classical_decide(prog, cr_fixings={0: 1}).decision == "accept"
    with pytest.raises(ValueError):
        classical_decide(prog, cr_fixings={5: 1})
    with pytest.raises(ValueError):
        classical_decide(prog, cr_fixings={0: 2})


def test_classical_decide_ambiguous_two_cycles():
    # two fixed points with opposite outputs
    text = (
        "classical\nregisters ctc=1 cr=1\ntable\n"
        "00 -> 00\n01 -> 00\n10 -> 11\n11 -> 11\noutput cr[0]\n"
    )
    v = classical_decide(parse_program(text))
    assert v.decision == "ambiguous"
    assert v.exact_accept_probability == 0  # canonical walk starts at zero
    assert v.probability_range == (0.0, 1.0)
    assert v.half_comparison == "less"
    assert v.certified


def test_classical_decide_requires_output():
    prog = gadget_np_search(2, [True] * 4)
    stripped = CTCProgram("classical", prog.circuit, None)
    with pytest.raises(ValueError):
        classical_decide(stripped)


def test_classical_decide_certifies_wide_identity_loop():
    # 17 looped bits kept as they are, the output copies the low one: every
    # string is a fixed point and half of them output 1, though the
    # canonical walk stays at zero
    table = FunctionTable(18, tuple((x & ~1) | ((x >> 1) & 1) for x in range(1 << 18)))
    prog = CTCProgram("classical", ClassicalCircuit(17, 1, (), table), 0)
    v = classical_decide(prog)
    assert v.decision == "ambiguous"
    assert v.certified
    assert v.exact_accept_probability == 0
    assert v.probability_range == (0.0, 1.0)


# -- stationary distributions -------------------------------------------------

@given(st.integers(0, 100_000), st.integers(1, 4), st.integers(0, 6))
def test_terminal_classes_match_reachability_oracle(seed, classes, transient):
    succ = random_class_graph(random.Random(seed), classes, transient)
    found = terminal_classes(succ)
    assert found == brute_terminal_classes(succ)
    assert len(found) == classes


@given(st.integers(0, 100_000), st.integers(1, 12))
def test_terminal_classes_on_arbitrary_graphs(seed, n):
    # any out-degree, including none and self-loops only
    rng = random.Random(seed)
    succ = [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)]
    assert terminal_classes(succ) == brute_terminal_classes(succ)


def test_terminal_classes_fixed_shapes():
    # identity chain: every state is its own class
    assert terminal_classes([[v] for v in range(5)]) == [[v] for v in range(5)]
    # one cycle through everything
    assert terminal_classes([[1], [2], [0]]) == [[0, 1, 2]]
    # a path 20000 long drains into its last state, without recursion
    n = 20_000
    path = [[v + 1] for v in range(n - 1)] + [[n - 1]]
    assert terminal_classes(path) == [[n - 1]]


def test_identity_chain_has_every_point_mass():
    chain = StochasticMatrix(2, Matrix.identity(2))
    res = stationary_distribution(chain)
    assert res.multiple
    assert len(res.classes) == 2
    assert res.distribution.probabilities == (HALF, HALF)
    assert res.classes[0].probabilities == (Rational(1), Rational(0))
    assert res.classes[1].probabilities == (Rational(0), Rational(1))


def test_perturbed_pair_point_masses():
    eps = Rational(1, 100)
    up = StochasticMatrix(2, Matrix.from_rows([[1 - eps, 0], [eps, 1]]))
    down = StochasticMatrix(2, Matrix.from_rows([[1, eps], [0, 1 - eps]]))
    res_up = stationary_distribution(up)
    res_down = stationary_distribution(down)
    assert not res_up.multiple and not res_down.multiple
    assert res_up.distribution.probabilities == (Rational(0), Rational(1))
    assert res_down.distribution.probabilities == (Rational(1), Rational(0))


def test_doubly_stochastic_chain_uniform():
    chain = StochasticMatrix(2, Matrix.from_rows([[HALF, HALF], [HALF, HALF]]))
    res = stationary_distribution(chain)
    assert not res.multiple
    assert res.distribution.probabilities == (HALF, HALF)


@given(st.integers(0, 100_000), st.integers(1, 3))
def test_stationary_classes_are_stationary(seed, bits):
    rng = random.Random(seed)
    dim = 1 << bits
    cols = []
    for _ in range(dim):
        w = [rng.randint(0, 3) for _ in range(dim)]
        if not any(w):
            w[rng.randrange(dim)] = 1
        s = sum(w)
        cols.append([Rational(x, s) for x in w])
    chain = StochasticMatrix(
        dim, Matrix(dim, dim, (cols[j][i] for i in range(dim) for j in range(dim)))
    )
    res = stationary_distribution(chain)
    for cls in list(res.classes) + [res.distribution]:
        for i in range(dim):
            total = Rational(0)
            for j in range(dim):
                total += chain.matrix.entry(i, j).re * cls.probabilities[j]
            assert total == cls.probabilities[i]
    assert res.multiple == (len(res.classes) > 1)


@given(st.integers(0, 100_000), st.integers(1, 4), st.integers(1, 4))
def test_stationary_classes_match_the_nullspace_oracle(seed, bits, classes):
    """Each class, solved on its own integer grid, gives the distribution
    that P_cc - I's Matrix nullspace gives, and the canonical one is their
    average; the classes carry different common denominators."""
    chain, planted = random_planted_chain(random.Random(seed), bits, min(classes, 1 << bits))
    res = stationary_distribution(chain)
    assert len(res.classes) == len(planted)
    assert res.multiple == (len(planted) > 1)
    avg = [Rational(0)] * chain.dim
    for cls, members in zip(res.classes, planted):
        expected = [Rational(0)] * chain.dim
        for m, v in zip(members, stationary_by_nullspace(chain, members)):
            expected[m] = v
        assert list(cls.probabilities) == expected
        avg = [a + v / len(planted) for a, v in zip(avg, expected)]
    assert list(res.distribution.probabilities) == avg


@pytest.mark.parametrize(
    "cols, message",
    [
        ([([1, 1], [0, 0]), ([1, -1], [0, 0])], "stationary dimension 2"),
        ([([1, 1], [0, 1])], "left the reals"),
        ([([1, -1], [0, 0])], "sums to zero"),
        ([([2, -1], [0, 0])], "negative mass"),
    ],
    ids=["two-columns", "imaginary", "zero-sum", "negative"],
)
def test_stationary_refuses_a_bad_kernel(monkeypatch, cols, message):
    monkeypatch.setattr("ctcsim.semantics._grid_kernel", lambda R, I, nc: ((1, 0), cols))
    chain = StochasticMatrix(2, Matrix.from_rows([[HALF, HALF], [HALF, HALF]]))
    with pytest.raises(ContractViolationError, match=message):
        stationary_distribution(chain)


def test_stationary_rejects_bad_chains():
    short = StochasticMatrix(2, Matrix.from_rows([[HALF, 0], [HALF, HALF]]))
    with pytest.raises(ValueError):
        stationary_distribution(short)
    # the defects are cached on the chain; a second call still refuses it
    assert short.column_defects()
    with pytest.raises(ValueError, match="not column-stochastic"):
        stationary_distribution(short)
    odd = StochasticMatrix(3, Matrix.identity(3))
    with pytest.raises(ValueError):
        stationary_distribution(odd)


# -- stochastic decisions -----------------------------------------------------

def test_narrow_np_single_witness_value():
    eps = Rational(1, 1 << 10)
    wit = [False] * 16
    wit[5] = True
    v = stochastic_decide(gadget_narrow_np(4, wit, eps))
    assert v.exact_accept_probability == Rational(1023, 1039)
    assert v.decision == "accept"
    assert v.exact_accept_probability > Rational(98, 100)
    assert v.certified


def test_narrow_np_no_witness_certain_reject():
    eps = Rational(1, 1 << 10)
    v = stochastic_decide(gadget_narrow_np(4, [False] * 16, eps))
    assert v.decision == "reject"
    assert v.exact_accept_probability == 0
    assert v.probability_range == (0.0, 0.0)


def test_narrow_np_warns_on_large_eps():
    with pytest.warns(RuntimeWarning, match="dominate"):
        gadget_narrow_np(2, [True] + [False] * 3, Rational(1, 2))


def test_narrow_np_validates_inputs():
    with pytest.raises(ValueError):
        gadget_narrow_np(0, [], Rational(1, 4))
    with pytest.raises(ValueError):
        gadget_narrow_np(1, [True], Rational(1, 4))
    with pytest.raises(ValueError):
        gadget_narrow_np(1, [True, False], Rational(0))


def test_stochastic_decide_requires_output():
    chain = StochasticMatrix(2, Matrix.identity(2))
    prog = CTCProgram("stochastic", StochasticCircuit(1, chain, ("1",)), None)
    with pytest.raises(ValueError):
        stochastic_decide(prog)


# -- quantum decisions --------------------------------------------------------

def quantum_demo(name):
    return parse_program(QUANTUM_DEMOS[name])


def test_grandfather_verdict():
    v = quantum_decide(quantum_demo("grandfather"))
    assert v.decision == "ambiguous"
    assert v.exact_accept_probability == HALF
    assert v.half_comparison == "equal"
    lo, hi = v.probability_range
    assert abs(lo - 0.5) < 1e-9 and abs(hi - 0.5) < 1e-9
    assert v.witness.matrix == Matrix.identity(2).scale(GaussianRational(HALF))


def test_force_one_accepts_with_certainty():
    v = quantum_decide(quantum_demo("force-one"))
    assert v.decision == "accept"
    assert v.exact_accept_probability == 1
    assert v.half_comparison == "greater"


def test_dephase_is_ambiguous_across_fixed_points():
    v = quantum_decide(quantum_demo("dephase"))
    assert v.decision == "ambiguous"
    assert v.exact_accept_probability == 0
    lo, hi = v.probability_range
    assert abs(lo - 0.0) < 1e-9 and abs(hi - 1.0) < 1e-9


# cos = 1244791/2156041, sin = 1760400/2156041: sin^2 = 2/3 - 7.9e-8
NEAR_THRESHOLD = (
    "quantum\n"
    "registers ctc=1 cr=2\n"
    "defgate B = [0, 1, 0, 0; 1, 0, 0, 0; 0, 0, 1244791/2156041, -1760400/2156041; "
    "0, 0, 1760400/2156041, 1244791/2156041]\n"
    "apply CNOT ctc[0], cr[0]\n"
    "apply B ctc[0], cr[1]\n"
    "output cr[1]\n"
)


def test_threshold_is_decided_exactly():
    # the consistent state |1><1| accepts with probability just below 2/3,
    # which a float eigenvalue with slack would round up to accept
    v = quantum_decide(parse_program(NEAR_THRESHOLD))
    assert v.decision == "ambiguous"
    assert v.certified
    assert v.exact_accept_probability == 1
    lo, hi = v.probability_range
    assert 2 / 3 - 1e-6 < lo < 2 / 3 and hi == 1.0


def random_hermitian(rng: random.Random, n: int, t: Rational, kind: str) -> Matrix:
    """A rational Hermitian n x n matrix: random entries, or t I plus
    ("above") or minus ("below") a rank-one PSD matrix, whose eigenvalue t
    then has multiplicity n - 1 or more."""

    def q():
        return Rational(rng.randint(-9, 9), rng.randint(1, 6))

    if kind == "random":
        rows = [[GaussianRational(q()) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = GaussianRational(q(), q())
                rows[j][i] = rows[i][j].conj()
        return Matrix.from_rows(rows)
    v = [GaussianRational(q(), q()) for _ in range(n)]
    outer = Matrix(n, n, (a * b.conj() for a in v for b in v))
    tie = Matrix.identity(n).scale(t)
    return tie + outer if kind == "above" else tie - outer


@given(
    st.integers(0, 100_000),
    st.integers(1, 4),
    st.sampled_from([REJECT_THRESHOLD, ACCEPT_THRESHOLD]),
    st.sampled_from(["random", "above", "below"]),
    st.sampled_from([1, -1]),
)
def test_threshold_shift_on_the_grid_matches_the_matrix_route(seed, n, t, kind, sign):
    """The shift of H's one cleared grid decides sign * (H - t I) >= 0 as
    hermitian_psd_check does on the Fraction matrix, ties at t included."""
    h = random_hermitian(random.Random(seed), n, t, kind)
    shifted = (h - Matrix.identity(n).scale(t)).scale(sign)
    assert _beyond(_int_grids(h), t, sign) == bool(hermitian_psd_check(shifted))


def test_acceptance_element_is_built_once_per_decision(monkeypatch):
    """accept_probability and acceptance_operator share one A per program."""
    builds = []
    real = semantics.induced_kraus

    def counted(program):
        builds.append(program)
        return real(program)

    monkeypatch.setattr(semantics, "induced_kraus", counted)
    program = quantum_demo("entangler")
    quantum_decide(program)
    assert len(builds) == 1
    quantum_decide(program)
    assert len(builds) == 1


def test_decision_builds_the_isometry_once_and_never_the_unitary(monkeypatch):
    """A decision pushes the 2^q zero-ancilla columns through the gates
    once per circuit; the 2^(q+r) columns of U are never pushed."""
    widths = []
    real = QuantumCircuit._columns

    def counted(circuit, inputs):
        widths.append(len(inputs))
        return real(circuit, inputs)

    monkeypatch.setattr(QuantumCircuit, "_columns", counted)
    program = quantum_demo("entangler")
    quantum_decide(program)
    quantum_decide(program)
    assert widths == [1 << program.circuit.ctc_qubits]
    assert "_unitary" not in program.circuit.__dict__


def test_acceptance_operator_grandfather_is_half_identity():
    prog = quantum_demo("grandfather")
    proj = fixed_point_projector(program_to_natural(prog))
    h = acceptance_operator(prog, proj)
    assert h == Matrix.identity(2).scale(GaussianRational(HALF))


def check_acceptance_routes(prog):
    """The Kraus-family A and H equal the U^dagger P U oracle, and the
    canonical acceptance probability is exactly H[0][0]."""
    proj = fixed_point_projector(program_to_natural(prog))
    a = dense_accept_operator(prog)
    assert _accept_operator(prog) == a
    h = acceptance_operator(prog, proj)
    assert h == acceptance_operator_by_definition(a, proj.r_matrix)
    n = proj.source.input_dim
    rho = compute_fixed_point(proj, DensityMatrix.basis_state(n, 0))
    assert accept_probability(prog, rho) == h.entry(0, 0)
    sigma = random_rank_one_density(random.Random(n), n)
    assert accept_probability(prog, sigma) == (a @ sigma.matrix).trace()


@pytest.mark.parametrize(
    "name", [n for n, t in QUANTUM_DEMOS.items() if parse_program(t).output_bit is not None]
)
def test_acceptance_routes_agree_on_demos(name):
    check_acceptance_routes(quantum_demo(name))


@given(st.integers(0, 100_000))
def test_acceptance_routes_agree_on_random_programs(seed):
    rng = random.Random(seed)
    check_acceptance_routes(random_quantum_program(rng, r=rng.randint(1, 2)))


def test_accept_probability_on_basis_states():
    prog = quantum_demo("grandfather")
    assert accept_probability(prog, DensityMatrix.basis_state(2, 0)) == 1
    assert accept_probability(prog, DensityMatrix.basis_state(2, 1)) == 0
    assert accept_probability(prog, DensityMatrix.maximally_mixed(2)) == HALF


def test_accept_probability_dimension_check():
    prog = quantum_demo("grandfather")
    with pytest.raises(ValueError):
        accept_probability(prog, DensityMatrix.maximally_mixed(4))


def test_quantum_decide_requires_output():
    with pytest.raises(ValueError):
        quantum_decide(quantum_demo("rotation"))


def test_quantum_verdict_witness_is_fixed():
    for name in ("grandfather", "dephase", "reset", "force-one", "entangler"):
        prog = quantum_demo(name)
        v = quantum_decide(prog)
        phi = program_to_natural(prog)
        assert verify_fixed_point(phi, v.witness), name
        lo, hi = v.probability_range
        pf = float(v.exact_accept_probability)
        assert lo - 1e-6 <= pf <= hi + 1e-6, name


# -- machines -----------------------------------------------------------------

def test_parse_machine_and_canonical_run():
    m = parse_machine(MACHINE_DEMOS["accept"])
    path, answer = m.canonical_run()
    assert [m.names[i] for i in path] == ["m1", "m2", "m3"]
    assert answer == 1
    r = parse_machine(MACHINE_DEMOS["reject"])
    assert r.canonical_run()[1] == 0


def test_parse_machine_errors():
    with pytest.raises(ValueError, match="no start"):
        parse_machine("config a -> b\naccept b\n")
    with pytest.raises(ValueError, match="duplicate start"):
        parse_machine("start a\nstart b\naccept a\naccept b\n")
    with pytest.raises(ValueError, match="duplicate successor"):
        parse_machine("start a\nconfig a -> b\nconfig a -> c\naccept b\naccept c\n")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_machine("start a\nwobble a\naccept a\n")
    with pytest.raises(ValueError, match="never halts"):
        parse_machine("start a\nconfig a -> b\nconfig b -> a\n")
    with pytest.raises(ValueError, match="no successor"):
        parse_machine("start a\nconfig a -> b\n")
    with pytest.raises(ValueError, match="both accepts and rejects"):
        MachineSpec(("a",), 0, (None,), frozenset({0}), frozenset({0}))
    # reported from the first configuration that runs into the loop c2 -> c3
    with pytest.raises(ValueError, match=r"never halts from c1 \(loops at c2\)"):
        MachineSpec(("c0", "c1", "c2", "c3"), 0, (None, 2, 3, 2), frozenset({0}), frozenset())


class CountingSuccessors(tuple):
    """A successor tuple that counts its indexed lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def test_machine_validation_reads_each_successor_a_bounded_number_of_times():
    # a line c0 -> c1 -> ... -> accept: walking from every configuration
    # would read count^2 / 2 successors
    count = 5000
    successors = CountingSuccessors(tuple(range(1, count)) + (None,))
    machine = MachineSpec(
        tuple(f"c{i}" for i in range(count)), 0, successors,
        frozenset({count - 1}), frozenset(),
    )
    assert successors.lookups <= 2 * count
    assert machine.canonical_run()[1] == 1


def test_pspace_gadget_accept_machine():
    machine = parse_machine(MACHINE_DEMOS["accept"])
    prog = gadget_pspace(machine)
    v = classical_decide(prog)
    assert v.decision == "accept"
    assert v.exact_accept_probability == 1
    assert v.certified
    # the unique cycle is the run with the answer bit set: codes 2m+1
    third = Rational(1, 3)
    for m in range(3):
        assert v.witness.probabilities[(m << 1) | 1] == third


def test_pspace_gadget_reject_machine():
    machine = parse_machine(MACHINE_DEMOS["reject"])
    v = classical_decide(gadget_pspace(machine))
    assert v.decision == "reject"
    assert v.exact_accept_probability == 0
    third = Rational(1, 3)
    for m in range(3):
        assert v.witness.probabilities[m << 1] == third


def test_pspace_gadget_unique_cycle_for_gallery_machines():
    for name, text in MACHINE_DEMOS.items():
        machine = parse_machine(text)
        prog = gadget_pspace(machine)
        table = prog.circuit.table
        p = prog.circuit.ctc_bits
        induced = FunctionTable(
            p, tuple(table.outputs[y << 1] >> 1 for y in range(1 << p))
        )
        run, answer = machine.canonical_run()
        expected = frozenset((m << 1) | answer for m in run)
        assert walk_cyclic_nodes(induced) == expected, name


def test_pspace_gadget_long_machine_uniform():
    machine = parse_machine(MACHINE_DEMOS["long"])
    v = classical_decide(gadget_pspace(machine))
    assert v.decision == "accept"
    support = v.witness.support()
    assert len(support) == 8
    assert all(v.witness.probabilities[y] == Rational(1, 8) for y in support)


# -- epsilon fixed points -------------------------------------------------------

def test_epsilon_classical_exact_distance():
    eps = Rational(1, 100)
    up = StochasticMatrix(2, Matrix.from_rows([[1 - eps, 0], [eps, 1]]))
    mass_zero = ClassicalDistribution(1, (Rational(1), Rational(0)))
    rep = epsilon_fixed_point_check(up, mass_zero, eps)
    assert rep.exact_distance == eps
    assert rep.ok
    tighter = epsilon_fixed_point_check(up, mass_zero, Rational(1, 200))
    assert not tighter.ok


def test_epsilon_classical_zero_distance():
    chain = StochasticMatrix(2, Matrix.identity(2))
    d = ClassicalDistribution(1, (HALF, HALF))
    rep = epsilon_fixed_point_check(chain, d, Rational(0))
    assert rep.ok and rep.exact_distance == 0


def test_epsilon_quantum_trace_distance():
    prog = quantum_demo("grandfather")
    phi = program_to_natural(prog)
    mixed = DensityMatrix.maximally_mixed(2)
    rep = epsilon_fixed_point_check(phi, mixed, Rational(1, 1000))
    assert rep.ok
    assert rep.float_distance < 1e-12
    assert rep.exact_upper_bound == 0
    zero = DensityMatrix.basis_state(2, 0)
    far = epsilon_fixed_point_check(phi, zero, HALF)
    assert not far.ok
    assert abs(far.float_distance - 1.0) < 1e-9
    assert far.exact_upper_bound == 1
    assert far.float_distance <= float(far.exact_upper_bound) + 1e-9


def test_epsilon_check_type_errors():
    with pytest.raises(TypeError):
        epsilon_fixed_point_check(Matrix.identity(2), 3, Rational(1, 2))
    chain = StochasticMatrix(2, Matrix.identity(2))
    with pytest.raises(ValueError):
        epsilon_fixed_point_check(
            chain, ClassicalDistribution(2, (Rational(1), 0, 0, 0)), Rational(1)
        )


def test_thresholds_are_the_promised_constants():
    assert ACCEPT_THRESHOLD == Rational(2, 3)
    assert REJECT_THRESHOLD == Rational(1, 3)
