"""Acceptance suite: one test per criterion, one printed pass/fail line
each (run with `pytest -s tests/test_acceptance.py` to see them inline).
All tolerances are exact integer or rational comparisons.
"""
import time
from fractions import Fraction
from itertools import product
from math import ceil

from oracles import assemble, bipartite_double, disc_brute, herdisc_brute, subdivide
from sparsedisc.approx import epsilon_approximation, verify_net
from sparsedisc.discrepancy import (
    Coloring,
    beck_fiala,
    eval_discrepancy,
    exact_discrepancy,
    herdisc_search,
    spectral_lower_bound,
)
from sparsedisc.formulas import Eq, Not, Pred, QFFormula, Term, parse_formula, render
from sparsedisc.formulas import And as FAnd
from sparsedisc.formulas import Or as FOr
from sparsedisc.graphs import (
    generate_family,
    random_degenerate_graph,
    sylvester_graph,
)
from sparsedisc.orderings import degeneracy_order, wcol_exact
from sparsedisc.pointer import (
    PointerStructure,
    defined_system,
    eval_formula,
    from_degenerate_graph,
    psi_system_sets,
    qf_color,
    qf_decompose,
)
from sparsedisc.power_coloring import (
    in_neighborhood_system,
    orientation_coloring,
    power_coloring,
)
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import (
    SetSystem,
    degree,
    edge_color_system,
    neighborhood_system,
    random_system,
    trace,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num} ({name}): {detail}")
    assert ok, f"acceptance {num} ({name}) failed: {detail}"


def test_01_beck_fiala_contract():
    start = time.monotonic()
    rng = SplitMix64(2024)
    violations = 0
    for _ in range(1000):
        s = random_system(rng, max_ground=500, max_degree=6, max_sets=30)
        t = degree(s)
        chi = beck_fiala(s)
        d, _ = eval_discrepancy(s, chi)
        if d > max(2 * t - 1, 0):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 120.0
    report(1, "bounded-degree rounding", ok,
           f"1000 systems, {violations} violations, {elapsed:.1f}s")


def _criterion2_corpus():
    graphs = []
    for r in range(2, 6):
        for c in range(r, 7):
            graphs.append(generate_family("grid", [r, c]))
    rng = SplitMix64(77)
    for n in (10, 15, 20, 25, 30, 35, 40):
        for num, den in ((1, 8), (1, 4), (2, 5)):
            for _ in range(6):
                graphs.append(generate_family("gnp", [n, num, den], seed=rng.next_u64()))
    for n in (8, 12, 16):
        for r in (1, 2):
            for _ in range(10):
                base = generate_family("gnp", [n, 1, 3], seed=rng.next_u64())
                graphs.append(subdivide(base, r))
    graphs = [g for g in graphs if g.edge_count() > 0]
    return graphs[:200]


def test_02_orientation_bound_hereditary():
    graphs = _criterion2_corpus()
    assert len(graphs) == 200
    rng = SplitMix64(99)
    full_bad = traced_bad = 0
    for g in graphs:
        order, dgn = degeneracy_order(g)
        chi, bound = orientation_coloring(g)
        d, _ = eval_discrepancy(neighborhood_system(g), chi)
        if not d < 3 * dgn:
            full_bad += 1
        ins = in_neighborhood_system(g, order)
        full = neighborhood_system(g)
        for _ in range(50):
            subset = [v for v in range(g.n) if rng.bernoulli(1, 2)]
            if not subset:
                continue
            traced_ins, _ = trace(ins, subset)
            traced_full, _ = trace(full, subset)
            chi_x = beck_fiala(traced_ins)
            dx, _ = eval_discrepancy(traced_full, chi_x)
            if not dx < 3 * dgn:
                traced_bad += 1
    ok = full_bad == 0 and traced_bad == 0
    report(2, "orientation pipeline < 3*degeneracy", ok,
           f"200 graphs, full violations {full_bad}, traced violations {traced_bad}")


def test_03_exact_oracles():
    c5 = neighborhood_system(generate_family("cycle", [5]))
    disc_c5, _ = exact_discrepancy(c5)
    herdisc_c5, _ = herdisc_search(c5, budget=32)
    # frozen from the pre-build exhaustive oracle, reconfirmed here
    frozen = {1: 1, 2: 2, 3: 2}
    sylvester_ok = True
    values = []
    for p in (1, 2, 3):
        s = neighborhood_system(sylvester_graph(p))
        val, _ = exact_discrepancy(s)
        values.append(val)
        if val != frozen[p] or disc_brute(s) != frozen[p]:
            sylvester_ok = False
    ok = (
        disc_c5 == 2
        and herdisc_c5 == 2
        and herdisc_brute(c5) == 2
        and sylvester_ok
        and values == sorted(values)
    )
    report(3, "exhaustive oracles", ok,
           f"disc(C5)={disc_c5}, herdisc(C5)={herdisc_c5}, sylvester={values}")


def test_04_power_pipeline_certificates():
    graphs = [generate_family("grid", [k, k]) for k in range(3, 9)]
    rng = SplitMix64(404)
    for n in (20, 30, 40, 50, 60):
        for num, den in ((1, 10), (1, 6)):
            graphs.append(generate_family("gnp", [n, num, den], seed=rng.next_u64()))
    bad = d1_bad = 0
    runs = 0
    for g in graphs:
        _, dgn = degeneracy_order(g)
        for d in (1, 2, 3):
            chi, cert = power_coloring(g, d)
            runs += 1
            if not cert.achieved < cert.claimed_bound:
                bad += 1
            if d == 1 and cert.claimed_bound != 3 * (dgn + 1):
                d1_bad += 1
    ok = bad == 0 and d1_bad == 0
    report(4, "power-coloring certificates", ok,
           f"{runs} runs, bound violations {bad}, d=1 certificate mismatches {d1_bad}")


def test_05_wcol_identity(small_corpus):
    checked = 0
    ok = True
    for name, g in small_corpus:
        if g.n > 7:
            continue
        checked += 1
        if wcol_exact(g, 1) != degeneracy_order(g)[1] + 1:
            ok = False
    report(5, "depth-1 weak coloring = degeneracy + 1", ok,
           f"{checked} graphs exhausted over all orderings")


def _random_formula(rng: SplitMix64) -> QFFormula:
    def term(side: str) -> Term:
        word = tuple(("f", "g")[rng.randrange(2)] for _ in range(rng.randrange(3)))
        return Term(side, 0, word)

    def atom():
        if rng.randrange(3) == 0:
            return Pred(("A", "B")[rng.randrange(2)], term(("x", "y")[rng.randrange(2)]))
        pair = (("x", "x"), ("x", "y"), ("y", "y"))[rng.randrange(3)]
        return Eq(term(pair[0]), term(pair[1]))

    nodes = [atom() for _ in range(1 + rng.randrange(4))]
    nodes = [Not(a) if rng.bernoulli(1, 3) else a for a in nodes]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        right = nodes.pop(i + 1)
        joined = FAnd((nodes[i], right)) if rng.bernoulli(1, 2) else FOr((nodes[i], right))
        if rng.bernoulli(1, 6):
            joined = Not(joined)
        nodes[i] = joined
    return parse_formula(render(nodes[0]))


def test_06_decomposition_soundness():
    rng = SplitMix64(606)
    mismatches = 0
    disjointness_bad = 0
    pairs = 0
    while pairs < 500:
        n = 2 + rng.randrange(7)
        m = PointerStructure(
            n,
            {
                "f": tuple(rng.randrange(n) for _ in range(n)),
                "g": tuple(rng.randrange(n) for _ in range(n)),
            },
            {
                "A": frozenset(v for v in range(n) if rng.bernoulli(1, 2)),
                "B": frozenset(v for v in range(n) if rng.bernoulli(1, 2)),
            },
        )
        phi = _random_formula(rng)
        pairs += 1
        dec = qf_decompose(phi)
        xs = list(product(range(n), repeat=phi.x_arity))
        for b in product(range(n), repeat=phi.y_arity):
            direct = {
                sum(a_k * n**i for i, a_k in enumerate(reversed(a)))
                for a in xs
                if eval_formula(m, phi, a, b)
            }
            if assemble(m, dec, b) != direct:
                mismatches += 1
        for psi in dec.psis:
            sets = psi_system_sets(m, psi)
            flat = [v for s in sets for v in s]
            if len(flat) != len(set(flat)) or len(flat) != n:
                disjointness_bad += 1
    ok = mismatches == 0 and disjointness_bad == 0
    report(6, "decomposition soundness", ok,
           f"500 pairs, {mismatches} mismatches, {disjointness_bad} disjointness faults")


def test_07_constant_bound_across_sizes():
    sizes = (10, 50, 200, 500)
    achieved = {}
    bound_value = None
    for n in sizes:
        g = random_degenerate_graph(n, 2, seed=1000 + n)
        m, eta = from_degenerate_graph(g)
        chi, bound = qf_color(m, [eta])
        d, _ = eval_discrepancy(defined_system(m, eta), chi)
        achieved[n] = d
        bound_value = bound
    within = all(achieved[n] <= bound_value for n in sizes)
    # no growth: the largest structure sets no new maximum
    no_growth = achieved[500] <= max(achieved[n] for n in sizes[:-1])
    ok = within and no_growth
    report(7, "definable-system constant bound", ok,
           f"achieved {achieved} vs constant {bound_value}")


def test_08_epsilon_approximation_grid():
    s = neighborhood_system(generate_family("grid", [8, 8]))
    eps = Fraction(1, 4)
    rep = epsilon_approximation(s, eps)
    bmax = max(rec.disc_used for rec in rep.levels)
    size_law = len(rep.sample) <= ceil(2 * bmax / eps)
    ok = (
        rep.epsilon_measured <= rep.epsilon_claimed <= eps
        and size_law
        and verify_net(s, rep.sample, eps)
    )
    report(8, "epsilon approximation on the 8x8 grid", ok,
           f"|A|={len(rep.sample)}, claimed={rep.epsilon_claimed}, "
           f"measured={rep.epsilon_measured}, B_max={bmax}")


def test_09_edge_colored_transfer():
    rng = SplitMix64(909)
    deg_bad = family_bad = disc_bad = 0
    for _ in range(100):
        n = 8 + rng.randrange(13)
        g = generate_family("gnp", [n, 1, 3], seed=rng.next_u64())
        if g.edge_count() == 0:
            g = generate_family("cycle", [max(n, 3)])
        gamma = {e: 1 + rng.randrange(2) for e in g.edges()}
        doubled = bipartite_double(g, gamma)
        _, dg = degeneracy_order(g)
        _, dd = degeneracy_order(doubled)
        if dd > dg:
            deg_bad += 1
        colored = edge_color_system(g, gamma)
        nbrs = {frozenset(t) for t in neighborhood_system(doubled).sets}
        if not {frozenset(t) for t in colored.sets} <= nbrs:
            family_bad += 1
        chi, _ = orientation_coloring(doubled)
        restricted = Coloring(chi.values[: g.n])
        d, _ = eval_discrepancy(colored, restricted)
        if not d < 3 * dg:
            disc_bad += 1
    ok = deg_bad == 0 and family_bad == 0 and disc_bad == 0
    report(9, "edge-colored neighborhood transfer", ok,
           f"100 graphs, degeneracy faults {deg_bad}, family faults {family_bad}, "
           f"bound faults {disc_bad}")


def test_10_spectral_soundness():
    rng = SplitMix64(1010)
    bad = 0
    for _ in range(100):
        s = random_system(rng, max_ground=12, max_degree=4, max_sets=14)
        lower = spectral_lower_bound(s)
        exact, _ = exact_discrepancy(s)
        if lower > exact:
            bad += 1
    report(10, "spectral lower bound soundness", bad == 0,
           f"100 systems, {bad} violations")
