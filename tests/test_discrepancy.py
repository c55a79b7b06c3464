import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from oracles import disc_brute, eval_disc_brute, herdisc_brute, psd_brute
from sparsedisc.discrepancy import (
    Coloring,
    _is_psd,
    beck_fiala,
    beck_fiala_with_stats,
    eval_discrepancy,
    exact_discrepancy,
    herdisc_search,
    read_coloring,
    spectral_lower_bound,
    write_coloring,
)
from sparsedisc.errors import ParseError, ResourceLimitError
from sparsedisc.graphs import generate_family, sylvester_graph
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import (
    SetSystem,
    degree,
    neighborhood_system,
    random_system,
)

c5_system = lambda: neighborhood_system(generate_family("cycle", [5]))


def sylvester_system(p):
    return neighborhood_system(sylvester_graph(p))


def random_even_system(rng: SplitMix64, max_ground: int = 9) -> SetSystem:
    """Random system on 3..max_ground elements, at least as many sets as
    elements, all of even size: A^T A is often singular or nearly so."""
    n = 3 + rng.randrange(max_ground - 2)
    target = min(n + rng.randrange(n), 2 ** (n - 1) - 1)
    sets: set[tuple[int, ...]] = set()
    while len(sets) < target:
        size = 2 * (1 + rng.randrange(n // 2))
        sets.add(tuple(sorted(rng.sample(list(range(n)), size))))
    return SetSystem.from_sets(n, sets)


class TestEvalDiscrepancy:
    def test_balanced_pair(self):
        s = SetSystem.from_sets(2, [[0, 1]])
        assert eval_discrepancy(s, Coloring((1, -1))) == (0, None)

    def test_odd_set_parity(self):
        s = SetSystem.from_sets(3, [[0, 1, 2]])
        for values in [(1, 1, 1), (1, -1, 1), (-1, -1, 1)]:
            d, _ = eval_discrepancy(s, Coloring(values))
            assert d in (1, 3)

    def test_c5_all_plus(self):
        d, witness = eval_discrepancy(c5_system(), Coloring((1,) * 5))
        assert d == 2 and witness == 0

    def test_empty_system(self):
        assert eval_discrepancy(SetSystem.from_sets(3, []), Coloring((1, 1, 1))) == (0, None)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_discrepancy(c5_system(), Coloring((1, 1)))

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_global_negation(self, seed):
        rng = SplitMix64(seed)
        s = random_system(rng, max_ground=12, max_degree=4, max_sets=8)
        values = tuple(1 if rng.bernoulli(1, 2) else -1 for _ in range(s.ground_size))
        chi = Coloring(values)
        assert eval_discrepancy(s, chi)[0] == eval_discrepancy(s, Coloring(tuple(-x for x in values)))[0]

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_parity(self, seed):
        rng = SplitMix64(seed)
        s = random_system(rng, max_ground=12, max_degree=4, max_sets=8)
        values = tuple(1 if rng.bernoulli(1, 2) else -1 for _ in range(s.ground_size))
        for st_ in s.sets:
            assert abs(sum(values[v] for v in st_)) % 2 == len(st_) % 2


class TestBeckFiala:
    def test_singletons(self):
        s = SetSystem.from_sets(3, [[0], [1], [2]])
        chi = beck_fiala(s, check_conservation=True)
        assert eval_discrepancy(s, chi)[0] <= 1

    def test_c5(self):
        s = c5_system()
        chi = beck_fiala(s, check_conservation=True)
        assert eval_discrepancy(s, chi)[0] <= 3

    def test_random_degree_three_50_elements(self):
        rng = SplitMix64(1)
        capacity = [3] * 50
        sets = []
        for _ in range(25):
            avail = [v for v in range(50) if capacity[v]]
            if len(avail) < 4:
                break
            chosen = rng.sample(avail, min(6, len(avail)))
            for v in chosen:
                capacity[v] -= 1
            sets.append(chosen)
        s = SetSystem.from_sets(50, sets)
        t = degree(s)
        assert t <= 3
        chi = beck_fiala(s, check_conservation=True)
        assert eval_discrepancy(s, chi)[0] <= 2 * t - 1

    def test_guarantee_random_batch(self):
        rng = SplitMix64(77)
        for _ in range(120):
            s = random_system(rng, max_ground=60, max_degree=6, max_sets=12)
            t = degree(s)
            chi = beck_fiala(s, check_conservation=True)
            d, _ = eval_discrepancy(s, chi)
            assert d <= max(2 * t - 1, 0)

    def test_oracle_dominance(self):
        rng = SplitMix64(78)
        for _ in range(25):
            s = random_system(rng, max_ground=11, max_degree=4, max_sets=7)
            exact, _ = exact_discrepancy(s)
            chi = beck_fiala(s)
            assert exact <= eval_discrepancy(s, chi)[0]

    def test_degenerate_inputs(self):
        empty = SetSystem.from_sets(4, [])
        assert beck_fiala(empty).values == (1, 1, 1, 1)
        assert beck_fiala(SetSystem.from_sets(0, [])).values == ()

    def test_isolated_elements_frozen_positive(self):
        s = SetSystem.from_sets(5, [[1, 3]])
        chi = beck_fiala(s)
        assert chi.values[0] == chi.values[2] == chi.values[4] == 1

    def test_rounds_reported(self):
        _, rounds = beck_fiala_with_stats(c5_system())
        assert rounds >= 1


class TestExactDiscrepancy:
    def test_empty(self):
        assert exact_discrepancy(SetSystem.from_sets(0, []))[0] == 0

    def test_two_singletons(self):
        s = SetSystem.from_sets(2, [[0], [1]])
        assert exact_discrepancy(s)[0] == 1

    def test_c5_value_and_witness(self):
        # oracle: enumerate all 2^5 colorings
        s = c5_system()
        assert disc_brute(s) == 2
        val, chi = exact_discrepancy(s)
        assert val == 2
        assert eval_disc_brute(s, chi.values) == 2

    def test_witness_first_element_positive(self):
        rng = SplitMix64(21)
        for _ in range(10):
            s = random_system(rng, max_ground=8, max_degree=3, max_sets=6)
            _, chi = exact_discrepancy(s)
            assert chi.values[0] == 1

    def test_matches_brute_oracle(self):
        rng = SplitMix64(22)
        for _ in range(25):
            s = random_system(rng, max_ground=10, max_degree=4, max_sets=8)
            assert exact_discrepancy(s)[0] == disc_brute(s)

    def test_relabeling_invariance(self):
        rng = SplitMix64(23)
        for _ in range(10):
            s = random_system(rng, max_ground=9, max_degree=3, max_sets=6)
            perm = list(range(s.ground_size))
            rng.shuffle(perm)
            relabeled = SetSystem.from_sets(
                s.ground_size, ([perm[v] for v in st_] for st_ in s.sets)
            )
            assert exact_discrepancy(s)[0] == exact_discrepancy(relabeled)[0]

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            exact_discrepancy(SetSystem.from_sets(25, [[0]]))


class TestHerdiscSearch:
    def test_two_singletons(self):
        assert herdisc_search(SetSystem.from_sets(2, [[0], [1]]), budget=16)[0] == 1

    def test_c5_exhaustive(self):
        # oracle: all 2^5 subsets with exact discrepancy per trace
        s = c5_system()
        assert herdisc_brute(s) == 2
        val, witness = herdisc_search(s, budget=64)
        assert val == 2

    def test_at_least_disc(self):
        rng = SplitMix64(31)
        for _ in range(15):
            s = random_system(rng, max_ground=10, max_degree=3, max_sets=6)
            assert herdisc_search(s, budget=2048)[0] >= exact_discrepancy(s)[0]

    def test_lower_bound_when_budget_small(self):
        rng = SplitMix64(32)
        s = random_system(rng, max_ground=18, max_degree=4, max_sets=10)
        val, witness = herdisc_search(s, budget=40)
        assert val <= herdisc_brute(s)
        traced_val = exact_discrepancy(
            SetSystem.from_sets(
                len(witness),
                (
                    {sorted(witness).index(v) for v in st_ if v in set(witness)}
                    for st_ in s.sets
                ),
            )
        )[0]
        assert traced_val == val


class TestSpectralLowerBound:
    def test_identity_incidence(self):
        s = SetSystem.from_sets(3, [[0], [1], [2]])
        assert spectral_lower_bound(s) == 1

    def test_sound_on_random_systems(self):
        rng = SplitMix64(41)
        for _ in range(100):
            s = random_system(rng, max_ground=12, max_degree=4, max_sets=14)
            assert spectral_lower_bound(s) <= exact_discrepancy(s)[0]

    def test_sylvester_p2(self):
        s = sylvester_system(2)
        assert spectral_lower_bound(s) <= exact_discrepancy(s)[0]

    def test_empty(self):
        assert spectral_lower_bound(SetSystem.from_sets(4, [])) == 0

    def test_cap(self):
        n = 10**4
        fat = SetSystem.from_sets(n, [list(range(k, n)) for k in range(1001)])
        with pytest.raises(ResourceLimitError):
            spectral_lower_bound(fat)

    def test_even_set_regression(self):
        # A^T A is singular: + - - + spans its kernel and colors every set
        # to zero; an iteration that settles on the next eigenvalue (0.84)
        # reports 0.915 instead of 0
        s = SetSystem.from_json('{"ground_size":4,"sets":[[0,1],[0,1,2,3],[0,2],[1,3]]}')
        assert exact_discrepancy(s)[0] == 0
        assert spectral_lower_bound(s) == 0

    @staticmethod
    def eigvalsh_bound(s):
        m, n = len(s.sets), s.ground_size
        a = np.zeros((m, n))
        for i, st in enumerate(s.sets):
            a[i, list(st)] = 1
        return math.sqrt(max(np.linalg.eigvalsh(a.T @ a)[0], 0.0) * n / m)

    def test_even_set_corpus_sound_and_tight(self):
        rng = SplitMix64(2024)
        zero = 0
        for _ in range(2000):
            s = random_even_system(rng)
            assert len(s.sets) >= s.ground_size <= 9
            lower = spectral_lower_bound(s)
            assert lower <= exact_discrepancy(s)[0]
            assert abs(float(lower) - self.eigvalsh_bound(s)) <= 2e-6
            zero += lower == 0
        assert 100 < zero < 1900  # both singular and well-conditioned cases

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_sylvester_tight(self, p):
        s = sylvester_system(p)
        assert abs(float(spectral_lower_bound(s)) - self.eigvalsh_bound(s)) <= 2e-6


class TestIsPsd:
    FIXED = [
        ([[0, 1], [1, 0]], False),
        ([[0, 0], [0, 0]], True),
        ([[1, 1], [1, 1]], True),
        ([[1, 2], [2, 4]], True),
        ([[0, 0], [0, -1]], False),
        ([[1, 0], [0, 0]], True),
        ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], True),
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], False),  # zero pivot, nonzero row
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
        ([[-1]], False),
    ]

    @staticmethod
    def is_psd(matrix):
        return _is_psd([row[i:] for i, row in enumerate(matrix)])

    @pytest.mark.parametrize("matrix, expected", FIXED)
    def test_fixed(self, matrix, expected):
        assert psd_brute(matrix) == expected
        assert self.is_psd(matrix) == expected

    def test_random_gram_shifts_match_minors(self):
        # X^T X - c I with rank(X) < n often: singular PSD, PSD and not
        rng = SplitMix64(77)
        verdicts = []
        for _ in range(300):
            n = 1 + rng.randrange(6)
            r = rng.randrange(n + 1)
            x = [[rng.randrange(5) - 2 for _ in range(n)] for _ in range(r)]
            c = rng.randrange(3)
            matrix = [
                [sum(row[i] * row[j] for row in x) - (c if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            expected = psd_brute(matrix)
            assert self.is_psd(matrix) == expected, matrix
            verdicts.append(expected)
        assert 50 < sum(verdicts) < 250


class TestColoringIO:
    def test_round_trip(self):
        chi = Coloring((1, -1, 1))
        buf = io.StringIO()
        write_coloring(chi, buf)
        assert read_coloring(io.StringIO(buf.getvalue()), 3) == chi

    def test_rejects_partial(self):
        with pytest.raises(ParseError):
            read_coloring(io.StringIO("0 1\n"), 2)

    def test_rejects_bad_value(self):
        with pytest.raises(ParseError):
            read_coloring(io.StringIO("0 2\n1 1\n"), 2)


class TestSylvesterOracles:
    # frozen from the pre-build exhaustive oracle run
    FROZEN = {1: 1, 2: 2, 3: 2}

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_exact_matches_frozen_oracle(self, p):
        s = sylvester_system(p)
        val, _ = exact_discrepancy(s)
        assert val == self.FROZEN[p]
        assert disc_brute(s) == self.FROZEN[p]

    def test_sequence_non_decreasing(self):
        vals = [self.FROZEN[p] for p in (1, 2, 3)]
        assert vals == sorted(vals)
