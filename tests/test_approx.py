import hashlib
from fractions import Fraction
from math import ceil

import pytest

from oracles import approx_error_brute, canonical_system
from sparsedisc import approx
from sparsedisc.approx import (
    epsilon_approximation,
    frac_str,
    halve,
    verify_approximation,
    verify_net,
)
from sparsedisc.graphs import generate_family
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem, degree, neighborhood_system, random_system


def with_ground(s: SetSystem) -> SetSystem:
    return SetSystem.from_sets(s.ground_size, list(s.sets) + [range(s.ground_size)])


class TestHalve:
    def test_pair(self):
        s = SetSystem.from_sets(2, [[0, 1]])
        kept, used = halve(s, [0, 1])
        assert len(kept) == 1

    def test_kept_size_always_half_rounded_up(self):
        rng = SplitMix64(50)
        for _ in range(30):
            s = with_ground(random_system(rng, max_ground=30, max_degree=4, max_sets=8))
            current = [v for v in range(s.ground_size) if rng.bernoulli(3, 4)]
            if not current:
                continue
            kept, _ = halve(s, current)
            assert len(kept) == (len(current) + 1) // 2

    def test_c5_trace(self):
        s = with_ground(neighborhood_system(generate_family("cycle", [5])))
        kept, used = halve(s, range(5))
        assert len(kept) == 3
        imbalance = used  # disc part + move part together
        assert used <= 2 * degree(s) - 1 + 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            halve(with_ground(SetSystem.from_sets(3, [[0]])), [])


class TestEpsilonApproximation:
    def test_eps_one_allows_a_halving(self):
        s = neighborhood_system(generate_family("grid", [4, 4]))
        report = epsilon_approximation(s, Fraction(1))
        assert len(report.sample) <= 8  # several halvings go through
        assert report.epsilon_measured <= 1

    def test_claim_is_the_weighted_level_sum(self):
        # epsilon_claimed must equal (2/|U|) * sum_i 2^i * disc_used_i over
        # the applied levels, recomputed here from the report records
        rng = SplitMix64(54)
        systems = [neighborhood_system(generate_family("grid", [8, 8]))] + [
            random_system(rng, max_ground=30, max_degree=4, max_sets=8)
            for _ in range(10)
        ]
        for s in systems:
            report = epsilon_approximation(s, Fraction(1, 4))
            total = sum(
                2**i * rec.disc_used
                for i, rec in enumerate(r for r in report.levels if r.applied)
            )
            assert report.epsilon_claimed == Fraction(2 * total, s.ground_size)

    def test_grid_8x8_quarter(self):
        s = neighborhood_system(generate_family("grid", [8, 8]))
        report = epsilon_approximation(s, Fraction(1, 4))
        assert report.epsilon_measured <= report.epsilon_claimed <= Fraction(1, 4)
        bmax = max(rec.disc_used for rec in report.levels)
        assert len(report.sample) <= ceil(2 * bmax / Fraction(1, 4))
        assert verify_net(s, report.sample, Fraction(1, 4))

    def test_measured_matches_brute_oracle(self):
        rng = SplitMix64(51)
        for _ in range(15):
            s = random_system(rng, max_ground=24, max_degree=4, max_sets=8)
            report = epsilon_approximation(s, Fraction(1, 2))
            assert report.epsilon_measured == approx_error_brute(s, set(report.sample))

    def test_monotone_level_sizes(self):
        s = neighborhood_system(generate_family("grid", [6, 6]))
        report = epsilon_approximation(s, Fraction(1, 8))
        size = 36
        for rec in report.levels:
            assert rec.size == size
            if rec.applied:
                size = (size + 1) // 2
                assert len(rec.kept) == size

    def test_deterministic_reports(self):
        s = neighborhood_system(generate_family("gnp", [30, 1, 4], seed=3))
        a = epsilon_approximation(s, Fraction(1, 3)).to_json()
        b = epsilon_approximation(s, Fraction(1, 3)).to_json()
        assert a == b

    def test_ground_adjoined_flag(self):
        s = SetSystem.from_sets(4, [[0, 1]])
        assert epsilon_approximation(s, Fraction(1)).ground_adjoined
        assert not epsilon_approximation(with_ground(s), Fraction(1)).ground_adjoined

    def test_claim_soundness_random(self):
        rng = SplitMix64(52)
        for _ in range(40):
            s = random_system(rng, max_ground=40, max_degree=5, max_sets=10)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 5)):
                report = epsilon_approximation(s, eps)
                assert report.epsilon_measured <= report.epsilon_claimed
                assert report.epsilon_claimed <= eps

    def test_bad_eps(self):
        s = SetSystem.from_sets(2, [[0]])
        for eps in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                epsilon_approximation(s, eps)


class TestCarrier:
    """epsilon_approximation holds the carrier it builds from the input:
    no from_sets canonicalization, and level 0 hands the solver the
    carrier object, since the whole-ground trace is the system itself."""

    @pytest.mark.parametrize("has_ground", [False, True])
    def test_no_rebuild(self, monkeypatch, has_ground):
        s = neighborhood_system(generate_family("grid", [8, 8]))
        if has_ground:
            s = with_ground(s)
        halved, solved, rebuilt = [], [], []
        real_halve, real_bf, real_from_sets = approx.halve, approx.beck_fiala, SetSystem.from_sets
        monkeypatch.setattr(approx, "halve", lambda c, cur: halved.append(c) or real_halve(c, cur))
        monkeypatch.setattr(approx, "beck_fiala", lambda t: solved.append(t) or real_bf(t))
        monkeypatch.setattr(
            SetSystem, "from_sets", classmethod(lambda cls, *a: rebuilt.append(a) or real_from_sets(*a))
        )
        report = epsilon_approximation(s, Fraction(1))
        assert report.ground_adjoined is not has_ground
        assert not rebuilt
        carrier = halved[0]
        assert all(c is carrier for c in halved) and len(halved) == len(report.levels) >= 2
        assert solved[0] is carrier
        if has_ground:
            assert carrier is s
        else:
            assert carrier.sets == with_ground(s).sets and canonical_system(carrier)

    def test_carrier_sets(self, monkeypatch):
        # the ground tuple lands at its sorted place: middle, already
        # there, first and last
        solved = []
        real_bf = approx.beck_fiala
        monkeypatch.setattr(approx, "beck_fiala", lambda t: solved.append(t) or real_bf(t))
        for sets in ([[0, 1], [2]], [[0, 1, 2, 3, 4]], [[1], [3, 4]], [[0], [0, 1, 2, 3]]):
            s = SetSystem.from_sets(5, sets)
            solved.clear()
            epsilon_approximation(s, Fraction(1))
            assert solved[0].sets == with_ground(s).sets


class TestVerifyApproximation:
    def test_full_sample_zero_error(self):
        s = SetSystem.from_sets(4, [[0, 1], [2]])
        ok, worst, measured = verify_approximation(s, range(4), Fraction(1, 10))
        assert ok and measured == 0

    def test_proportional_sample(self):
        s = SetSystem.from_sets(4, [[0, 1, 2, 3]])
        ok, _, measured = verify_approximation(s, [0, 1], Fraction(1, 100))
        assert measured == 0 and ok

    def test_half_miss(self):
        s = SetSystem.from_sets(2, [[1]])
        ok, worst, measured = verify_approximation(s, [0], Fraction(1, 4))
        assert not ok and worst == 0 and measured == Fraction(1, 2)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 2), Fraction(3, 2), Fraction(2)])
    def test_bad_eps(self, eps):
        s = SetSystem.from_sets(2, [[0]])
        with pytest.raises(ValueError):
            verify_approximation(s, [0, 1], eps)
        with pytest.raises(ValueError):
            verify_net(s, [0, 1], eps)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            verify_approximation(SetSystem.from_sets(2, [[0]]), [], Fraction(1, 2))

    @pytest.mark.parametrize("sample", [[0, 1, 77], [0, -1], [5]])
    def test_sample_outside_ground_rejected(self, sample):
        s = neighborhood_system(generate_family("cycle", [5]))
        with pytest.raises(ValueError):
            verify_approximation(s, sample, Fraction(1, 2))


class TestVerifyNet:
    def test_full_ground_set_hit(self):
        s = SetSystem.from_sets(3, [[0, 1, 2]])
        assert verify_net(s, [1], Fraction(1))

    def test_empty_sample_fails_on_large_set(self):
        s = SetSystem.from_sets(3, [[0, 1, 2]])
        assert not verify_net(s, [], Fraction(1, 2))

    def test_small_sets_exempt(self):
        s = SetSystem.from_sets(10, [[0]])
        assert verify_net(s, [9], Fraction(1, 2))

    def test_approximations_are_nets(self):
        rng = SplitMix64(53)
        for _ in range(100):
            s = random_system(rng, max_ground=30, max_degree=4, max_sets=8)
            eps = Fraction(1, 2 + rng.randrange(4))
            report = epsilon_approximation(s, eps)
            assert verify_net(s, report.sample, eps)


def _degree4_blocks(n: int, rng: SplitMix64) -> SetSystem:
    """Four shuffled partitions of the ground into blocks of 20, as in the
    approx benchmark's large family."""
    sets = []
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        sets.extend(perm[i:i + 20] for i in range(0, n, 20))
    return SetSystem.from_sets(n, sets)


class TestIntegerErrors:
    """verify_approximation and verify_net compare integers; on systems
    like the approx benchmark's they must agree with the Fraction formulas
    and with the brute oracle, ties and the first worst set included."""

    def test_agrees_with_fractions_and_oracle(self):
        rng = SplitMix64(56)
        systems = [random_system(rng, max_ground=500) for _ in range(8)]
        systems += [_degree4_blocks(n, rng) for n in (100, 200, 300)]
        checked = 0
        for s in systems:
            n, first = s.ground_size, s.sets[0]
            samples = [epsilon_approximation(s, Fraction(1, 4)).sample]
            samples += [[v for v in range(n) if rng.bernoulli(1, 3)] or [0] for _ in range(2)]
            samples.append([v for v in range(n) if v not in first] or [0])
            # the last eps puts the first set, which the last sample
            # misses, exactly on the net threshold
            for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1), Fraction(max(len(first), 1), n)):
                for sample in samples:
                    inside = set(sample)
                    errors = [
                        abs(Fraction(sum(v in inside for v in st), len(inside)) - Fraction(len(st), n))
                        for st in s.sets
                    ]
                    worst = max(errors, default=Fraction(0))
                    first = errors.index(worst) if worst else None
                    assert verify_approximation(s, sample, eps) == (worst <= eps, first, worst)
                    assert worst == approx_error_brute(s, inside)
                    net = all(Fraction(len(st)) < eps * n or inside & set(st) for st in s.sets)
                    assert verify_net(s, sample, eps) == net
                    checked += 1
        assert checked == 4 * 4 * len(systems)


# sha256 over the reports and verdicts of the corpus below, pinned on the
# code before the carrier and the whole-ground trace stopped being rebuilt
APPROX_DIGEST = "fc40d4db74e68259c9d85e810e12261b8d48ea4fab1b0c6dcfaa4cf9097297e2"


def _digest_corpus() -> list[SetSystem]:
    """Blocks of 20 (n = 20 has the ground as a member), random systems up
    to ground 500, grid and cycle neighborhoods, each also with the
    ground adjoined."""
    rng = SplitMix64(57)
    systems = [_degree4_blocks(n, rng) for n in (20, 60, 100, 200)]
    systems += [random_system(rng, max_ground=500) for _ in range(6)]
    systems += [
        neighborhood_system(generate_family(family, params))
        for family, params in (("grid", [6, 6]), ("grid", [8, 8]), ("cycle", [9]), ("cycle", [40]))
    ]
    return systems + [with_ground(s) for s in systems]


def test_approx_digest():
    h = hashlib.sha256()
    for s in _digest_corpus():
        for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 8)):
            report = epsilon_approximation(s, eps)
            ok, worst_set, worst = verify_approximation(s, report.sample, eps)
            net = verify_net(s, report.sample, eps)
            h.update(report.to_json().encode())
            h.update(f"|{ok},{worst_set},{frac_str(worst)},{net}\n".encode())
    assert h.hexdigest() == APPROX_DIGEST
