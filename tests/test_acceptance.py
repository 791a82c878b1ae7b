"""Acceptance suite: every criterion at its stated size, seed set, and
zero-tolerance check, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from strictgames.axioms import Lens, audit_mixture_axioms
from strictgames.bench import run_bench, write_csv
from strictgames.detection import (
    detect_affine,
    find_mixed_violation,
    is_adversarial,
    pure_ordinal_competitive,
    to_zero_sum,
)
from strictgames.games import expected_utility, new_game, random_profile
from strictgames.generators import Family, GenSpec, gen_disguised, gen_ordinal
from strictgames.solvers import (
    enumeration_agrees,
    equilibrium_invariance_check,
    minimax_solve,
    support_enumeration,
)
from strictgames.strategic import strategically_zero_sum_detect

PRISONERS = new_game([[3, 0], [5, 1]], [[3, 5], [0, 1]])


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _disguised_batch(count: int, seed_base: int, lo_dim: int, hi_dim: int):
    """Seeded disguised games with planted transforms, sizes cycling."""
    span = hi_dim - lo_dim + 1
    batch = []
    for k in range(count):
        rows = lo_dim + (k % span)
        cols = lo_dim + ((k // span) % span)
        spec = GenSpec(Family.DISGUISED_ZERO_SUM, rows, cols, seed=seed_base + k)
        batch.append(gen_disguised(random.Random(spec.seed), spec))
    return batch


@pytest.fixture(scope="module")
def disguised_1000():
    return _disguised_batch(1000, seed_base=1_000, lo_dim=2, hi_dim=10)


def test_criterion_1_affine_recovery(disguised_1000):
    recovered = 0
    elapsed = 0.0
    for game, planted in disguised_1000:
        t0 = time.perf_counter()
        result = detect_affine(game)
        elapsed += time.perf_counter() - t0
        if result.status == "adversarial" and result.transform == planted:
            recovered += 1
    ok = recovered == 1000 and elapsed < 5.0
    _report(
        1,
        "affine recovery",
        ok,
        f"{recovered}/1000 exact planted transforms, detection {elapsed:.3f}s < 5s",
    )


def test_criterion_2_pure_mixed_separation():
    games = []
    for k in range(500):
        rows = 2 + (k % 5)
        cols = 2 + ((k // 5) % 5)
        spec = GenSpec(Family.ORDINAL_NOT_AFFINE, rows, cols, seed=10_000 + k)
        games.append(gen_ordinal(random.Random(spec.seed), spec))

    pure_ok = sum(pure_ordinal_competitive(g) is True for g in games)
    mixed_not = sum(not is_adversarial(g) for g in games)

    witnesses = 0
    witnesses_exact = True
    for k, g in enumerate(games):
        found = find_mixed_violation(g, budget=2_000, seed=20_000 + k)
        if found is None:
            continue
        witnesses += 1
        sigma, tau = found
        ge1 = expected_utility(g, 1, sigma) >= expected_utility(g, 1, tau)
        le2 = expected_utility(g, 2, sigma) <= expected_utility(g, 2, tau)
        if ge1 == le2:
            witnesses_exact = False

    ok = (
        pure_ok == 500
        and mixed_not == 500
        and witnesses >= 495
        and witnesses_exact
    )
    _report(
        2,
        "pure/mixed separation",
        ok,
        f"pure-ordinal {pure_ok}/500, non-adversarial {mixed_not}/500, "
        f"witnesses {witnesses}/500 (need >= 495), all witnesses exact: {witnesses_exact}",
    )


def test_criterion_3_normalization_identity(disguised_1000):
    exact = 0
    for game, _ in disguised_1000:
        z = to_zero_sum(game, detect_affine(game).transform)
        u1, u2 = z.u1, z.u2  # each read builds the Fraction view
        if all(
            u1[i][j] + u2[i][j] == 0
            for i in range(z.rows)
            for j in range(z.cols)
        ):
            exact += 1
    _report(
        3,
        "normalization identity",
        exact == 1000,
        f"{exact}/1000 normalizations sum to the zero matrix bit-exactly",
    )


def test_criterion_4_anchor_independence():
    games = _disguised_batch(100, seed_base=50_000, lo_dim=2, hi_dim=4)
    consistent = 0
    for game, planted in games:
        cells = game.cells()
        u1 = game.u1
        pairs = [
            (c1, c2)
            for idx, c1 in enumerate(cells)
            for c2 in cells[idx + 1 :]
            if u1[c1[0]][c1[1]] != u1[c2[0]][c2[1]]
        ]
        results = {
            (r.status, r.transform)
            for r in (detect_affine(game, anchors=p) for p in pairs)
        }
        if results == {("adversarial", planted)}:
            consistent += 1
    _report(
        4,
        "anchor independence",
        consistent == 100,
        f"{consistent}/100 games identical (alpha, beta) over every valid anchor pair",
    )


def test_criterion_5_triple_compatibility():
    from strictgames.detection import three_profile_compatibility

    games = _disguised_batch(100, seed_base=60_000, lo_dim=2, hi_dim=6)
    trials = matches = 0
    for k, (game, planted) in enumerate(games):
        rng = random.Random(61_000 + k)
        for _ in range(50):
            while True:
                triple = [random_profile(rng, game) for _ in range(3)]
                e1 = [expected_utility(game, 1, p) for p in triple]
                if not e1[0] == e1[1] == e1[2]:
                    break
            trials += 1
            if three_profile_compatibility(game, *triple) == planted:
                matches += 1
    _report(
        5,
        "triple compatibility",
        trials == 5_000 and matches == 5_000,
        f"{matches}/{trials} sampled triples recover the global transform",
    )


def test_criterion_6_axiom_audit():
    rng = random.Random(30_000)
    failures = 0
    ms4_fired = ms5_fired = 0
    for k in range(200):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        u1 = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        u2 = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        game = new_game(u1, u2)
        for lens in (Lens.NEG_U1, Lens.U2):
            report = audit_mixture_axioms(game, lens, samples=200, seed=40_000 + k)
            failures += sum(s.failures for s in report.axioms.values())
            ms4_fired += report.axioms["MS4"].checked
            ms5_fired += report.axioms["MS5"].checked
    ok = failures == 0 and ms4_fired > 0 and ms5_fired > 0
    _report(
        6,
        "axiom audit",
        ok,
        f"0 failures required, got {failures}; MS4 fired {ms4_fired} times, "
        f"MS5 fired {ms5_fired} times (witnesses verified exactly inside the audit)",
    )


def test_criterion_7_solver_cross_validation(disguised_1000):
    # a game whose enumeration finds no equilibrium compares nothing, so it
    # counts as unchecked, never as agreeing
    lp_checked = lp_agree = lp_unchecked = 0
    for game, _ in disguised_1000:
        if game.rows > 5 or game.cols > 5:
            continue
        z = to_zero_sum(game, detect_affine(game).transform)
        agree = enumeration_agrees(minimax_solve(z).value, support_enumeration(z))
        if agree is None:
            lp_unchecked += 1
            continue
        lp_checked += 1
        lp_agree += agree

    inv_checked = inv_agree = inv_unchecked = inv_trivial = 0
    for game, planted in _disguised_batch(200, seed_base=70_000, lo_dim=2, hi_dim=4):
        holds = equilibrium_invariance_check(game, planted)
        if support_enumeration(game):
            inv_checked += 1
            inv_agree += holds
        else:  # True then only says the normalized game has none either
            inv_unchecked += 1
            inv_trivial += holds

    ok = (
        lp_checked > 0
        and lp_agree == lp_checked
        and inv_checked > 0
        and inv_agree == inv_checked
        and inv_trivial == inv_unchecked
    )
    _report(
        7,
        "solver cross-validation",
        ok,
        f"LP value equals every enumerated equilibrium payoff on {lp_agree}/{lp_checked} "
        f"normalized games <= 5x5 ({lp_unchecked} unchecked: no equilibrium found); "
        f"equilibrium invariance on {inv_agree}/{inv_checked} games "
        f"({inv_unchecked} unchecked: no equilibrium found)",
    )


def test_criterion_8_mv_inclusion():
    games = _disguised_batch(200, seed_base=80_000, lo_dim=2, hi_dim=6)
    found = verified = 0
    for game, _ in games:
        d = strategically_zero_sum_detect(game)
        if d is not None:
            found += 1
            if d.verifies(game):
                verified += 1
    pd_none = strategically_zero_sum_detect(PRISONERS) is None
    ok = found == 200 and verified == 200 and pd_none
    _report(
        8,
        "Moulin-Vial inclusion",
        ok,
        f"{found}/200 adversarial games decompose, {verified}/200 re-verify exactly, "
        f"prisoner's dilemma rejected: {pd_none}",
    )


def test_criterion_9_bench_sanity(tmp_path):
    families = [
        Family.DISGUISED_ZERO_SUM,
        Family.ORDINAL_NOT_AFFINE,
        Family.STRATEGIC_ZERO_SUM,
        Family.UNIFORM,
    ]
    lp_sizes = [(2, 2), (3, 3), (5, 5), (10, 10), (25, 25), (50, 50)]
    small_sizes = [(2, 2), (4, 4), (5, 5)]
    seeds = [1, 2]

    records = run_bench([Family.DISGUISED_ZERO_SUM], lp_sizes, seeds)
    records += run_bench(families[1:], small_sizes, seeds)
    compared = [r.agree for r in records if r.agree is not None]
    ran_50 = any(r.rows == 50 and r.lp_ns is not None for r in records)

    def stable(rs):
        return [(r.family, r.rows, r.cols, r.seed, r.lp_ns is None, r.enum_ns is None, r.agree) for r in rs]

    rerun = run_bench([Family.DISGUISED_ZERO_SUM], lp_sizes, seeds)
    rerun += run_bench(families[1:], small_sizes, seeds)
    deterministic = stable(records) == stable(rerun)

    csv_path = tmp_path / "bench.csv"
    write_csv(str(csv_path), records)
    produced = csv_path.exists() and csv_path.read_text().startswith(
        "family,rows,cols,seed,detect_ns,lp_ns,enum_ns,agree"
    )

    # the disguised cells up to the enumeration cap (2x2, 3x3, 5x5 for two
    # seeds) are the only ones where both paths run; the rest compare nothing
    ok = compared == [True] * 6 and ran_50 and deterministic and produced
    _report(
        9,
        "bench sanity",
        ok,
        f"{compared.count(True)}/{len(compared)} compared cells agree "
        f"({len(records) - len(compared)} of {len(records)} compare nothing), "
        f"LP ran at 50x50: {ran_50}, "
        f"grid deterministic: {deterministic}, CSV artifact written: {produced}",
    )
