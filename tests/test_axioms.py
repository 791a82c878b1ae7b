import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames.axioms import (
    InducedPreference,
    Lens,
    audit_mixture_axioms,
    ms4_witness,
)
from strictgames.games import MixedProfile, MixedStrategy, expected_utility
from strictgames.games import new_game, pure_profile, uniform_profile

MATCHING_PENNIES = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
CUBE = new_game([[0, 1], [2, 4]], [[0, -1], [-8, -64]])


def all_zero(report):
    return {k: v.failures for k, v in report.axioms.items()} == {
        "MS1": 0, "MS2": 0, "MS3": 0, "MS4": 0, "MS5": 0,
    }


def test_matching_pennies_neg_u1():
    report = audit_mixture_axioms(MATCHING_PENNIES, Lens.NEG_U1, 200, seed=3)
    assert report.overall_pass
    assert all_zero(report)


@pytest.mark.parametrize(
    "samples, seed",
    [(True, 0), (2.0, 0), (20, 1.5), (20, True)],
    ids=["bool-samples", "float-samples", "float-seed", "bool-seed"],
)
def test_audit_refuses_a_count_or_seed_that_is_not_an_int(samples, seed):
    with pytest.raises(ValueError, match="must be an int"):
        audit_mixture_axioms(MATCHING_PENNIES, Lens.U2, samples=samples, seed=seed)


def test_cube_game_u2():
    # u2 is itself bilinear on the mixed extension, so its preference is an
    # ordered bilinear mixture space even though the game is not adversarial
    report = audit_mixture_axioms(CUBE, Lens.U2, 200, seed=3)
    assert report.overall_pass
    assert all_zero(report)


def test_single_cell_vacuous():
    g = new_game([[3]], [[-3]])
    report = audit_mixture_axioms(g, Lens.NEG_U1, 50, seed=1)
    assert report.overall_pass
    assert report.axioms["MS4"].checked == 0
    assert report.axioms["MS4"].vacuous == 50
    assert report.axioms["MS5"].checked == 0


def test_preconditions_fire_on_generic_game():
    g = new_game([[3, 0], [5, 1]], [[3, 5], [0, 1]])
    report = audit_mixture_axioms(g, Lens.U2, 200, seed=5)
    assert report.overall_pass
    assert report.axioms["MS4"].checked > 0
    assert report.axioms["MS5"].checked > 0


def test_induced_preference_lenses():
    pref1 = InducedPreference(MATCHING_PENNIES, Lens.NEG_U1)
    pref2 = InducedPreference(MATCHING_PENNIES, Lens.U2)
    p = pure_profile((0, 0), MATCHING_PENNIES)
    q = uniform_profile(MATCHING_PENNIES)
    assert pref1.utility(p) == -1
    assert pref2.utility(p) == -1
    # matching pennies is zero-sum: the two lenses agree everywhere
    assert pref1.utility(q) == pref2.utility(q) == 0
    assert pref1.precedes(p, q)


@st.composite
def rational_games_and_profiles(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)
    game = new_game(draw(matrix), draw(matrix))

    def strategy(n):
        weights = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
        return MixedStrategy.from_weights(draw(weights))

    return game, MixedProfile(strategy(rows), strategy(cols))


@settings(max_examples=60, deadline=None)
@given(rational_games_and_profiles())
def test_utility_is_the_lens_expected_utility(case):
    game, p = case
    u2 = InducedPreference(game, Lens.U2).utility(p)
    neg_u1 = InducedPreference(game, Lens.NEG_U1).utility(p)
    assert u2 == expected_utility(game, 2, p)
    assert neg_u1 == -expected_utility(game, 1, p)
    # and both are the bilinear double sum over the Fraction views
    cells = [(p.x[i] * p.y[j], i, j) for i in range(game.rows) for j in range(game.cols)]
    assert u2 == sum(w * game.u2[i][j] for w, i, j in cells)
    assert neg_u1 == -sum(w * game.u1[i][j] for w, i, j in cells)


def test_ms4_witness_exact():
    alpha, beta = ms4_witness(F(0), F(1), F(4))
    assert 0 < beta < alpha < 1
    # weight w on the low endpoint gives w*0 + (1-w)*4
    assert alpha * 0 + (1 - alpha) * 4 == F(1, 2)
    assert beta * 0 + (1 - beta) * 4 == F(5, 2)


def test_ms4_witness_requires_strict_chain():
    with pytest.raises(ValueError):
        ms4_witness(F(1), F(1), F(2))


def test_report_json_shape():
    report = audit_mixture_axioms(MATCHING_PENNIES, Lens.U2, 20, seed=9)
    d = report.to_json_dict()
    assert d["lens"] == "u2"
    assert d["overall_pass"] is True
    assert set(d["axioms"]) == {"MS1", "MS2", "MS3", "MS4", "MS5"}
    assert d["axioms"]["MS1"]["failures"] == 0


def test_random_games_both_lenses():
    rng = random.Random(17)
    for _ in range(10):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        u1 = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u2 = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        g = new_game(u1, u2)
        for lens in (Lens.NEG_U1, Lens.U2):
            assert audit_mixture_axioms(g, lens, 40, seed=rng.randint(0, 999)).overall_pass


@pytest.mark.parametrize("lens", list(Lens))
def test_a_lens_given_by_its_value_audits_that_lens(lens):
    game = new_game([[1, 2], [3, 4]], [[0, 5], [7, 1]])
    pref = InducedPreference(game, lens.value)
    assert pref.lens is lens
    expected = {Lens.NEG_U1: F(-5, 2), Lens.U2: F(13, 4)}[lens]
    assert pref.utility(uniform_profile(game)) == expected
    report = audit_mixture_axioms(game, lens.value, 20, seed=1)
    assert report.to_json_dict() == audit_mixture_axioms(game, lens, 20, seed=1).to_json_dict()


def test_a_value_naming_no_lens_is_refused():
    with pytest.raises(ValueError):
        InducedPreference(MATCHING_PENNIES, "neg-u1")
