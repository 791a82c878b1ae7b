import random
from dataclasses import replace
from fractions import Fraction as F

from strictgames.detection import detect_affine
from strictgames.games import new_game
from strictgames.generators import Family, GenSpec, gen
from strictgames.strategic import MvDecomposition, strategically_zero_sum_detect

PRISONERS = new_game([[3, 0], [5, 1]], [[3, 5], [0, 1]])


def test_zero_sum_is_trivially_strategic():
    g = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    d = strategically_zero_sum_detect(g)
    assert d == MvDecomposition(F(1), F(1), (F(0), F(0)), (F(0), F(0)))


def test_offset_decomposition_example():
    # zero-sum core [[1,-1],[-1,1]] plus offsets: u1 + u2 = [[1,2],[2,3]]
    g = new_game([[2, 1], [0, 3]], [[-1, 1], [2, 0]])
    d = strategically_zero_sum_detect(g)
    assert d is not None
    assert (d.lambda1, d.lambda2) == (F(1), F(1))
    assert d.row_offsets == (F(0), F(1))
    assert d.col_offsets == (F(1), F(2))
    assert d.verifies(g)


def test_prisoners_dilemma_not_strategic():
    # separability of lambda1*u1 + lambda2*u2 would force lambda2 = -lambda1
    assert strategically_zero_sum_detect(PRISONERS) is None


def test_adversarial_games_are_strategic():
    rng = random.Random(61)
    for _ in range(20):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        while True:
            core = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            if len({v for row in core for v in row}) > 1:
                break
        alpha = F(rng.randint(1, 16), rng.randint(1, 8))
        beta = F(rng.randint(-10, 10))
        u2 = [[-alpha * v + beta for v in row] for row in core]
        g = new_game(core, u2)
        assert detect_affine(g).status == "adversarial"
        d = strategically_zero_sum_detect(g)
        assert d is not None
        # the normalized certificate sits on the ray of (alpha, 1)
        assert d.lambda2 == 1 / alpha
        assert d.verifies(g)


def test_decomposition_verifies_random_constructions():
    rng = random.Random(67)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        core = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        c = [rng.randint(-9, 9) for _ in range(cols)]
        d_off = [rng.randint(-9, 9) for _ in range(rows)]
        u1 = [[core[i][j] + c[j] for j in range(cols)] for i in range(rows)]
        u2 = [[-core[i][j] + d_off[i] for j in range(cols)] for i in range(rows)]
        g = new_game(u1, u2)
        d = strategically_zero_sum_detect(g)
        assert d is not None
        assert d.verifies(g)


def test_gauge_shift_preserves_validity():
    g = new_game([[2, 1], [0, 3]], [[-1, 1], [2, 0]])
    d = strategically_zero_sum_detect(g)
    assert d is not None
    for shift in (F(5), F(-3, 2)):
        shifted = MvDecomposition(
            d.lambda1,
            d.lambda2,
            tuple(a + shift for a in d.row_offsets),
            tuple(b - shift for b in d.col_offsets),
        )
        assert shifted.verifies(g)


def test_verifies_rejects_a_certificate_of_the_wrong_shape():
    g = gen(GenSpec(Family.STRATEGIC_ZERO_SUM, 2, 3, seed=4))
    d = strategically_zero_sum_detect(g)
    assert d is not None and d.verifies(g)
    # the first column offset moved into the row offsets: a 3x2 certificate
    # whose flat offsets are the 2x3 one's
    moved = replace(d, row_offsets=d.row_offsets + d.col_offsets[:1],
                    col_offsets=d.col_offsets[1:])
    assert not moved.verifies(g)


def test_single_row_or_column_always_strategic():
    # no cell has a double difference, so nothing forces lambda2 away from 1
    for u1, u2 in (
        ([[1], [5], [-2]], [[4], [0], [7]]),
        ([[1, 5, F(-2, 3)]], [[4, F(1, 2), 7]]),
    ):
        g = new_game(u1, u2)
        d = strategically_zero_sum_detect(g)
        assert d is not None and d.verifies(g)
        assert (d.lambda1, d.lambda2) == (F(1), F(1))
        m = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(u1, u2)]
        assert d.row_offsets == tuple(row[0] - m[0][0] for row in m)
        assert d.col_offsets == tuple(m[0])


def test_forcing_cell_in_row_one_contradicted_in_the_last_row():
    # u1 + 2*u2 = r_i + c_j, so row 1 forces lambda2 = 2; the nudged last
    # row forces another lambda2, which only that row can show
    u2 = [[0, 1, 3], [2, 0, 1], [1, 4, 0], [3, 3, 2]]
    r, c = [0, 5, -1, 2], [1, -3, 4]
    u1 = [[-2 * u2[i][j] + r[i] + c[j] for j in range(3)] for i in range(4)]
    d = strategically_zero_sum_detect(new_game(u1, u2))
    assert d is not None and d.lambda2 == 2
    assert d.verifies(new_game(u1, u2))
    u1[-1][-1] += 1
    g = new_game(u1, u2)
    assert strategically_zero_sum_detect(g) is None
    assert not d.verifies(g)


def test_json_shape():
    g = new_game([[2, 1], [0, 3]], [[-1, 1], [2, 0]])
    d = strategically_zero_sum_detect(g).to_json_dict()
    assert d["status"] == "strategically_zero_sum"
    assert d["lambda1"] == "1/1"
    assert d["row_offsets"] == ["0/1", "1/1"]
