"""Differential tests of the integer-core consumers against Fraction formulas.

The package stores every payoff matrix as integers over one common
denominator, and detection, the strategic zero-sum test and normalization
compute on those integers.  The reference functions below compute the same
results the direct way, in ``Fraction`` arithmetic on the ``u1``/``u2``
views, and the properties require identical outputs on random rational
games whose two players have different denominators.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames.detection import (
    AffineMismatch,
    AffineTransform,
    AlphaNonpositive,
    DetectionResult,
    OrdinalViolation,
    detect_affine,
    to_zero_sum,
)
from strictgames.games import new_game
from strictgames.strategic import MvDecomposition, strategically_zero_sum_detect


def ref_fit_affine(labels, a, b, anchors=None):
    distinct = next((k for k, v in enumerate(a) if v != a[0]), None)
    if distinct is None:
        off = next((k for k, v in enumerate(b) if v != b[0]), None)
        if off is None:
            return DetectionResult.degenerate(AffineTransform(F(1), b[0] + a[0]))
        sigma, tau = (0, off) if b[0] > b[off] else (off, 0)
        return DetectionResult.not_adversarial(
            OrdinalViolation(labels[sigma], labels[tau])
        )
    if anchors is None:
        p, q = 0, distinct
    else:
        p, q = labels.index(anchors[0]), labels.index(anchors[1])
    alpha = -(b[p] - b[q]) / (a[p] - a[q])
    beta = b[p] + alpha * a[p]
    if alpha <= 0:
        return DetectionResult.not_adversarial(
            AlphaNonpositive((labels[p], labels[q]), alpha, beta)
        )
    for label, x, actual in zip(labels, a, b):
        expected = -alpha * x + beta
        if expected != actual:
            return DetectionResult.not_adversarial(
                AffineMismatch(label, expected, actual)
            )
    return DetectionResult.adversarial(AffineTransform(alpha, beta))


def ref_detect_affine(game, anchors=None):
    return ref_fit_affine(
        game.cells(),
        [v for row in game.u1 for v in row],
        [v for row in game.u2 for v in row],
        anchors,
    )


def ref_verifies(d, game):
    if d.lambda1 <= 0 or d.lambda2 <= 0:
        return False
    u1, u2 = game.u1, game.u2
    return all(
        d.lambda1 * u1[i][j] + d.lambda2 * u2[i][j]
        == d.row_offsets[i] + d.col_offsets[j]
        for i in range(game.rows)
        for j in range(game.cols)
    )


def ref_strategically_zero_sum(game):
    u1, u2 = game.u1, game.u2
    lam2 = None
    for i in range(1, game.rows):
        for j in range(1, game.cols):
            p = u1[i][j] - u1[i][0] - u1[0][j] + u1[0][0]
            q = u2[i][j] - u2[i][0] - u2[0][j] + u2[0][0]
            if q == 0:
                if p != 0:
                    return None
                continue
            forced = -p / q
            if lam2 is None:
                lam2 = forced
            elif lam2 != forced:
                return None
    if lam2 is None:
        lam2 = F(1)
    if lam2 <= 0:
        return None
    m = [[u1[i][j] + lam2 * u2[i][j] for j in range(game.cols)] for i in range(game.rows)]
    d = MvDecomposition(
        lambda1=F(1),
        lambda2=lam2,
        row_offsets=tuple(m[i][0] - m[0][0] for i in range(game.rows)),
        col_offsets=tuple(m[0][j] for j in range(game.cols)),
    )
    return d if ref_verifies(d, game) else None


def ref_to_zero_sum(game, t):
    return new_game([[t.alpha * v - t.beta for v in row] for row in game.u1], game.u2)


def _rational(draw, max_den):
    return F(draw(st.integers(-12, 12)), draw(st.integers(1, max_den)))


@st.composite
def rational_games(draw):
    """Games up to 5x5; each player's entries have denominators from 1 up
    to that player's own bound in 1..12.  The column payoff is independent,
    an affine image of the row payoff (any slope sign), that image plus row
    offsets, or that image plus row offsets beside a row payoff with column
    offsets added; or one payoff separates into row plus column offsets,
    u2 (so no cell forces lambda2) or u1 (beside an independent u2, so
    every forcing cell forces lambda2 = 0).  Optionally one cell of u2 is
    nudged off."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    max_den1, max_den2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def matrix(max_den):
        return [[_rational(draw, max_den) for _ in range(cols)] for _ in range(rows)]

    def separable(max_den):
        r = [_rational(draw, max_den) for _ in range(rows)]
        c = [_rational(draw, max_den) for _ in range(cols)]
        return [[a + b for b in c] for a in r]

    kind = draw(st.sampled_from((
        "independent", "affine", "row-offsets", "col-offsets", "u2-separable",
        "u1-separable",
    )))
    u1 = separable(max_den1) if kind == "u1-separable" else matrix(max_den1)
    if kind in ("independent", "u1-separable"):
        u2 = matrix(max_den2)
    elif kind == "u2-separable":
        u2 = separable(max_den2)
    else:
        alpha, beta = _rational(draw, max_den2), _rational(draw, max_den2)
        u2 = [[-alpha * v + beta for v in row] for row in u1]
        if kind in ("row-offsets", "col-offsets"):
            for row in u2:
                offset = _rational(draw, max_den2)
                row[:] = [v + offset for v in row]
        if kind == "col-offsets":
            offsets = [_rational(draw, max_den1) for _ in range(cols)]
            u1 = [[v + c for v, c in zip(row, offsets)] for row in u1]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        u2[i][j] += F(1, draw(st.integers(1, 12)))
    return new_game(u1, u2)


@settings(max_examples=300, deadline=None)
@given(rational_games(), st.data())
def test_integer_core_matches_fraction_reference(game, data):
    assert detect_affine(game).to_json_dict() == ref_detect_affine(game).to_json_dict()

    u1 = game.u1
    cells = game.cells()
    pairs = [
        (c, d) for c in cells for d in cells if u1[c[0]][c[1]] != u1[d[0]][d[1]]
    ]
    if pairs:
        anchors = data.draw(st.sampled_from(pairs))
        assert (
            detect_affine(game, anchors).to_json_dict()
            == ref_detect_affine(game, anchors).to_json_dict()
        )

    decomposition = strategically_zero_sum_detect(game)
    assert decomposition == ref_strategically_zero_sum(game)
    if decomposition is not None:
        assert decomposition.verifies(game)
        nudged = MvDecomposition(
            decomposition.lambda1,
            decomposition.lambda2,
            decomposition.row_offsets,
            (decomposition.col_offsets[0] + F(1, 7), *decomposition.col_offsets[1:]),
        )
        assert nudged.verifies(game) is ref_verifies(nudged, game) is False

    detected = detect_affine(game).transform
    drawn = AffineTransform(
        F(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 12))),
        _rational(data.draw, 12),
    )
    for t in (detected, drawn):
        if t is None:
            continue
        z, ref = to_zero_sum(game, t), ref_to_zero_sum(game, t)
        assert z == ref
        assert (z.u1, z.u2) == (ref.u1, ref.u2)
