"""The exact path's read-out against the tableau read-out it replaced.

``minimax_solve`` takes only the supports ``(R, S)`` of the exact
simplex's optimal basis and reads its answer off ``a[R][S]`` by
elimination.  The reference below is how the simplex read its answer
before: the dual prices from the objective row under the nonbasic slacks,
the primal values from the right-hand side of the basic structural rows,
all over the final divisor, and the objective value.  Read off the same
optimized ``_Simplex``, the two must give the same strategies and value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from strictgames import solvers
from strictgames.games import MixedStrategy
from strictgames.solvers import _Simplex, minimax_solve
from test_solvers import zero_sum


def tableau_read_out(simplex):
    """``(dual, primal, div, objective)`` off the final tableau of an
    optimized ``_Simplex``: the optimum's dual prices, variables and
    objective as integer numerators over the final divisor ``div``."""
    n, obj = simplex.n, simplex.rows[-1]
    primal, dual = [0] * n, [0] * simplex.m
    for col, var in enumerate(simplex.nonbasic):
        if var >= n:
            dual[var - n] = obj[col]
    for var, row in zip(simplex.basis, simplex.rows):
        if var < n:
            primal[var] = row[-1]
    return dual, primal, simplex.div, obj[-1]


@st.composite
def tie_heavy_games(draw):
    """Zero-sum row payoffs up to 8x8 with entries in ``[-b, b]``, ``b`` in
    {1, 2, 3}: many ties, so many optima that are not unique, which the
    exact simplex answers."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bound = draw(st.sampled_from((1, 2, 3)))
    entry = st.integers(-bound, bound)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


def solve_recording_simplexes(v, exact_only):
    """``minimax_solve`` of the zero-sum game ``v`` and the exact
    ``_Simplex`` objects it built, after it optimized them; with
    ``exact_only`` the guess finds no basis, so the exact simplex answers."""
    built = []
    init = _Simplex.__init__

    def recording_init(self, a):
        built.append(self)
        init(self, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Simplex, "__init__", recording_init)
        if exact_only:
            mp.setattr(solvers, "_guess_supports", lambda a: None)
        solution = minimax_solve(zero_sum(v))
    return solution, built


def assert_reads_like_the_tableau(v, solution, simplex):
    _, low, g = solvers._positive_class(v)
    dual, primal, div, objective = tableau_read_out(simplex)
    assert solution.row_strategy == MixedStrategy.from_weights(dual)
    assert solution.col_strategy == MixedStrategy.from_weights(primal)
    assert solution.value == solvers._class_value(div, objective, low, g, 1)


def test_the_read_out_matches_the_tableau():
    fallbacks = 0

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_games())
    def check(v):
        nonlocal fallbacks
        solution, (simplex,) = solve_recording_simplexes(v, exact_only=True)
        assert_reads_like_the_tableau(v, solution, simplex)
        # as minimax_solve runs: the exact simplex answers when the
        # certificate rejects the guess
        solution, built = solve_recording_simplexes(v, exact_only=False)
        if built:
            fallbacks += 1
            assert_reads_like_the_tableau(v, solution, *built)

    check()
    assert fallbacks > 0
