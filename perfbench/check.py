"""Exact checks of the package's outputs against planted ground truth.

Nothing here imports the package under test: rationals are parsed from the
``"n/d"`` text, certificates are re-checked cell by cell against the
generator's matrices, and strategies are tested against the guarantee and
best-response inequalities with integer or ``Fraction`` arithmetic, so no
check has a tolerance.  Each ``check_*`` function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL = re.compile(r"^(-?[0-9]+)/([0-9]+)$")

AXIOMS = ("MS1", "MS2", "MS3", "MS4", "MS5")


def rational(text: object) -> Fraction:
    """Parse ``"n/d"`` (d > 0) or a JSON integer; anything else raises."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    m = _RATIONAL.match(text) if isinstance(text, str) else None
    if m is None or int(m.group(2)) == 0:
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)))


def affine_fit(u1, u2) -> tuple[Fraction, Fraction] | None:
    """The (alpha, beta), alpha > 0, with ``u2 == -alpha*u1 + beta`` on every
    cell, or None.  With constant ``u1`` the canonical pair is (1, c2 + c1)."""
    cells = [(v1, v2) for r1, r2 in zip(u1, u2) for v1, v2 in zip(r1, r2)]
    a0, b0 = cells[0]
    anchor = next(((a, b) for a, b in cells if a != a0), None)
    if anchor is None:
        return (Fraction(1), Fraction(b0 + a0)) if all(b == b0 for _, b in cells) else None
    alpha = -Fraction(anchor[1] - b0) / (anchor[0] - a0)
    if alpha <= 0:
        return None
    beta = b0 + alpha * a0
    if any(b != -alpha * a + beta for a, b in cells):
        return None
    return alpha, beta


def _double_difference(m, i: int, j: int):
    return m[i][j] - m[i][0] - m[0][j] + m[0][0]


def mv_lambda2(u1, u2) -> Fraction | None:
    """The positive ``lam`` making ``u1 + lam*u2`` a sum of row and column
    offsets, or None.  ``u1 + lam*u2`` separates exactly when all its double
    differences vanish; when none constrains ``lam``, 1 is reported."""
    lam = None
    for i in range(1, len(u1)):
        for j in range(1, len(u1[0])):
            p, q = _double_difference(u1, i, j), _double_difference(u2, i, j)
            if q == 0:
                if p != 0:
                    return None
            elif lam is None:
                lam = Fraction(-p) / q
            elif lam * q != -p:
                return None
    if lam is None:
        return Fraction(1)
    return lam if lam > 0 else None


def _on_simplex(probs: list[Fraction], n: int) -> bool:
    return len(probs) == n and all(p >= 0 for p in probs) and sum(probs) == 1


def _json(stdout: str) -> dict:
    data = json.loads(stdout)
    if not isinstance(data, dict):
        raise ValueError("stdout is not a JSON object")
    return data


def guarantee_problems(u1, value: Fraction, x: list[Fraction], y: list[Fraction]) -> list[str]:
    """``x`` guarantees at least ``value`` to the row player against every
    column and ``y`` concedes at most ``value`` against every row of ``u1``.
    Together they prove both strategies optimal and ``value`` the value."""
    n_rows, n_cols = len(u1), len(u1[0])
    if not _on_simplex(x, n_rows) or not _on_simplex(y, n_cols):
        return ["strategy off the simplex"]
    problems = []
    # integer weights over a common denominator keep these sums exact and fast
    dx = math.lcm(*(p.denominator for p in x))
    wx = [p.numerator * (dx // p.denominator) for p in x]
    dy = math.lcm(*(p.denominator for p in y))
    wy = [p.numerator * (dy // p.denominator) for p in y]
    for j in range(n_cols):
        if Fraction(sum(w * u1[i][j] for i, w in enumerate(wx) if w), dx) < value:
            problems.append(f"row strategy pays less than the value against column {j}")
            break
    for i in range(n_rows):
        if Fraction(sum(w * u1[i][j] for j, w in enumerate(wy) if w), dy) > value:
            problems.append(f"column strategy concedes more than the value to row {i}")
            break
    return problems


def check_solve(game, code: int, stdout: str) -> list[str]:
    """``strictgames solve`` on an adversarial game."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    out = _json(stdout)
    alpha, beta = game.transform
    problems = []
    if out.get("status") != "adversarial":
        problems.append(f"status {out.get('status')!r}")
    if rational(out["alpha"]) != alpha or rational(out["beta"]) != beta:
        problems.append("alpha or beta differs from the planted transform")
    u1_value = rational(out["u1_value"])
    if rational(out["value"]) != alpha * u1_value - beta:
        problems.append("value != alpha*u1_value - beta")
    x = [rational(p) for p in out["row_strategy"]]
    y = [rational(p) for p in out["col_strategy"]]
    return problems + guarantee_problems(game.u1, u1_value, x, y)


def _witness_problems(game, w: dict) -> list[str]:
    """Re-check a not-adversarial certificate against the game's matrices."""
    u1, u2 = game.u1, game.u2
    kind = w.get("kind")
    if kind == "affine_mismatch":
        # the candidate line runs through the first cell and the first cell,
        # in row-major order, whose u1 differs from it
        i, j = w["cell"]
        flat = [(a, b) for r1, r2 in zip(u1, u2) for a, b in zip(r1, r2)]
        a0, b0 = flat[0]
        a1, b1 = next((a, b) for a, b in flat if a != a0)
        alpha = -Fraction(b1 - b0) / (a1 - a0)
        expected = -alpha * u1[i][j] + b0 + alpha * a0
        if rational(w["actual"]) != u2[i][j] or rational(w["expected"]) != expected:
            return ["affine mismatch witness does not match the game"]
        return [] if expected != u2[i][j] else ["affine mismatch witness cell fits the line"]
    if kind == "alpha_nonpositive":
        (i0, j0), (i1, j1) = w["anchors"]
        da = u1[i0][j0] - u1[i1][j1]
        if da == 0:
            return ["alpha witness anchors tie on u1"]
        alpha = -Fraction(u2[i0][j0] - u2[i1][j1]) / da
        beta = u2[i0][j0] + alpha * u1[i0][j0]
        if alpha > 0 or rational(w["alpha"]) != alpha or rational(w["beta"]) != beta:
            return ["alpha witness does not force a nonpositive slope"]
        return []
    if kind == "ordinal_violation":
        (si, sj), (ti, tj) = w["sigma"], w["tau"]
        if (u1[si][sj] >= u1[ti][tj]) == (u2[si][sj] <= u2[ti][tj]):
            return ["ordinal witness does not violate the biconditional"]
        return []
    return [f"unknown witness kind {kind!r}"]


def check_check(game, code: int, stdout: str) -> list[str]:
    """``strictgames check``: verdict against the planted truth, certificate
    re-checked cell by cell."""
    out = _json(stdout)
    if game.transform is None:
        if code != 1 or out.get("status") != "not_adversarial":
            return [f"verdict {out.get('status')!r} (exit {code}), expected not_adversarial"]
        return _witness_problems(game, out.get("witness", {}))
    if code != 0 or out.get("status") != "adversarial":
        return [f"verdict {out.get('status')!r} (exit {code}), expected adversarial"]
    alpha, beta = rational(out["alpha"]), rational(out["beta"])
    if (alpha, beta) != game.transform:
        return ["alpha or beta differs from the planted transform"]
    for r1, r2 in zip(game.u1, game.u2):
        for a, b in zip(r1, r2):
            if b != -alpha * a + beta:
                return ["certificate fails on a cell"]
    return []


def check_mv(game, code: int, stdout: str) -> list[str]:
    """``strictgames mv-check``: decomposition verdict and offsets."""
    out = _json(stdout)
    if game.lambda2 is None:
        if code != 1 or out.get("status") != "none":
            return [f"mv verdict {out.get('status')!r} (exit {code}), expected none"]
        return []
    if code != 0 or out.get("status") != "strategically_zero_sum":
        return [f"mv verdict {out.get('status')!r} (exit {code}), expected a decomposition"]
    lam1, lam2 = rational(out["lambda1"]), rational(out["lambda2"])
    if lam1 != 1 or lam2 != game.lambda2:
        return ["lambda differs from the planted ratio"]
    a = [rational(v) for v in out["row_offsets"]]
    b = [rational(v) for v in out["col_offsets"]]
    if len(a) != game.n or len(b) != game.n:
        return ["offset vectors have the wrong length"]
    for i, (r1, r2) in enumerate(zip(game.u1, game.u2)):
        for j, (v1, v2) in enumerate(zip(r1, r2)):
            if v1 + lam2 * v2 != a[i] + b[j]:
                return [f"decomposition fails at cell ({i}, {j})"]
    return []


def check_normalize(game, code: int, stdout: str, written: str) -> list[str]:
    """``strictgames normalize --out``: the written file is the zero-sum form
    ``(alpha*u1 - beta, u2)``."""
    if code != 0 or stdout:
        return [f"exit code {code} or unexpected stdout"]
    data = json.loads(written)
    alpha, beta = game.transform
    u2 = game.u2
    rows = data["u1"] + data["u2"]
    shape = (data.get("rows"), data.get("cols"), len(rows), {len(row) for row in rows})
    if shape != (game.n, game.n, 2 * game.n, {game.n}):
        return ["written game has the wrong shape"]
    for i, (w1, w2) in enumerate(zip(data["u1"], data["u2"])):
        for j, (e1, e2) in enumerate(zip(w1, w2)):
            v1 = rational(e1)
            if v1 != alpha * game.u1[i][j] - beta or rational(e2) != u2[i][j]:
                return [f"written game differs at cell ({i}, {j})"]
            if v1 + rational(e2) != 0:
                return [f"written game is not zero-sum at cell ({i}, {j})"]
    return []


def check_audit(code: int, stdout: str, lens: str, samples: int) -> list[str]:
    """``strictgames audit-axioms``: every axiom sampled, none failed."""
    out = _json(stdout)
    if code != 0 or out.get("overall_pass") is not True:
        return [f"audit did not pass (exit {code})"]
    if out.get("lens") != lens.replace("-", "_") or out.get("samples") != samples:
        return ["audit reports another lens or sample count"]
    axioms = out.get("axioms", {})
    if sorted(axioms) != list(AXIOMS):
        return ["audit is missing axioms"]
    for name, s in axioms.items():
        if s["failures"] != 0 or s["checked"] + s["vacuous"] != samples:
            return [f"{name} tallies are inconsistent"]
    return []


def equilibrium_problems(game, x: list[Fraction], y: list[Fraction], payoffs) -> list[str]:
    """``(x, y)`` is a Nash equilibrium of ``game`` with the stated payoffs."""
    n = game.n
    if not _on_simplex(x, n) or not _on_simplex(y, n):
        return ["equilibrium strategy off the simplex"]
    row = [sum(game.u1[i][j] * y[j] for j in range(n)) for i in range(n)]
    u2 = game.u2
    col = [sum(x[i] * u2[i][j] for i in range(n)) for j in range(n)]
    p1 = sum(x[i] * row[i] for i in range(n))
    p2 = sum(col[j] * y[j] for j in range(n))
    if (p1, p2) != tuple(payoffs):
        return ["equilibrium payoffs are wrong"]
    if max(row) > p1 or max(col) > p2:
        return ["a player has a profitable deviation"]
    return []


@dataclass(frozen=True)
class CrossCheck:
    """LP value against enumerated equilibrium payoffs, as three counts.

    ``compared`` equilibria were checked and ``agreed`` of them matched;
    ``unchecked`` is 1 when there was nothing to compare.  Agreement is
    claimed only when something was compared.
    """

    compared: int
    agreed: int
    unchecked: int

    @property
    def status(self) -> str:
        if self.compared == 0:
            return "unchecked"
        return "agree" if self.agreed == self.compared else "disagree"


def crosscheck(lp_u1_value: Fraction, payoffs: list[Fraction]) -> CrossCheck:
    """Compare the LP value, mapped back to ``u1``, with each equilibrium's
    row payoff."""
    agreed = sum(p == lp_u1_value for p in payoffs)
    return CrossCheck(len(payoffs), agreed, int(not payoffs))


def check_crosscheck(cc: CrossCheck) -> list[str]:
    """A cross-check fails when it disagrees or its counts contradict each
    other: agreement without a comparison is a failure, not a pass."""
    if cc.unchecked != int(cc.compared == 0) or not 0 <= cc.agreed <= cc.compared:
        return ["cross-check counts are inconsistent"]
    if cc.status == "disagree":
        return [f"LP value disagrees with {cc.compared - cc.agreed} equilibria"]
    return []
