"""The integer axiom audit against a ``Fraction`` reference.

The reference below is the audit as it was written on ``Fraction``
probabilities: strategies are tuples of probabilities, utilities are exact
double sums over the ``u1``/``u2`` views, mixing is ``w*p + (1-w)*q`` and
the MS4 witness and MS5 indifferent strategy follow their defining
formulas.  It draws with ``randint`` and ``choice`` directly.  Reports, and
so every seeded stream, must agree exactly, counterexample text included.
"""

import random
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames import axioms, games
from strictgames.axioms import Lens, audit_mixture_axioms
from strictgames.games import new_game


def ref_strategy(rng, n):
    while True:
        weights = [rng.randint(0, 64) for _ in range(n)]
        if any(weights):
            return tuple(Fraction(w, sum(weights)) for w in weights)


def ref_profile(rng, game):
    return ref_strategy(rng, game.rows), ref_strategy(rng, game.cols)


def ref_weight(rng):
    den = 1 << rng.randint(0, 6)
    return Fraction(rng.randint(0, den), den)


def ref_open_weight(rng):
    den = 1 << rng.randint(1, 6)
    return Fraction(rng.randint(1, den - 1), den)


def ref_mix(p, q, w):
    return tuple(w * a + (1 - w) * b for a, b in zip(p, q))


def pure(k, n):
    return tuple(Fraction(int(i == k)) for i in range(n))


def with_coord(profile, i, s):
    return (s, profile[1]) if i == 1 else (profile[0], s)


class Reference:
    def __init__(self, game, lens, mix):
        self.game, self.lens, self.mix = game, lens, mix
        self.u = game.u1 if lens is Lens.NEG_U1 else game.u2

    def utility(self, profile):
        x, y = profile
        total = sum(
            x[i] * y[j] * self.u[i][j] for i in range(len(x)) for j in range(len(y))
        )
        return -total if self.lens is Lens.NEG_U1 else total

    def ms1(self, rng):
        a, b, c = (self.utility(ref_profile(rng, self.game)) for _ in range(3))
        if not (a <= b or b <= a):
            return f"totality broken at {a} vs {b}"
        if a <= b <= c and not a <= c:
            return f"transitivity broken at ({a}, {b}, {c})"
        return None

    def ms2(self, rng):
        p, q, r = (ref_profile(rng, self.game) for _ in range(3))
        i = rng.choice((1, 2))
        a = ref_weight(rng)
        left = with_coord(r, i, self.mix(p[i - 1], q[i - 1], a))
        right = with_coord(r, i, self.mix(q[i - 1], p[i - 1], 1 - a))
        if self.utility(left) != self.utility(right):
            return f"commutativity broken at weight {a}, coordinate {i}"
        return None

    def ms3(self, rng):
        p, q, r = (ref_profile(rng, self.game) for _ in range(3))
        i = rng.choice((1, 2))
        a = ref_weight(rng)
        b = ref_weight(rng)
        pi, qi = p[i - 1], q[i - 1]
        left = with_coord(r, i, self.mix(self.mix(pi, qi, a), qi, b))
        right = with_coord(r, i, self.mix(pi, qi, a * b))
        if self.utility(left) != self.utility(right):
            return f"distributivity broken at weights ({a}, {b}), coordinate {i}"
        return None

    def ms4(self, rng):
        g = self.game
        p = ref_profile(rng, g)
        q = ref_profile(rng, g)
        i = rng.choice((1, 2))
        ri = ref_strategy(rng, g.rows if i == 1 else g.cols)
        up, uq = self.utility(p), self.utility(q)
        urp = self.utility(with_coord(p, i, ri))
        if up < uq < urp:
            base, top = p[i - 1], ri
        elif urp < uq < up:
            base, top = ri, p[i - 1]
            up, urp = urp, up
        else:
            return "vacuous"
        t1, t2 = (up + uq) / 2, (uq + urp) / 2
        alpha = (urp - t1) / (urp - up)
        beta = (urp - t2) / (urp - up)
        low = self.utility(with_coord(p, i, self.mix(base, top, alpha)))
        high = self.utility(with_coord(p, i, self.mix(base, top, beta)))
        if 0 < alpha < 1 and 0 < beta < 1 and low < uq < high:
            return None
        return f"solvability witness failed at ({up}, {uq}, {urp})"

    def indifferent_strategy(self, q, j, target):
        n = self.game.rows if j == 1 else self.game.cols
        values = [self.utility(with_coord(q, j, pure(k, n))) for k in range(n)]
        lo, hi = min(values), max(values)
        if not lo <= target <= hi:
            return None
        if lo == hi:
            return pure(0, n)
        w = (hi - target) / (hi - lo)
        return ref_mix(pure(values.index(lo), n), pure(values.index(hi), n), w)

    def ms5(self, rng):
        g = self.game
        p = ref_profile(rng, g)
        q = ref_profile(rng, g)
        if self.utility(p) == self.utility(q):
            return "vacuous"
        if self.utility(p) > self.utility(q):
            p, q = q, p
        i = rng.choice((1, 2))
        j = rng.choice((1, 2))
        ri = ref_strategy(rng, g.rows if i == 1 else g.cols)
        sj = self.indifferent_strategy(q, j, self.utility(with_coord(p, i, ri)))
        if sj is None:
            return "vacuous"
        a = ref_open_weight(rng)
        left = with_coord(p, i, self.mix(p[i - 1], ri, a))
        right = with_coord(q, j, self.mix(q[j - 1], sj, a))
        if self.utility(left) < self.utility(right):
            return None
        return f"independence broken at weight {a}, coordinates ({i}, {j})"

    def report(self, samples, seed):
        stats = {}
        for k, name in enumerate(("MS1", "MS2", "MS3", "MS4", "MS5")):
            rng = random.Random(seed * 8 + k)
            sample = getattr(self, name.lower())
            outcomes = [sample(rng) for _ in range(samples)]
            failures = [o for o in outcomes if o not in (None, "vacuous")]
            stats[name] = {
                "samples": samples,
                "checked": samples - outcomes.count("vacuous"),
                "vacuous": outcomes.count("vacuous"),
                "failures": len(failures),
                "first_counterexample": failures[0] if failures else None,
            }
        return {
            "lens": self.lens.value,
            "samples": samples,
            "seed": seed,
            "overall_pass": all(s["failures"] == 0 for s in stats.values()),
            "axioms": stats,
        }


@st.composite
def audited_games(draw):
    """Games up to 5x5 (1xn and nx1 included), each player with their own
    denominator; matrices free, constant, or the other's affine image."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.integers(-20, 20)

    def matrix():
        den = draw(st.integers(1, 12))
        if draw(st.sampled_from(("free", "free", "constant"))) == "constant":
            v = Fraction(draw(entries), den)
            return [[v] * cols for _ in range(rows)]
        return [[Fraction(draw(entries), den) for _ in range(cols)]
                for _ in range(rows)]

    u1 = matrix()
    if draw(st.booleans()):
        alpha = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        beta = Fraction(draw(entries), draw(st.integers(1, 9)))
        return new_game(u1, [[-alpha * v + beta for v in row] for row in u1])
    return new_game(u1, matrix())


@settings(max_examples=60, deadline=None)
@given(audited_games(), st.integers(0, 2**32), st.integers(1, 20))
def test_audit_matches_fraction_reference(game, seed, samples):
    for lens in Lens:
        expected = Reference(game, lens, ref_mix).report(samples, seed)
        report = audit_mixture_axioms(game, lens, samples, seed)
        assert report.to_json_dict() == expected


# Broken mixtures, each as a reference mix and as its integer counterpart:
# half the drawn weight, and all of it on the second strategy.
BROKEN_MIXES = (
    (lambda p, q, w: ref_mix(p, q, w / 2), lambda p, q, w: (w[0], 2 * w[1])),
    (lambda p, q, w: ref_mix(p, q, 0), lambda p, q, w: (0, w[1])),
)


@settings(max_examples=25, deadline=None)
@given(audited_games(), st.integers(0, 2**32), st.integers(1, 20))
def test_counterexample_text_matches_reference(game, seed, samples):
    # Both implementations mix the same wrong way, which breaks MS2 to MS5
    # on most samples, so the counts and the first counterexample of each
    # are compared as text.
    for ref_broken, broken_weight in BROKEN_MIXES:

        def broken(p, q, w):
            return games._mix_weights(p, q, broken_weight(p, q, w))

        for lens in Lens:
            expected = Reference(game, lens, ref_broken).report(samples, seed)
            with patch.object(axioms, "_mix_weights", broken):
                report = audit_mixture_axioms(game, lens, samples, seed)
            assert report.to_json_dict() == expected
