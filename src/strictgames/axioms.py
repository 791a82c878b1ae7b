"""Randomized audit of the ordered bilinear mixture-space axioms.

The bridge from strict competitiveness to the affine certificate runs
through a preference on profiles represented either by the negated row
payoff or by the column payoff.  Because both representations are bilinear
expectations, that preference satisfies the five mixture-space axioms (a
total preorder, commutativity and distributivity of mixing, solvability,
and interdimensional independence) for every game.  This module makes each
axiom executable: samples are drawn with seeded bounded-denominator
mixtures, every comparison is exact, and the existential axioms are checked
by constructing explicit witnesses rather than by search.

MS4 and MS5 have preconditions that random draws may miss; those samples
are counted as vacuous, separately from failures.

The audit runs on integers: a strategy is a list of integer weights over
their sum, and a utility a pair ``(n, d)``, d > 0, worth ``n / (d * den)``
for the lens's game denominator, compared by cross-multiplication.  Axiom
``k`` draws from ``random.Random(seed * 8 + k)`` in a fixed order, through
samplers that consume it exactly as ``randint`` and ``choice`` do; adding,
dropping or reordering a draw changes reports.
"""

from __future__ import annotations

import enum
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .games import BimatrixGame, IntMatrix, MixedProfile, expected_utility
from .games import _mix_weights, _row_sums
from .rational import _below, random_open_weight, random_simplex_point, random_weight

AXIOM_NAMES = ("MS1", "MS2", "MS3", "MS4", "MS5")

Weights = list[int]
Profile = tuple[Weights, Weights]
#: ``(n, d)``, d > 0: a utility ``n / (d * den)``, or a weight ``n / d``.
Pair = tuple[int, int]
#: ``(v, d)``: weights ``s`` of the varied coordinate are worth ``(v @ s, d * sum(s))``.
Side = tuple[list[int], int]
_VACUOUS = "vacuous"  # a sample whose precondition did not fire


class Lens(enum.Enum):
    """Which utility represents the audited preference."""

    NEG_U1 = "neg_u1"
    U2 = "u2"


@dataclass(frozen=True)
class InducedPreference:
    """Profile preference represented by a bilinear utility of the game:
    ``x @ M @ y / (dx * dy * den)`` for weights ``x``, ``y`` with sums ``dx``,
    ``dy``, the lens matrix ``M`` (``-num1`` or ``num2``) and its ``den``;
    ``lens`` may be given by its value, and any other raises ``ValueError``."""

    game: BimatrixGame
    lens: Lens

    def __post_init__(self) -> None:
        object.__setattr__(self, "lens", Lens(self.lens))

    @cached_property
    def _lens(self) -> tuple[IntMatrix, IntMatrix, int]:
        """``M``, its transpose, and ``den``."""
        g = self.game
        if self.lens is Lens.NEG_U1:
            m, den = tuple(tuple(-v for v in row) for row in g.num1), g.den1
        else:
            m, den = g.num2, g.den2
        return m, tuple(zip(*m)), den

    def _strategy(self, rng: random.Random, i: int) -> Weights:
        return random_simplex_point(rng, len(self._lens[i - 1]))

    def _profile(self, rng: random.Random) -> Profile:
        m, mt, _ = self._lens
        return random_simplex_point(rng, len(m)), random_simplex_point(rng, len(mt))

    def _side(self, prof: Profile, i: int) -> Side:
        """What coordinate ``i`` of ``prof`` meets: the row sums ``M @ y``
        (i == 1) or column sums ``x @ M`` (i == 2), over the other sum."""
        other = prof[2 - i]
        return _row_sums(self._lens[i - 1], other), sum(other)

    def _value(self, prof: Profile) -> Pair:
        return _at(self._side(prof, 1), prof[0])

    def _show(self, u: Pair) -> Fraction:
        return Fraction(u[0], u[1] * self._lens[2])

    def utility(self, p: MixedProfile) -> Fraction:
        if self.lens is Lens.NEG_U1:
            return -expected_utility(self.game, 1, p)
        return expected_utility(self.game, 2, p)

    def precedes(self, sigma: MixedProfile, tau: MixedProfile) -> bool:
        """Whether sigma is weakly dispreferred to tau."""
        return self.utility(sigma) <= self.utility(tau)


@dataclass(frozen=True)
class AxiomStats:
    samples: int
    checked: int
    vacuous: int
    failures: int
    first_counterexample: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    lens: Lens
    samples: int
    seed: int
    axioms: dict[str, AxiomStats]

    @property
    def overall_pass(self) -> bool:
        return all(s.failures == 0 for s in self.axioms.values())

    def to_json_dict(self) -> dict:
        out = asdict(self)
        return {**out, "lens": self.lens.value, "overall_pass": self.overall_pass}


def _at(side: Side, s: Weights) -> Pair:
    """The utility of strategy weights ``s`` against ``side``."""
    v, d = side
    return sum(map(mul, v, s)), d * sum(s)


def _diff(a: Pair, b: Pair) -> int:
    """An integer with the sign of ``a - b``."""
    return a[0] * b[1] - b[0] * a[1]


def _coordinate(rng: random.Random) -> int:
    """Draws what ``rng.choice((1, 2))`` draws."""
    return 1 + _below(rng, 2)


def _ms4_weights(up: Pair, uq: Pair, urp: Pair) -> tuple[Pair, Pair]:
    """:func:`ms4_witness` on pairs: with the values A < B < C over one
    denominator, ``(2C - A - B) / 2(C - A)`` and ``(C - B) / 2(C - A)``."""
    a = up[0] * uq[1] * urp[1]
    b = uq[0] * up[1] * urp[1]
    c = urp[0] * up[1] * uq[1]
    return (2 * c - a - b, 2 * (c - a)), (c - b, 2 * (c - a))


def ms4_witness(
    up: Fraction, uq: Fraction, urp: Fraction
) -> tuple[Fraction, Fraction]:
    """Mixture weights hitting the midpoints of (up, uq) and (uq, urp).

    Requires up < uq < urp.  With a linear represented utility, weight w on
    the low endpoint gives value w*up + (1-w)*urp, so solving for the two
    midpoint targets yields weights strictly inside (0, 1).
    """
    if not up < uq < urp:
        raise ValueError("requires up < uq < urp")
    pairs = ((v.numerator, v.denominator) for v in (up, uq, urp))
    return tuple(Fraction(*w) for w in _ms4_weights(*pairs))


def _ms1(pref: InducedPreference, rng: random.Random) -> str | None:
    a, b, c = (pref._value(pref._profile(rng)) for _ in range(3))
    show = pref._show
    if not (_diff(a, b) <= 0 or _diff(b, a) <= 0):
        return f"totality broken at {show(a)} vs {show(b)}"
    if _diff(a, b) <= 0 and _diff(b, c) <= 0 and not _diff(a, c) <= 0:
        return f"transitivity broken at ({show(a)}, {show(b)}, {show(c)})"
    return None


def _ms2(pref: InducedPreference, rng: random.Random) -> str | None:
    p, q, r = (pref._profile(rng) for _ in range(3))
    i = _coordinate(rng)
    a = random_weight(rng)
    side, pi, qi = pref._side(r, i), p[i - 1], q[i - 1]
    left = _at(side, _mix_weights(pi, qi, a))
    right = _at(side, _mix_weights(qi, pi, (a[1] - a[0], a[1])))
    if _diff(left, right) != 0:
        return f"commutativity broken at weight {Fraction(*a)}, coordinate {i}"
    return None


def _ms3(pref: InducedPreference, rng: random.Random) -> str | None:
    p, q, r = (pref._profile(rng) for _ in range(3))
    i = _coordinate(rng)
    a = random_weight(rng)
    b = random_weight(rng)
    side, pi, qi = pref._side(r, i), p[i - 1], q[i - 1]
    left = _at(side, _mix_weights(_mix_weights(pi, qi, a), qi, b))
    right = _at(side, _mix_weights(pi, qi, (a[0] * b[0], a[1] * b[1])))
    if _diff(left, right) != 0:
        return (
            f"distributivity broken at weights ({Fraction(*a)}, "
            f"{Fraction(*b)}), coordinate {i}"
        )
    return None


def _ms4(pref: InducedPreference, rng: random.Random) -> str | None:
    p = pref._profile(rng)
    q = pref._profile(rng)
    i = _coordinate(rng)
    top = pref._strategy(rng, i)
    side, base = pref._side(p, i), p[i - 1]
    up, uq, urp = _at(side, base), pref._value(q), _at(side, top)
    if _diff(urp, uq) < 0 < _diff(up, uq):
        # the premise fires with the roles of p_i and r_i exchanged
        base, top, up, urp = top, base, urp, up
    elif not _diff(up, uq) < 0 < _diff(urp, uq):
        return _VACUOUS
    alpha, beta = _ms4_weights(up, uq, urp)
    low = _at(side, _mix_weights(base, top, alpha))
    high = _at(side, _mix_weights(base, top, beta))
    if (
        0 < alpha[0] < alpha[1]
        and 0 < beta[0] < beta[1]
        and _diff(low, uq) < 0 < _diff(high, uq)
    ):
        return None
    show = pref._show
    return f"solvability witness failed at ({show(up)}, {show(uq)}, {show(urp)})"


def _indifferent_strategy(side: Side, target: Pair) -> Weights | None:
    """Weights worth ``target`` against ``side``, or None if unreachable:
    the utility is linear, so its range is spanned by the pure strategies
    (``k`` is worth ``v[k] / d``) and a two-point mixture hits any target."""
    v, d = side
    num, den = target
    lo, hi = min(v), max(v)
    if not lo * den <= num * d <= hi * den:
        return None
    s = [0] * len(v)
    if lo == hi:
        s[0] = 1
    else:
        # weight (hi - target) / (hi - lo) on the lowest pure strategy
        s[v.index(lo)] = hi * den - num * d
        s[v.index(hi)] = num * d - lo * den
    return s


def _ms5(pref: InducedPreference, rng: random.Random) -> str | None:
    p = pref._profile(rng)
    q = pref._profile(rng)
    order = _diff(pref._value(p), pref._value(q))
    if order == 0:
        return _VACUOUS
    if order > 0:
        p, q = q, p
    i = _coordinate(rng)
    j = _coordinate(rng)
    ri = pref._strategy(rng, i)
    pside, qside = pref._side(p, i), pref._side(q, j)
    sj = _indifferent_strategy(qside, _at(pside, ri))
    if sj is None:
        return _VACUOUS
    a = random_open_weight(rng)
    left = _at(pside, _mix_weights(p[i - 1], ri, a))
    right = _at(qside, _mix_weights(q[j - 1], sj, a))
    if _diff(left, right) >= 0:
        return f"independence broken at weight {Fraction(*a)}, coordinates ({i}, {j})"
    return None


def _audit(
    sample, pref: InducedPreference, rng: random.Random, samples: int
) -> AxiomStats:
    """Tally ``samples`` runs of ``sample``: None when the axiom held,
    ``_VACUOUS`` when its premise did not fire, else the counterexample."""
    checked = vacuous = failures = 0
    first = None
    for _ in range(samples):
        outcome = sample(pref, rng)
        if outcome is _VACUOUS:
            vacuous += 1
            continue
        checked += 1
        if outcome is not None:
            failures += 1
            first = first or outcome
    return AxiomStats(samples, checked, vacuous, failures, first)


def audit_mixture_axioms(
    game: BimatrixGame, lens: Lens, samples: int, seed: int
) -> AxiomReport:
    """Run the five axiom audits with an independent seed stream per axiom."""
    if type(samples) is not int or type(seed) is not int or samples < 1:
        raise ValueError("samples must be an int >= 1 and seed an int")
    pref = InducedPreference(game, lens)
    auditors = (_ms1, _ms2, _ms3, _ms4, _ms5)
    stats = {
        name: _audit(sample, pref, random.Random(seed * 8 + k), samples)
        for k, (name, sample) in enumerate(zip(AXIOM_NAMES, auditors))
    }
    return AxiomReport(lens=pref.lens, samples=samples, seed=seed, axioms=stats)
