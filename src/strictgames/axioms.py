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
``k`` draws from ``random.Random(seed * 8 + k)`` in a fixed order; adding,
dropping or reordering a draw changes reports.  The draws live in
:func:`strictgames.rational.draws`, which binds them once to the stream
(simplex point, coordinate, weight and open weight) and consumes it
exactly as ``randint`` and ``choice`` do.  Each axiom's sampler is a
closure over the lens and those bound draws, and builds each lens side
``M @ y`` or ``x @ M`` it needs once per sample.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .games import BimatrixGame, IntMatrix, MixedProfile, expected_utility
from .games import _mix_weights, _row_sums
from .rational import Draws, draws

AXIOM_NAMES = ("MS1", "MS2", "MS3", "MS4", "MS5")

Weights = list[int]
#: ``(n, d)``, d > 0: a utility ``n / (d * den)``, or a weight ``n / d``.
Pair = tuple[int, int]
#: ``(v, d)``: weights ``s`` of the varied coordinate are worth ``(v @ s, d * sum(s))``.
Side = tuple[list[int], int]
#: The lens matrix ``M``, its transpose and its denominator.
LensMatrices = tuple[IntMatrix, IntMatrix, int]
#: One sample of an axiom: None, ``_VACUOUS`` or a counterexample.
Sampler = Callable[[], str | None]
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
    def _lens(self) -> LensMatrices:
        """``M``, its transpose, and ``den``."""
        g = self.game  # tuples from lists, as BimatrixGame builds them
        if self.lens is Lens.NEG_U1:
            m, den = tuple([tuple([-v for v in row]) for row in g.num1]), g.den1
        else:
            m, den = g.num2, g.den2
        return m, tuple(list(zip(*m))), den

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
        """What ``dataclasses.asdict`` gives, the lens by its value and
        ``overall_pass`` added, without its deep copy of immutable values."""
        axioms = {name: dict(vars(stats)) for name, stats in self.axioms.items()}
        fields = {"samples": self.samples, "seed": self.seed, "axioms": axioms}
        return {"lens": self.lens.value, **fields, "overall_pass": self.overall_pass}


def _at(side: Side, s: Weights) -> Pair:
    """The utility of strategy weights ``s`` against ``side``."""
    v, d = side
    return sum(map(mul, v, s)), d * sum(s)


def _value(m: IntMatrix, x: Weights, y: Weights) -> Pair:
    """The utility of the profile ``(x, y)`` under the lens matrix ``m``."""
    return sum(map(mul, x, _row_sums(m, y))), sum(x) * sum(y)


def _diff(a: Pair, b: Pair) -> int:
    """An integer with the sign of ``a - b``."""
    return a[0] * b[1] - b[0] * a[1]


def _show(u: Pair, den: int) -> Fraction:
    return Fraction(u[0], u[1] * den)


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


def _samplers(lens: LensMatrices, draw: Draws) -> tuple[Sampler, ...]:
    """The samplers of MS1 to MS5 as closures over the lens and one stream's
    bound draws, so that a sample looks nothing up; the audit keeps the
    sampler of the axiom whose stream it bound.  Each draws in a fixed
    order, which the reports depend on."""
    (m, mt, den), (_, point, coordinate, weight, open_weight) = lens, draw
    dims = rows, cols = len(m), len(mt)

    def ms1() -> str | None:
        a, b, c = [_value(m, point(rows), point(cols)) for _ in range(3)]
        ab = _diff(a, b)
        if not (ab <= 0 or -ab <= 0):  # a <= b or b <= a
            return f"totality broken at {_show(a, den)} vs {_show(b, den)}"
        if ab <= 0 and _diff(b, c) <= 0 and not _diff(a, c) <= 0:
            a, b, c = (_show(u, den) for u in (a, b, c))
            return f"transitivity broken at ({a}, {b}, {c})"
        return None

    def ms2() -> str | None:
        p, q = (point(rows), point(cols)), (point(rows), point(cols))
        r = point(rows), point(cols)
        i = coordinate()
        a = weight()
        # r's side of coordinate i, its sum left out: both mixtures meet it
        v, pi, qi = _row_sums(lens[i - 1], r[2 - i]), p[i - 1], q[i - 1]
        left = _mix_weights(pi, qi, a)
        right = _mix_weights(qi, pi, (a[1] - a[0], a[1]))
        if sum(map(mul, v, left)) * sum(right) != sum(map(mul, v, right)) * sum(left):
            return f"commutativity broken at weight {Fraction(*a)}, coordinate {i}"
        return None

    def ms3() -> str | None:
        p, q = (point(rows), point(cols)), (point(rows), point(cols))
        r = point(rows), point(cols)
        i = coordinate()
        a, b = weight(), weight()
        v, pi, qi = _row_sums(lens[i - 1], r[2 - i]), p[i - 1], q[i - 1]
        left = _mix_weights(_mix_weights(pi, qi, a), qi, b)
        right = _mix_weights(pi, qi, (a[0] * b[0], a[1] * b[1]))
        if sum(map(mul, v, left)) * sum(right) != sum(map(mul, v, right)) * sum(left):
            a, b = Fraction(*a), Fraction(*b)
            return f"distributivity broken at weights ({a}, {b}), coordinate {i}"
        return None

    def ms4() -> str | None:
        p, q = (point(rows), point(cols)), (point(rows), point(cols))
        i = coordinate()
        base, top, other = p[i - 1], point(dims[i - 1]), p[2 - i]
        side = _row_sums(lens[i - 1], other), sum(other)
        up, uq, urp = _at(side, base), _value(m, *q), _at(side, top)
        if _diff(urp, uq) < 0 < _diff(up, uq):
            # the premise fires with the roles of p_i and r_i exchanged
            base, top, up, urp = top, base, urp, up
        elif not _diff(up, uq) < 0 < _diff(urp, uq):
            return _VACUOUS
        alpha, beta = _ms4_weights(up, uq, urp)
        low = _at(side, _mix_weights(base, top, alpha))
        high = _at(side, _mix_weights(base, top, beta))
        if 0 < alpha[0] < alpha[1] and 0 < beta[0] < beta[1]:
            if _diff(low, uq) < 0 < _diff(high, uq):
                return None
        up, uq, urp = (_show(u, den) for u in (up, uq, urp))
        return f"solvability witness failed at ({up}, {uq}, {urp})"

    def ms5() -> str | None:
        p, q = (point(rows), point(cols)), (point(rows), point(cols))
        # the sides M @ y that the values are read off, reused for coordinate 1
        ps, qs = (_row_sums(m, p[1]), sum(p[1])), (_row_sums(m, q[1]), sum(q[1]))
        order = _diff(_at(ps, p[0]), _at(qs, q[0]))
        if order == 0:
            return _VACUOUS
        if order > 0:
            p, q, ps, qs = q, p, qs, ps
        i, j = coordinate(), coordinate()
        ri = point(dims[i - 1])
        pside = ps if i == 1 else (_row_sums(mt, p[0]), sum(p[0]))
        qside = qs if j == 1 else (_row_sums(mt, q[0]), sum(q[0]))
        sj = _indifferent_strategy(qside, _at(pside, ri))
        if sj is None:
            return _VACUOUS
        a = open_weight()
        left = _at(pside, _mix_weights(p[i - 1], ri, a))
        if _diff(left, _at(qside, _mix_weights(q[j - 1], sj, a))) >= 0:
            a = Fraction(*a)
            return f"independence broken at weight {a}, coordinates ({i}, {j})"
        return None

    return ms1, ms2, ms3, ms4, ms5


def _audit(sample: Sampler, samples: int) -> AxiomStats:
    """Tally ``samples`` runs of ``sample``: None when the axiom held,
    ``_VACUOUS`` when its premise did not fire, else the counterexample."""
    outcomes = [sample() for _ in range(samples)]
    vacuous = outcomes.count(_VACUOUS)
    failures = [o for o in outcomes if o is not None and o is not _VACUOUS]
    # the first counterexample, if any, is the last field
    return AxiomStats(samples, samples - vacuous, vacuous, len(failures), *failures[:1])


def audit_mixture_axioms(
    game: BimatrixGame, lens: Lens, samples: int, seed: int
) -> AxiomReport:
    """Run the five axiom audits with an independent seed stream per axiom."""
    if type(samples) is not int or type(seed) is not int or samples < 1:
        raise ValueError("samples must be an int >= 1 and seed an int")
    pref = InducedPreference(game, lens)
    # axiom k samples from its own stream, seeded seed * 8 + k
    streams = (draws(random.Random(seed * 8 + k)) for k in range(len(AXIOM_NAMES)))
    stats = {
        name: _audit(_samplers(pref._lens, draw)[k], samples)
        for k, (name, draw) in enumerate(zip(AXIOM_NAMES, streams))
    }
    return AxiomReport(lens=pref.lens, samples=samples, seed=seed, axioms=stats)
