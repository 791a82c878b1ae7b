"""Spans around calls into the package's layers, for the traced run only.

Tracing works by wrapping functions, never by editing the package: the
layer functions that ``strictgames.cli`` imports are replaced on that module
for the duration of one traced op, and the library calls the benchmark makes
itself go through a wrapped copy of its ``api`` namespace.  Spans nest by
call, so a span's self time is its duration minus the time of the spans it
caused, and the self times of all spans under one op add up to the op's
time exactly.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from types import SimpleNamespace

ROOT = "bench.op"

# names strictgames.cli imports from the layers, and their span names
CLI_IMPORTS = {
    "load_game": "io.load_game",
    "save_game": "io.save_game",
    "detect_affine": "detection.detect_affine",
    "to_zero_sum": "detection.to_zero_sum",
    "strategically_zero_sum_detect": "strategic.strategically_zero_sum_detect",
    "minimax_solve": "solvers.minimax_solve",
    "audit_mixture_axioms": "axioms.audit_mixture_axioms",
}

# functions of the benchmark's api namespace, and their span names
API_CALLS = {
    "run_cli": "cli.run_cli",
    "load_game": "io.load_game",
    "to_zero_sum": "detection.to_zero_sum",
    "minimax_solve": "solvers.minimax_solve",
    "support_enumeration": "solvers.support_enumeration",
    "equilibrium_invariance_check": "solvers.equilibrium_invariance_check",
}

SPANS = (
    "cli.run_cli",
    "io.load_game",
    "io.save_game",
    "detection.detect_affine",
    "detection.to_zero_sum",
    "strategic.strategically_zero_sum_detect",
    "solvers.minimax_solve",
    "solvers.support_enumeration",
    "solvers.equilibrium_invariance_check",
    "axioms.audit_mixture_axioms",
)

# run_cli reports malformed input and internal errors as exit code 2
_CLI_ERROR = 2


class Tracer:
    """Accumulates busy and self nanoseconds per span name.

    ``calls`` and ``failed`` are counted only while ``counting`` is set, so
    they cover a fixed prefix of ops and repeat exactly for a seed.
    """

    def __init__(self) -> None:
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counting = False
        self._children: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._children.append(0)
            start = time.perf_counter_ns()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = name == "cli.run_cli" and result == _CLI_ERROR
                return result
            finally:
                elapsed = time.perf_counter_ns() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.busy_ns[name] += elapsed
                self.self_ns[name] += elapsed - children
                if self.counting:
                    self.calls[name] += 1
                    self.failed[name] += failed

        return traced

    @contextlib.contextmanager
    def installed(self, cli_module, api: SimpleNamespace):
        """Wrap ``cli_module``'s layer imports; yield a wrapped ``api``."""
        originals = {attr: getattr(cli_module, attr) for attr in CLI_IMPORTS}
        for attr, name in CLI_IMPORTS.items():
            setattr(cli_module, attr, self.wrap(name, originals[attr]))
        traced_api = SimpleNamespace(**vars(api))
        for attr, name in API_CALLS.items():
            setattr(traced_api, attr, self.wrap(name, getattr(api, attr)))
        try:
            yield traced_api
        finally:
            for attr, fn in originals.items():
                setattr(cli_module, attr, fn)
