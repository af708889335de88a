"""Spans around the calls into each module's public functions.

The wrappers live here, in the benchmark, not in the program: `install`
replaces each traced function by a timing wrapper wherever a module of the
package holds a reference to it (so `simulation.build_scenario1` is wrapped
as well as `topology.build_scenario1`), and `uninstall` puts the originals
back. A span records its name, start, end, parent span and op id; spans stay
in memory until `write_spans` saves them. A span's self time is its duration
minus the time its child spans cover, which on one thread is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name, timed). Timed targets record a span;
# the others are hot leaf calls that are only counted, so that tracing them
# costs little and their time stays in the calling span. Constructors are
# counted through __init__; several topology builders share one span name.
TARGETS = (
    ("cli", "main", "cli.main", True),
    ("simulation", "sweep_nodes", "simulation.sweep_nodes", True),
    ("simulation", "sweep_decoherence", "simulation.sweep_decoherence", True),
    ("simulation", "run_trials", "simulation.run_trials", True),
    ("simulation", "run_trial", "simulation.run_trial", True),
    ("simulation", "select_path", "simulation.select_path", True),
    ("simulation", "aggregate", "simulation.aggregate", True),
    ("simulation", "SweepResult.to_csv", "simulation.serialize", True),
    ("simulation", "SweepResult.to_json", "simulation.serialize", True),
    ("quantum", "apply_channel", "quantum.apply_channel", True),
    ("quantum", "apply_unitary", "quantum.apply_unitary", True),
    ("quantum", "apply_controlled_phase", "quantum.apply_controlled_phase", True),
    ("quantum", "fidelity", "quantum.fidelity", False),
    ("quantum", "measure_computational", "quantum.measure_computational", False),
    ("quantum", "coin_flip_consensus", "quantum.coin_flip_consensus", False),
    ("quantum", "ewl_game", "quantum.ewl_game", False),
    ("quantum", "StateVector.__init__", "quantum.statevector_new", True),
    ("quantum", "DensityMatrix.__init__", "quantum.densitymatrix_new", True),
    ("topology", "build_scenario1", "topology.build", True),
    ("topology", "build_scenario2", "topology.build", True),
    ("topology", "NetworkTopology.with_link_updates", "topology.build", True),
    ("topology", "NetworkTopology.graph", "topology.graph", True),
    ("topology", "NetworkTopology.link_between", "topology.link_between", False),
    ("coalition", "classical_coalition_form", "coalition.classical_coalition_form", True),
    ("coalition", "quantum_coalition_form", "coalition.quantum_coalition_form", True),
    ("coalition", "ValueModel.evaluate", "coalition.evaluate", False),
    ("coalition", "ValueModel.candidate_nodes", "coalition.candidate_nodes", True),
    ("consensus", "run_consensus", "consensus.run_consensus", True),
    ("equilibrium", "solve_wardrop", "equilibrium.solve_wardrop", True),
    ("equilibrium", "solve_nash_best_response", "equilibrium.solve_nash_best_response", True),
)

PACKAGE = "entangle_games"


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []  # open spans
        self._child_s: list[float] = []  # time covered by each open span's children
        self.reset_pass()

    def reset_pass(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: set = set()
        self._models: dict[int, object] = {}

    # -- wrapping ------------------------------------------------------------

    def _count(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return counted

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        child_s = self._child_s
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, tracer.op_id]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            child_s.append(0.0)
            record[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                children = child_s.pop()
                duration = end - start
                if child_s:
                    child_s[-1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - children
                tracer.durations[name].append(duration)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every module of the package that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._stack.clear()
        self._child_s.clear()
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module_name, path, span, timed in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = (self._wrap if timed else self._count)(span, original)
            self._patch(owner, attr, wrapper)
            if outer:
                continue  # methods are looked up on their class only
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and (module, key) != (owner, attr):
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")


# -- per-call observers: counters read off arguments and return values ------


def _observe_trial(tracer: Tracer, args, result) -> None:
    if result.success:
        tracer.counters["trial_successes"] += 1
        if result.end_to_end_fidelity < 0.25:
            tracer.counters["fidelity_below_quarter"] += 1


def _observe_evaluate(tracer: Tracer, args, result) -> None:
    model, members = args[0], frozenset(args[1])
    tracer._models[id(model)] = model  # keeps ids unique for the pass
    tracer.distinct.add((id(model), members))


def _observe_quantum(tracer: Tracer, args, result) -> None:
    tracer.counters["quantum_rounds"] += result.rounds


def _observe_classical(tracer: Tracer, args, result) -> None:
    for record in result.history:
        tracer.counters[f"{record['op']}_ops"] += 1


def _observe_consensus(tracer: Tracer, args, result) -> None:
    tracer.counters["consensus_rounds"] += result.rounds
    tracer.counters["tie_events"] += len(result.tie_events)
    tracer.counters["switches"] += len(result.switches)


def _observe_wardrop(tracer: Tracer, args, result) -> None:
    tracer.counters["wardrop_iterations"] += result.iterations


def _observe_nash(tracer: Tracer, args, result) -> None:
    tracer.counters["nash_iterations"] += result.iterations


OBSERVERS = {
    "simulation.run_trial": _observe_trial,
    "coalition.evaluate": _observe_evaluate,
    "coalition.quantum_coalition_form": _observe_quantum,
    "coalition.classical_coalition_form": _observe_classical,
    "consensus.run_consensus": _observe_consensus,
    "equilibrium.solve_wardrop": _observe_wardrop,
    "equilibrium.solve_nash_best_response": _observe_nash,
}
