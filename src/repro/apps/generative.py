"""A phase-graph workload generator: adversarial, structured, seeded.

The registered applications are iterative scientific kernels with mostly
periodic streams; this module generates *non-periodic but structured*
workloads so the tracing pipeline is exercised on scenarios the paper's
evaluation never covered. A :class:`PhaseGraph` is a declarative spec:

* **phases** -- each with a per-step task mix (``body``), a duration
  range (``steps``), an optional **burst** knob (a probabilistic window
  of irregular fan-out tasks), a **drift** knob (the phase's region
  footprint slowly rotates across the partition, breaking exact
  periodicity the way allocator churn does), and an optional nested
  **sub-period** (every k steps the phase interleaves a secondary body,
  modeling convergence checks and I/O sub-cycles);
* **edges** -- weighted transitions between phases, taken when a
  phase's drawn duration expires.

Everything is driven by one ``random.Random(seed)`` owned by the app
instance, so a graph plus a seed fully determines the stream: same seed,
same task-by-task signatures (property-tested); different graphs,
structurally different replay behaviour.

Named graphs live in the :data:`PHASE_GRAPHS` registry (the standard
plugin pattern) so experiments, the chaos suite, and the trace corpus
can ask for ``"steady"`` or ``"adversarial"`` by name.
"""

import random

from repro.apps.base import Application, register_app
from repro.registry import Registry
from repro.runtime.privilege import Privilege
from repro.runtime.task import RegionRequirement, Task


class SubPeriod:
    """A nested sub-cycle: every ``every`` steps, issue ``body`` too."""

    __slots__ = ("every", "body")

    def __init__(self, every, body):
        if every < 1:
            raise ValueError(f"sub-period every must be >= 1, got {every}")
        self.every = every
        self.body = [(str(kind), int(count)) for kind, count in body]


class Burst:
    """Probabilistic irregularity: a window of high fan-out tasks."""

    __slots__ = ("kind", "prob", "width", "fanout")

    def __init__(self, kind, prob, width, fanout=2):
        lo, hi = width
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"burst prob must be in [0, 1], got {prob}")
        if not 1 <= lo <= hi:
            raise ValueError(f"burst width must be 1 <= lo <= hi, got {width}")
        self.kind = str(kind)
        self.prob = float(prob)
        self.width = (int(lo), int(hi))
        self.fanout = int(fanout)


class Phase:
    """One phase: a task mix plus its irregularity knobs."""

    __slots__ = ("name", "body", "steps", "burst", "drift", "sub")

    def __init__(self, name, body, steps, burst=None, drift=0.0, sub=None):
        lo, hi = steps
        if not 1 <= lo <= hi:
            raise ValueError(f"phase steps must be 1 <= lo <= hi, got {steps}")
        if not 0.0 <= drift <= 1.0:
            raise ValueError(f"drift must be in [0, 1], got {drift}")
        self.name = str(name)
        self.body = [(str(kind), int(count)) for kind, count in body]
        self.steps = (int(lo), int(hi))
        self.burst = burst
        self.drift = float(drift)
        self.sub = sub


class PhaseGraph:
    """The declarative spec: phases, weighted edges, a seed."""

    __slots__ = ("name", "seed", "start", "phases", "edges")

    def __init__(self, name, seed, start, phases, edges=None):
        self.name = str(name)
        self.seed = int(seed)
        self.phases = {phase.name: phase for phase in phases}
        if start not in self.phases:
            raise ValueError(
                f"start phase {start!r} not among {sorted(self.phases)}"
            )
        self.start = start
        edges = edges or {}
        for source, targets in edges.items():
            if source not in self.phases:
                raise ValueError(f"edge from unknown phase {source!r}")
            for target, weight in targets:
                if target not in self.phases:
                    raise ValueError(f"edge to unknown phase {target!r}")
                if weight <= 0:
                    raise ValueError(
                        f"edge weight must be positive, got {weight}"
                    )
        self.edges = {
            source: [(str(t), float(w)) for t, w in targets]
            for source, targets in edges.items()
        }

    def with_seed(self, seed):
        """The same structure under a different seed."""
        return PhaseGraph(
            self.name, seed, self.start, list(self.phases.values()),
            self.edges,
        )

    def __repr__(self):
        return (
            f"PhaseGraph({self.name!r}, seed={self.seed}, "
            f"phases={sorted(self.phases)})"
        )


#: Named phase-graph specs (the plugin pattern, like fault plans).
PHASE_GRAPHS = Registry("phase graph", {
    # One phase, fixed duration, no irregularity: a strictly periodic
    # stream the miner converges on quickly (the control).
    "steady": PhaseGraph(
        "steady", seed=11, start="loop",
        phases=[
            Phase("loop", body=[("FLUX", 2), ("EULER", 2)], steps=(8, 8)),
        ],
    ),
    # Two well-behaved phases trading off, mild burstiness: the default
    # "realistic" generator.
    "baseline": PhaseGraph(
        "baseline", seed=23, start="ramp",
        phases=[
            Phase("ramp", body=[("LOAD", 1), ("FLUX", 2)], steps=(4, 6),
                  burst=Burst("SPIKE", prob=0.05, width=(1, 2))),
            Phase("steady", body=[("FLUX", 2), ("EULER", 2)], steps=(8, 12)),
        ],
        edges={
            "ramp": [("steady", 1.0)],
            "steady": [("ramp", 1.0), ("steady", 3.0)],
        },
    ),
    # A nested sub-period every third step: periodicity at two scales.
    "nested": PhaseGraph(
        "nested", seed=37, start="outer",
        phases=[
            Phase("outer", body=[("FLUX", 2), ("EULER", 1)], steps=(9, 9),
                  sub=SubPeriod(every=3, body=[("CHECK", 1), ("REDUCE", 1)])),
        ],
    ),
    # Three phases with irregular durations, frequent bursts, and region
    # drift: the adversarial stream that keeps breaking exact repeats.
    "adversarial": PhaseGraph(
        "adversarial", seed=41, start="churn",
        phases=[
            Phase("churn", body=[("LOAD", 1), ("FLUX", 1), ("MIX", 1)],
                  steps=(3, 9), drift=0.35,
                  burst=Burst("SPIKE", prob=0.3, width=(2, 5), fanout=3)),
            Phase("sweep", body=[("EULER", 2), ("MIX", 1)], steps=(2, 7),
                  drift=0.25,
                  burst=Burst("FLOOD", prob=0.2, width=(1, 4), fanout=2)),
            Phase("settle", body=[("FLUX", 2)], steps=(2, 5), drift=0.15),
        ],
        edges={
            "churn": [("sweep", 2.0), ("settle", 1.0)],
            "sweep": [("churn", 2.0), ("settle", 1.0)],
            "settle": [("churn", 1.0), ("sweep", 1.0)],
        },
    ),
})


@register_app
class Generative(Application):
    """The phase-graph-driven application.

    ``graph`` is a :data:`PHASE_GRAPHS` name or a :class:`PhaseGraph`;
    everything else is standard :class:`~repro.apps.base.AppConfig`.
    One ``iteration`` call advances the phase machine by one step.
    """

    name = "generative"
    sizes = {"s": 1e-4, "m": 4e-4, "l": 1.6e-3}

    def __init__(self, config, graph="baseline"):
        self.graph = PHASE_GRAPHS[graph] if isinstance(graph, str) else graph
        super().__init__(config)

    def setup(self):
        forest = self.runtime.forest
        self.chunks = max(2, self.config.gpus * 2)
        self.pool = forest.create_region(
            (1 << 20,), fields=("cell", "flux"), name="gen_pool"
        )
        self.part = forest.create_partition(self.pool, self.chunks)
        self._rng = random.Random(self.graph.seed)
        self._phase = self.graph.phases[self.graph.start]
        self._steps_left = self._draw_steps(self._phase)
        self._step = 0  # steps taken inside the current phase
        self._offset = 0  # drift rotation of the region footprint
        self._burst_left = 0
        self._burst = None

    # ------------------------------------------------------------------
    # Phase machine
    # ------------------------------------------------------------------
    def _draw_steps(self, phase):
        lo, hi = phase.steps
        return lo if lo == hi else self._rng.randint(lo, hi)

    def _transition(self):
        targets = self.graph.edges.get(self._phase.name)
        if targets:
            names = [t for t, _ in targets]
            weights = [w for _, w in targets]
            chosen = self._rng.choices(names, weights=weights, k=1)[0]
        else:
            chosen = self._phase.name  # no edges: the phase loops forever
        self._phase = self.graph.phases[chosen]
        self._steps_left = self._draw_steps(self._phase)
        self._step = 0

    def iteration(self, index):
        rng = self._rng
        if self._steps_left <= 0:
            self._transition()
        phase = self._phase
        if phase.drift and rng.random() < phase.drift:
            self._offset = (self._offset + 1) % self.chunks
        if self._burst_left > 0:
            self._burst_left -= 1
            self._emit_burst(self._burst)
        elif phase.burst is not None and rng.random() < phase.burst.prob:
            lo, hi = phase.burst.width
            self._burst = phase.burst
            self._burst_left = rng.randint(lo, hi)
        if phase.sub is not None and self._step and \
                self._step % phase.sub.every == 0:
            self._emit_body(phase.sub.body)
        self._emit_body(phase.body)
        self._step += 1
        self._steps_left -= 1

    # ------------------------------------------------------------------
    # Task emission
    # ------------------------------------------------------------------
    def _emit_body(self, body):
        for kind, count in body:
            for lane in range(self.scaled(count)):
                chunk = (lane + self._offset) % self.chunks
                self._launch(kind, chunk)

    def _emit_burst(self, burst):
        for _ in range(burst.fanout):
            self._launch(burst.kind, self._rng.randrange(self.chunks))

    def _launch(self, kind, chunk):
        neighbor = (chunk + 1) % self.chunks
        self.executor.execute_task(
            Task(
                f"GEN_{kind}",
                [
                    RegionRequirement(
                        self.part.subregion(neighbor),
                        Privilege.READ_ONLY,
                        fields=("flux",),
                    ),
                    RegionRequirement(
                        self.part.subregion(chunk),
                        Privilege.READ_WRITE,
                        fields=("cell",),
                    ),
                ],
                exec_cost=self.task_time,
            )
        )
