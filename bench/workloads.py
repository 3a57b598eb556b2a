"""The benchmark's workloads.

Each workload has a program-side ``setup`` (counted in ``setup_s``), an
untimed ``prepare_reference``, a timed ``op`` that returns the program's
outputs, and an untimed ``check`` that compares them with the independent
references in ``reference.py``.  Every call into dtlmon goes through a
module attribute at call time (``dtlmon.simulate``, not a name imported
once), so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import dtlmon
import dtlmon.monitor
import dtlmon.studies
from dtlmon.logic import Const, EntropyBits, Prob, Sub

import reference as ref


def _precompile(formula) -> None:
    """Compile a formula ahead of the timed phase when the program offers a
    compile entry point; otherwise the first operation compiles it."""
    compile_fn = getattr(dtlmon.monitor, "compile_monitor", None)
    if compile_fn is not None:
        compile_fn(formula)


class Workload:
    name = ""
    repeat = True  # the round is replayed until the process's time is up
    trace_ops = 1  # operations in a traced run (fixed, so counts repeat)

    def __init__(self):
        self.feasible = 0
        self.checked = 0
        self.tied = 0
        self.interior = 0
        self.dp_pairs = 0

    def ops_per_round(self, seconds: float) -> int:
        raise NotImplementedError

    def count(self, reports, ties) -> None:
        for report, t in zip(reports, ties):
            self.checked += 1
            self.feasible += bool(report.feasible)
            self.tied += t > 0
            self.interior += 0.01 < report.probability < 0.99
            self.dp_pairs += int(report.diagnostics.get("dp_pairs", 0))

    def summary(self) -> dict:
        return {
            "traces": self.checked, "feasible": self.feasible, "tied": self.tied,
            "interior": self.interior,
        }


class RescueStudy(Workload):
    """The paper's case study: both rescue policies at horizon 16, one
    trial per operation (simulate, then monitor), policies alternating."""

    name = "rescue_study"
    TRIALS = 200
    trace_ops = 200
    HORIZON = 16

    def ops_per_round(self, seconds: float) -> int:
        return self.TRIALS

    def setup(self, seed: int, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.pomdp, self.formula = dtlmon.build_rescue()
        _precompile(self.formula)
        policies = [
            dtlmon.studies.TimeSharePolicy(3),
            dtlmon.studies.EntropyCutoffPolicy(0.3, 0.3, 2),
        ]
        if tracer is not None:
            policies = [tracer.wrap_policy(p) for p in policies]
        self.policies = policies

    def prepare_reference(self) -> None:
        self.ref_model = ref.RefModel(self.pomdp.to_json_dict())

    def op(self, i: int):
        seed = dtlmon.studies.trial_seed(self.seed, i // 2)
        _, execution = dtlmon.simulate(self.pomdp, self.policies[i % 2], self.HORIZON, seed)
        report = dtlmon.acceptance_probability(self.pomdp, self.formula, execution)
        return execution, [report]

    def check(self, i: int, payload) -> None:
        execution, (report,) = payload
        trace = ref.TraceRef(self.ref_model, execution.actions, execution.observations)
        self.count([report], [trace.verify(self.formula, report, execution.beliefs)])


class DenseCheck(Workload):
    """``dtlmon check`` on a target doing a biased random walk on a grid
    under a noisy position sensor, so that many hidden paths stay
    consistent with each record.  One operation loads one trace file and
    monitors it against one of five fixed formulas.

    The model comes from a fixed seed and the traces from the run's seed:
    with a model drawn per seed, operation cost varied by 25% between
    seeds."""

    name = "dense_check"
    MODEL_SEED = 7
    GRID = 7
    SENSOR_RADIUS = 3
    SENSOR_NOISE = 0.9
    DRIFT = 1.3
    HORIZON = 32
    TRACES = 32
    trace_ops = 60

    def __init__(self):
        super().__init__()
        self.h_col = Sub(EntropyBits("col", ()), Const(1.75))
        self.p_danger = Sub(Prob("danger", frozenset()), Const(0.2))
        self.dfas = ref.dense_dfas(self.h_col, self.p_danger)

    def ops_per_round(self, seconds: float) -> int:
        return self.TRACES * len(self.dfas)

    def setup(self, seed: int, workdir: Path, tracer=None) -> None:
        doc = self._model_doc(np.random.default_rng(self.MODEL_SEED))
        rng = np.random.default_rng(seed)
        self.model_path = workdir / "dense_model.json"
        with open(self.model_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        # The generator's own filter supplies the recorded beliefs, so every
        # load_trace also cross-checks the program's filter against them.
        self.gen_model = ref.RefModel(doc)
        self.records = []
        self.trace_paths = []
        for k in range(self.TRACES):
            actions, observations = self._sample(rng)
            beliefs = self.gen_model.filter(actions, observations)
            names = self.gen_model.state_names
            trace_doc = {
                "actions": [doc["actions"][a] for a in actions],
                "observations": [doc["observations"][o] for o in observations],
                "beliefs": [
                    {names[s]: float(p) for s, p in enumerate(b) if p > 0.0} for b in beliefs
                ],
            }
            path = workdir / f"dense_trace_{k:03d}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(trace_doc, fh)
            self.records.append((actions, observations, beliefs))
            self.trace_paths.append(path)
        self.pomdp = dtlmon.load_model(self.model_path)
        self.formulas = [dtlmon.parse_formula(d.text, self.pomdp) for d in self.dfas]
        for formula in self.formulas:
            _precompile(formula)

    def _model_doc(self, rng) -> dict:
        w, radius, noise = self.GRID, self.SENSOR_RADIUS, self.SENSOR_NOISE
        cells = [(r, c) for r in range(w) for c in range(w)]
        name = {cell: f"x{cell[0]}_{cell[1]}" for cell in cells}
        oname = {cell: f"o{cell[0]}_{cell[1]}" for cell in cells}
        transitions, observation_model = [], []
        for r, c in cells:
            succ = [
                (r + dr, c + dc)
                for dr in (-1, 0, 1)
                for dc in (-1, 0, 1)
                if 0 <= r + dr < w and 0 <= c + dc < w
            ]
            # Moves toward the far corner are likelier, so goals are reached.
            weights = rng.uniform(0.5, 1.5, len(succ)) * [
                self.DRIFT if r2 + c2 > r + c else 1.0 for r2, c2 in succ
            ]
            weights /= weights.sum()
            transitions += [
                [name[(r, c)], "walk", name[s], float(p)] for s, p in zip(succ, weights)
            ]
            near = [
                (r + dr, c + dc)
                for dr in range(-radius, radius + 1)
                for dc in range(-radius, radius + 1)
                if 0 <= r + dr < w and 0 <= c + dc < w
            ]
            probs = {cell: noise / len(near) for cell in near}
            probs[(r, c)] += 1.0 - noise
            observation_model += [
                [name[(r, c)], "walk", oname[cell], p] for cell, p in probs.items()
            ]
        start = [cell for cell in cells if cell[0] < 2 and cell[1] < 2]
        return {
            "states": [
                {"name": name[cell], "tags": {"row": cell[0], "col": cell[1]}} for cell in cells
            ],
            "actions": ["walk"],
            "observations": [oname[cell] for cell in cells],
            "prior": {name[cell]: 1.0 / len(start) for cell in start},
            "transitions": transitions,
            "observation_model": observation_model,
            "sets": {
                "goal": [name[(r, c)] for r, c in cells if r >= w - 3 and c >= w - 3],
                "danger": [name[(r, c)] for r, c in cells if r == w // 2 and 1 <= c <= w - 3],
                "east": [name[(r, c)] for r, c in cells if c >= w // 2],
            },
            "factors": {"row": "row", "col": "col"},
        }

    def _sample(self, rng) -> tuple[list[int], list[int]]:
        m = self.gen_model
        state = int(rng.choice(m.num_states, p=m.prior / m.prior.sum()))
        actions, observations = [], []
        for _ in range(self.HORIZON):
            state = int(rng.choice(m.num_states, p=m.trans[0][state]))
            observations.append(int(rng.choice(m.obs.shape[2], p=m.obs[0][state])))
            actions.append(0)
        return actions, observations

    def prepare_reference(self) -> None:
        self.ref_model = ref.RefModel(json.loads(self.model_path.read_text(encoding="utf-8")))

    def _pair(self, i: int) -> tuple[int, int]:
        return (i // len(self.dfas)) % self.TRACES, i % len(self.dfas)

    def op(self, i: int):
        k, f = self._pair(i)
        execution = dtlmon.load_trace(self.pomdp, self.trace_paths[k])
        report = dtlmon.acceptance_probability(self.pomdp, self.formulas[f], execution)
        return execution, [report]

    def check(self, i: int, payload) -> None:
        execution, (report,) = payload
        k, f = self._pair(i)
        actions, observations, beliefs = self.records[k]
        if list(execution.actions) != actions or list(execution.observations) != observations:
            raise ref.CheckFailed(f"trace {k} was not read back as written")
        ref.check_beliefs(beliefs, execution.beliefs)
        ref.check_range(report)
        preds = ref.Predicates(self.ref_model, beliefs, report)
        expected, feasible = ref.forward_probability(
            self.ref_model, self.dfas[f], preds, actions, observations
        )
        ref.check_verdict(report, expected, feasible, "forward pass")
        self.count([report], [preds.ties])


class SpecSweep(Workload):
    """A threshold sweep: each operation builds a distinct rescue mission
    formula (p1, p2, h1, h2 drawn from the seed) as ``--config`` would,
    then monitors a fixed batch of rescue traces simulated in set-up.

    The batch is the same for every seed (the study's master seed 2024),
    so runs differ only in the sweep: with a 4-trace batch drawn per seed,
    operation cost varied 2.5x between seeds.  A formula is cold only the
    first time a process compiles it, and the compile cache keeps every
    formula (``peak_rss_mb`` measures it), so each process runs the round
    once, with a fixed number of operations."""

    name = "spec_sweep"
    repeat = False
    BATCH = 4
    BATCH_SEED = 2024
    HORIZON = 16
    OPS_PER_SECOND = 6
    trace_ops = 30

    def ops_per_round(self, seconds: float) -> int:
        return max(1, round(self.OPS_PER_SECOND * seconds))

    def setup(self, seed: int, workdir: Path, tracer=None) -> None:
        self.pomdp, self.formula = dtlmon.build_rescue()
        policies = [
            dtlmon.studies.TimeSharePolicy(3),
            dtlmon.studies.EntropyCutoffPolicy(0.3, 0.3, 2),
        ]
        self.batch = [
            dtlmon.simulate(
                self.pomdp, policies[k % 2], self.HORIZON,
                dtlmon.studies.trial_seed(self.BATCH_SEED, k // 2),
            )[1]
            for k in range(self.BATCH)
        ]
        self._rng = random.Random(seed)
        self._params: list[tuple] = []

    def _draw(self, i: int) -> tuple:
        """The i-th distinct (p1, p2, h1, h2) of the seed's sequence."""
        while len(self._params) <= i:
            p = (
                round(self._rng.uniform(0.80, 0.97), 3),
                round(self._rng.uniform(0.10, 0.45), 3),
                round(self._rng.uniform(0.20, 0.60), 3),
                round(self._rng.uniform(0.20, 0.60), 3),
            )
            if p not in self._params:
                self._params.append(p)
        return self._params[i]

    def prepare_reference(self) -> None:
        model = ref.RefModel(self.pomdp.to_json_dict())
        self.refs = [ref.TraceRef(model, e.actions, e.observations) for e in self.batch]

    def op(self, i: int):
        p1, p2, h1, h2 = self._draw(i)
        pomdp, formula = dtlmon.build_rescue(dtlmon.RescueParams(p1=p1, p2=p2, h1=h1, h2=h2))
        reports = [dtlmon.acceptance_probability(pomdp, formula, e) for e in self.batch]
        return formula, reports

    def check(self, i: int, payload) -> None:
        formula, reports = payload
        ties = [
            trace.verify(formula, report, execution.beliefs)
            for trace, report, execution in zip(self.refs, reports, self.batch)
        ]
        self.count(reports, ties)


WORKLOADS = {w.name: w for w in (RescueStudy, DenseCheck, SpecSweep)}
