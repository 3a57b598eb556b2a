"""Per-layer tracing by wrapping dtlmon's functions from outside.

Each probe names a function by module attribute (or class attribute, for
``Dfa.transition``).  ``Tracer.install`` replaces that function in every
loaded ``dtlmon`` module that binds it, so calls made through
``from .x import y`` bindings are seen too, and ``uninstall`` puts the
originals back.  A probe whose target no longer exists is reported as
missing rather than failing the run.

Every wrapped call records a span (name, start, end, parent span, operation)
and adds its duration to the name's inclusive time and, minus the time of
the wrapped calls inside it, to its self time.  Spans are kept in memory
for the first ``SPAN_OPS`` operations and written out at the end; totals
cover every operation.  Recursive calls of the same function are folded
into the outermost call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

from dtlmon.model import Policy

# name -> (module, attribute path)
PROBES = {
    "monitor.acceptance_probability": ("dtlmon.monitor", "acceptance_probability"),
    "monitor.region_signature": ("dtlmon.monitor", "region_signature"),
    "monitor.feasibility": ("dtlmon.monitor", "_feasibility"),
    "monitor.backward_likelihoods": ("dtlmon.monitor", "backward_likelihoods"),
    "monitor.load_trace": ("dtlmon.monitor", "load_trace"),
    "monitor.compile_monitor": ("dtlmon.monitor", "compile_monitor"),
    "logic.eval_belief_expr": ("dtlmon.logic", "eval_belief_expr"),
    "logic.parse_formula": ("dtlmon.logic", "parse_formula"),
    "automaton.Dfa.transition": ("dtlmon.automaton", "Dfa.transition"),
    "model.bayes_update": ("dtlmon.model", "bayes_update"),
    "model.simulate": ("dtlmon.model", "simulate"),
}

# The delegating policy wrapper records this span name.
POLICY_ACT = "studies.Policy.act"

# metric -> (probe, statistic, unit); statistics are per operation.
LAYER_METRICS = {
    "monitor.signature_ms": ("monitor.region_signature", "total_ms", "ms"),
    "monitor.signatures": ("monitor.region_signature", "calls", "count"),
    "logic.belief_evals": ("logic.eval_belief_expr", "calls", "count"),
    "monitor.dp_ms": ("monitor.acceptance_probability", "self_ms", "ms"),
    "monitor.dp_pairs": (None, "dp_pairs", "count"),
    "automaton.transition_ms": ("automaton.Dfa.transition", "total_ms", "ms"),
    "automaton.transitions": ("automaton.Dfa.transition", "calls", "count"),
    "automaton.dfa_states": ("automaton.Dfa.transition", "dfa_states", "count"),
    "monitor.backward_ms": ("monitor.backward_likelihoods", "total_ms", "ms"),
    "monitor.feasibility_ms": ("monitor.feasibility", "total_ms", "ms"),
    "monitor.load_trace_ms": ("monitor.load_trace", "total_ms", "ms"),
    "model.bayes_update_ms": ("model.bayes_update", "total_ms", "ms"),
    "model.bayes_updates": ("model.bayes_update", "calls", "count"),
    "studies.policy_act_ms": (POLICY_ACT, "total_ms", "ms"),
    "model.simulate_ms": ("model.simulate", "self_ms", "ms"),
    "logic.parse_ms": ("logic.parse_formula", "total_ms", "ms"),
    "monitor.compile_ms": ("monitor.compile_monitor", "total_ms", "ms"),
}


def _resolve(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    owner = None
    for part in path.split("."):
        owner = obj
        obj = getattr(obj, part)
    return owner, path.split(".")[-1], obj


SPAN_OPS = 20  # operations whose spans are kept for the dump


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.missing: dict[str, str] = {}
        self.dfa_states = 0
        self.op = -1
        self._next_id = 0
        self._op_start = 0.0
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._patches: list[tuple] = []
        self._seen_states = weakref.WeakKeyDictionary()

    # -- spans --------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack = [["op", self._new_span_id(), 0.0]]
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        name, sid, _ = self._stack.pop()
        if self.op < SPAN_OPS:
            self.spans.append((sid, name, self._op_start, end, None, self.op))

    def _new_span_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        parent = stack[-1][1] if stack else None
        frame = [name, self._new_span_id(), 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if self.op < SPAN_OPS:
                self.spans.append((frame[1], name, start, end, parent, self.op))

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, path) in PROBES.items():
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module_name}.{path}: {exc}"
                continue
            wrapper = self._wrapper(name, original, count_states=attr == "transition")
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "dtlmon" or mod_name.startswith("dtlmon.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrapper(self, name, original, count_states: bool):
        tracer = self
        if count_states:
            seen = self._seen_states

            def wrapped(dfa, *args, **kwargs):
                before = seen.get(dfa)
                if before is None:
                    before = seen[dfa] = dfa.num_states
                out = tracer.call(name, original, (dfa,) + args, kwargs)
                if dfa.num_states != before:
                    tracer.dfa_states += dfa.num_states - before
                    seen[dfa] = dfa.num_states
                return out

        else:

            def wrapped(*args, **kwargs):
                return tracer.call(name, original, args, kwargs)

        wrapped.__wrapped__ = original
        wrapped.__name__ = getattr(original, "__name__", name)
        return wrapped

    def wrap_policy(self, policy: Policy) -> Policy:
        return _TracedPolicy(self, policy)

    # -- results --------------------------------------------------------------------

    def layer_metrics(self, ops: int, dp_pairs: int) -> dict:
        """Per-operation layer metrics; missing probes are left out."""
        out = {}
        for metric, (probe, stat, unit) in LAYER_METRICS.items():
            if probe in self.missing:
                continue
            if stat == "dp_pairs":
                value = dp_pairs
            elif stat == "calls":
                value = self.calls[probe]
            elif stat == "dfa_states":
                value = self.dfa_states
            elif stat == "total_ms":
                value = self.total[probe] * 1e3
            else:
                value = self.self_time[probe] * 1e3
            out[metric] = {"value": value / ops, "unit": unit}
        return out

    def missing_metrics(self) -> dict:
        return {
            metric: self.missing[probe]
            for metric, (probe, _, _) in LAYER_METRICS.items()
            if probe in self.missing
        }

    def dump_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


class _TracedPolicy(Policy):
    """Delegating policy whose ``act`` calls are recorded as spans."""

    def __init__(self, tracer: Tracer, inner: Policy):
        self._tracer = tracer
        self._inner = inner

    def reset(self, pomdp, horizon, seed=None):
        self._inner.reset(pomdp, horizon, seed)

    def act(self, belief, step):
        return self._tracer.call(POLICY_ACT, self._inner.act, (belief, step), {})
