"""Malformed model, trace, config and formula files fail with a package
error only.

The fuzz properties mutate valid documents (type swaps, lists for dicts and
dicts for lists, strings for numbers; inserted and deleted tokens in formula
text; formula text nested hundreds of levels deep), write them to a file and
load it; anything but a ``DtlmonError`` escaping the loader fails the test.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlmon.cli import (
    CASESTUDY_KEYS,
    EXIT_ERROR,
    RESCUE_POLICY_KEYS,
    _load_config,
    _numbers,
    _rescue_params,
    main,
)
from dtlmon.errors import DtlmonError, ModelError
from dtlmon.logic import load_formula
from dtlmon.model import Pomdp, execution_from_actions, load_model
from dtlmon.monitor import (
    acceptance_probability,
    execution_from_json_dict,
    execution_to_json_dict,
    load_trace,
)
from dtlmon.studies import rescue_policies

from helpers import tiny_two_state

MODEL = tiny_two_state()
MODEL_DOC = MODEL.to_json_dict()
EXECUTION = execution_from_actions(MODEL, ["poke"] * 3, ["lo", "hi", "lo"])
TRACE_DOC = execution_to_json_dict(MODEL, EXECUTION)
CONFIG_DOC = {
    "p_fail": 0.2,
    "det_surv": 0.9,
    "h1": 0.375,
    "share_a": 2,
    "rho": 1,
    "prior_mode": "uniform",
    "entropy_factor": "env",
}


def _locations(doc, prefix=()):
    """Key paths of every value in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _locations(value, prefix + (key,))


def _swaps(value) -> list:
    """Values of the wrong shape or type to put in place of ``value``."""
    out = [None, True, 0, -1, 2.5, 1e300, "", "x", [], {}, [value], {"k": value}]
    if isinstance(value, dict):
        out += [list(value), list(value.values())]
    if isinstance(value, list):
        out.append({str(i): v for i, v in enumerate(value)})
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(str(value))
    return out


def _mutated(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_locations(doc))))
        parent, value = None, doc
        for key in path:
            parent, value = value, value[key]
        replacement = data.draw(st.sampled_from(_swaps(value)))
        if path:
            parent[path[-1]] = replacement
        else:
            doc = replacement
    return doc


def _load(loader, text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc"
        path.write_text(text, encoding="utf-8")
        try:
            loader(str(path))
        except DtlmonError:
            pass


def _load_rescue_config(path) -> None:
    config = _load_config(path, "rescue", CASESTUDY_KEYS["rescue"])
    rescue_policies(_rescue_params(config), **_numbers(config, RESCUE_POLICY_KEYS))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_model_raises_only_package_errors(data):
    _load(load_model, json.dumps(_mutated(data, MODEL_DOC)))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_trace_raises_only_package_errors(data):
    _load(lambda path: load_trace(MODEL, path), json.dumps(_mutated(data, TRACE_DOC)))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_mutated_config_raises_only_package_errors(data):
    _load(_load_rescue_config, json.dumps(_mutated(data, CONFIG_DOC)))


FORMULA_TEXT = "([P(lit) < 0.5] => X in(lit)) & F (in(all) U [H(bit) - 0.2 * P(all) < 0.1])"
FORMULA_TOKENS = list("()[]<|&!+-*# \n") + ["=>", "X", "F", "U", "in(", "P(", "H(", "lit", "1e999"]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_formula_raises_only_package_errors(data):
    text = list(FORMULA_TEXT)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text) - 1))
        if data.draw(st.booleans()):
            del text[i]
        else:
            text.insert(i, data.draw(st.sampled_from(FORMULA_TOKENS)))
    _load(lambda path: load_formula(path, MODEL), "".join(text))


NESTINGS = [
    ("(", ")"),
    ("X ", ""),
    ("F ", ""),
    ("in(lit) U ", ""),
    ("in(lit) & ", ""),
    ("(in(lit) | ", ")"),
    ("(in(lit) => ", ")"),
    ("(", " + 0.1)"),
]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_deeply_nested_formula_raises_only_package_errors(data):
    """Nesting runs around a formula, a state atom or a belief mass, up to far
    past the parser's bound; an accepted formula must also monitor without
    error."""
    core = text = data.draw(st.sampled_from([FORMULA_TEXT, "in(lit)", "P(lit)"]))
    for _ in range(data.draw(st.integers(1, 3))):
        opener, closer = data.draw(st.sampled_from(NESTINGS))
        depth = data.draw(st.one_of(st.integers(0, 120), st.integers(0, 3000)))
        text = opener * depth + text + closer * depth
    if core == "P(lit)":
        text = f"[{text} < 0.5]"

    def load_and_monitor(path):
        acceptance_probability(MODEL, load_formula(path, MODEL), EXECUTION)

    _load(load_and_monitor, text)


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _with_repeated_key(doc, path, key, first, last) -> bytes:
    """The document as JSON text whose object at ``path`` gives ``key`` the
    value ``first`` and then, at its end, again the value ``last``."""
    doc = _with(_with(doc, path + [key], first), path + ["__repeat__"], last)
    return json.dumps(doc).replace('"__repeat__"', json.dumps(key)).encode()


BAD_INPUTS = {
    "model prior list": ("model", _with(MODEL_DOC, ["prior"], [0.5, 0.5])),
    "model sets list": ("model", _with(MODEL_DOC, ["sets"], [["off"]])),
    "model factors list": ("model", _with(MODEL_DOC, ["factors"], ["bit"])),
    "repeated transition entry": (
        "model",
        _with(MODEL_DOC, ["transitions"], MODEL_DOC["transitions"] + MODEL_DOC["transitions"][:1]),
    ),
    "float state label": ("model", _with(MODEL_DOC, ["transitions", 0, 0], 0.9)),
    "bool state label": ("model", _with(MODEL_DOC, ["transitions", 3, 0], True)),
    "repeated prior key": ("model", _with_repeated_key(MODEL_DOC, ["prior"], "off", 0.9, 0.5)),
    "repeated belief key": (
        "trace",
        _with_repeated_key(TRACE_DOC, ["beliefs", 1], "off", *[TRACE_DOC["beliefs"][1]["off"]] * 2),
    ),
    "string transition probability": (
        "model", _with(MODEL_DOC, ["transitions", 0, 3], str(MODEL_DOC["transitions"][0][3])),
    ),
    "string prior probability": ("model", _with(MODEL_DOC, ["prior", "off"], "0.5")),
    "string belief entry": (
        "trace", _with(TRACE_DOC, ["beliefs", 1, "off"], str(TRACE_DOC["beliefs"][1]["off"])),
    ),
    "huge integer probability": ("model", _with(MODEL_DOC, ["transitions", 0, 3], 10**400)),
    "huge integer belief entry": ("trace", _with(TRACE_DOC, ["beliefs", 1, "off"], 10**400)),
    "belief entry list": ("trace", _with(TRACE_DOC, ["beliefs", 1], [0.5, 0.5])),
    "non-numeric belief": ("trace", _with(TRACE_DOC, ["beliefs", 1, "off"], "half")),
    "integer beliefs": ("trace", _with(TRACE_DOC, ["beliefs"], 3)),
    "list action": ("trace", _with(TRACE_DOC, ["actions", 0], ["poke"])),
    "non-UTF-8 formula": ("formula", b"F in(lit) \xff\n"),
    "deeply nested formula": ("formula", b"(" * 300 + b"in(lit)" + b")" * 300),
    "list config": ("config", [1, 2]),
    "string p_fail": ("config", {"p_fail": "0.4"}),
    "misspelt config key": ("config", {"p_fial": 0.9}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_exits_with_error(case, tmp_path, capsys):
    files = {
        "model": json.dumps(MODEL_DOC),
        "trace": json.dumps(TRACE_DOC),
        "formula": "F in(lit)\n",
    }
    kind, bad = BAD_INPUTS[case]
    files[kind] = bad if isinstance(bad, bytes) else json.dumps(bad)
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    if kind == "config":
        argv = ["casestudy", "rescue", "--out", str(tmp_path / "out"), "--trials", "2",
                "--config", str(tmp_path / "config")]
    else:
        argv = ["check", "--model", str(tmp_path / "model"), "--formula",
                str(tmp_path / "formula"), "--trace", str(tmp_path / "trace")]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


# One state, one action, one observation: every probability is 1, which a
# boolean ``true`` or a string would otherwise stand for unnoticed.
ONE_STATE_DOC = {
    "states": [{"name": "s", "tags": {}}],
    "actions": ["a"],
    "observations": ["o"],
    "prior": {"s": 1.0},
    "transitions": [["s", "a", "s", 1.0]],
    "observation_model": [["s", "a", "o", 1]],
}
ONE_STATE_TRACE = {"actions": ["a"], "observations": ["o"], "beliefs": [{"s": 1.0}, {"s": 1}]}


@pytest.mark.parametrize("value", [True, "1.0", "1", None])
@pytest.mark.parametrize(
    "path", [["prior", "s"], ["transitions", 0, 3], ["observation_model", 0, 3]]
)
def test_model_probability_must_be_a_number(path, value):
    Pomdp.from_json_dict(ONE_STATE_DOC)
    with pytest.raises(ModelError, match="is not a number"):
        Pomdp.from_json_dict(_with(ONE_STATE_DOC, path, value))


@pytest.mark.parametrize("value", [True, "1.0", "1", None])
@pytest.mark.parametrize("step", [0, 1])
def test_recorded_belief_entry_must_be_a_number(step, value):
    pomdp = Pomdp.from_json_dict(ONE_STATE_DOC)
    execution_from_json_dict(pomdp, ONE_STATE_TRACE)
    with pytest.raises(ModelError, match=f"recorded belief entry 's': {value!r} is not a number"):
        execution_from_json_dict(pomdp, _with(ONE_STATE_TRACE, ["beliefs", step, "s"], value))
