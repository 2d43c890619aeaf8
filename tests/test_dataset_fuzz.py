"""Bounded fuzz of the dataset file boundary: `hkconv train --data` run
in-process on malformed dataset files must exit 1 or 2 with one line on
stderr and never raise. Examples are derandomized, so every run tries the
same inputs."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hkconv.cli import main

_FUZZ = settings(
    max_examples=120,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_GRAPH_RECORD = {
    "num_nodes": 4,
    "features": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]],
    "edges": [[0, 1], [2, 3]],
    "labels": [0, 1],
    "graph_ids": [0, 0, 1, 1],
}
_NODE_RECORD = {
    "num_nodes": 4,
    "features": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]],
    "edges": [[0, 1], [1, 2], [2, 3]],
    "labels": [0, 1, 0, 1],
    "masks": {"train": [1, 1, 0, 0], "val": [0, 0, 1, 0], "test": [0, 0, 0, 1]},
}

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
# no field of a dataset may hold a string, a null or an object where it
# wants a number
_POISON = st.one_of(
    st.none(), st.text(max_size=4), st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)
)
_NOT_AN_INDEX = st.one_of(
    st.floats().filter(lambda v: not v.is_integer()),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
)
_NOT_A_MASK_ENTRY = st.one_of(
    st.integers().filter(lambda v: v not in (0, 1)),
    st.floats().filter(lambda v: v not in (0.0, 1.0)),
    st.text(max_size=4),
    st.none(),
)


def _train(raw: bytes, task: str = "graph"):
    """Exit code and stderr lines of hkconv train on a dataset file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.json"
        path.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(
                ["train", "--task", task, "--data", str(path), "--out", str(Path(tmp) / "o")]
            )
    return code, err.getvalue().strip().splitlines()


def _assert_one_line_failure(code, lines, field=None):
    assert code in (1, 2)
    assert len(lines) == 1, lines
    assert lines[0].startswith(("failure:", "error:")), lines
    if field is not None:
        assert repr(field) in lines[0], lines


def _plant(draw, value, poison):
    """value with poison put at a drawn place of its nested lists (in
    place of value when it is no list)."""
    if not isinstance(value, list):
        return poison
    i = draw(st.integers(0, len(value)))
    if i < len(value) and isinstance(value[i], list) and draw(st.booleans()):
        return [*value[:i], _plant(draw, value[i], poison), *value[i + 1 :]]
    return [*value[:i], poison, *value[i:]]


@_FUZZ
@given(st.data())
def test_index_fields_out_of_int64_or_fractional(data):
    record = dict(_GRAPH_RECORD)
    field = data.draw(st.sampled_from(("edges", "labels", "graph_ids")))
    flat = list(json.loads(json.dumps(record[field])))
    bad = data.draw(_NOT_AN_INDEX)
    if field == "edges":
        row = data.draw(st.integers(0, len(flat) - 1))
        flat[row] = [bad, flat[row][1]] if data.draw(st.booleans()) else [flat[row][0], bad]
    else:
        flat[data.draw(st.integers(0, len(flat) - 1))] = bad
    record[field] = flat
    _assert_one_line_failure(*_train(json.dumps(record).encode()), field)


@_FUZZ
@given(st.sampled_from((_GRAPH_RECORD, _NODE_RECORD)), st.data())
def test_labels_at_or_above_the_labelled_units(base, data):
    # the model holds one class row per index up to the largest label
    record = json.loads(json.dumps(base))
    units = len(record["labels"])
    at = data.draw(st.integers(0, units - 1))
    record["labels"][at] = data.draw(st.integers(units, 2**63 - 1))
    task = "graph" if "graph_ids" in record else "node"
    code, lines = _train(json.dumps(record).encode(), task)
    _assert_one_line_failure(code, lines, "labels")
    assert f"below the {units} labelled" in lines[0], lines


@_FUZZ
@given(st.sampled_from(("train", "val", "test")), st.integers(0, 3), _NOT_A_MASK_ENTRY)
def test_mask_entries_other_than_booleans_or_0_1(split, node, bad):
    record = json.loads(json.dumps(_NODE_RECORD))
    record["masks"][split][node] = bad
    _assert_one_line_failure(*_train(json.dumps(record).encode(), "node"), split)


@_FUZZ
@given(st.data())
def test_fields_holding_strings_nulls_or_objects(data):
    base = data.draw(st.sampled_from((_GRAPH_RECORD, _NODE_RECORD)))
    record = json.loads(json.dumps(base))
    fields = [*record, "masks"] if "graph_ids" in record else [*record, "graph_ids"]
    field = data.draw(st.sampled_from(fields))
    if field not in record:
        # the other task's field beside this one's; a null masks field
        # would read as no masks at all
        record[field] = data.draw(_JSON.filter(lambda v: v is not None))
    elif field == "masks":
        split = data.draw(st.sampled_from(sorted(record["masks"])))
        record["masks"][split] = _plant(data.draw, record["masks"][split], data.draw(_POISON))
    else:
        record[field] = _plant(data.draw, record[field], data.draw(_POISON))
    task = "graph" if "graph_ids" in base else "node"
    _assert_one_line_failure(*_train(json.dumps(record).encode(), task))


@_FUZZ
@given(_JSON)
def test_documents_that_are_no_dataset(document):
    required = {"num_nodes", "features", "edges", "labels"}
    assume(not (isinstance(document, dict) and required <= set(document)))
    _assert_one_line_failure(*_train(json.dumps(document).encode()))


@_FUZZ
@given(st.binary(max_size=48))
def test_files_that_are_no_json_dataset(raw):
    _assert_one_line_failure(*_train(raw))
