"""Bounded fuzz of the checkpoint file boundary: `hkconv eval` run
in-process on mutations of a valid hkn-checkpoint-v2 file must exit 0, 1
or 2, and a nonzero exit prints one line on stderr and never raises.
Examples are derandomized, so every run tries the same inputs."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hkconv import graphnet
from hkconv.cli import main

_FUZZ = settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# a node task on six nodes and a two-layer model of width 2 with K = 2,
# so one eval takes a few milliseconds; --data always names the dataset,
# so no mutation of info.data can make eval build a large synthetic suite
_DATASET = graphnet.GraphBatch(
    features=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8], [0.2, 0.1], [0.4, 0.3]]),
    edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]),
    labels=np.array([0, 1, 0, 1, 0, 1]),
    masks={
        "train": np.array([1, 1, 0, 0, 0, 0], dtype=bool),
        "val": np.array([0, 0, 1, 1, 0, 0], dtype=bool),
        "test": np.array([0, 0, 0, 0, 1, 1], dtype=bool),
    },
)


def _valid_record() -> dict:
    cfg = graphnet.HKNConfig(K=2, hidden_dim=2, kernel_source="random", task="node")
    model = graphnet.build_hkn(cfg, feature_dim=2, num_classes=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        graphnet.save_checkpoint(
            model, path, info={"test_accuracy": 0.5, "data": {"source": "given", "seed": 0}}
        )
        return json.loads(path.read_text())


_RECORD = _valid_record()

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


def _eval(raw: bytes):
    """Exit code and stderr lines of hkconv eval on a checkpoint file."""
    with tempfile.TemporaryDirectory() as tmp:
        path, data = Path(tmp) / "checkpoint.json", Path(tmp) / "data.json"
        path.write_bytes(raw)
        graphnet.save_dataset(_DATASET, data)
        err = io.StringIO()
        argv = ["eval", "--checkpoint", str(path), "--data", str(data), "--out", str(Path(tmp))]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue().strip().splitlines()


def _assert_clean_exit(code, lines):
    assert code in (0, 1, 2)
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith(("failure:", "error:")), lines


def _paths(value, prefix=()):
    """Every path into a JSON value's nested objects and arrays."""
    yield prefix
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _paths(inner, (*prefix, key))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _paths(inner, (*prefix, i))


_PATHS = list(_paths(_RECORD))[1:]


def _replaced(record, path, value):
    """A copy of record with the entry at path set to value."""
    record = json.loads(json.dumps(record))
    owner = record
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    return record


def test_the_valid_checkpoint_evaluates():
    assert _eval(json.dumps(_RECORD).encode()) == (0, [])


@_FUZZ
@given(st.sampled_from(_PATHS), _JSON)
def test_an_entry_replaced_by_any_json_value(path, value):
    _assert_clean_exit(*_eval(json.dumps(_replaced(_RECORD, path, value)).encode()))


@_FUZZ
@given(st.sampled_from([p for p in _PATHS if isinstance(p[-1], str)]), st.data())
def test_an_object_key_dropped_or_renamed(path, data):
    record = json.loads(json.dumps(_RECORD))
    owner = record
    for step in path[:-1]:
        owner = owner[step]
    value = owner.pop(path[-1])
    if data.draw(st.booleans()):
        owner[data.draw(st.text(max_size=6))] = value
    _assert_clean_exit(*_eval(json.dumps(record).encode()))


@_FUZZ
@given(
    st.sampled_from([p for p in _PATHS if p[0] == "params"]),
    st.sampled_from((np.nan, np.inf, -np.inf, 0.0, 1e300, -1e300, 1e-300)),
)
def test_a_parameter_entry_out_of_the_finite_range(path, value):
    _assert_clean_exit(*_eval(json.dumps(_replaced(_RECORD, path, value)).encode()))


@_FUZZ
@given(st.integers(0, len(json.dumps(_RECORD))), st.binary(max_size=8))
def test_the_file_cut_or_spliced(at, splice):
    raw = json.dumps(_RECORD).encode()
    _assert_clean_exit(*_eval(raw[:at] + splice))
