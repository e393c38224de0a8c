"""Trace serialization tests."""

import io
import json

import pytest

from repro.errors import TraceError
from repro.trace.io import (
    export_csv,
    load_trace,
    load_trace_file,
    load_traces,
    save_trace,
    save_traces,
    trace_from_dict,
    trace_to_dict,
)
from repro.trace.model import Trace


def test_dict_roundtrip(reno_trace):
    rebuilt = trace_from_dict(trace_to_dict(reno_trace))
    assert rebuilt.cca_name == reno_trace.cca_name
    assert rebuilt.mss == reno_trace.mss
    assert len(rebuilt.acks) == len(reno_trace.acks)
    assert rebuilt.acks[5] == reno_trace.acks[5]
    assert rebuilt.losses == reno_trace.losses
    assert rebuilt.meta == reno_trace.meta


def test_file_roundtrip(reno_trace, tmp_path):
    path = tmp_path / "trace.json"
    save_trace(reno_trace, path)
    loaded = load_trace(path)
    assert loaded.acks[-1] == reno_trace.acks[-1]


def test_bundle_roundtrip(reno_trace, vegas_trace, tmp_path):
    path = tmp_path / "bundle.json"
    save_traces([reno_trace, vegas_trace], path)
    loaded = load_traces(path)
    assert [t.cca_name for t in loaded] == ["reno", "vegas"]


def test_version_check():
    with pytest.raises(TraceError):
        trace_from_dict({"version": 99})


def test_csv_export(reno_trace, tmp_path):
    sink = io.StringIO()
    export_csv(reno_trace, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0].startswith("time,ack_seq")
    assert len(lines) == len(reno_trace.acks) + 1
    # File-path variant too.
    path = tmp_path / "trace.csv"
    export_csv(reno_trace, path)
    assert path.read_text().splitlines()[0] == lines[0]


def test_dupack_flag_survives(reno_trace):
    rebuilt = trace_from_dict(trace_to_dict(reno_trace))
    originals = [ack.dupack for ack in reno_trace.acks]
    assert [ack.dupack for ack in rebuilt.acks] == originals


# ---------------------------------------------------------------------------
# Hostile-document handling: actionable errors, never a bare crash


def test_unknown_version_error_names_path(reno_trace, tmp_path):
    path = tmp_path / "drift.json"
    data = trace_to_dict(reno_trace)
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(TraceError) as err:
        load_trace(path)
    message = str(err.value)
    assert str(path) in message
    assert "99" in message  # the offending version
    assert "version" in message  # what this reader speaks


def test_malformed_arity_error_names_record(reno_trace, tmp_path):
    path = tmp_path / "cut.json"
    data = trace_to_dict(reno_trace)
    data["acks"][17] = data["acks"][17][:3]
    path.write_text(json.dumps(data))
    with pytest.raises(TraceError) as err:
        load_trace(path)
    message = str(err.value)
    assert str(path) in message
    assert "acks[17]" in message


def test_type_confusion_error_names_cell(reno_trace, tmp_path):
    path = tmp_path / "typed.json"
    data = trace_to_dict(reno_trace)
    data["acks"][4][0] = str(data["acks"][4][0])
    path.write_text(json.dumps(data))
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert "acks[4]" in str(err.value)


def test_truncated_document_error_is_structured(reno_trace, tmp_path):
    path = tmp_path / "cut.json"
    text = json.dumps(trace_to_dict(reno_trace))
    path.write_text(text[: len(text) // 2])
    with pytest.raises(TraceError, match="truncated or corrupt"):
        load_trace(path)


def test_non_object_document_rejected():
    with pytest.raises(TraceError, match="JSON object"):
        trace_from_dict([1, 2, 3])


def test_missing_keys_listed():
    with pytest.raises(TraceError, match="cca_name"):
        trace_from_dict({"version": 1})


def test_bad_mss_rejected(reno_trace):
    data = trace_to_dict(reno_trace)
    data["mss"] = -1460
    with pytest.raises(TraceError, match="mss"):
        trace_from_dict(data)
    data["mss"] = True  # bool is not an acceptable integer
    with pytest.raises(TraceError, match="mss"):
        trace_from_dict(data)


def test_list_meta_rejected(reno_trace):
    data = trace_to_dict(reno_trace)
    data["meta"] = [1, 2]
    with pytest.raises(TraceError, match="'meta' must be an object"):
        trace_from_dict(data, source="odd.json")


def test_pair_list_meta_not_read_as_object(reno_trace):
    """A list of pairs would pass ``dict()``; the loader refuses it."""
    data = trace_to_dict(reno_trace)
    data["meta"] = [["k", 1]]
    with pytest.raises(TraceError, match="got list"):
        trace_from_dict(data)


def test_bundle_error_names_item_index(reno_trace, tmp_path):
    path = tmp_path / "bundle.json"
    save_traces([reno_trace, reno_trace], path)
    data = json.loads(path.read_text())
    data["traces"][1]["acks"][0] = [0.0]
    path.write_text(json.dumps(data))
    with pytest.raises(TraceError, match=r"\[1\]"):
        load_traces(path)


def test_load_trace_file_sniffs_both_shapes(reno_trace, vegas_trace, tmp_path):
    single = tmp_path / "one.json"
    bundle = tmp_path / "many.json"
    save_trace(reno_trace, single)
    save_traces([reno_trace, vegas_trace], bundle)
    assert [t.cca_name for t in load_trace_file(single)] == ["reno"]
    assert [t.cca_name for t in load_trace_file(bundle)] == ["reno", "vegas"]


def test_export_csv_empty_trace_writes_header_only():
    empty = Trace(cca_name="x", environment_label="lab", mss=1460)
    sink = io.StringIO()
    export_csv(empty, sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("time,ack_seq")
