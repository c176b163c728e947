"""Exporter contracts: golden files + format validators.

The golden files under ``tests/golden/`` pin the exact bytes the
exporters produce for a tiny deterministic workload (fixed seed, fixed
window, fixed event stream), and the exact stdout of ``repro trace``'s
text timeline around an APF restore. Regenerate them — after
deliberately changing an exporter or the event taxonomy — with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_obs_exporters.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.obs import (
    EventRecorder,
    ExportFormatError,
    chrome_trace,
    o3_pipeview,
    validate_chrome_trace,
    validate_o3_trace,
    write_chrome_trace,
    write_o3_pipeview,
)
from repro.workloads.profiles import build_workload, workload_trace

GOLDEN_DIR = Path(__file__).parent / "golden"
INSTRUCTIONS = 120
SEED = 7


def tiny_events():
    """The canonical tiny deterministic stream (leela, 120 uops, APF on
    so the stream exercises the APF event kinds too)."""
    config = small_core_config().with_apf()
    core = OoOCore(config, build_workload("leela"),
                   workload_trace("leela", INSTRUCTIONS), seed=SEED)
    recorder = EventRecorder()
    core.attach_obs(recorder)
    core.run(INSTRUCTIONS)
    return list(recorder.events)


@pytest.fixture(scope="module")
def events():
    return tiny_events()


def check_golden(name, rendered):
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
    assert path.exists(), (
        f"golden file {path} missing; regenerate with REPRO_REGEN_GOLDEN=1")
    assert rendered == path.read_text(encoding="utf-8"), (
        f"{name} drifted from its golden file; if the change is "
        f"intentional, regenerate with REPRO_REGEN_GOLDEN=1")


class TestGoldenFiles:
    def test_chrome_trace_matches_golden(self, events):
        doc = chrome_trace(events)
        validate_chrome_trace(doc)
        rendered = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        check_golden("tiny_leela.trace.json", rendered)

    def test_o3_pipeview_matches_golden(self, events):
        text = o3_pipeview(events)
        validate_o3_trace(text)
        check_golden("tiny_leela.o3pipeview.txt", text)

    def test_text_timeline_matches_golden(self, capsys, tmp_path,
                                          monkeypatch):
        """``repro trace --format text`` over the window holding the
        restore at cycle 801: timeline, header counts and occupancy
        table, byte for byte."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["trace", "leela", "--instructions", "2000", "--apf",
                     "--start", "795", "--cycles", "30"]) == 0
        check_golden("tiny_leela.timeline.txt", capsys.readouterr().out)

    def test_write_helpers_round_trip(self, events, tmp_path):
        doc = write_chrome_trace(tmp_path / "t.json", events)
        on_disk = json.loads((tmp_path / "t.json").read_text())
        assert on_disk == doc
        text = write_o3_pipeview(tmp_path / "t.txt", events)
        assert (tmp_path / "t.txt").read_text() == text


class TestChromeTraceStructure:
    def test_documented_shape(self, events):
        doc = chrome_trace(events, process_name="unit")
        assert doc["displayTimeUnit"] == "ns"
        trace = doc["traceEvents"]
        assert trace[0]["ph"] == "M"
        assert trace[0]["args"]["name"] == "unit"
        phases = {event["ph"] for event in trace}
        assert {"M", "X", "C"} <= phases
        spans = [e for e in trace if e["ph"] == "X"]
        assert spans
        for span in spans:
            assert span["dur"] >= 1
            assert 0 <= span["tid"] < 16
            assert span["cat"] in ("on_trace", "wrong_path", "restored")
        counters = {e["name"] for e in trace if e["ph"] == "C"}
        assert counters == {"backend_occupancy", "ftq_occupancy"}

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ExportFormatError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ExportFormatError, match="missing required"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ExportFormatError, match="unsupported phase"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "B", "pid": 0, "tid": 0, "name": "x", "ts": 0}]})
        with pytest.raises(ExportFormatError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0,
                 "dur": 0}]})
        with pytest.raises(ExportFormatError, match="ts"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "i", "pid": 0, "tid": 0, "name": "x", "ts": -3,
                 "s": "g"}]})
        with pytest.raises(ExportFormatError, match="scope"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "i", "pid": 0, "tid": 0, "name": "x", "ts": 0,
                 "s": "z"}]})


class TestO3Structure:
    def test_record_shape(self, events):
        text = o3_pipeview(events)
        lines = [line for line in text.splitlines() if line]
        assert len(lines) % 7 == 0
        assert lines[0].startswith("O3PipeView:fetch:")
        assert lines[6].startswith("O3PipeView:retire:")
        # squashed uops retire at tick 0 (gem5 convention)
        assert any(line == "O3PipeView:retire:0:store:0"
                   for line in lines)

    def test_validator_rejects_bad_traces(self):
        with pytest.raises(ExportFormatError, match="whole 7-line"):
            validate_o3_trace("O3PipeView:fetch:0:0x0:0:0:NOP\n")
        good = o3_pipeview(tiny_events())
        lines = good.splitlines()
        lines[1] = "O3PipeView:rename:0"   # decode line replaced
        with pytest.raises(ExportFormatError, match="expected stage"):
            validate_o3_trace("\n".join(lines) + "\n")
        lines = good.splitlines()
        lines[2] = "O3PipeView:rename:banana"
        with pytest.raises(ExportFormatError, match="non-integer"):
            validate_o3_trace("\n".join(lines) + "\n")
        lines = good.splitlines()
        lines[3] = "O3PipeView:dispatch:-4"
        with pytest.raises(ExportFormatError, match="negative"):
            validate_o3_trace("\n".join(lines) + "\n")

    def test_empty_stream_is_valid(self):
        assert o3_pipeview([]) == ""
        validate_o3_trace("")
