"""Render a recorded event stream as trace formats and text timelines.

Three views, all reconstructed from the same
:func:`repro.obs.events.replay_timelines` lifecycles so they can never
disagree with each other:

* :func:`chrome_trace` — Chrome trace-event JSON (the ``traceEvents``
  array format), loadable in Perfetto / ``chrome://tracing``. Each uop
  becomes one ``"X"`` complete event on a small pool of lanes; recovery
  and restore points become ``"i"`` instants; subsystem occupancies
  become ``"C"`` counter tracks. Timestamps are simulated cycles.
* :func:`o3_pipeview` — the gem5 ``O3PipeView:`` text format consumed by
  Konata and gem5's own pipeline viewer. One 7-stage record per uop;
  squashed uops carry a retire tick of 0, exactly as gem5 emits them.
* :func:`render_timeline` — a gem5-pipeview-style text timeline of one
  cycle window (``repro trace --format text``): the view for checking
  whether an APF restore filled the re-fill bubble.

All three are deterministic functions of the event stream (records
ordered by seq, JSON keys sorted by the write helper), which is what lets
``tests/test_obs_exporters.py`` golden-file them. The paired validators
raise :class:`ExportFormatError` with a record index on malformed input;
CI's trace-smoke job runs them on freshly emitted traces.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.events import (
    EV_APF_JOB_COMPLETE,
    EV_APF_JOB_START,
    EV_ALLOC,
    EV_FETCH_BUNDLE,
    EV_RESOLVE,
    EV_RESTORE,
    UopLife,
    replay_timelines,
)

__all__ = ["ExportFormatError", "chrome_trace", "o3_pipeview",
           "render_timeline", "validate_chrome_trace", "validate_o3_trace",
           "write_chrome_trace", "write_o3_pipeview"]

#: "X" events on a fixed lane pool keep concurrent uops visually separate
#: without creating one track per uop (Perfetto struggles past ~100 tracks)
_LANES = 16

_O3_STAGES = ("fetch", "decode", "rename", "dispatch", "issue",
              "complete", "retire")


class ExportFormatError(ValueError):
    """An exported trace does not conform to its format contract."""


def _uop_category(life: UopLife) -> str:
    if life.restored:
        return "restored"
    if life.wrong_path:
        return "wrong_path"
    return "on_trace"


def chrome_trace(events: Iterable[tuple],
                 process_name: str = "repro") -> dict:
    """Build a Chrome trace-event document (``{"traceEvents": [...]}``).

    ``ts``/``dur`` are in simulated cycles (the viewer's microsecond unit
    is reinterpreted — relative spacing is what matters).
    """
    events = list(events)
    lives = replay_timelines(events)
    trace: List[dict] = [{
        "ph": "M", "pid": 0, "tid": 0, "ts": 0,
        "name": "process_name", "args": {"name": process_name},
    }]
    for life in sorted(lives.values(), key=lambda l: l.seq):
        duration = max(1, life.final_cycle - life.fetch_cycle)
        trace.append({
            "ph": "X", "pid": 0, "tid": life.seq % _LANES,
            "ts": life.fetch_cycle, "dur": duration,
            "name": f"{life.op} {life.pc:#x}",
            "cat": _uop_category(life),
            "args": {
                "seq": life.seq,
                "allocate": life.allocate_cycle,
                "done": life.done_cycle,
                "retire": life.retire_cycle,
                "squash": life.squash_cycle,
                "branch": life.is_branch,
                "mispredict": life.mispredict,
            },
        })
    for event in events:
        kind = event[0]
        if kind == EV_RESOLVE and event[3]:
            trace.append({
                "ph": "i", "pid": 0, "tid": 0, "ts": event[1], "s": "g",
                "name": "recovery", "cat": "recovery",
                "args": {"seq": event[2]},
            })
        elif kind == EV_RESTORE:
            trace.append({
                "ph": "i", "pid": 0, "tid": 0, "ts": event[1], "s": "g",
                "name": "apf_restore", "cat": "recovery",
                "args": {"seq": event[2], "uops": event[3]},
            })
        elif kind == EV_APF_JOB_START:
            trace.append({
                "ph": "i", "pid": 0, "tid": 0, "ts": event[1], "s": "t",
                "name": "apf_job_start", "cat": "apf",
                "args": {"seq": event[2], "pc": event[3]},
            })
        elif kind == EV_APF_JOB_COMPLETE:
            trace.append({
                "ph": "i", "pid": 0, "tid": 0, "ts": event[1], "s": "t",
                "name": "apf_job_complete", "cat": "apf",
                "args": {"seq": event[2], "uops": event[3]},
            })
        elif kind == EV_ALLOC:
            trace.append({
                "ph": "C", "pid": 0, "tid": 0, "ts": event[1],
                "name": "backend_occupancy",
                "args": {"rob": event[4], "scheduler": event[5]},
            })
        elif kind == EV_FETCH_BUNDLE:
            trace.append({
                "ph": "C", "pid": 0, "tid": 0, "ts": event[1],
                "name": "ftq_occupancy", "args": {"ftq": event[4]},
            })
    return {"traceEvents": trace, "displayTimeUnit": "ns"}


def validate_chrome_trace(doc: dict) -> None:
    """Check the trace-event format contract; raises ExportFormatError."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ExportFormatError(
            "chrome trace must be an object with a 'traceEvents' array")
    trace = doc["traceEvents"]
    if not isinstance(trace, list):
        raise ExportFormatError("'traceEvents' must be an array")
    for index, event in enumerate(trace):
        if not isinstance(event, dict):
            raise ExportFormatError(f"event {index} is not an object")
        for field in ("ph", "pid", "tid", "name"):
            if field not in event:
                raise ExportFormatError(
                    f"event {index} is missing required field {field!r}")
        ph = event["ph"]
        if ph not in ("X", "i", "C", "M"):
            raise ExportFormatError(
                f"event {index} has unsupported phase {ph!r}")
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            raise ExportFormatError(
                f"event {index} needs an integer ts >= 0, got {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 1:
                raise ExportFormatError(
                    f"event {index} ('X') needs an integer dur >= 1, "
                    f"got {dur!r}")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            raise ExportFormatError(
                f"event {index} ('i') needs scope 's' in g/p/t")


def o3_pipeview(events: Iterable[tuple]) -> str:
    """Render the stream in gem5's ``O3PipeView:`` text format.

    Stage mapping from this model's four lifecycle points: decode shares
    the fetch cycle (the latency pipe has no per-stage visibility),
    rename/dispatch/issue share the allocate cycle (allocation performs
    all three here), complete is the computed done cycle. A uop that
    never reached a stage reports tick 0 there, and a squashed uop
    reports retire tick 0 — the conventions Konata expects.
    """
    lives = replay_timelines(events)
    lines: List[str] = []
    for life in sorted(lives.values(), key=lambda l: l.seq):
        alloc = life.allocate_cycle or 0
        done = life.done_cycle if life.done_cycle is not None else 0
        retire = life.retire_cycle if life.retire_cycle is not None else 0
        if life.squash_cycle is not None:
            retire = 0
        marks = "".join((
            "W" if life.wrong_path else "",
            "+" if life.restored else "",
            "!" if life.mispredict else "",
        ))
        disasm = f"{life.op} [{marks}]" if marks else life.op
        lines.append(f"O3PipeView:fetch:{life.fetch_cycle}"
                     f":0x{life.pc:08x}:0:{life.seq}:{disasm}")
        lines.append(f"O3PipeView:decode:{life.fetch_cycle}")
        lines.append(f"O3PipeView:rename:{alloc}")
        lines.append(f"O3PipeView:dispatch:{alloc}")
        lines.append(f"O3PipeView:issue:{alloc}")
        lines.append(f"O3PipeView:complete:{done}")
        lines.append(f"O3PipeView:retire:{retire}:store:0")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_o3_trace(text: str) -> None:
    """Check O3PipeView structure; raises ExportFormatError."""
    lines = [line for line in text.splitlines() if line]
    if len(lines) % len(_O3_STAGES):
        raise ExportFormatError(
            f"O3PipeView trace must be whole 7-line records, "
            f"got {len(lines)} lines")
    for start in range(0, len(lines), len(_O3_STAGES)):
        record = start // len(_O3_STAGES)
        for offset, stage in enumerate(_O3_STAGES):
            line = lines[start + offset]
            fields = line.split(":")
            if fields[0] != "O3PipeView" or len(fields) < 3:
                raise ExportFormatError(
                    f"record {record}: malformed line {line!r}")
            if fields[1] != stage:
                raise ExportFormatError(
                    f"record {record}: expected stage {stage!r}, "
                    f"got {fields[1]!r}")
            try:
                tick = int(fields[2])
            except ValueError:
                raise ExportFormatError(
                    f"record {record}: non-integer tick in {line!r}") \
                    from None
            if tick < 0:
                raise ExportFormatError(
                    f"record {record}: negative tick in {line!r}")
        head = lines[start].split(":")
        if len(head) != 7:
            raise ExportFormatError(
                f"record {record}: fetch line must have 7 fields, "
                f"got {len(head)}")
        tail = lines[start + len(_O3_STAGES) - 1].split(":")
        if len(tail) != 5 or tail[3] != "store":
            raise ExportFormatError(
                f"record {record}: malformed retire line")


def _timeline_glyph(life: UopLife, cycle: int) -> str:
    if cycle < life.fetch_cycle:
        return " "
    if life.squash_cycle is not None and cycle >= life.squash_cycle:
        return "x" if cycle == life.squash_cycle else " "
    if life.retire_cycle is not None and cycle >= life.retire_cycle:
        return "R" if cycle == life.retire_cycle else " "
    if life.allocate_cycle is None or cycle < life.allocate_cycle:
        return "f"
    if cycle == life.allocate_cycle:
        return "a"
    if life.done_cycle is not None and cycle >= life.done_cycle:
        return "d"
    return "="


def render_timeline(events: Iterable[tuple], start: int, end: int,
                    max_rows: int = 60) -> str:
    """Draw the uops alive in cycles ``[start, end]`` as a text timeline.

    Lane glyphs: ``f`` fetch->allocate (frontend), ``a`` allocate, ``=``
    in the backend, ``d`` done, ``R`` retire, ``x`` squashed. The margin
    marks wrong-path rows ``w``, APF-restored rows ``+`` and mispredicted
    branches ``!``. The header counts the recoveries (mispredicted
    resolutions) and APF restores in the whole stream. At most
    ``max_rows`` uops are drawn, lowest seq first.
    """
    if end <= start:
        raise ValueError("end must exceed start")
    events = list(events)
    recoveries = sum(1 for e in events if e[0] == EV_RESOLVE and e[3])
    restores = sum(1 for e in events if e[0] == EV_RESTORE)
    lines = [f"cycles {start}..{end} ({recoveries} recoveries, "
             f"{restores} APF restores in run)"]
    lives = replay_timelines(events)
    for life in sorted(lives.values(), key=lambda l: l.seq):
        if life.fetch_cycle > end or life.final_cycle < start:
            continue
        if len(lines) > max_rows:
            break
        flags = "".join((
            "w" if life.wrong_path else " ",
            "+" if life.restored else " ",
            "!" if life.mispredict else " ",
        ))
        lane = "".join(_timeline_glyph(life, cycle)
                       for cycle in range(start, end + 1))
        lines.append(f"#{life.seq:<7d}{life.op:<6s}"
                     f"{life.pc & 0xFFFF:04x} {flags} |{lane}|")
    return "\n".join(lines)


def write_chrome_trace(path, events: Iterable[tuple],
                       process_name: str = "repro") -> dict:
    """Export, validate, and write a chrome trace; returns the document."""
    doc = chrome_trace(events, process_name=process_name)
    validate_chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def write_o3_pipeview(path, events: Iterable[tuple]) -> str:
    """Export, validate, and write an O3PipeView trace; returns the text."""
    text = o3_pipeview(events)
    validate_o3_trace(text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
