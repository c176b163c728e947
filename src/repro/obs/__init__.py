"""First-class observability for the simulator (``repro.obs``).

Three layers, cheapest first:

* **Instrumentation points** — the timing core, fetch engine, and APF
  engine each hold an ``obs`` slot (``None`` by default). Every pipeline
  phase guards its emission with a single ``is not None`` check, so the
  disabled path costs one truthy test per phase and nothing else. Events
  fire only at *state changes* (a bundle fetched, a uop allocated /
  retired / squashed, a branch resolved, a path restored), which makes
  the stream identical under the per-cycle reference loop and the
  event-driven skipping loop — skipped windows are no-ops by
  construction.
* **Sinks** — :class:`ObsSink` subclasses consume the callbacks.
  :class:`EventRecorder` serialises them into a bounded ring buffer of
  plain tuples and feeds per-subsystem occupancy histograms;
  :func:`replay_timelines` rebuilds per-uop lifecycles from the tuples.
* **Exporters / metrics** — :mod:`repro.obs.exporters` renders those
  lifecycles as Chrome trace-event (Perfetto) JSON, gem5-O3PipeView/
  Konata text, or a text timeline of one cycle window
  (:func:`render_timeline`); :mod:`repro.obs.metrics` defines the
  machine-readable metric schema and the JSONL :class:`MetricStream`
  the runner manifest and sampling intervals publish into.
* **Cycle accounting** — :mod:`repro.obs.accounting` owns the top-down
  CPI-stack taxonomy the core's ``cpi_*`` counters attribute every
  issue slot into, the ``width * cycles`` sum invariant, and the
  rendering/diff/coverage layer behind ``repro cpistack``.
"""

from repro.obs.accounting import (
    CPI_GROUPS,
    CPI_LEAVES,
    CpiStack,
    CpiStackError,
    apf_coverage,
    cpi_slot_deltas,
    diff_stacks,
    load_stacks,
    stack_from_counters,
    stack_from_result,
)
from repro.obs.events import (
    EV_ALLOC,
    EV_APF_BUFFER_FILL,
    EV_APF_JOB_COMPLETE,
    EV_APF_JOB_START,
    EV_BTB_MISFETCH,
    EV_FETCH,
    EV_FETCH_BUNDLE,
    EV_ICACHE_STALL,
    EV_RESOLVE,
    EV_RESTORE,
    EV_RETIRE,
    EV_SQUASH,
    EVENT_NAMES,
    F_BRANCH,
    F_MISPREDICT,
    F_RESTORED,
    F_WRONG_PATH,
    EventRecorder,
    ObsSink,
    UopLife,
    replay_timelines,
)
from repro.obs.exporters import (
    ExportFormatError,
    chrome_trace,
    o3_pipeview,
    render_timeline,
    validate_chrome_trace,
    validate_o3_trace,
    write_chrome_trace,
    write_o3_pipeview,
)
from repro.obs.metrics import (
    METRIC_KINDS,
    METRIC_SCHEMA_VERSION,
    MetricSchemaError,
    MetricStream,
    current_metric_stream,
    result_metric_fields,
    using_metric_stream,
    validate_metric_record,
)
from repro.obs.spans import (
    SPAN_NAMES,
    SpanError,
    SpanNode,
    check_spans,
    render_span_tree,
    span_tree,
    spans_to_chrome_trace,
    summarize_spans,
    write_spans_chrome_trace,
)

__all__ = [
    "CPI_GROUPS", "CPI_LEAVES", "CpiStack", "CpiStackError",
    "EV_ALLOC", "EV_APF_BUFFER_FILL", "EV_APF_JOB_COMPLETE",
    "EV_APF_JOB_START", "EV_BTB_MISFETCH", "EV_FETCH", "EV_FETCH_BUNDLE",
    "EV_ICACHE_STALL", "EV_RESOLVE", "EV_RESTORE", "EV_RETIRE",
    "EV_SQUASH", "EVENT_NAMES",
    "EventRecorder", "ExportFormatError", "F_BRANCH", "F_MISPREDICT",
    "F_RESTORED", "F_WRONG_PATH", "METRIC_KINDS", "METRIC_SCHEMA_VERSION",
    "MetricSchemaError", "MetricStream", "ObsSink",
    "SPAN_NAMES", "SpanError", "SpanNode", "UopLife",
    "apf_coverage", "check_spans", "chrome_trace", "cpi_slot_deltas",
    "current_metric_stream", "diff_stacks", "load_stacks", "o3_pipeview",
    "render_span_tree", "render_timeline", "replay_timelines",
    "result_metric_fields",
    "span_tree", "spans_to_chrome_trace", "stack_from_counters",
    "stack_from_result", "summarize_spans", "using_metric_stream",
    "validate_chrome_trace", "validate_metric_record", "validate_o3_trace",
    "write_chrome_trace", "write_o3_pipeview", "write_spans_chrome_trace",
]
