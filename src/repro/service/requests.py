"""Service request schema: JSON documents accepted by ``POST /submit``.

Three request kinds, mirroring the CLI verbs they generalise::

    {"kind": "run", "workload": "leela", "config": {...spec...},
     "warmup": 400, "measure": 400, "seed": 1234, "sampling": null}

    {"kind": "compare", "workloads": ["leela", "xz"],
     "base": {...spec...}, "test": {"apf": {"depth": 13}}}

    {"kind": "sweep", "workloads": ["leela", "xz"],
     "configs": [{"name": "base", "config": {}},
                 {"name": "d13", "config": {"apf": {}}}]}

A **config spec** is a small JSON object mapped onto
:class:`~repro.common.config.CoreConfig` exactly the way the CLI flags
are: ``{"scale": "small"|"paper", "predictor": "tage"|"perceptron"|
"gshare", "apf": null | {"mode", "depth", "buffers", "scheme",
"tage_banks", "confidence"}}``. Every field is optional; ``{}`` is the
small-scale baseline and ``{"apf": {}}`` the default APF configuration,
so request signatures are stable under spec-field omission.

Validation here is *structural* (kinds, types, spec fields). Workload
names are deliberately **not** checked against the registry: an unknown
workload becomes a leaf job that fails in its worker process, exercising
the same failure-poisoning path as any other mid-DAG failure — the
submitting client sees the failure in the request status rather than a
rejected submission.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.config import (AlternatePathMode, CoreConfig, FetchScheme,
                                 paper_core_config, small_core_config)
from repro.sampling import SamplingPlan, parse_sampling

__all__ = ["RequestError", "ServiceRequest", "config_from_spec",
           "make_request_id", "normalize_request", "parse_request",
           "request_signature"]

REQUEST_KINDS = ("run", "compare", "sweep")

_SCHEMES = {"banked": FetchScheme.BANKED,
            "timeshare": FetchScheme.TIME_SHARED,
            "dualport": FetchScheme.DUAL_PORT}


class RequestError(ValueError):
    """A submitted request document is malformed (HTTP 400).

    ``field`` names the APF spec field a value rule refused (``depth``,
    ``buffers``, ``tage_banks``, ``confidence``), so a caller can report
    it against the input it came from (the CLI: its flag).
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


def _type_check(doc: dict, field: str, types, default=None, required=False):
    if field not in doc:
        if required:
            raise RequestError(f"request is missing required field "
                               f"{field!r}")
        return default
    value = doc[field]
    if value is None and not required:
        return default
    if isinstance(value, bool) or not isinstance(value, types):
        names = "/".join(t.__name__ for t in (
            types if isinstance(types, tuple) else (types,)))
        raise RequestError(f"request field {field!r} must be {names}, "
                           f"got {value!r}")
    return value


def _apf_count(apf: dict, field: str, default: int, minimum: int) -> int:
    value = apf.pop(field, default)
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise RequestError(f"apf {field!r} must be an int >= {minimum}, "
                           f"got {value!r}", field=field)
    return value


def config_from_spec(spec: Optional[dict]) -> CoreConfig:
    """Build a :class:`CoreConfig` from a JSON config spec (see module
    docstring); raises :class:`RequestError` on an unknown field or a
    bad value (``depth`` must be an int >= 1, ``buffers`` an int >= 0,
    ``tage_banks`` one of the ints 1, 2, 4, 8, ``confidence`` a bool;
    ``true`` for 1 or ``4.0`` for 4 compare equal but would sign as a
    second machine)."""
    spec = dict(spec or {})
    scale = spec.pop("scale", "small")
    predictor = spec.pop("predictor", "tage")
    apf = spec.pop("apf", None)
    if spec:
        raise RequestError(f"unknown config spec field(s): "
                           f"{', '.join(sorted(spec))}")
    if scale not in ("small", "paper"):
        raise RequestError(f"config scale must be 'small' or 'paper', "
                           f"got {scale!r}")
    if predictor not in ("tage", "perceptron", "gshare"):
        raise RequestError(f"unknown predictor {predictor!r}")
    config = paper_core_config() if scale == "paper" else small_core_config()
    if predictor != "tage":
        config = dataclasses.replace(config, predictor_kind=predictor)
    if apf is None:
        return config
    if not isinstance(apf, dict):
        raise RequestError(f"config 'apf' must be an object or null, "
                           f"got {apf!r}")
    apf = dict(apf)
    mode = apf.pop("mode", "apf")
    depth = _apf_count(apf, "depth", 13, minimum=1)
    buffers = _apf_count(apf, "buffers", 4, minimum=0)
    scheme = apf.pop("scheme", "banked")
    tage_banks = apf.pop("tage_banks", 4)
    confidence = apf.pop("confidence", True)
    if apf:
        raise RequestError(f"unknown apf spec field(s): "
                           f"{', '.join(sorted(apf))}")
    if mode not in ("apf", "dpip"):
        raise RequestError(f"apf mode must be 'apf' or 'dpip', got {mode!r}")
    if scheme not in _SCHEMES:
        raise RequestError(f"unknown fetch scheme {scheme!r}")
    if isinstance(tage_banks, bool) or not isinstance(tage_banks, int) \
            or tage_banks not in (1, 2, 4, 8):
        raise RequestError(f"apf 'tage_banks' must be 1/2/4/8, "
                           f"got {tage_banks!r}", field="tage_banks")
    if not isinstance(confidence, bool):
        raise RequestError(f"apf 'confidence' must be true or false, "
                           f"got {confidence!r}", field="confidence")
    overrides = dict(
        pipeline_depth=depth,
        num_buffers=buffers,
        buffer_capacity_uops=8 * depth,
        fetch_scheme=_SCHEMES[scheme],
        tage_banks=tage_banks,
        use_tage_confidence=confidence,
    )
    if mode == "dpip":
        overrides.update(mode=AlternatePathMode.DPIP, num_buffers=0)
    return config.with_apf(**overrides)


@dataclass(frozen=True)
class ServiceRequest:
    """One parsed, normalised submission.

    ``doc`` is the canonical request document (defaults filled in), so
    two submissions that differ only in omitted-vs-explicit defaults
    normalise to the same signature.
    """

    kind: str
    doc: dict                      # canonical (normalised) document
    workloads: Tuple[str, ...]
    warmup: Optional[int]
    measure: Optional[int]
    seed: int
    sampling: Optional[SamplingPlan]

    @property
    def signature(self) -> str:
        return request_signature(self.doc)


def _workload_list(doc: dict) -> List[str]:
    if "workload" in doc and "workloads" not in doc:
        name = _type_check(doc, "workload", (str,), required=True)
        return [name]
    names = _type_check(doc, "workloads", (list,), required=True)
    if not names or not all(isinstance(n, str) for n in names):
        raise RequestError("'workloads' must be a non-empty list of "
                           "workload names")
    return list(names)


def normalize_request(doc: dict) -> dict:
    """Validate ``doc`` and return the canonical request document."""
    if not isinstance(doc, dict):
        raise RequestError(f"request must be a JSON object, "
                           f"got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in REQUEST_KINDS:
        raise RequestError(f"unknown request kind {kind!r}; choose from "
                           f"{'/'.join(REQUEST_KINDS)}")
    out = {
        "kind": kind,
        "warmup": _type_check(doc, "warmup", (int,)),
        "measure": _type_check(doc, "measure", (int,)),
        "seed": _type_check(doc, "seed", (int,), default=1234),
        "sampling": _type_check(doc, "sampling", (str,)),
    }
    for field, minimum in (("warmup", 0), ("measure", 1)):
        if out[field] is not None and out[field] < minimum:
            raise RequestError(f"request field {field!r} must be >= "
                               f"{minimum}, got {out[field]!r}")
    if out["sampling"] is not None:
        try:
            parse_sampling(out["sampling"])
        except Exception as exc:
            raise RequestError(f"bad sampling spec "
                               f"{out['sampling']!r}: {exc}") from exc

    if kind == "run":
        [workload] = _workload_list(doc)
        out["workload"] = workload
        spec = _type_check(doc, "config", (dict,), default={})
        config_from_spec(spec)            # validate now, fail at submit
        out["config"] = spec
    elif kind == "compare":
        out["workloads"] = _workload_list(doc)
        base = _type_check(doc, "base", (dict,), default={})
        test = _type_check(doc, "test", (dict,), default={"apf": {}})
        if config_from_spec(base) == config_from_spec(test):
            raise RequestError("compare request: 'base' and 'test' specs "
                               "build the same configuration")
        out["base"], out["test"] = base, test
    else:   # sweep
        out["workloads"] = _workload_list(doc)
        configs = _type_check(doc, "configs", (list,))
        if configs is None:
            configs = [{"name": "default",
                        "config": _type_check(doc, "config", (dict,),
                                              default={})}]
        if not configs:
            raise RequestError("'configs' must be a non-empty list")
        seen = set()
        norm = []
        for i, entry in enumerate(configs):
            if not isinstance(entry, dict):
                raise RequestError(f"configs[{i}] must be an object")
            name = entry.get("name") or f"cfg{i}"
            if not isinstance(name, str):
                raise RequestError(f"configs[{i}] name must be a string")
            if name in seen:
                raise RequestError(f"duplicate config name {name!r}")
            seen.add(name)
            spec = entry.get("config", {})
            if not isinstance(spec, dict):
                raise RequestError(f"configs[{i}] config must be an object")
            config_from_spec(spec)        # validate now
            norm.append({"name": name, "config": spec})
        out["configs"] = norm

    known = set(out) | {"workload", "workloads", "config", "configs",
                        "base", "test"}
    extra = sorted(set(doc) - known)
    if extra:
        raise RequestError(f"unknown request field(s): {', '.join(extra)}")
    return out


def request_signature(doc: dict) -> str:
    """Stable content signature of a canonical request document."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def make_request_id(seq: int, doc: dict) -> str:
    """The request id for admission number ``seq`` of canonical ``doc``.

    A pure function of ``(seq, doc)`` — the request journal records
    both, so a daemon restart reconstructs the exact same id and clients
    keep polling the handle they were given before the crash.
    """
    return f"r{seq:04d}-{request_signature(doc)}"


def parse_request(doc: dict) -> ServiceRequest:
    """Validate and normalise one submitted document."""
    canonical = normalize_request(doc)
    kind = canonical["kind"]
    workloads = ([canonical["workload"]] if kind == "run"
                 else list(canonical["workloads"]))
    return ServiceRequest(
        kind=kind,
        doc=canonical,
        workloads=tuple(workloads),
        warmup=canonical["warmup"],
        measure=canonical["measure"],
        seed=canonical["seed"],
        sampling=parse_sampling(canonical["sampling"]),
    )
