#!/usr/bin/env python3
"""Validates levnet observability exports.

Checks a Chrome/Perfetto trace produced by `levnet_run --trace` (and,
optionally, the matching `--metrics` JSONL) for structural soundness:

  * the trace parses, carries a traceEvents list, and every event has the
    fields the trace-event format requires (ph, name, pid, tid; complete
    "X" events also ts/dur/cat);
  * span names and categories come from the recorder's fixed vocabulary
    (engine: phaseA/phaseB/phaseC; packet: data/request/reply);
  * timestamps are virtual (non-negative integers) — wall-clock leakage
    into the trace would show up as huge epoch offsets;
  * metrics lines are well-formed run/sample records whose counter keys
    match the probe registry, with per-seed monotone sample steps;
  * when the metrics report consumed packets and the trace was recorded
    with packet spans, the two agree that packet spans exist.

Usage:
  levnet_trace_check.py TRACE.json [--metrics FILE.jsonl]
  levnet_trace_check.py --self-test

Exit status 0 when every check passes, 1 otherwise (failures listed on
stderr). No dependencies outside the standard library.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# Mirrors src/obs/probes.hpp (kProbeInfo); keep sorted and in sync.
PROBE_NAMES = (
    "cache_evictions",
    "cache_hits",
    "cache_misses",
    "combining_merges",
    "consumptions",
    "detours",
    "injections",
    "rehash_attempts",
    "transmissions",
)

ENGINE_SPANS = {"phaseA", "phaseB", "phaseC"}
PACKET_SPANS = {"data", "request", "reply"}
QUANTILE_KEYS = {"p50", "p95", "p99", "samples", "sum"}


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_trace(text: str, errors: List[str]) -> dict:
    """Validates trace JSON text; returns {'engine': n, 'packet': n} span
    counts (zeros when the trace was unreadable)."""
    counts = {"engine": 0, "packet": 0}
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        errors.append(f"trace: not valid JSON: {exc}")
        return counts
    if not isinstance(root, dict):
        errors.append("trace: top level must be an object")
        return counts
    events = root.get("traceEvents")
    if not isinstance(events, list):
        errors.append("trace: missing traceEvents list")
        return counts
    for index, event in enumerate(events):
        where = f"trace: traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: ph must be 'X' or 'M', got {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing event name")
            continue
        if not _is_count(event.get("pid")) or not _is_count(event.get("tid")):
            errors.append(f"{where}: pid/tid must be non-negative integers")
            continue
        if ph == "M":
            continue
        if not _is_count(event.get("ts")):
            errors.append(f"{where}: ts must be a non-negative integer "
                          "(virtual steps, not wall clock)")
            continue
        dur = event.get("dur")
        if not _is_count(dur) or dur == 0:
            errors.append(f"{where}: dur must be a positive integer")
            continue
        cat = event.get("cat")
        name = event["name"]
        if cat == "engine":
            if name not in ENGINE_SPANS:
                errors.append(f"{where}: unknown engine span '{name}'")
                continue
        elif cat == "packet":
            if name not in PACKET_SPANS:
                errors.append(f"{where}: unknown packet span '{name}'")
                continue
        else:
            errors.append(f"{where}: cat must be 'engine' or 'packet', "
                          f"got {cat!r}")
            continue
        counts[cat] += 1
    if not errors and counts["engine"] == 0:
        errors.append("trace: no engine phase spans (empty or truncated "
                      "recording)")
    return counts


def _check_counters(obj: object, where: str, errors: List[str]) -> None:
    if not isinstance(obj, dict) or tuple(obj.keys()) != PROBE_NAMES:
        errors.append(f"{where}: counters keys must be exactly "
                      f"{list(PROBE_NAMES)} in order")
        return
    for key, value in obj.items():
        if not _is_count(value):
            errors.append(f"{where}: counter '{key}' must be a "
                          "non-negative integer")


def _check_quantiles(obj: object, where: str, errors: List[str]) -> None:
    if not isinstance(obj, dict) or set(obj.keys()) != QUANTILE_KEYS:
        errors.append(f"{where}: quantile keys must be "
                      f"{sorted(QUANTILE_KEYS)}")
        return
    for key, value in obj.items():
        if not _is_count(value):
            errors.append(f"{where}: quantile field '{key}' must be a "
                          "non-negative integer")


def check_metrics(text: str, errors: List[str]) -> int:
    """Validates metrics JSONL text; returns total consumptions reported
    by run lines."""
    consumptions = 0
    last_step = {}  # seed -> last sample step
    seen_run = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"metrics:{lineno}"
        if not line.strip():
            errors.append(f"{where}: blank line (JSONL must be dense)")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: not valid JSON: {exc}")
            continue
        if not isinstance(record, dict):
            errors.append(f"{where}: line must be a JSON object")
            continue
        kind = record.get("type")
        seed = record.get("seed")
        if not _is_count(seed):
            errors.append(f"{where}: seed must be a non-negative integer")
            continue
        if kind == "run":
            if seed in seen_run:
                errors.append(f"{where}: duplicate run line for seed {seed}")
                continue
            seen_run.add(seed)
            if not _is_count(record.get("virtual_steps")):
                errors.append(f"{where}: virtual_steps must be a "
                              "non-negative integer")
            levels = record.get("levels")
            if not _is_count(levels) or levels == 0:
                errors.append(f"{where}: levels must be a positive integer")
            _check_counters(record.get("counters"), where, errors)
            _check_quantiles(record.get("latency"), where, errors)
            _check_quantiles(record.get("queue_delay"), where, errors)
            counters = record.get("counters")
            if isinstance(counters, dict):
                value = counters.get("consumptions")
                if _is_count(value):
                    consumptions += value
        elif kind == "sample":
            if seed not in seen_run:
                errors.append(f"{where}: sample before the run line for "
                              f"seed {seed}")
                continue
            step = record.get("step")
            if not _is_count(step):
                errors.append(f"{where}: step must be a non-negative integer")
                continue
            if step <= last_step.get(seed, -1):
                errors.append(f"{where}: sample steps must be strictly "
                              f"increasing per seed (step {step} after "
                              f"{last_step[seed]})")
            last_step[seed] = step
            if not _is_count(record.get("in_flight")):
                errors.append(f"{where}: in_flight must be a non-negative "
                              "integer")
            _check_counters(record.get("counters"), where, errors)
            queue = record.get("level_queue")
            if (not isinstance(queue, list) or not queue
                    or not all(_is_count(q) for q in queue)):
                errors.append(f"{where}: level_queue must be a non-empty "
                              "list of non-negative integers")
        else:
            errors.append(f"{where}: type must be 'run' or 'sample', "
                          f"got {kind!r}")
    if not seen_run:
        errors.append("metrics: no run lines")
    return consumptions


def check_files(trace_path: str, metrics_path: Optional[str]) -> List[str]:
    errors: List[str] = []
    try:
        with open(trace_path, "r", encoding="utf-8") as handle:
            trace_text = handle.read()
    except OSError as exc:
        return [f"trace: cannot read {trace_path}: {exc}"]
    span_counts = check_trace(trace_text, errors)
    if metrics_path is not None:
        try:
            with open(metrics_path, "r", encoding="utf-8") as handle:
                metrics_text = handle.read()
        except OSError as exc:
            errors.append(f"metrics: cannot read {metrics_path}: {exc}")
            return errors
        consumptions = check_metrics(metrics_text, errors)
        if (not errors and consumptions > 0
                and span_counts["packet"] == 0):
            errors.append("metrics report consumed packets but the trace "
                          "has no packet spans (trace recorded without the "
                          "'trace' token?)")
    return errors


# ----------------------------------------------------------------- self-test

_GOOD_TRACE = json.dumps({
    "displayTimeUnit": "ms",
    "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "seed 0"}},
        {"name": "phaseA", "cat": "engine", "ph": "X", "ts": 4, "dur": 1,
         "pid": 0, "tid": 0},
        {"name": "data", "cat": "packet", "ph": "X", "ts": 4, "dur": 8,
         "pid": 0, "tid": 3},
    ],
})

_GOOD_METRICS = "\n".join([
    json.dumps({"type": "run", "seed": 0, "virtual_steps": 9,
                "counters": {name: 1 for name in PROBE_NAMES},
                "latency": {"p50": 1, "p95": 2, "p99": 2, "samples": 3,
                            "sum": 4},
                "queue_delay": {"p50": 0, "p95": 1, "p99": 1, "samples": 3,
                                "sum": 1},
                "levels": 2}),
    json.dumps({"type": "sample", "seed": 0, "step": 1, "in_flight": 2,
                "counters": {name: 0 for name in PROBE_NAMES},
                "level_queue": [1, 1]}),
    json.dumps({"type": "sample", "seed": 0, "step": 2, "in_flight": 1,
                "counters": {name: 0 for name in PROBE_NAMES},
                "level_queue": [0, 1]}),
])

# (description, mutate_trace, mutate_metrics, expected_error_fragment)
_SELFTEST_CASES = [
    ("valid pair accepted", None, None, None),
    ("broken JSON rejected", lambda t: t[:-2], None, "not valid JSON"),
    ("unknown span rejected",
     lambda t: t.replace('"phaseA"', '"phaseZ"'), None,
     "unknown engine span"),
    ("negative ts rejected",
     lambda t: t.replace('"ts": 4, "dur": 1', '"ts": -4, "dur": 1'), None,
     "ts must be a non-negative integer"),
    ("zero dur rejected",
     lambda t: t.replace('"dur": 1', '"dur": 0'), None,
     "dur must be a positive integer"),
    ("bad ph rejected",
     lambda t: t.replace('"ph": "M"', '"ph": "B"'), None,
     "ph must be 'X' or 'M'"),
    ("engine-free trace rejected",
     lambda t: t.replace('"cat": "engine"', '"cat": "packet"').replace(
         '"phaseA"', '"data"'), None,
     "no engine phase spans"),
    ("counter drift rejected", None,
     lambda m: m.replace('"detours"', '"detour"'),
     "counters keys must be exactly"),
    ("non-monotone samples rejected", None,
     lambda m: m.replace('"step": 2', '"step": 1'),
     "strictly increasing"),
    ("sample before run rejected", None,
     lambda m: "\n".join(m.splitlines()[1:]),
     "sample before the run line"),
    ("missing quantile key rejected", None,
     lambda m: m.replace('"p99": 2, ', ""),
     "quantile keys must be"),
    # mutate_trace is None here: self_test() rebuilds a packet-free trace
    # from the parsed good trace for this case.
    ("consumptions without packet spans rejected", None, None,
     "no packet spans"),
]


def self_test() -> int:
    failures = []
    for description, mutate_trace, mutate_metrics, expected in _SELFTEST_CASES:
        trace = mutate_trace(_GOOD_TRACE) if mutate_trace else _GOOD_TRACE
        metrics = (mutate_metrics(_GOOD_METRICS) if mutate_metrics
                   else _GOOD_METRICS)
        if expected == "no packet spans":
            # Drop the packet spans from the parsed good trace.
            root = json.loads(_GOOD_TRACE)
            root["traceEvents"] = [e for e in root["traceEvents"]
                                   if e.get("cat") != "packet"]
            trace = json.dumps(root)
        errors: List[str] = []
        span_counts = check_trace(trace, errors)
        consumptions = check_metrics(metrics, errors)
        if not errors and consumptions > 0 and span_counts["packet"] == 0:
            errors.append("metrics report consumed packets but the trace "
                          "has no packet spans")
        if expected is None:
            if errors:
                failures.append(f"{description}: unexpected errors {errors}")
        elif not any(expected in e for e in errors):
            failures.append(f"{description}: expected '{expected}' in "
                            f"{errors}")
    for failure in failures:
        print(f"levnet_trace_check self-test FAILED: {failure}",
              file=sys.stderr)
    if not failures:
        print(f"levnet_trace_check self-test OK "
              f"({len(_SELFTEST_CASES)} cases)")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="validate levnet trace/metrics exports")
    parser.add_argument("trace", nargs="?", help="trace JSON from --trace")
    parser.add_argument("--metrics", help="metrics JSONL from --metrics")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded good/bad cases")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.error("a trace file is required (or --self-test)")
    errors = check_files(args.trace, args.metrics)
    for error in errors:
        print(f"levnet_trace_check: {error}", file=sys.stderr)
    if not errors:
        checked = args.trace if args.metrics is None else (
            f"{args.trace} + {args.metrics}")
        print(f"levnet_trace_check: OK ({checked})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
