#!/usr/bin/env python3
"""Validator for the observability artifacts (DESIGN.md §11).

Three document kinds, matched to the files our drivers emit:

--trace FILE     Chrome-trace-event JSON written by --trace=FILE
                 (Tracer::write_chrome_trace).  Checks: valid JSON,
                 a traceEvents array of X/i/M events with non-negative
                 timestamps, per-(pid, tid) spans that nest as a proper
                 stack (a span either contains or is disjoint from its
                 neighbours), and per-pid thread_name metadata.
--metrics FILE   Run report written by --metrics=FILE (RunMetrics::write,
                 schema "xfci-metrics-v1").  Checks the schema tag, the
                 required keys, and internal consistency (one ranks[] row
                 per rank, solver histories of equal length, and — when a
                 serve::Engine report carries them — a well-formed "cache"
                 section and "jobs" array).
--bench FILE     BENCH_*.json written by the bench binaries (BenchReport,
                 schema "xfci-bench-v1"): schema tag, non-empty rows with
                 a consistent column set, numeric total_seconds.
--telemetry FILE Live-telemetry snapshot written by --telemetry=FILE
                 (obs::telemetry_json, schema "xfci-telemetry-v1").
                 Checks the schema tag, the shared histogram bounds
                 (positive, strictly increasing), per-metric shape by
                 kind (counter value, gauge value, histogram buckets /
                 sum / count with count == sum of buckets), Prometheus
                 name and label-key syntax, and duplicate series.
--prom FILE      Prometheus text exposition scraped from the exporter's
                 /metrics.  Checks line and label syntax, HELP/TYPE
                 declarations before samples, non-negative counters,
                 cumulative (non-decreasing) histogram buckets with a
                 le="+Inf" bucket equal to _count.  Given several --prom
                 files, they are treated as successive scrapes of one
                 process and every counter must be monotonic across them.

--expect-spans a,b,c   With --trace: require each named span to occur.

Exit status: 0 = all files valid, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

# Adjacent phase spans share a barrier timestamp, but Chrome events store
# (ts, dur) so the shared boundary is only reconstructed to ~1 ulp at
# microsecond magnitudes.  1 ns of slack is far above ulp noise and far
# below any real nesting violation.
EPS_US = 1e-3


def fail(findings: list, path: str, message: str) -> None:
    findings.append(f"{path}: {message}")


def load_json(path: str, findings: list):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(findings, path, f"unreadable or invalid JSON: {exc}")
        return None


# ------------------------------------------------------------------ trace --

def check_trace(path: str, doc, findings: list,
                expect_spans: list | None = None) -> None:
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(findings, path, "missing top-level traceEvents array")
        return
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(findings, path, "traceEvents must be a non-empty array")
        return

    tracks: dict = {}      # (pid, tid) -> [(t0, t1, name)]
    named_tids: dict = {}  # pid -> set of tids with thread_name metadata
    span_names: set = set()
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(findings, path, f"{where}: event is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(findings, path, f"{where}: missing '{key}'")
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "thread_name":
                named_tids.setdefault(e.get("pid"), set()).add(e.get("tid"))
            continue
        if ph not in ("X", "i"):
            fail(findings, path, f"{where}: unexpected phase {ph!r}")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(findings, path, f"{where}: bad ts {ts!r}")
            continue
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(findings, path, f"{where}: bad dur {dur!r}")
                continue
            key = (e.get("pid"), e.get("tid"))
            tracks.setdefault(key, []).append((ts, ts + dur, e.get("name")))
            span_names.add(e.get("name"))

    # Per-track stack nesting: sort (t0 asc, longer first); each span must
    # be contained by or disjoint from the enclosing one.
    for key, spans in sorted(tracks.items()):
        spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        stack: list = []
        for t0, t1, name in spans:
            while stack and t0 >= stack[-1][1] - EPS_US:
                stack.pop()
            if stack and t1 > stack[-1][1] + EPS_US:
                fail(findings, path,
                     f"track (pid {key[0]}, tid {key[1]}): span '{name}' "
                     f"[{t0}, {t1}] crosses '{stack[-1][2]}' ending at "
                     f"{stack[-1][1]}")
            stack.append((t0, t1, name))

    # Every track that carries events should be labelled for Perfetto.
    for pid, tid in sorted(tracks):
        if tid not in named_tids.get(pid, set()):
            fail(findings, path,
                 f"track (pid {pid}, tid {tid}) has spans but no "
                 "thread_name metadata")

    for name in expect_spans or []:
        if name not in span_names:
            fail(findings, path, f"expected span '{name}' never occurs")


# ---------------------------------------------------------------- metrics --

METRICS_KEYS = ("schema", "backend", "algorithm", "num_ranks",
                "num_workers", "dimension", "total_seconds", "total_flops",
                "phases", "totals", "comm", "recovery", "ranks", "env")
PHASE_KEYS = ("beta_side", "alpha_side", "mixed", "transpose",
              "vector_ops", "load_imbalance", "recovery", "total",
              "comm_words", "mixed_comm_words", "flops", "count")
# Optional serve::Engine extensions (engine.cpp report_json).
CACHE_KEYS = ("hits", "misses", "evictions", "resident_bytes",
              "resident_entries")
JOB_KEYS = ("id", "name", "state", "priority", "cache_hit", "sequence",
            "queue_seconds", "setup_seconds", "solve_seconds",
            "total_seconds")
JOB_STATES = {"queued", "running", "done", "failed", "rejected"}


def check_metrics(path: str, doc, findings: list) -> None:
    if not isinstance(doc, dict):
        fail(findings, path, "metrics document is not an object")
        return
    if doc.get("schema") != "xfci-metrics-v1":
        fail(findings, path,
             f"schema is {doc.get('schema')!r}, want 'xfci-metrics-v1'")
    for key in METRICS_KEYS:
        if key not in doc:
            fail(findings, path, f"missing key '{key}'")
    for section in ("phases", "totals"):
        block = doc.get(section)
        if isinstance(block, dict):
            for key in PHASE_KEYS:
                if key not in block:
                    fail(findings, path, f"{section} missing '{key}'")
    ranks = doc.get("ranks")
    nranks = doc.get("num_ranks")
    if isinstance(ranks, list) and isinstance(nranks, (int, float)):
        if len(ranks) != int(nranks):
            fail(findings, path,
                 f"ranks has {len(ranks)} rows for num_ranks {nranks}")
    env = doc.get("env")
    if isinstance(env, list):
        # Every environment variable the run consulted (via xfci::env) —
        # name + whether it was set, value only when set.
        for row in env:
            if not isinstance(row, dict) or "name" not in row \
                    or "set" not in row:
                fail(findings, path, f"malformed env row {row!r}")
            elif bool(row["set"]) != ("value" in row):
                fail(findings, path,
                     f"env row '{row['name']}' must carry a value iff set")
    solver = doc.get("solver")
    if isinstance(solver, dict):
        eh = solver.get("energy_history", [])
        rh = solver.get("residual_history", [])
        if len(eh) != len(rh):
            fail(findings, path,
                 f"solver histories disagree: {len(eh)} energies vs "
                 f"{len(rh)} residuals")
        if solver.get("converged") and not eh:
            fail(findings, path, "solver converged with empty history")
    # serve::Engine reports extend the schema with cache statistics and a
    # per-job array; when present they must be internally consistent.
    if "cache" in doc:
        cache = doc["cache"]
        if not isinstance(cache, dict):
            fail(findings, path, "'cache' must be an object")
        else:
            for key in CACHE_KEYS:
                if key not in cache:
                    fail(findings, path, f"cache missing '{key}'")
                elif not isinstance(cache[key], (int, float)) \
                        or cache[key] < 0:
                    fail(findings, path,
                         f"cache '{key}' must be a non-negative number, "
                         f"got {cache[key]!r}")
            if "enabled" in cache and not isinstance(cache["enabled"], bool):
                fail(findings, path, "cache 'enabled' must be a boolean")
    jobs = doc.get("jobs")
    if jobs is not None:
        if not isinstance(jobs, list):
            fail(findings, path, "'jobs' must be an array")
        else:
            for i, job in enumerate(jobs):
                if not isinstance(job, dict):
                    fail(findings, path, f"jobs[{i}] is not an object")
                    continue
                for key in JOB_KEYS:
                    if key not in job:
                        fail(findings, path, f"jobs[{i}] missing '{key}'")
                if job.get("state") not in JOB_STATES:
                    fail(findings, path,
                         f"jobs[{i}] state {job.get('state')!r} not one of "
                         f"{sorted(JOB_STATES)}")


# ------------------------------------------------------------------ bench --

def check_bench(path: str, doc, findings: list) -> None:
    if not isinstance(doc, dict):
        fail(findings, path, "bench document is not an object")
        return
    if doc.get("schema") != "xfci-bench-v1":
        fail(findings, path,
             f"schema is {doc.get('schema')!r}, want 'xfci-bench-v1'")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        fail(findings, path, "missing or empty 'bench' name")
    if not isinstance(doc.get("config"), dict):
        fail(findings, path, "'config' must be an object")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(findings, path, "'rows' must be a non-empty array")
    else:
        columns = None
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not row:
                fail(findings, path, f"rows[{i}] is not a non-empty object")
                continue
            if columns is None:
                columns = set(row)
            elif set(row) != columns:
                fail(findings, path,
                     f"rows[{i}] columns {sorted(row)} differ from "
                     f"rows[0] {sorted(columns)}")
    if not isinstance(doc.get("total_seconds"), (int, float)):
        fail(findings, path, "'total_seconds' must be a number")


# -------------------------------------------------------------- telemetry --

# Prometheus data-model syntax (shared by the JSON snapshot and the text
# exposition: the snapshot promises its names scrape cleanly).
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
TELEMETRY_KINDS = {"counter", "gauge", "histogram"}


def check_telemetry(path: str, doc, findings: list) -> None:
    if not isinstance(doc, dict):
        fail(findings, path, "telemetry document is not an object")
        return
    if doc.get("schema") != "xfci-telemetry-v1":
        fail(findings, path,
             f"schema is {doc.get('schema')!r}, want 'xfci-telemetry-v1'")
    wall = doc.get("wall_unix_seconds")
    if not isinstance(wall, (int, float)) or wall < 0:
        fail(findings, path, f"bad wall_unix_seconds {wall!r}")
    bounds = doc.get("histogram_bounds")
    if not isinstance(bounds, list) or not bounds:
        fail(findings, path, "histogram_bounds must be a non-empty array")
        bounds = []
    else:
        for i, b in enumerate(bounds):
            if not isinstance(b, (int, float)) or b <= 0:
                fail(findings, path, f"histogram_bounds[{i}] {b!r} not > 0")
            elif i > 0 and b <= bounds[i - 1]:
                fail(findings, path,
                     f"histogram_bounds[{i}] {b!r} not increasing")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        fail(findings, path, "'metrics' must be an array")
        return
    seen: set = set()
    for i, m in enumerate(metrics):
        where = f"metrics[{i}]"
        if not isinstance(m, dict):
            fail(findings, path, f"{where}: not an object")
            continue
        name = m.get("name")
        if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
            fail(findings, path, f"{where}: bad metric name {name!r}")
            continue
        labels = m.get("labels")
        if not isinstance(labels, dict):
            fail(findings, path, f"{where} ({name}): 'labels' must be an "
                 "object")
            labels = {}
        for k, v in labels.items():
            if not LABEL_KEY_RE.match(k):
                fail(findings, path, f"{where} ({name}): bad label key "
                     f"{k!r}")
            if not isinstance(v, str):
                fail(findings, path, f"{where} ({name}): label {k} value "
                     f"{v!r} is not a string")
        series = (name, tuple(sorted(labels.items())))
        if series in seen:
            fail(findings, path, f"{where}: duplicate series {series!r}")
        seen.add(series)
        kind = m.get("kind")
        if kind not in TELEMETRY_KINDS:
            fail(findings, path, f"{where} ({name}): kind {kind!r} not one "
                 f"of {sorted(TELEMETRY_KINDS)}")
            continue
        if kind == "counter":
            v = m.get("value")
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(findings, path, f"{where} ({name}): counter value "
                     f"{v!r} must be a non-negative integer")
        elif kind == "gauge":
            v = m.get("value")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(findings, path, f"{where} ({name}): gauge value {v!r} "
                     "must be a number")
        else:  # histogram
            buckets = m.get("buckets")
            if not isinstance(buckets, list) or \
                    len(buckets) != len(bounds) + 1:
                fail(findings, path, f"{where} ({name}): want "
                     f"{len(bounds) + 1} buckets (bounds + overflow), got "
                     f"{buckets!r}")
                continue
            total = 0
            ok = True
            for j, b in enumerate(buckets):
                if not isinstance(b, int) or isinstance(b, bool) or b < 0:
                    fail(findings, path, f"{where} ({name}): buckets[{j}] "
                         f"{b!r} must be a non-negative integer")
                    ok = False
                else:
                    total += b
            count = m.get("count")
            if ok and count != total:
                fail(findings, path, f"{where} ({name}): count {count!r} "
                     f"!= sum of buckets {total}")
            if not isinstance(m.get("sum"), (int, float)):
                fail(findings, path, f"{where} ({name}): missing numeric "
                     "'sum'")


# ------------------------------------------------------- prometheus text --

def parse_prom_labels(path: str, where: str, text: str,
                      findings: list) -> dict | None:
    """Parses `key="value",...` (no surrounding braces); None on error."""
    labels: dict = {}
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0 or eq + 1 >= len(text) or text[eq + 1] != '"':
            fail(findings, path, f"{where}: malformed labels {text!r}")
            return None
        key = text[i:eq]
        if not LABEL_KEY_RE.match(key):
            fail(findings, path, f"{where}: bad label key {key!r}")
            return None
        j = eq + 2
        value = []
        while j < len(text) and text[j] != '"':
            if text[j] == "\\":
                if j + 1 >= len(text) or text[j + 1] not in '\\"n':
                    fail(findings, path,
                         f"{where}: bad escape in label value {text!r}")
                    return None
                value.append({"\\": "\\", '"': '"', "n": "\n"}[text[j + 1]])
                j += 2
            else:
                value.append(text[j])
                j += 1
        if j >= len(text):
            fail(findings, path, f"{where}: unterminated label value in "
                 f"{text!r}")
            return None
        labels[key] = "".join(value)
        i = j + 1
        if i < len(text):
            if text[i] != ",":
                fail(findings, path, f"{where}: expected ',' between "
                     f"labels in {text!r}")
                return None
            i += 1
    return labels


def parse_prom_text(path: str, text: str, findings: list):
    """Returns ({family: type}, [(name, labels, value)]) or None."""
    types: dict = {}
    samples: list = []
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(findings, path, f"{where}: malformed comment {line!r}")
                continue
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in TELEMETRY_KINDS:
                    fail(findings, path, f"{where}: malformed TYPE {line!r}")
                elif parts[2] in types:
                    fail(findings, path,
                         f"{where}: duplicate TYPE for {parts[2]}")
                else:
                    types[parts[2]] = parts[3]
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.find("}", brace)
            if close < 0:
                fail(findings, path, f"{where}: unterminated labels "
                     f"{line!r}")
                continue
            name = line[:brace]
            labels = parse_prom_labels(path, where, line[brace + 1:close],
                                       findings)
            if labels is None:
                continue
            rest = line[close + 1:].strip()
        else:
            fields = line.split()
            if len(fields) != 2:
                fail(findings, path, f"{where}: want 'name value', got "
                     f"{line!r}")
                continue
            name, rest = fields[0], fields[1]
            labels = {}
        if not METRIC_NAME_RE.match(name):
            fail(findings, path, f"{where}: bad metric name {name!r}")
            continue
        try:
            value = float(rest)
        except ValueError:
            fail(findings, path, f"{where}: bad sample value {rest!r}")
            continue
        samples.append((name, labels, value))
    return types, samples


def family_of(name: str, types: dict) -> str:
    """Histogram samples use <family>_bucket/_sum/_count names."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[:-len(suffix)] in types:
            return name[:-len(suffix)]
    return name


def check_prom(path: str, text: str, findings: list,
               counters: dict | None = None) -> None:
    """Validates one exposition; `counters` carries {series: value} across
    successive scrapes for the monotonicity check."""
    parsed = parse_prom_text(path, text, findings)
    if parsed is None:
        return
    types, samples = parsed
    hist_buckets: dict = {}  # (family, labels-minus-le) -> [(le, cum)]
    hist_counts: dict = {}
    for name, labels, value in samples:
        family = family_of(name, types)
        ftype = types.get(family)
        if ftype is None:
            fail(findings, path, f"sample {name} has no TYPE declaration")
            continue
        series = (name, tuple(sorted(labels.items())))
        if ftype == "counter":
            if value < 0:
                fail(findings, path, f"counter {name} is negative: {value}")
            if counters is not None:
                prev = counters.get(series)
                if prev is not None and value < prev:
                    fail(findings, path,
                         f"counter {series!r} went backwards: {prev} -> "
                         f"{value}")
                counters[series] = value
        elif ftype == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                fail(findings, path, f"{name}{labels!r} lacks an le label")
                continue
            key = (family,
                   tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le")))
            hist_buckets.setdefault(key, []).append((labels["le"], value))
        elif ftype == "histogram" and name.endswith("_count"):
            hist_counts[(family, tuple(sorted(labels.items())))] = value
    for (family, labels), buckets in sorted(hist_buckets.items()):
        cum = [b for _, b in buckets]  # exposition order == ascending le
        if any(b < a for a, b in zip(cum, cum[1:])):
            fail(findings, path,
                 f"histogram {family}{dict(labels)!r} buckets are not "
                 "cumulative")
        les = [le for le, _ in buckets]
        if les.count("+Inf") != 1 or les[-1] != "+Inf":
            fail(findings, path,
                 f"histogram {family}{dict(labels)!r} must end with one "
                 'le="+Inf" bucket')
        elif (family, labels) not in hist_counts:
            fail(findings, path,
                 f"histogram {family}{dict(labels)!r} lacks a _count "
                 "sample")
        elif hist_counts[(family, labels)] != cum[-1]:
            fail(findings, path,
                 f"histogram {family}{dict(labels)!r} +Inf bucket "
                 f"{cum[-1]} != _count {hist_counts[(family, labels)]}")


# -------------------------------------------------------------- self-test --

GOOD_TRACE = {"traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
     "args": {"name": "run"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
     "args": {"name": "rank 0"}},
    {"name": "sigma", "cat": "sigma", "ph": "X", "pid": 0, "tid": 0,
     "ts": 0.0, "dur": 10.0},
    {"name": "beta_side", "cat": "phase", "ph": "X", "pid": 0, "tid": 0,
     "ts": 0.0, "dur": 4.0},
    {"name": "mixed", "cat": "phase", "ph": "X", "pid": 0, "tid": 0,
     "ts": 4.0, "dur": 6.0},
    {"name": "dlb_claim", "cat": "dlb", "ph": "i", "pid": 0, "tid": 0,
     "ts": 5.0, "s": "t"},
]}

BAD_TRACE_CROSSING = {"traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
     "args": {"name": "rank 0"}},
    {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 5.0},
    {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 3.0, "dur": 5.0},
]}

BAD_TRACE_NEGATIVE = {"traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
     "args": {"name": "rank 0"}},
    {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": -2.0},
]}

BAD_TRACE_UNNAMED = {"traceEvents": [
    {"name": "a", "ph": "X", "pid": 0, "tid": 7, "ts": 0.0, "dur": 1.0},
]}

GOOD_METRICS = {
    "schema": "xfci-metrics-v1", "run": "t", "backend": "sim",
    "algorithm": "dgemm", "num_ranks": 2, "num_workers": 2,
    "dimension": 100, "models_cost": True, "total_seconds": 1.0,
    "total_flops": 1e9,
    "phases": {k: 0.0 for k in PHASE_KEYS},
    "totals": {k: 0.0 for k in PHASE_KEYS},
    "comm": {"dlb_calls": 3, "ops_dropped": 0, "ops_delayed": 0},
    "recovery": {"tasks_reassigned": 0, "ops_retried": 0, "ranks_lost": 0},
    "ranks": [{"rank": 0}, {"rank": 1}],
    "env": [{"name": "XFCI_GEMM_KERNEL", "set": False}],
    "solver": {"converged": True, "iterations": 2, "energy": -1.0,
               "energy_history": [-0.9, -1.0],
               "residual_history": [0.1, 0.001]},
}

GOOD_BENCH = {
    "schema": "xfci-bench-v1", "bench": "fig4",
    "config": {"backend": "sim"},
    "rows": [{"msps": 16, "t": 1.0}, {"msps": 32, "t": 0.5}],
    "total_seconds": 1.5,
}


GOOD_TELEMETRY = {
    "schema": "xfci-telemetry-v1",
    "wall_unix_seconds": 1.7e9,
    "histogram_bounds": [0.001, 0.002, 0.004],
    "metrics": [
        {"name": "xfci_serve_jobs_completed_total", "kind": "counter",
         "help": "h", "labels": {"priority": "batch"}, "value": 3},
        {"name": "xfci_serve_jobs_completed_total", "kind": "counter",
         "help": "h", "labels": {"priority": "interactive"}, "value": 0},
        {"name": "xfci_serve_queue_depth", "kind": "gauge", "help": "h",
         "labels": {}, "value": 0.0},
        {"name": "xfci_serve_job_stage_seconds", "kind": "histogram",
         "help": "h", "labels": {"stage": "solve"},
         "buckets": [1, 2, 0, 1], "sum": 0.005, "count": 4},
    ],
}

GOOD_PROM = """\
# HELP xfci_serve_jobs_completed_total Jobs finished.
# TYPE xfci_serve_jobs_completed_total counter
xfci_serve_jobs_completed_total{priority="batch"} 3
xfci_serve_jobs_completed_total{priority="interactive"} 0
# HELP xfci_serve_queue_depth Jobs waiting.
# TYPE xfci_serve_queue_depth gauge
xfci_serve_queue_depth 0
# HELP xfci_serve_job_stage_seconds Latency.
# TYPE xfci_serve_job_stage_seconds histogram
xfci_serve_job_stage_seconds_bucket{stage="solve",le="0.001"} 1
xfci_serve_job_stage_seconds_bucket{stage="solve",le="0.002"} 3
xfci_serve_job_stage_seconds_bucket{stage="solve",le="+Inf"} 4
xfci_serve_job_stage_seconds_sum{stage="solve"} 0.005
xfci_serve_job_stage_seconds_count{stage="solve"} 4
"""

BAD_PROM_NONCUMULATIVE = GOOD_PROM.replace(
    'le="0.002"} 3', 'le="0.002"} 0')
BAD_PROM_COUNT = GOOD_PROM.replace("_count{stage=\"solve\"} 4",
                                   "_count{stage=\"solve\"} 5")
BAD_PROM_LABEL = GOOD_PROM.replace('priority="batch"', 'priority=batch')
BAD_PROM_UNDECLARED = "xfci_mystery_total 1\n"


GOOD_SERVE_CACHE = {"enabled": True, "hits": 2, "misses": 1,
                    "evictions": 0, "resident_bytes": 4096,
                    "resident_entries": 1}
GOOD_SERVE_JOBS = [{
    "id": 0, "name": "h2.fcidump", "state": "done", "priority": "batch",
    "cache_hit": False, "sequence": 1, "queue_seconds": 0.0,
    "setup_seconds": 0.01, "solve_seconds": 0.02, "total_seconds": 0.03,
    "energy": -1.1, "converged": True,
}]


def self_test() -> int:
    failures = []
    cases = 0

    def expect(name, checker, doc, want_findings, **kw):
        nonlocal cases
        cases += 1
        findings: list = []
        checker("<self-test>", doc, findings, **kw)
        if want_findings and not findings:
            failures.append(f"{name}: expected findings, got none")
        if not want_findings and findings:
            failures.append(f"{name}: unexpected findings {findings}")

    expect("good trace passes", check_trace, GOOD_TRACE, False)
    expect("crossing spans caught", check_trace, BAD_TRACE_CROSSING, True)
    expect("negative duration caught", check_trace, BAD_TRACE_NEGATIVE, True)
    expect("unlabelled track caught", check_trace, BAD_TRACE_UNNAMED, True)
    expect("missing expected span caught", check_trace, GOOD_TRACE, True,
           expect_spans=["no_such_span"])
    expect("expected span found", check_trace, GOOD_TRACE, False,
           expect_spans=["sigma", "beta_side"])

    expect("good metrics pass", check_metrics, GOOD_METRICS, False)
    bad = dict(GOOD_METRICS, schema="wrong")
    expect("wrong metrics schema caught", check_metrics, bad, True)
    bad = dict(GOOD_METRICS, ranks=[{"rank": 0}])
    expect("rank row mismatch caught", check_metrics, bad, True)
    bad = dict(GOOD_METRICS)
    del bad["phases"]
    expect("missing phases caught", check_metrics, bad, True)
    bad = dict(GOOD_METRICS, totals={k: 0.0 for k in PHASE_KEYS
                                     if k != "mixed_comm_words"})
    expect("totals without mixed_comm_words caught", check_metrics, bad,
           True)
    bad = dict(GOOD_METRICS)
    del bad["env"]
    expect("missing env section caught", check_metrics, bad, True)
    bad = dict(GOOD_METRICS, env=[{"name": "X"}])
    expect("malformed env row caught", check_metrics, bad, True)
    bad = dict(GOOD_METRICS, env=[{"name": "X", "set": True}])
    expect("set env row without value caught", check_metrics, bad, True)
    good = dict(GOOD_METRICS,
                env=[{"name": "X", "set": True, "value": "portable"}])
    expect("set env row with value passes", check_metrics, good, False)

    # serve::Engine extensions: cache statistics + per-job rows.
    good = dict(GOOD_METRICS, backend="serve", cache=GOOD_SERVE_CACHE,
                jobs=GOOD_SERVE_JOBS)
    expect("serve metrics with cache/jobs pass", check_metrics, good, False)
    bad = dict(good, cache=dict(GOOD_SERVE_CACHE, misses=-1))
    expect("negative cache count caught", check_metrics, bad, True)
    bad = dict(good, cache="warm")
    expect("non-object cache caught", check_metrics, bad, True)
    incomplete = {k: v for k, v in GOOD_SERVE_CACHE.items()
                  if k != "evictions"}
    bad = dict(good, cache=incomplete)
    expect("missing cache key caught", check_metrics, bad, True)
    bad = dict(good, jobs=[dict(GOOD_SERVE_JOBS[0], state="exploded")])
    expect("unknown job state caught", check_metrics, bad, True)
    bad = dict(good, jobs=[{k: v for k, v in GOOD_SERVE_JOBS[0].items()
                            if k != "sequence"}])
    expect("job row missing key caught", check_metrics, bad, True)
    bad = dict(good, jobs={"0": GOOD_SERVE_JOBS[0]})
    expect("non-array jobs caught", check_metrics, bad, True)

    # Telemetry snapshots (xfci-telemetry-v1).
    expect("good telemetry passes", check_telemetry, GOOD_TELEMETRY, False)
    bad = dict(GOOD_TELEMETRY, schema="wrong")
    expect("wrong telemetry schema caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, histogram_bounds=[0.002, 0.001, 0.004])
    expect("non-increasing bounds caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY,
               metrics=GOOD_TELEMETRY["metrics"][:1] * 2)
    expect("duplicate series caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, metrics=[
        dict(GOOD_TELEMETRY["metrics"][0], name="bad name!")])
    expect("bad metric name caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, metrics=[
        dict(GOOD_TELEMETRY["metrics"][0], value=-1)])
    expect("negative counter caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, metrics=[
        dict(GOOD_TELEMETRY["metrics"][0], value=2.5)])
    expect("non-integer counter caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, metrics=[
        dict(GOOD_TELEMETRY["metrics"][3], count=7)])
    expect("histogram count mismatch caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, metrics=[
        dict(GOOD_TELEMETRY["metrics"][3], buckets=[1, 2])])
    expect("short histogram caught", check_telemetry, bad, True)
    bad = dict(GOOD_TELEMETRY, metrics=[
        dict(GOOD_TELEMETRY["metrics"][0],
             labels={"le with space": "x"})])
    expect("bad label key caught", check_telemetry, bad, True)

    # Prometheus text exposition.
    expect("good prom passes", check_prom, GOOD_PROM, False)
    expect("non-cumulative buckets caught", check_prom,
           BAD_PROM_NONCUMULATIVE, True)
    expect("bucket/count mismatch caught", check_prom, BAD_PROM_COUNT, True)
    expect("unquoted label value caught", check_prom, BAD_PROM_LABEL, True)
    expect("undeclared family caught", check_prom, BAD_PROM_UNDECLARED,
           True)
    # Successive scrapes: a counter that goes backwards must be caught,
    # monotonic ones must pass.
    counters: dict = {}
    monotonic: list = []
    check_prom("<scrape 1>", GOOD_PROM, monotonic, counters=counters)
    check_prom("<scrape 2>",
               GOOD_PROM.replace('priority="batch"} 3',
                                 'priority="batch"} 5'),
               monotonic, counters=counters)
    cases += 1
    if monotonic:
        failures.append(f"monotonic scrapes: unexpected {monotonic}")
    regressed: list = []
    check_prom("<scrape 3>",
               GOOD_PROM.replace('priority="batch"} 3',
                                 'priority="batch"} 1'),
               regressed, counters=counters)
    cases += 1
    if not regressed:
        failures.append("backwards counter across scrapes not caught")

    expect("good bench passes", check_bench, GOOD_BENCH, False)
    bad = dict(GOOD_BENCH, rows=[])
    expect("empty bench rows caught", check_bench, bad, True)
    bad = dict(GOOD_BENCH, rows=[{"a": 1}, {"b": 2}])
    expect("inconsistent bench columns caught", check_bench, bad, True)
    bad = dict(GOOD_BENCH, total_seconds="fast")
    expect("non-numeric total_seconds caught", check_bench, bad, True)

    # End-to-end through temp files and the main() driver.
    with tempfile.TemporaryDirectory() as tmp:
        tp = os.path.join(tmp, "t.json")
        mp = os.path.join(tmp, "m.json")
        bp = os.path.join(tmp, "b.json")
        yp = os.path.join(tmp, "y.json")
        pp = os.path.join(tmp, "p.prom")
        for p, doc in ((tp, GOOD_TRACE), (mp, GOOD_METRICS),
                       (bp, GOOD_BENCH), (yp, GOOD_TELEMETRY)):
            with open(p, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with open(pp, "w", encoding="utf-8") as fh:
            fh.write(GOOD_PROM)
        rc = run(["--trace", tp, "--metrics", mp, "--bench", bp,
                  "--telemetry", yp, "--prom", pp, "--prom", pp,
                  "--expect-spans", "sigma"])
        if rc != 0:
            failures.append(f"end-to-end valid files: exit {rc}, want 0")
        with open(tp, "w", encoding="utf-8") as fh:
            fh.write("not json")
        rc = run(["--trace", tp])
        if rc != 1:
            failures.append(f"end-to-end broken file: exit {rc}, want 1")

    if failures:
        print("check_trace self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"check_trace self-test passed ({cases} cases).")
    return 0


# ------------------------------------------------------------------- main --

def run(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", action="append", default=[],
                    help="Chrome-trace JSON file to validate")
    ap.add_argument("--metrics", action="append", default=[],
                    help="xfci-metrics-v1 run report to validate")
    ap.add_argument("--bench", action="append", default=[],
                    help="xfci-bench-v1 report to validate")
    ap.add_argument("--telemetry", action="append", default=[],
                    help="xfci-telemetry-v1 snapshot to validate")
    ap.add_argument("--prom", action="append", default=[],
                    help="Prometheus /metrics scrape to validate; several "
                         "are checked as successive scrapes (counters "
                         "must be monotonic)")
    ap.add_argument("--expect-spans", default="",
                    help="comma-separated span names every --trace file "
                         "must contain")
    ap.add_argument("--self-test", action="store_true",
                    help="run the validator's own seeded-document tests")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not (args.trace or args.metrics or args.bench or args.telemetry
            or args.prom):
        ap.print_usage(sys.stderr)
        return 2

    expect_spans = [s for s in args.expect_spans.split(",") if s]
    findings: list = []
    for path in args.trace:
        doc = load_json(path, findings)
        if doc is not None:
            check_trace(path, doc, findings, expect_spans=expect_spans)
    for path in args.metrics:
        doc = load_json(path, findings)
        if doc is not None:
            check_metrics(path, doc, findings)
    for path in args.bench:
        doc = load_json(path, findings)
        if doc is not None:
            check_bench(path, doc, findings)
    for path in args.telemetry:
        doc = load_json(path, findings)
        if doc is not None:
            check_telemetry(path, doc, findings)
    counters: dict = {}
    for path in args.prom:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            fail(findings, path, f"unreadable: {exc}")
            continue
        check_prom(path, text, findings, counters=counters)

    for f in findings:
        print(f)
    if findings:
        print(f"check_trace: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    nfiles = (len(args.trace) + len(args.metrics) + len(args.bench) +
              len(args.telemetry) + len(args.prom))
    print(f"check_trace: {nfiles} file(s) valid.")
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
