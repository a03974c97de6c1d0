"""Per-layer numbers from the traced pass.

Inputs: the server's spans (``traced_serve.py``), the client's
samples of the same ops (wall time, response ``duration_s``) and the
service phases read back from ``GET /debug/traces/<op id>``.

A span's *self time* is its duration minus the durations of its
direct children.  Per op, the self times of the server's spans add up
to the duration of its top span (``server.handle``), so

    HTTP wall = sum over layers of self time + unattributed

holds exactly, where ``unattributed`` is the wall outside
``server.handle``: connect, request parsing by the stdlib handler,
kernel and wire time, and anything a layer does that no wrapped call
covers.  Server and client share ``CLOCK_MONOTONIC``, so the spans
line up: the part of ``server.handle`` that runs after the client has
read the whole response (freeing the rendered body of a large answer,
after the last socket write and outside every child span) is not on
the op's wall.  It is taken out of the server's self time and shown
as ``post_response`` in the self-time table.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

LAYERS = ("server", "flight", "service", "session", "datalog", "core",
          "ra", "engine")

#: per-layer metric -> (span name, op kind, scale to the unit)
SPAN_METRICS = {
    "datalog.query_parse_us": ("datalog.query_parse", "read", 1e6),
    "session.query_ms": ("session.query", "read", 1e3),
    "session.fork_reader_ms": ("session.fork_reader", "write", 1e3),
    "ra.db_copy_ms": ("ra.db_copy", "read", 1e3),
    "ra.decode_ms": ("ra.decode", "read", 1e3),
    "engine.evaluate_ms": ("engine.evaluate", "read", 1e3),
    "service.run_ms": ("service.run", "read", 1e3),
    "service.apply_batch_ms": ("service.apply_batch", "write", 1e3),
}

#: per-layer metric -> flight-recorder phase name (reads, ms)
PHASE_METRICS = {
    "server.decode_ms": "decode",
    "server.render_ms": "render",
    "service.admission_wait_ms": "admission",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    return "us" if name.endswith("_us") else "ms"


def per_op(spans: list[list]) -> dict[str, dict]:
    """Group spans by op: durations per name, self time per layer."""
    children = defaultdict(float)
    for op, _, _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    ops: dict[str, dict] = {}
    for index, (op, name, layer, start, end, parent) in enumerate(spans):
        entry = ops.setdefault(op, {"names": defaultdict(float),
                                    "self": defaultdict(float),
                                    "top": 0.0, "end": 0.0})
        duration = end - start
        entry["names"][name] += duration
        entry["self"][layer] += duration - children[index]
        if parent < 0:
            entry["top"] += duration
            entry["end"] = max(entry["end"], end)
    return ops


def clip_to_wall(ops: dict, samples: list) -> dict[str, float]:
    """Take server work past each op's client wall off its self time.

    Returns the overhang per op id (seconds).
    """
    overhang = {}
    for s in samples:
        entry = ops[s.op_id]
        tail = max(0.0, entry["end"] - (s.started + s.wall_s))
        entry["self"]["server"] -= tail
        entry["top"] -= tail
        overhang[s.op_id] = tail
    return overhang


def layer_report(workload, spans: list[list], samples: list,
                 reference: list, phases: dict) -> dict:
    """Per-layer metrics, the self-time table and identity problems."""
    ops = per_op(spans)
    timed = [s for s in samples if s.ok and s.op_id in ops]
    problems = []
    if len(timed) < len([s for s in samples if s.ok]):
        problems.append("traced ops without server spans")

    overhang = clip_to_wall(ops, timed)
    metrics = {}
    for metric, (name, kind, scale) in SPAN_METRICS.items():
        values = [ops[s.op_id]["names"][name] * scale for s in timed
                  if s.kind == kind and name in ops[s.op_id]["names"]]
        metrics[metric] = _metric(_median(values), _unit(metric))
    traced_reads = [s for s in timed if s.kind == "read"]
    for metric, phase in PHASE_METRICS.items():
        values = [span["duration_s"] * 1e3
                  for s in traced_reads
                  for span in phases.get(s.op_id, ())
                  if span["name"] == phase]
        metrics[metric] = _metric(_median(values), "ms")
    metrics["server.overhead_ms"] = _metric(_median(
        [(s.wall_s - s.duration_s) * 1e3 for s in traced_reads]), "ms")
    metrics["server.keepalive_stall_ms"] = _metric(_median(
        [(s.wall_s - ops[s.op_id]["names"]["server.handle"]) * 1e3
         for s in timed]), "ms")
    ref_reads = [s for s in reference if s.kind == "read" and s.ok]
    metrics["server.bytes_per_row"] = _metric(
        sum(s.body_bytes for s in ref_reads)
        / max(1, sum(s.rows for s in ref_reads)), "bytes")
    for kind, metric in (("read", "flight.traced_overhead_ratio"),
                         ("write", "flight.traced_overhead_ratio_write")):
        untraced = {s.op_id: s.wall_s for s in reference
                    if s.kind == kind and s.ok}
        common = [s for s in timed if s.kind == kind
                  and s.op_id in untraced]
        ratio = (_median([s.wall_s for s in common])
                 / _median([untraced[s.op_id] for s in common])
                 if common else 0.0)
        metrics[metric] = _metric(ratio, "ratio")

    # self-time table: mean per op, so the columns add up to the wall
    rows = {"all": timed,
            "read": [s for s in timed if s.kind == "read"],
            "write": [s for s in timed if s.kind == "write"]}
    table = {}
    for label, group in rows.items():
        n = max(1, len(group))
        line = {layer: sum(ops[s.op_id]["self"][layer] for s in group)
                * 1e3 / n for layer in LAYERS}
        line["unattributed"] = sum(s.wall_s - ops[s.op_id]["top"]
                                   for s in group) * 1e3 / n
        line["http_wall"] = sum(s.wall_s for s in group) * 1e3 / n
        line["post_response"] = sum(overhang[s.op_id]
                                    for s in group) * 1e3 / n
        line["ops"] = len(group)
        table[label] = line
    for s in timed:
        attributed = sum(ops[s.op_id]["self"].values())
        unattributed = s.wall_s - ops[s.op_id]["top"]
        if abs(attributed + unattributed - s.wall_s) > 1e-9:
            problems.append(f"{s.op_id}: layers + unattributed != wall")
            break
        if unattributed < -1e-9:
            problems.append(f"{s.op_id}: server starts before the "
                            "client sends")
            break
    for layer in LAYERS:
        if layer != "core":  # plans compile in warm-up: often exactly 0
            metrics[f"selftime.{layer}_ms"] = _metric(
                table["all"][layer], "ms")
    # all layers, core included: attributed + unattributed = http_wall
    metrics["attributed_ms"] = _metric(
        sum(table["all"][layer] for layer in LAYERS), "ms")
    metrics["unattributed_ms"] = _metric(table["all"]["unattributed"],
                                         "ms")
    metrics["http_wall_ms"] = _metric(table["all"]["http_wall"], "ms")
    repeats = [op.repeat for op in workload.ops[:len(
        [s for s in samples if s.op_id.startswith("op-")])]
        if op.kind == "read"]
    metrics["session.repeat_key_share"] = _metric(
        sum(repeats) / max(1, len(repeats)), "ratio")
    return {"metrics": metrics, "problems": problems,
            "table": render_table(workload.name, table)}


def render_table(name: str, table: dict) -> str:
    columns = (*LAYERS, "unattributed", "http_wall", "post_response")
    lines = [f"self time per op (ms, mean) -- {name}",
             "layers + unattributed = http_wall; post_response is server "
             "work after the client read the reply (off the wall)",
             "kind   ops  " + "  ".join(f"{c:>12}" for c in columns)]
    for label, line in table.items():
        lines.append(f"{label:<5} {line['ops']:>4}  " + "  ".join(
            f"{line[c]:>12.3f}" for c in columns))
    return "\n".join(lines) + "\n"


def with_client_spans(spans: list[list], samples: list) -> list[list]:
    """The server's spans plus one ``client.http`` root per op.

    Server top spans become children of their op's client span, so
    the file holds each op's whole tree in request-path order.
    """
    merged = [list(span) for span in spans]
    roots = {}
    for sample in samples:
        roots[sample.op_id] = len(merged)
        merged.append([sample.op_id, "client.http", "client",
                       sample.started, sample.started + sample.wall_s,
                       -1])
    for span in merged:
        if span[5] < 0 and span[1] != "client.http" and span[0] in roots:
            span[5] = roots[span[0]]
    return merged


def dump(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["op", "name", "layer", "start", "end",
                              "parent"], "spans": spans}, handle)
