"""End-to-end benchmark of ``repro serve``: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point-read --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` is the untraced run: the server starts ``SETUPS`` times
(the last one serves the timed phase), the closed loop runs for
``--seconds`` and the end-to-end metrics are printed.  ``--trace 1``
is the traced pass: the same seed and op sequence run once untraced
(reference walls and the responses' exact ``stats`` counters) and once
against a server whose public calls are wrapped (``traced_serve.py``);
it prints the per-layer metrics and writes a spans file and a
self-time table to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/NOTES.md`` for the workloads, the metric definitions and
the stability runs behind the bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import OUT, SRC, Server, run_op  # noqa: E402
from spans import dump, layer_report, with_client_spans  # noqa: E402
from workloads import (RULES, WORKLOADS, ExportChecker,  # noqa: E402
                       Workload)

#: server starts per untraced run; setup_s is their median
SETUPS = 5
#: share of --seconds given to the untraced reference in --trace 1
REFERENCE_SHARE = 0.4


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Loop:
    """Drives a workload's ops against one server, closed-loop."""

    def __init__(self, workload: Workload, server: Server,
                 traced: bool = False) -> None:
        self.workload = workload
        self.server = server
        self.traced = traced
        self.checker = (ExportChecker(workload)
                        if workload.name == "bulk-export" else None)
        self.conn = (server.connect()
                     if workload.connection == "keep-alive" else None)
        self.phases: dict[str, list] = {}

    def send(self, op, op_id: str):
        headers = extra = None
        if self.traced:
            headers = {"X-Repro-Query-Id": op_id}
            if op.kind == "read":
                extra = {"trace": True}
        sample = run_op(self.server, op, op_id, self.conn, self.checker,
                        extra=extra, headers=headers)
        if self.traced and op.kind == "read" and sample.status == 200:
            # outside the op's wall, on its own connection
            status, payload = self.server.request(
                "GET", f"/debug/traces/{op_id}")
            if status == 200:
                self.phases[op_id] = json.loads(payload)["phases"]
        return sample

    def warm_up(self) -> None:
        for index, op in enumerate(self.workload.warmup):
            sample = self.send(op, f"w-{index}")
            if not sample.ok:
                raise RuntimeError(f"warm-up op {index} failed "
                                   f"(status {sample.status})")

    def timed(self, seconds: float) -> tuple[list, float]:
        """Run the workload's ops in order until *seconds* have passed."""
        samples = []
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            deadline = started + seconds
            for index, op in enumerate(self.workload.ops):
                if perf_counter() >= deadline:
                    break
                samples.append(self.send(op, f"op-{index}"))
            wall = perf_counter() - started
        finally:
            gc.enable()
        return samples, wall

    def probes(self) -> list:
        """point-read's write probes, on one persistent connection."""
        if not self.workload.probe_writes:
            return []
        self.conn = self.server.connect()
        return [self.send(op, f"probe-{index}")
                for index, op in enumerate(self.workload.probe_writes)]

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


def _write_program(workload: Workload, seed: int) -> tuple[Path, str]:
    """Write the workload's program; return its path and the run's stem."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-{seed}"
    program = OUT / f"{stem}.dl"
    program.write_text(workload.program(), encoding="utf-8")
    return program, stem


def dump_samples(path: Path, samples: list) -> None:
    """One row per op: id, kind, status, ok, wall and server time."""
    path.write_text(json.dumps(
        [[s.op_id, s.kind, s.status, s.ok, s.wall_s * 1000,
          s.duration_s] for s in samples]), encoding="utf-8")


def workload_checks(workload: Workload, reads: list) -> list[str]:
    """What each workload claims about the answer cache."""
    hits = [s.stats.get("answer_cache_hits", 0) for s in reads
            if s.stats is not None]
    problems = []
    if workload.name in ("point-read", "bulk-export"):
        if any(hits):
            problems.append(f"{workload.name}: {sum(hits)} reads hit "
                            "the answer cache")
    elif not any(hits):
        problems.append("read-write: no read hit the answer cache")
    return problems


def untraced(workload: Workload, seed: int, seconds: float) -> dict:
    program, stem = _write_program(workload, seed)
    setups = []
    for _ in range(SETUPS - 1):
        server = Server(program, OUT / f"{stem}-server.log")
        setups.append(server.setup_s)
        server.stop()
    server = Server(program, OUT / f"{stem}-server.log")
    setups.append(server.setup_s)
    try:
        loop = Loop(workload, server)
        loop.warm_up()
        cpu_before = server.cpu_s()
        samples, wall = loop.timed(seconds)
        cpu = server.cpu_s() - cpu_before
        peak_rss_mb = server.peak_rss_mb()
        probes = loop.probes()
        loop.close()
    finally:
        server.stop()
    dump_samples(OUT / f"{stem}-samples.json", samples + probes)
    reads = [s for s in samples if s.kind == "read" and s.ok]
    writes = [s for s in samples + probes if s.kind == "write" and s.ok]
    ok = sum(s.ok for s in samples + probes)
    attempted = len(samples) + len(probes)
    problems = workload_checks(workload, reads)
    read_ms = [s.wall_s * 1000 for s in reads]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "read_p50_ms": metric(statistics.median(read_ms), "ms"),
        "read_p90_ms": metric(statistics.quantiles(
            read_ms, n=10, method="inclusive")[8], "ms"),
        "write_p50_ms": metric(
            statistics.median(s.wall_s * 1000 for s in writes), "ms"),
        "ops_per_s": metric(len(samples) / wall, "1/s"),
        "server_cpu_ms_per_op": metric(cpu * 1000 / len(samples), "ms"),
        "ok_ratio": metric(ok / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }
    diagnostics = {
        "reads": len(reads), "writes": len(writes),
        "reads_beyond_p90": sum(v > metrics["read_p90_ms"]["value"]
                                for v in read_ms),
        "setups_s": setups, "problems": problems,
        "hit_share": (sum(s.stats["answer_cache_hits"] for s in reads)
                      / max(1, len(reads))),
    }
    return {"correct": ok == attempted and not problems,
            "attempted": attempted, "failed": attempted - ok,
            "metrics": metrics, "diagnostics": diagnostics}


def _stats_metrics(reads: list) -> dict:
    """The *(stats)* per-layer metrics: exact response counters."""
    def total(key: str) -> int:
        return sum(s.stats.get(key, 0) for s in reads)
    n = max(1, len(reads))
    lookups = total("plan_cache_hits") + total("plan_cache_misses")
    return {
        "core.plan_cache_hit_ratio": metric(
            total("plan_cache_hits") / lookups if lookups else 0.0,
            "ratio"),
        "session.answer_cache_hit_ratio": metric(
            total("answer_cache_hits") / n, "ratio"),
        "engine.rounds_per_read": metric(total("rounds") / n, "count"),
        "engine.probes_per_read": metric(total("probes") / n, "count"),
        "engine.derived_per_read": metric(total("derived") / n,
                                          "count"),
        "engine.vector_rows_per_read": metric(
            total("vector_rows") / n, "count"),
        "engine.answers_per_derived": metric(
            total("answers") / max(1, total("derived")), "ratio"),
    }


def _direct_timings(workload: Workload, text: str) -> dict:
    """Public calls timed in this process: parse, classify, compile."""
    sys.path.insert(0, str(SRC))
    from repro.core.classifier import classify
    from repro.core.compile import compile_query
    from repro.datalog.parser import parse_program
    from repro.engine.query import Query
    from repro.session import DeductiveDatabase

    started = perf_counter()
    parse_program(text)
    parse_ms = (perf_counter() - started) * 1000
    session = DeductiveDatabase()
    session.load(RULES)
    system = session.system_for("P")
    adornments = {Query.parse(op.body["query"]).adornment
                  for op in workload.ops[:64] if op.kind == "read"}

    def best_of(call, repeat: int = 5) -> float:
        times = []
        for _ in range(repeat):
            started = perf_counter()
            call()
            times.append((perf_counter() - started) * 1000)
        return statistics.median(times)

    classification = classify(system)
    return {
        "datalog.parse_program_ms": metric(parse_ms, "ms"),
        "core.classify_ms": metric(best_of(lambda: classify(system)),
                                   "ms"),
        "core.compile_query_ms": metric(
            sum(best_of(lambda a=a: compile_query(system, a,
                                                  classification))
                for a in sorted(adornments)), "ms"),
    }


def traced(workload: Workload, seed: int, seconds: float) -> dict:
    program, stem = _write_program(workload, seed)

    # 1. untraced reference: walls per op type and exact stats
    server = Server(program, OUT / f"{stem}-server.log")
    try:
        loop = Loop(workload, server)
        loop.warm_up()
        reference, _ = loop.timed(seconds * REFERENCE_SHARE)
        reference += loop.probes()
        loop.close()
    finally:
        server.stop()

    # 2. traced pass: same ops, spans recorded inside the server
    spans_path = OUT / f"{stem}-spans.json"
    server = Server(program, OUT / f"{stem}-traced.log", spans=spans_path)
    try:
        loop = Loop(workload, server, traced=True)
        loop.warm_up()
        samples, _ = loop.timed(seconds * (1 - REFERENCE_SHARE))
        samples += loop.probes()
        loop.close()
    finally:
        server.stop()
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    dump(spans_path, with_client_spans(spans, samples))

    report = layer_report(workload, spans, samples, reference,
                          loop.phases)
    (OUT / f"{stem}-layers.txt").write_text(report.pop("table"),
                                            encoding="utf-8")
    reads = [s for s in reference if s.kind == "read" and s.ok]
    metrics = dict(report["metrics"])
    metrics.update(_stats_metrics(reads))
    metrics.update(_direct_timings(workload, workload.program()))
    everything = reference + samples
    ok = sum(s.ok for s in everything)
    problems = workload_checks(workload, reads) + report["problems"]
    return {"correct": ok == len(everything) and not problems,
            "attempted": len(everything),
            "failed": len(everything) - ok,
            "metrics": metrics,
            "diagnostics": {"problems": problems}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else untraced
    result = run(workload, args.seed, args.seconds)
    diagnostics = result.pop("diagnostics")
    print(json.dumps(diagnostics), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
