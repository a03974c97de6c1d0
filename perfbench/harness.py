"""Server process control and the single-client HTTP loop.

The server is ``python -m repro serve`` started from the checkout's
``src`` tree, always with ``--trace-sample 0`` so no request is put on
the tracer path by the unseeded sampler.  The client is this one
process, one request in flight at a time.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import encode

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

_TICKS = os.sysconf("SC_CLK_TCK")
#: longest a server may take to print its banner
START_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, program: Path, log: Path,
                 spans: Path | None = None) -> None:
        """Spawn and block until ``/healthz`` answers 200.

        With *spans*, the server runs under ``traced_serve.py``, which
        records spans around public calls and writes them to *spans*
        when the server exits.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        serve = ["serve", "--port", "0", "--trace-sample", "0",
                 str(program)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(HERE / "traced_serve.py"),
                    str(spans), *serve]
        started = perf_counter()
        self._log = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
            text=True)
        # a server that never prints its banner is killed, which ends
        # the readline below with an empty line
        watchdog = threading.Timer(START_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            banner = self.process.stdout.readline()
            if not banner.startswith("serving on http://"):
                raise RuntimeError(f"server did not start (see {log})")
            self.host, port = banner.strip()[len("serving on http://"):] \
                .rsplit(":", 1)
            self.port = int(port)
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        #: spawn to first 200 from /healthz
        self.setup_s = perf_counter() - started

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=120)

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None,
                conn: http.client.HTTPConnection | None = None
                ) -> tuple[int, bytes]:
        own = conn is None
        if own:
            conn = self.connect()
        try:
            conn.request(method, path, body, headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            if own:
                conn.close()

    def cpu_s(self) -> float:
        """utime + stime of the server process, from /proc."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Sample:
    """What one op did, as the client saw it."""

    __slots__ = ("op_id", "kind", "started", "wall_s", "status", "ok",
                 "stats", "duration_s", "body_bytes", "rows")

    def __init__(self, op_id: str, kind: str, started: float,
                 wall_s: float, status: int) -> None:
        self.op_id = op_id
        self.kind = kind
        #: perf_counter at send (CLOCK_MONOTONIC, shared with the server)
        self.started = started
        self.wall_s = wall_s
        self.status = status
        self.ok = False
        self.stats: dict | None = None
        self.duration_s: float | None = None
        self.body_bytes = 0
        self.rows = 0


def run_op(server: Server, op, op_id: str, conn, checker,
           extra: dict | None = None, headers: dict | None = None
           ) -> Sample:
    """Send one op, time it, check its answer against the oracle.

    The wall time covers connect (fresh connections), send and the
    full response read; parsing and checking happen after it.
    """
    body = encode(op, extra)
    started = perf_counter()
    status, payload = server.request("POST", op.path, body, headers,
                                     conn)
    sample = Sample(op_id, op.kind, started, perf_counter() - started,
                    status)
    if status != 200:
        return sample
    document = json.loads(payload)
    sample.duration_s = document.get("duration_s")
    sample.body_bytes = len(payload)
    if op.kind == "write":
        sample.ok = "epoch" in document
        return sample
    if document.get("outcome") != "ok":
        return sample
    sample.stats = document.get("stats")
    answers = document.get("answers", [])
    sample.rows = len(answers)
    if op.expected is not None:
        sample.ok = ({tuple(row) for row in answers} == op.expected)
    else:
        sample.ok = checker.check(answers, op.spurs_before)
    return sample
