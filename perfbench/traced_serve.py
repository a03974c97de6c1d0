"""Run ``repro serve`` with spans recorded around public calls.

Usage: ``python traced_serve.py SPANS.json serve [serve args...]``
with ``src`` on ``PYTHONPATH``.

Nothing inside ``src/`` is changed: before the server starts, this
launcher replaces a fixed list of public functions and methods with
wrappers that time each call.  A span is ``[op, name, layer, start,
end, parent]``: ``op`` is the request's ``X-Repro-Query-Id`` (the
client sets it to the op id; ``setup`` before the first request),
``parent`` the index of the enclosing span on the same thread, or
``-1``.  Spans stay in memory and are written to SPANS.json when the
server exits.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter

_spans: list[list] = []
_spans_lock = threading.Lock()
_local = threading.local()


def _stack() -> list[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _wrap(function, name: str, layer: str, top: bool = False):
    @functools.wraps(function)
    def timed(*args, **kwargs):
        if top:
            # QueryServer._post(self, handler): the request's op id
            _local.op = args[1].headers.get("X-Repro-Query-Id", "?")
        stack = _stack()
        span = [getattr(_local, "op", "setup"), name, layer, 0.0, 0.0,
                stack[-1] if stack else -1]
        with _spans_lock:
            index = len(_spans)
            _spans.append(span)
        stack.append(index)
        span[3] = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            stack.pop()
            if top:
                _local.op = "idle"
    return timed


def install() -> None:
    """Wrap the public calls of each layer, in request-path order."""
    from repro import session as session_module
    from repro.engine.compiled import CompiledEngine
    from repro.engine.query import Query
    from repro.engine.seminaive import SemiNaiveEngine
    from repro.flight import FlightRecorder
    from repro.ra.answers import AnswerSet
    from repro.ra.database import Database
    from repro.server import QueryServer
    from repro.service import EpochManager, QueryService
    from repro.session import DeductiveDatabase

    methods = [
        (QueryServer, "_post", "server.handle", "server"),
        (FlightRecorder, "context", "flight.context", "flight"),
        (FlightRecorder, "finalize", "flight.finalize", "flight"),
        (QueryService, "run", "service.run", "service"),
        (QueryService, "apply_batch", "service.apply_batch", "service"),
        (EpochManager, "apply", "service.epoch_apply", "service"),
        (DeductiveDatabase, "load", "session.load", "session"),
        (DeductiveDatabase, "query", "session.query", "session"),
        (DeductiveDatabase, "add_facts", "session.add_facts",
         "session"),
        (DeductiveDatabase, "fork_reader", "session.fork_reader",
         "session"),
        (Database, "copy", "ra.db_copy", "ra"),
        (AnswerSet, "sorted_rows", "ra.decode", "ra"),
        (CompiledEngine, "evaluate", "engine.evaluate", "engine"),
        (SemiNaiveEngine, "evaluate", "engine.evaluate", "engine"),
    ]
    for owner, attribute, name, layer in methods:
        setattr(owner, attribute,
                _wrap(getattr(owner, attribute), name, layer,
                      top=(name == "server.handle")))
    # the session calls these through its own module namespace
    for attribute, name, layer in [
            ("parse_program", "datalog.parse_program", "datalog"),
            ("classify", "core.classify", "core"),
            ("compile_query", "core.compile_query", "core")]:
        setattr(session_module, attribute,
                _wrap(getattr(session_module, attribute), name, layer))
    parse = Query.parse.__func__
    Query.parse = classmethod(_wrap(parse, "datalog.query_parse",
                                    "datalog"))


def main(argv: list[str]) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    install()
    from repro.cli import main as cli_main
    try:
        return cli_main(serve_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(_spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
