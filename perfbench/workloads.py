"""Seeded workload generation with a closed-form answer oracle.

Every workload serves the same linear recursion, the transitive
closure of parallel chains (class A1 in the paper's catalogue)::

    P(x, y) :- A(x, z), P(z, y).
    P(x, y) :- B(x, y).

Chain ``c`` has nodes ``c{c}n0 .. c{c}n{L}`` and the edges
``A(n_i, n_i+1)`` and ``B(n_i, n_i+1)``, so ``P(c{c}n{j}, Y)`` is
exactly ``{n_k : j < k <= L}``.  Writes that touch the queried
relations add *spurs*: ``B(c{c}n{k}, s{m})`` with a fresh leaf
``s{m}``, which adds ``s{m}`` to the answers of every ``n_j`` with
``j <= k`` on that chain.  Writes outside the queries' dependency
cone go to ``Audit``, which no rule reads.  The oracle therefore
never evaluates Datalog: it is arithmetic over (chain, position,
spurs), independent of the engines under test.

The server receives only the generated program text and the request
bodies built here; the seed drives the keys, the skew and the writes.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field

#: chain length (edges per chain), the ROADMAP baseline's shape
CHAIN_LENGTH = 8

RULES = ("P(x, y) :- A(x, z), P(z, y).\n"
         "P(x, y) :- B(x, y).\n")


def node(chain: int, position: int) -> str:
    return f"c{chain}n{position}"


def chain_program(chains: int) -> str:
    """Rules plus ``chains`` parallel chains and one ``Audit`` fact."""
    lines = [RULES]
    for c in range(chains):
        for i in range(CHAIN_LENGTH):
            edge = f"({node(c, i)}, {node(c, i + 1)})."
            lines.append(f"A{edge}\nB{edge}\n")
    lines.append("Audit(a0, a0).\n")
    return "".join(lines)


@dataclass
class Op:
    """One HTTP request of the closed loop and what it must return."""

    kind: str                      # "read" or "write"
    path: str                      # "/query" or "/facts"
    body: dict
    #: reads: the exact answer rows; ``None`` for full exports, whose
    #: expectation is rebuilt incrementally (see :class:`ExportChecker`)
    expected: frozenset | None = None
    #: full exports: how many spur writes precede this export
    spurs_before: int = 0
    #: reads: predicted to repeat a key already read in this epoch
    repeat: bool = False


@dataclass
class Workload:
    """A program size, a connection policy and the ops to send.

    Every workload is a closed loop from one client process.
    """

    name: str
    chains: int
    connection: str                # "fresh" or "keep-alive"
    warmup: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    #: point-read only: write batches sent after the timed phase
    probe_writes: list = field(default_factory=list)
    #: bulk-export only: spur rows in write order, (x, leaf) pairs
    spur_rows: list = field(default_factory=list)

    def program(self) -> str:
        return chain_program(self.chains)


class Oracle:
    """Closed-form answers for chains plus spurs, tracking writes."""

    def __init__(self, chains: int) -> None:
        self.chains = chains
        self.spurs: dict[int, list[tuple[int, str]]] = {}
        self.leaves = 0

    def answers(self, chain: int, position: int) -> frozenset:
        x = node(chain, position)
        rows = {(x, node(chain, k))
                for k in range(position + 1, CHAIN_LENGTH + 1)}
        rows.update((x, leaf) for k, leaf in self.spurs.get(chain, ())
                    if k >= position)
        return frozenset(rows)

    def add_spur(self, rng: random.Random) -> tuple[int, int, str]:
        chain = rng.randrange(self.chains)
        position = rng.randrange(CHAIN_LENGTH)
        leaf = f"s{self.leaves}"
        self.leaves += 1
        self.spurs.setdefault(chain, []).append((position, leaf))
        return chain, position, leaf


def full_closure(chains: int) -> list[list[str]]:
    """Sorted rows of ``P(X, Y)`` before any write."""
    rows = [[node(c, j), node(c, k)] for c in range(chains)
            for j in range(CHAIN_LENGTH)
            for k in range(j + 1, CHAIN_LENGTH + 1)]
    rows.sort()
    return rows


class ExportChecker:
    """Incremental expectation for full exports under spur writes.

    Holds the sorted expected rows and folds in each spur's rows as
    the client passes the write that added it, so checking an export
    costs one list comparison (a set comparison if the order differs).
    """

    def __init__(self, workload: Workload) -> None:
        self.rows = full_closure(workload.chains)
        self.spur_rows = workload.spur_rows
        self.applied = 0

    def check(self, answers: list, spurs_before: int) -> bool:
        while self.applied < spurs_before:
            for row in self.spur_rows[self.applied]:
                bisect.insort(self.rows, list(row))
            self.applied += 1
        if answers == self.rows:
            return True
        return ({tuple(row) for row in answers}
                == {tuple(row) for row in self.rows})


def _key_order(rng: random.Random, chains: int) -> list[tuple[int, int]]:
    """Every bound key once, in blocks holding each position once.

    A key's position on its chain sets its cost, so blocks keep the
    mix of costs in any prefix of the sequence the same for every
    seed; the seed picks the chains and the order inside each block.
    """
    columns = []
    for _ in range(CHAIN_LENGTH):
        chain_order = list(range(chains))
        rng.shuffle(chain_order)
        columns.append(chain_order)
    keys = []
    positions = list(range(CHAIN_LENGTH))
    for block in range(chains):
        rng.shuffle(positions)
        keys.extend((columns[j][block], j) for j in positions)
    return keys


def _read(chain: int, position: int, oracle: Oracle,
          repeat: bool = False) -> Op:
    """A bound read, sent to the server's default engine."""
    return Op("read", "/query",
              {"query": f"P({node(chain, position)}, Y)"},
              expected=oracle.answers(chain, position), repeat=repeat)


def _audit_write(rng: random.Random, serial: int) -> Op:
    return Op("write", "/facts", {"add": {"Audit": [
        [f"u{serial}", f"v{rng.randrange(10**6)}"]]}})


def _spur_write(oracle: Oracle, rng: random.Random) -> tuple[Op, list]:
    chain, position, leaf = oracle.add_spur(rng)
    op = Op("write", "/facts",
            {"add": {"B": [[node(chain, position), leaf]]}})
    rows = [(node(chain, j), leaf) for j in range(position + 1)]
    return op, rows


# -- the three workloads ------------------------------------------------

#: point-read: 500 chains give 4 000 distinct bound keys, ~4x the
#: answer cache, and every key is used at most once per run
POINT_CHAINS = 500
#: bulk-export: 2 500 chains, 20k A edges, a 90 000-row closure
BULK_CHAINS = 2500
#: write-then-export cycles generated: ~10x what a run uses today
BULK_EXPORTS = 400
#: read-write: a small program so misses stay cheap next to hits
RW_CHAINS = 200
#: hot keys, far fewer than the answer cache's 1024 entries
RW_HOT_KEYS = 64
#: reads per epoch in read-write: 2 distinct keys, then 6 repeats
RW_EPOCH_READS = 8
RW_DISTINCT_PER_EPOCH = 2
#: epochs generated: enough for ~1.5 ms ops, should the stall go
RW_EPOCHS = 2000
#: write probes sent after point-read's timed phase (see NOTES.md)
POINT_PROBE_WRITES = 30


def point_read(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload("point-read", POINT_CHAINS, connection="fresh")
    oracle = Oracle(POINT_CHAINS)
    keys = _key_order(rng, POINT_CHAINS)
    warm, timed = keys[-4:], keys[:-4]
    w.warmup = [_read(c, j, oracle) for c, j in warm]
    w.ops = [_read(c, j, oracle) for c, j in timed]
    w.probe_writes = [_audit_write(rng, i)
                      for i in range(POINT_PROBE_WRITES)]
    return w


def bulk_export(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload("bulk-export", BULK_CHAINS, connection="fresh")
    oracle = Oracle(BULK_CHAINS)
    query = {"query": "P(X, Y)", "engine": "semi-naive"}

    def cycle() -> list[Op]:
        write, rows = _spur_write(oracle, rng)
        w.spur_rows.append(rows)
        export = Op("read", "/query", dict(query),
                    spurs_before=len(w.spur_rows))
        return [write, export]

    w.warmup = cycle() + cycle()
    for _ in range(BULK_EXPORTS):
        w.ops.extend(cycle())
    return w


def read_write(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload("read-write", RW_CHAINS, connection="keep-alive")
    oracle = Oracle(RW_CHAINS)
    hot_chains = rng.sample(range(RW_CHAINS), RW_HOT_KEYS)
    # Zipf-like skew over the hot keys.  Every hot key is the head of
    # its chain: the position sets a miss's cost, so all misses cost
    # the same and p90, which lies among the misses, stays put
    chain_weights = [1.0 / (rank + 1) for rank in range(RW_HOT_KEYS)]
    repeat_weights = [1.0 / (rank + 1)
                      for rank in range(RW_DISTINCT_PER_EPOCH)]

    def epoch(index: int) -> list[Op]:
        distinct: list[tuple[int, int]] = []
        while len(distinct) < RW_DISTINCT_PER_EPOCH:
            key = (rng.choices(hot_chains, chain_weights)[0], 0)
            if key not in distinct:
                distinct.append(key)
        # each key's first read misses; the repeats after it hit
        reads = [_read(c, j, oracle) for c, j in distinct]
        for _ in range(RW_EPOCH_READS - RW_DISTINCT_PER_EPOCH):
            c, j = rng.choices(distinct, repeat_weights)[0]
            reads.append(_read(c, j, oracle, repeat=True))
        if index % 2:
            write = _audit_write(rng, index)
        else:
            write, _ = _spur_write(oracle, rng)
        return reads + [write]

    w.warmup = epoch(0)
    for index in range(1, RW_EPOCHS + 1):
        w.ops.extend(epoch(index))
    return w


WORKLOADS = {"point-read": point_read, "bulk-export": bulk_export,
             "read-write": read_write}


def encode(op: Op, extra: dict | None = None) -> bytes:
    body = dict(op.body, **extra) if extra else op.body
    return json.dumps(body).encode("utf-8")
