"""The four workloads: set-up, seeded statement plan, execution, checks.

Every workload splits into

* ``setup()``: engine build, data generation, DDL, load and ANALYZE.
  A timed run sets up ``setup_repeats`` times; ``setup_s`` is the
  median;
* ``plan(seed, units)``: the statement sequence, a pure function of its
  arguments. The data sets are fixed; the seed only reorders statements
  and picks literals, and never changes how much work a unit does;
* ``run_unit(state, unit)``: executes one unit and returns its
  :class:`Sample` list. Units are the measured phase's building blocks:
  one TPC-H query, one 8-stream batch, one ETL cycle;
* ``check(state, executed)``: the answer checks, run after the measured
  phase and outside it. Returns a list of problems (empty when correct).

Unit counts are set from ``--seconds`` by a fixed rate per workload, so
a run's length is a statement count: the catalog and kernel-cache growth
the ETL and TPC-H runs show is deterministic, and a time budget would
make it depend on the host's speed.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import BenchConfig, raw_bytes, rows_match
from repro.engine import Engine
from repro.executor.concurrent import ConcurrentRunner
from repro.simtime import CostModel
from repro.tpch import QUERIES, create_table_sql, generate, load_tpch

#: dbgen seed of every data set (the figure benchmarks' default).
DATA_SEED = 19940601
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Sample:
    """One timed unit of client work: a query, statement or batch entry."""

    #: Groups samples for ``suite_s``/``query_geomean_ms``.
    template: str
    #: Latency class for percentiles; classes never mix costs 10x apart.
    cls: str
    seconds: float
    statements: int = 1
    #: Error class names of the statements that failed, in order.
    errors: List[str] = field(default_factory=list)
    #: Simulated seconds parked in a resource queue (streams8 only).
    queue_wait_sim_s: float = 0.0
    #: When the sample ended, on the recorder's clock.
    end: float = 0.0


@dataclass
class Unit:
    """One unit of the statement plan."""

    #: Units with the same key do the same work; the traced run
    #: alternates traced and untraced runs within each key.
    key: str
    #: Workload-specific payload (SQL text and what to expect).
    body: object


class Recorder:
    """What a measured phase keeps for its answer checks, the clock it
    times statements with, and the id of the statement being submitted
    (the tracer tags spans with it)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, tracer=None):
        self.executed: list = []
        self.clock = clock
        self.statement = 0
        self.tracer = tracer

    def next_statement(self) -> None:
        self.statement += 1
        if self.tracer is not None:
            self.tracer.statement = self.statement


def _execute(
    session, sql: str, recorder: Recorder
) -> Tuple[Optional[object], Optional[str], float]:
    """Run one statement; ``(result, error_class, seconds)``.

    Every failure is returned, never retried or dropped: the benchmark
    boundary keeps running and accounts for it by error class.
    """
    recorder.next_statement()
    start = recorder.clock()
    try:
        result = session.execute(sql)
    except Exception as exc:  # counted per error class by the caller
        return None, type(exc).__name__, recorder.clock() - start
    return result, None, recorder.clock() - start


# ---------------------------------------------------------------- TPC-H
def _jsonable(value):
    if hasattr(value, "isoformat"):
        return "date:" + value.isoformat()
    return value


def normalize_rows(rows) -> List[tuple]:
    """Rows in the reference file's form: dates as tagged ISO strings."""
    return [tuple(_jsonable(v) for v in row) for row in rows]


@dataclass
class Loaded:
    """A set-up engine and the session that loaded it."""

    engine: Engine
    session: object


class Tpch:
    """The 22 TPC-H queries, serially, one session, closed loop.

    Each unit is one query (Q15 is three statements). Each pass runs
    all 22, starting at a query the seed picks.
    """

    def __init__(
        self,
        name: str,
        scale: float,
        cache_bytes: Optional[int],
        pass_seconds: float,
        setup_repeats: int,
    ):
        self.name = name
        self.setup_repeats = setup_repeats
        #: Converts ``--seconds`` into a pass count.
        self.pass_seconds = pass_seconds
        self.scale = scale
        self.cache_bytes = cache_bytes
        self.config = BenchConfig(scale_factor=scale)
        self.reference_path = os.path.join(
            HERE, "reference", f"tpch_sf{scale:g}.json"
        )

    def units_for(self, seconds: float, trace: bool) -> int:
        # A traced run needs every query twice: once traced, once not.
        passes = max(2 if trace else 1, round(seconds / self.pass_seconds))
        return passes * len(QUERIES)

    def setup(self) -> Loaded:
        """The ``repro.bench.harness`` default cluster: 16 segments, AO,
        hash distribution, UDP interconnect, batch executor."""
        config = self.config
        model = CostModel()
        model.io_cached = config.io_cached
        model.modeled_segments = config.paper_segments
        extra = {}
        if self.cache_bytes is not None:
            extra["block_cache_bytes"] = self.cache_bytes
        engine = Engine(
            num_segment_hosts=config.sim_segments,
            segments_per_host=1,
            cost_model=model,
            interconnect=config.interconnect,
            seed=config.seed,
            executor_mode=config.executor_mode,
            **extra,
        )
        session = engine.connect()
        data = generate(self.scale, seed=DATA_SEED)
        load_tpch(
            session,
            scale=self.scale,
            storage_format=config.storage_format,
            compression=config.compression,
            distribution=config.distribution,
            data=data,
        )
        model.scale = config.model_scale(raw_bytes(data))
        return Loaded(engine=engine, session=session)

    def plan(self, seed: int, units: int) -> List[Unit]:
        rng = random.Random(f"{self.name}:{seed}")
        numbers = sorted(QUERIES)
        out: List[Unit] = []
        while len(out) < units:
            # A rotation, not a shuffle: every query follows the same
            # predecessor whatever the seed, so in tpch_cold the small
            # cache holds the same blocks when it starts and the seed
            # does not change the work. A free shuffle moved the small
            # queries' medians by 20-57% between seeds.
            start = rng.randrange(len(numbers))
            order = numbers[start:] + numbers[:start]
            out.extend(Unit(key=f"Q{n}", body=n) for n in order)
        return out[:units]

    def run_unit(self, state: Loaded, unit: Unit, recorder: Recorder) -> List[Sample]:
        number = unit.body
        errors: List[str] = []
        seconds = 0.0
        select = None
        for sql in QUERIES[number]:
            result, error, elapsed = _execute(state.session, sql, recorder)
            seconds += elapsed
            if error is not None:
                errors.append(error)
            elif result.plan is not None:
                select = result
        recorder.executed.append((number, select))
        name = f"Q{number}"
        return [Sample(
            name, name, seconds, len(QUERIES[number]), errors,
            end=recorder.clock(),
        )]

    def check(self, state: Loaded, executed: list) -> List[str]:
        with open(self.reference_path) as fh:
            reference = json.load(fh)
        problems = []
        for number, result in executed:
            expected = reference[str(number)]
            if result is None:
                problems.append(f"Q{number}: no result")
                continue
            rows = [tuple(r) for r in expected["rows"]]
            if not rows_match(normalize_rows(result.rows), rows):
                problems.append(f"Q{number}: rows differ from the reference")
            if result.cost.seconds != expected["cost_seconds"]:
                problems.append(
                    f"Q{number}: simulated cost {result.cost.seconds!r} != "
                    f"recorded {expected['cost_seconds']!r}"
                )
        return problems

    def reference(self) -> Dict[str, dict]:
        """Rows and simulated seconds of each query on a fresh engine."""
        state = self.setup()
        out = {}
        for number in sorted(QUERIES):
            recorder = Recorder()
            unit = Unit(f"Q{number}", number)
            sample = self.run_unit(state, unit, recorder)[0]
            if sample.errors:
                raise RuntimeError(f"Q{number} failed: {sample.errors}")
            result = recorder.executed[0][1]
            out[str(number)] = {
                "rows": normalize_rows(result.rows),
                "cost_seconds": result.cost.seconds,
            }
        return out


# --------------------------------------------------------------- streams
STREAMS = 8
STREAM_ANALYTIC = (1, 3, 6)
STREAM_POINTS = 5
STREAM_SCALE = 0.0005
#: dbgen makes 150k * SF customers, keys 1..n.
STREAM_CUSTOMERS = 75
STREAM_TABLES = ("customer", "orders", "lineitem")


def _small_engine() -> Engine:
    """Six segments on three hosts, the throughput bench's geometry."""
    return Engine(num_segment_hosts=3, segments_per_host=2, seed=DATA_SEED)


def _load(engine: Engine, scale: float, tables, customers: int):
    session = engine.connect()
    data = generate(scale, seed=DATA_SEED)
    if len(data.customer) != customers:
        raise RuntimeError(f"dbgen made {len(data.customer)} customers")
    for table in tables:
        session.execute(create_table_sql(table))
        session.load_rows(table, getattr(data, table))
    session.execute("ANALYZE")
    return session, data


class Streams:
    """8 closed-loop streams through ``ConcurrentRunner`` under the
    ``pg_default`` resource queue, multiplexed by the event scheduler on
    one thread. Each unit is one batch of 8 seeded streams."""

    name = "streams8"
    setup_repeats = 3
    BATCH_SECONDS = 0.65

    def units_for(self, seconds: float, trace: bool) -> int:
        return max(2 if trace else 1, round(seconds / self.BATCH_SECONDS))

    def setup(self) -> Loaded:
        engine = _small_engine()
        session, _data = _load(engine, STREAM_SCALE, STREAM_TABLES, STREAM_CUSTOMERS)
        return Loaded(engine=engine, session=session)

    @staticmethod
    def streams(rng: random.Random) -> List[List[Tuple[str, str]]]:
        """Per stream: Q1, Q3, Q6 and five point lookups, in a seeded
        order. Every stream holds the same statement kinds, so the work
        of a batch does not depend on the seed; only how the streams
        overlap does."""
        out = []
        for _ in range(STREAMS):
            stream = [(f"Q{n}", QUERIES[n][0]) for n in STREAM_ANALYTIC]
            for _ in range(STREAM_POINTS):
                key = rng.randint(1, STREAM_CUSTOMERS)
                stream.append((
                    "point",
                    f"SELECT c_custkey, c_name, c_acctbal FROM customer "
                    f"WHERE c_custkey = {key}",
                ))
            rng.shuffle(stream)
            out.append(stream)
        return out

    def plan(self, seed: int, units: int) -> List[Unit]:
        # A fresh order per batch: a run averages over many overlaps.
        rng = random.Random(f"{self.name}:{seed}")
        return [Unit(key="batch", body=self.streams(rng)) for _ in range(units)]

    def run_unit(self, state: Loaded, unit: Unit, recorder: Recorder) -> List[Sample]:
        streams = unit.body
        sql = [[text for _t, text in stream] for stream in streams]
        stamps: Dict[Tuple[int, int], float] = {}

        def before_query(stream: int, index: int) -> None:
            recorder.next_statement()
            stamps[(stream, index)] = recorder.clock()

        runner = ConcurrentRunner(
            state.engine, sql, allow_failures=True, before_query=before_query
        )
        batch = runner.run()
        end = recorder.clock()
        recorder.executed.append(batch)
        samples = []
        for outcome in batch.outcomes:
            s, i = outcome.stream, outcome.index
            settle = stamps.get((s, i + 1), end)
            template = streams[s][i][0]
            samples.append(Sample(
                template,
                "point" if template == "point" else "analytic",
                settle - stamps[(s, i)],
                1,
                [] if outcome.ok else [outcome.error.split(":", 1)[0]],
                outcome.queue_wait,
                settle,
            ))
        return samples

    def check(self, state: Loaded, executed: list) -> List[str]:
        """Every outcome bit-identical to a serial run of the same
        statement on a fresh engine (built here, outside set-up and the
        measured phase)."""
        session, _data = _load(
            _small_engine(), STREAM_SCALE, STREAM_TABLES, STREAM_CUSTOMERS
        )
        expected: Dict[str, list] = {}
        problems = []
        for batch in executed:
            for outcome in batch.outcomes:
                if not outcome.ok:
                    problems.append(
                        f"stream {outcome.stream} #{outcome.index}: "
                        f"{outcome.error}"
                    )
                    continue
                if outcome.sql not in expected:
                    expected[outcome.sql] = session.query(outcome.sql)
                if outcome.rows != expected[outcome.sql]:
                    problems.append(
                        f"stream {outcome.stream} #{outcome.index}: rows "
                        "differ from the serial run"
                    )
        return problems


# ------------------------------------------------------------------- ETL
ETL_SCALE = 0.002
ETL_TABLES = ("customer", "orders")
ETL_CUSTOMERS = 300
ETL_ROWS = 20
#: Every ROLLBACK_EVERY-th cycle rolls its staging load back and
#: retries it; every GROUP_EVERY-th cycle runs the GROUP BY. Both are
#: odd so the traced run's alternation splits each kind evenly.
ROLLBACK_EVERY = 5
GROUP_EVERY = 3
#: First order key the ETL publishes; dbgen's keys stay far below it.
ETL_FIRST_KEY = 10_000_000
STATUSES = ("F", "O", "P")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


@dataclass
class EtlState:
    engine: Engine
    session: object
    #: Rows per o_orderstatus after the load.
    base_status: Dict[str, int]


@dataclass
class Stmt:
    """One ETL statement and what the model needs to know about it."""

    kind: str  # create/begin/load/rollback/commit/publish/drop/point/group
    sql: str
    #: For ``load``: the rows inserted; for ``point``: the key read.
    rows: Tuple[tuple, ...] = ()
    key: int = 0


#: kind -> (template, latency class). Write statements share a class
#: (their medians are within 3x of each other); BEGIN/COMMIT/ROLLBACK
#: and DDL are each a class of their own.
ETL_KINDS = {
    "create": ("create", "ddl"),
    "drop": ("drop", "ddl"),
    "begin": ("begin", "txn"),
    "commit": ("commit", "txn"),
    "rollback": ("rollback", "txn"),
    "load": ("load", "write"),
    "load_rolled_back": ("load_rolled_back", "write"),
    "publish": ("publish", "write"),
    "point": ("point", "point"),
    "group": ("group", "analytic"),
}

#: Statements the known rollback defect fails (see README): a staging
#: load after a rolled-back first write, and the COMMIT that follows it.
#: Any other failure is an answer-check failure.
STAGING_LOAD_KINDS = ("load", "load_rolled_back", "commit")

ORDERS_COLUMNS = (
    "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, "
    "o_orderpriority, o_clerk, o_shippriority, o_comment"
)


class Etl:
    """Refresh cycles against loaded ``customer``/``orders``.

    A cycle: CREATE a staging table; BEGIN, a multi-row INSERT into it,
    COMMIT (every ROLLBACK_EVERY-th cycle: ROLLBACK first, then the
    same BEGIN/INSERT/COMMIT again); INSERT ... SELECT into ``orders``;
    DROP the staging table; two point reads of keys just published; and
    every GROUP_EVERY-th cycle a GROUP BY over ``orders``.
    """

    name = "etl_refresh"
    setup_repeats = 3
    CYCLES_PER_SECOND = 20

    def units_for(self, seconds: float, trace: bool) -> int:
        return max(2 if trace else 1, round(seconds * self.CYCLES_PER_SECOND))

    def setup(self) -> EtlState:
        engine = _small_engine()
        session, data = _load(engine, ETL_SCALE, ETL_TABLES, ETL_CUSTOMERS)
        base_status: Dict[str, int] = {}
        for row in data.orders:
            base_status[row[2]] = base_status.get(row[2], 0) + 1
        return EtlState(
            engine=engine,
            session=session,
            base_status=base_status,
        )

    def plan(self, seed: int, units: int) -> List[Unit]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for cycle in range(units):
            stage = f"etl_stage_{cycle}"
            first = ETL_FIRST_KEY + cycle * ETL_ROWS
            rows = tuple(
                (
                    first + i,
                    rng.randint(1, ETL_CUSTOMERS),
                    rng.choice(STATUSES),
                    rng.randint(100, 99_999) / 4,  # exact in binary
                    f"1998-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    rng.choice(PRIORITIES),
                    f"Clerk#{rng.randint(1, 20):09d}",
                    0,
                    f"refresh {cycle} row {i}",
                )
                for i in range(ETL_ROWS)
            )
            values = ", ".join(
                f"({k}, {c}, '{s}', {p}, date '{d}', '{pr}', '{cl}', {sp}, '{cm}')"
                for k, c, s, p, d, pr, cl, sp, cm in rows
            )
            load = f"INSERT INTO {stage} ({ORDERS_COLUMNS}) VALUES {values}"
            ddl = create_table_sql("orders").replace(
                "CREATE TABLE orders", f"CREATE TABLE {stage}", 1
            )
            stmts = [Stmt("create", ddl)]
            rolled_back = cycle % ROLLBACK_EVERY == ROLLBACK_EVERY - 1
            if rolled_back:
                stmts += [
                    Stmt("begin", "BEGIN"),
                    Stmt("load_rolled_back", load, rows),
                    Stmt("rollback", "ROLLBACK"),
                ]
            stmts += [
                Stmt("begin", "BEGIN"),
                Stmt("load", load, rows),
                Stmt("commit", "COMMIT"),
                Stmt(
                    "publish",
                    f"INSERT INTO orders SELECT {ORDERS_COLUMNS} FROM {stage}",
                ),
                Stmt("drop", f"DROP TABLE {stage}"),
            ]
            for key in rng.sample([r[0] for r in rows], 2):
                stmts.append(Stmt(
                    "point",
                    "SELECT o_orderkey, o_custkey, o_orderstatus FROM orders "
                    f"WHERE o_orderkey = {key}",
                    key=key,
                ))
            grouped = cycle % GROUP_EVERY == GROUP_EVERY - 1
            if grouped:
                stmts.append(Stmt(
                    "group",
                    "SELECT o_orderstatus, count(*) FROM orders "
                    "GROUP BY o_orderstatus ORDER BY o_orderstatus",
                ))
            out.append(Unit(key=f"r{int(rolled_back)}g{int(grouped)}", body=stmts))
        return out

    def run_unit(self, state: EtlState, unit: Unit, recorder: Recorder) -> List[Sample]:
        samples = []
        for stmt in unit.body:
            result, error, elapsed = _execute(state.session, stmt.sql, recorder)
            rows = None if result is None else result.rows
            recorder.executed.append((stmt, rows, error))
            template, cls = ETL_KINDS[stmt.kind]
            samples.append(
                Sample(template, cls, elapsed, 1, [error] if error else [],
                       end=recorder.clock())
            )
        return samples

    def check(self, state: EtlState, executed: list) -> List[str]:
        """Replay the outcomes through a model of the refresh: a load's
        rows are published only if the INSERT and its COMMIT succeeded
        and the publish succeeded. Every point read, GROUP BY and the
        final ``count(*)`` must agree with that model."""
        published: Dict[int, tuple] = {}
        status = dict(state.base_status)
        staged: Tuple[tuple, ...] = ()
        pending: Tuple[tuple, ...] = ()
        problems = []
        for stmt, rows, error in executed:
            ok = error is None
            if stmt.kind == "create":
                staged = pending = ()
            elif stmt.kind in ("load", "load_rolled_back"):
                pending = stmt.rows if ok else ()
            elif stmt.kind == "rollback":
                pending = ()
            elif stmt.kind == "commit":
                staged = pending if ok else ()
                pending = ()
            elif stmt.kind == "publish" and ok:
                for row in staged:
                    published[row[0]] = row
                    status[row[2]] = status.get(row[2], 0) + 1
            elif stmt.kind == "point" and ok:
                row = published.get(stmt.key)
                want = [] if row is None else [(row[0], row[1], row[2])]
                if rows != want:
                    problems.append(f"point read {stmt.key}: {rows} != {want}")
            elif stmt.kind == "group" and ok:
                want = sorted(status.items())
                if rows != want:
                    problems.append(f"GROUP BY: {rows} != {want}")
            if not ok and stmt.kind not in STAGING_LOAD_KINDS:
                problems.append(f"{stmt.kind} failed: {error}")
        total = state.session.query("SELECT count(*) FROM orders")[0][0]
        want_total = sum(state.base_status.values()) + len(published)
        if total != want_total:
            problems.append(f"count(*) of orders {total} != model {want_total}")
        return problems


WORKLOADS: Dict[str, Callable[[], object]] = {
    # A tpch_power pass takes about 5.3 s at reference host speed (see
    # hostclock.py) and 10 s on a slow host, so --seconds 10 gives one.
    # Its set-up takes as long as a pass, so it sets up twice rather
    # than three times: that keeps a run under a minute even when the
    # host runs at 0.4 of its reference speed.
    "tpch_power": lambda: Tpch("tpch_power", 0.01, None, 9.5, 2),
    # A tpch_cold pass takes about 6.6 s at reference speed; --seconds
    # 10 gives two passes, so each query has two samples.
    "tpch_cold": lambda: Tpch("tpch_cold", 0.002, 512 * 1024, 5.0, 3),
    "streams8": Streams,
    "etl_refresh": Etl,
}
