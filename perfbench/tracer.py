"""Wall-clock spans around the public calls into each engine layer.

The tracer patches functions from outside the engine: class methods on
their class, imported functions in the module namespace their caller
looks them up in (``repro.engine.parse_sql``, not only
``repro.sql.parser.parse_sql``). Nothing inside ``src/repro`` changes.

A span is ``(layer, name, start, end, parent, statement)``, kept in
memory and written out by :meth:`Tracer.write`. A layer's self time is
the summed duration of its spans minus the part their child spans
cover, so the self times of all layers add up to the duration of the
root spans, which the benchmark opens around each unit of work.

Per-row calls (``Snapshot.row_visible``, ``TableSchema.decode_row``)
are deliberately not wrapped: their cost lands in the self time of the
layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The root layer: the benchmark's own code around each unit.
ROOT = "bench"

#: ``(layer, module, owner, attributes)``. ``owner`` is a class name in
#: ``module`` or ``None`` for module-level functions. ``"*public"``
#: expands to every public function the owner defines itself.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sql", "repro.engine", None, ("parse_sql",)),
    ("sql", "repro.sql.parser", None, ("parse_sql",)),
    ("planner", "repro.planner.analyzer", "Analyzer", ("analyze",)),
    ("planner", "repro.planner.planner", "Planner", ("plan",)),
    ("catalog", "repro.catalog.service", "CatalogService", ("*public",)),
    ("catalog", "repro.catalog.service", "CatalogTable", ("scan",)),
    ("txn", "repro.txn.manager", "TransactionManager",
     ("begin", "commit", "abort")),
    ("executor", "repro.executor.slice_runner", "SliceExecutor", ("run",)),
    ("executor.compile", "repro.executor.slice_runner", None,
     ("compile_expr", "compile_expr_batch")),
    ("columnar", "repro.columnar.kernels", None, ("*public",)),
    ("columnar", "repro.executor.vecagg", None, ("fold_batch",)),
    ("storage", "repro.storage.ao", None, ("scan_blocks", "write")),
    ("storage", "repro.storage.co", None, ("scan_blocks", "write")),
    ("storage", "repro.storage.parquet", None, ("scan_blocks", "write")),
    ("hdfs", "repro.hdfs.filesystem", "HdfsClient",
     ("open", "read_file", "create", "append", "write_file", "truncate")),
    ("hdfs", "repro.hdfs.filesystem", "HdfsReader", ("read", "read_all")),
    ("hdfs", "repro.hdfs.filesystem", "HdfsWriter", ("write", "close")),
    ("interconnect", "repro.interconnect.exchange", "ExchangeFabric",
     ("send", "receive")),
    ("cluster.rpc", "repro.cluster.rpc", "RpcBus", ("send",)),
    ("simtime", "repro.simtime.scheduler", "EventScheduler", ("run",)),
    ("cluster.resqueue", "repro.cluster.resqueue", "ResourceQueueManager",
     ("submit", "release")),
    ("executor.concurrent", "repro.executor.concurrent", "ConcurrentRunner",
     ("run",)),
    ("obs", "repro.obs.metrics", "MetricsRegistry", ("snapshot",)),
    ("obs", "repro.obs.metrics", "MetricsSnapshot", ("diff",)),
    ("obs", "repro.obs.activity", "ClusterTelemetry", ("record_statement",)),
    ("engine", "repro.engine", "Session", ("execute", "prepare_select")),
)

#: Every layer a trace reports, root included, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS)) + (ROOT,)


def _expand(owner_obj, module, owner: Optional[str], names) -> List[str]:
    if names != ("*public",):
        return list(names)
    namespace = vars(owner_obj)
    return sorted(
        name
        for name, value in namespace.items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and (owner is not None or value.__module__ == module.__name__)
    )


class Tracer:
    """Span recorder; :meth:`install`/:meth:`uninstall` patch and restore."""

    def __init__(self) -> None:
        #: Finished spans: ``(layer, name, start, end, parent, statement)``.
        #: A slot is reserved (``None``) while its span is open.
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.statement = 0
        self.active = False
        self._saved: List[Tuple[object, str, object]] = []
        #: ``CatalogTable.scan``: versions held and rows returned, summed.
        self.catalog_versions = 0
        self.catalog_visible = 0

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, owner, names in TARGETS:
            module = importlib.import_module(module_name)
            owner_obj = getattr(module, owner) if owner else module
            for attr in _expand(owner_obj, module, owner, names):
                original = vars(owner_obj)[attr]
                name = f"{owner or module_name}.{attr}"
                wrapped = self._wrap(layer, name, original)
                if owner == "CatalogTable" and attr == "scan":
                    wrapped = self._count_visible(wrapped)
                self._saved.append((owner_obj, attr, original))
                setattr(owner_obj, attr, wrapped)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner_obj, attr, original in reversed(self._saved):
            setattr(owner_obj, attr, original)
        self._saved = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens at each resumption, inside its
            # consumer: each ``next`` is one span.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        if not tracer.active:
                            item = next(inner)
                        else:
                            index = tracer._open()
                            start = time.perf_counter()
                            try:
                                item = next(inner)
                            finally:
                                tracer._close(index, layer, name, start)
                        yield item
                except StopIteration:
                    return
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A bound method captured while installed can outlive
            # uninstall; it must stop recording then.
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, layer, name, start)

        return traced

    def _count_visible(self, scan: Callable) -> Callable:
        tracer = self

        @functools.wraps(scan)
        def counted(table, *args, **kwargs):
            rows = scan(table, *args, **kwargs)
            if tracer.active:
                tracer.catalog_versions += len(table._rows)
                tracer.catalog_visible += len(rows)
            return rows

        return counted

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, layer: str, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (layer, name, start, end, parent, self.statement)

    def root(self, fn: Callable[[], object]) -> object:
        """Run one unit of benchmark work under a root span."""
        index = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(index, ROOT, ROOT, start)

    # ----------------------------------------------------------- analysis
    def layer_totals(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """``({layer: {self_s, calls, share}}, traced_total_s)``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        traced_total = 0.0
        for index, span in enumerate(self.spans):
            if span is None:
                raise RuntimeError("span left open at the end of the trace")
            layer, _name, start, end, parent, _stmt = span
            entry = totals[layer]
            entry["self_s"] += (end - start) - child[index]
            entry["calls"] += 1
            if parent < 0:
                traced_total += end - start
        for entry in totals.values():
            entry["share"] = entry["self_s"] / traced_total if traced_total else 0.0
        return totals, traced_total

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tlayer\tname\tstart\tend\tparent\tstatement\n")
            for index, (layer, name, start, end, parent, stmt) in enumerate(
                self.spans
            ):
                fh.write(
                    f"{index}\t{layer}\t{name}\t{start!r}\t{end!r}\t"
                    f"{parent}\t{stmt}\n"
                )
