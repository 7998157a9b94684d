"""One benchmark run: set-up, seeded load through ``QueryService``,
correctness gate, and the end-to-end or per-layer metrics.

Untraced runs (``trace=False``) report what a user sees: throughput,
median and tail latency, set-up time and peak memory.  Traced runs
serve half the window untraced and half with spans recorded around the
calls into each layer (see :mod:`spans`), then report per-layer numbers
and the tracing overhead.  Every served answer is checked after the
window against a cacheless in-process ``PagedEngine`` over the same
store, and a seeded sample against ``knn_linear_scan``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.fourier import fourier_points
from repro.data.generators import query_workload
from repro.index import kernels
from repro.index.knn import knn_linear_scan
from repro.parallel.paged import PagedEngine
from repro.parallel.process import ProcessParallelEngine
from repro.registry import make_declusterer
from repro.serve import QueryRequest, QueryService
from repro.storage import (
    SIMULATED_DISK_MS_ENV,
    MmapStore,
    bulk_load_mmap,
    stream_bulk_load_mmap,
)

import spans as sp

now_ns = sp.now_ns

Answer = List[Tuple[int, float]]


def answer_of(neighbors: Sequence[Any]) -> Answer:
    """The part of a kNN answer that is checked: (oid, distance) pairs."""
    return [(int(n.oid), float(n.distance)) for n in neighbors]


# ------------------------------------------------------------------ inputs


def derived_seeds(seed: int) -> Dict[str, int]:
    """Independent integer seeds for each input stream of one run."""
    names = (
        "data", "queries", "traced_queries", "warmup", "sample"
    )
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {
        name: int(child.generate_state(1)[0])
        for name, child in zip(names, children)
    }


def make_points(workload: Dict[str, Any], seed: int) -> np.ndarray:
    """The workload's data set, generated from ``seed``."""
    data = workload["data"]
    if data["generator"] == "uniform":
        return np.random.default_rng(seed).random((data["n"], data["d"]))
    return fourier_points(
        data["n"], data["d"], seed=seed, num_families=data["num_families"]
    )


class QueryStream:
    """Unbounded seeded query stream, generated in blocks on demand.

    Query ``i`` depends only on the seed and ``i``, so every request of
    a run carries a distinct query however many the run sends.
    """

    BLOCK = 1024

    def __init__(
        self, workload: Dict[str, Any], points: np.ndarray, seed: int
    ):
        self._generator = workload["queries"]["generator"]
        self._points = points
        self._seed = seed
        self._blocks: Dict[int, np.ndarray] = {}

    def _block(self, index: int) -> np.ndarray:
        block = self._blocks.get(index)
        if block is None:
            seed = int(
                np.random.SeedSequence([self._seed, index]).generate_state(1)[0]
            )
            if self._generator == "uniform":
                block = np.random.default_rng(seed).random(
                    (self.BLOCK, self._points.shape[1])
                )
            else:
                block = query_workload(self._points, self.BLOCK, seed=seed)
            self._blocks[index] = block
        return block

    def __getitem__(self, index: int) -> np.ndarray:
        block, offset = divmod(index, self.BLOCK)
        return self._block(block)[offset]

    def take(self, count: int) -> np.ndarray:
        """The first ``count`` queries as one array."""
        return np.array([self[i] for i in range(count)])


# ------------------------------------------------------------------ set-up


@dataclass
class Deployment:
    """A built store, its opened handle and a warmed engine."""

    directory: Path
    store: MmapStore
    engine: Any
    build_s: float
    open_s: float
    first_call_s: float
    warm_call_s: float
    setup_s: float

    @property
    def store_dir(self) -> Path:
        return self.directory / "store"

    def close(self) -> None:
        """Stop the workers, unmap the store and delete its files."""
        try:
            closer = getattr(self.engine, "close", None)
            if callable(closer):
                closer()
        finally:
            self.store.close()
            shutil.rmtree(self.directory, ignore_errors=True)


def _build(
    workload: Dict[str, Any], points: np.ndarray, directory: Path
) -> None:
    """Build the store directory with the workload's loader."""
    declusterer = make_declusterer(
        workload["scheme"], points.shape[1], workload["num_disks"]
    )
    build = workload["build"]
    if build["loader"] == "stream_bulk_load_mmap":
        store = stream_bulk_load_mmap(
            points, declusterer, directory,
            max_ram_bytes=build["max_ram_bytes"],
        )
    else:
        store = bulk_load_mmap(points, declusterer, directory)
    store.close()


def _open_engine(workload: Dict[str, Any], store: MmapStore) -> Any:
    """The workload's engine over an opened store."""
    if workload["engine"] == "process":
        # Workers reopen the store and read the service time from the
        # environment they inherit at spawn.
        os.environ[SIMULATED_DISK_MS_ENV] = str(workload["simulated_disk_ms"])
        return ProcessParallelEngine(store)
    cache = None
    if workload.get("cache") == "all_pages":
        cache = int(sum(leaf.blocks for leaf in store.leaves))
    return PagedEngine(store, cache=cache)


def deploy(
    workload: Dict[str, Any],
    points: np.ndarray,
    warmup: np.ndarray,
    work_dir: Path,
) -> Deployment:
    """Build, open, start and warm one deployment; time each step.

    The warm-up pass answers one query alone (this starts the worker
    pool of a process engine), two more alone (the steady per-call
    time that start-up is measured against), then the rest in batches.
    """
    k = workload["k"]
    start = time.perf_counter()
    directory = Path(tempfile.mkdtemp(prefix="deploy-", dir=work_dir))
    store: Optional[MmapStore] = None
    engine: Any = None
    try:
        _build(workload, points, directory / "store")
        built = time.perf_counter()
        simulated = (
            workload["simulated_disk_ms"]
            if workload["engine"] == "paged" else 0.0
        )
        store = MmapStore(directory / "store", simulated_disk_ms=simulated)
        opened = time.perf_counter()
        engine = _open_engine(workload, store)
        engine.query(warmup[0], k)
        first = time.perf_counter()
        singles = []
        for query in warmup[1:3]:
            tick = time.perf_counter()
            engine.query(query, k)
            singles.append(time.perf_counter() - tick)
        for offset in range(3, len(warmup), 8):
            engine.query_batch(warmup[offset : offset + 8], k)
        done = time.perf_counter()
        return Deployment(
            directory=directory, store=store, engine=engine,
            build_s=built - start, open_s=opened - built,
            first_call_s=first - opened,
            warm_call_s=statistics.median(singles) if singles else 0.0,
            setup_s=done - start,
        )
    except BaseException:
        closer = getattr(engine, "close", None)
        if callable(closer):
            closer()
        if store is not None:
            store.close()
        shutil.rmtree(directory, ignore_errors=True)
        raise


# ------------------------------------------------------------- load window


@dataclass
class Request:
    """One client request and what became of it."""

    rid: int
    query: np.ndarray
    submit: int
    done: int = 0
    answer: Optional[Answer] = None
    pages: Optional[np.ndarray] = None
    distance_computations: int = 0
    cache_hits: int = 0
    cache_accesses: int = 0
    error: Optional[str] = None
    wrong: bool = False

    @property
    def answered(self) -> bool:
        return self.answer is not None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong

    @property
    def latency_ms(self) -> float:
        return (self.done - self.submit) / 1e6

    def keep(self, result: Any) -> None:
        """Keep what the gate and the metrics read, not the result
        itself, so stored answers do not inflate the peak memory."""
        self.answer = answer_of(result.neighbors)
        self.pages = np.asarray(result.pages_per_disk).copy()
        self.distance_computations = int(result.distance_computations)
        stats = result.cache_stats
        if stats is not None:
            self.cache_hits = int(stats.hits)
            self.cache_accesses = int(stats.hits + stats.misses)


@dataclass
class Window:
    """The requests of one measured window and its wall-clock bounds."""

    requests: List[Request]
    start: int
    end: int
    aborted: bool

    @property
    def seconds(self) -> float:
        return max(self.end - self.start, 1) / 1e9


class TracedService(QueryService):
    """``QueryService`` whose batches are recorded as ``serve.batch``
    spans listing the request ids (tenants) they served."""

    def __init__(self, engine: Any, spans: sp.SpanLog, **kwargs: Any):
        super().__init__(engine, **kwargs)
        self.spans = spans

    def execute_batch(self, requests, flush_ms=0.0, batch_id=0, metrics=None):
        return self.spans.call(
            sp.BATCH, super().execute_batch, requests,
            flush_ms=flush_ms, batch_id=batch_id, metrics=metrics,
            request_ids=[request.tenant for request in requests],
        )


class _Client:
    """Sends requests through the service, each under a timeout."""

    def __init__(
        self,
        service: QueryService,
        stream: QueryStream,
        k: int,
        timeout_s: float,
    ):
        self.service = service
        self.stream = stream
        self.k = k
        self.timeout_s = timeout_s
        self.abort = False

    async def send(self, rid: int) -> Request:
        """Send request ``rid`` and wait for its answer."""
        request = Request(rid=rid, query=self.stream[rid], submit=now_ns())
        try:
            outcome = await asyncio.wait_for(
                self.service.submit(QueryRequest(
                    query=request.query, k=self.k, tenant=str(rid),
                )),
                self.timeout_s,
            )
        except asyncio.TimeoutError:
            # A dead or stuck engine: count the request as failed and
            # stop the window instead of waiting on it.
            request.error = f"timeout after {self.timeout_s} s"
            self.abort = True
        except Exception as error:  # noqa: BLE001 - counted, not fatal
            request.error = f"{type(error).__name__}: {error}"
        else:
            request.keep(outcome.result)
        request.done = now_ns()
        return request


def record_requests(spans: sp.SpanLog, requests: Sequence[Request]) -> None:
    """Add each request's span and its queue-wait child.

    Built after the window from the timestamps the clients kept: the
    queue wait runs from submission to the start of the batch span
    that lists the request.
    """
    batch_start = {
        rid: span[2] for span in spans.by_name(sp.BATCH) for rid in span[5]
    }
    for request in requests:
        rid = (str(request.rid),)
        root = spans.new_id()
        if rid[0] in batch_start:
            spans.add(sp.QUEUE_WAIT, request.submit, batch_start[rid[0]],
                      root, rid)
        spans.add(sp.REQUEST, request.submit, request.done, None, rid, root)


async def _closed_loop(
    client: _Client, clients: int, seconds: float
) -> List[Request]:
    """``clients`` callers, each sending its next request on a reply."""
    end = now_ns() + int(seconds * 1e9)
    rids = itertools.count()

    async def caller() -> List[Request]:
        sent = []
        while now_ns() < end and not client.abort:
            sent.append(await client.send(next(rids)))
        return sent

    batches = await asyncio.gather(*(caller() for _ in range(clients)))
    return sorted(
        (request for batch in batches for request in batch),
        key=lambda request: request.rid,
    )


async def _kill_a_worker(after_s: float) -> None:
    """Fault injection: SIGKILL one worker process mid-window."""
    await asyncio.sleep(after_s)
    children = multiprocessing.active_children()
    if children:
        os.kill(children[0].pid, signal.SIGKILL)


async def _serve(
    engine: Any,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    stream: QueryStream,
    seconds: float,
    spans: Optional[sp.SpanLog],
    fault: Optional[str],
) -> Window:
    policy = config["policy"]
    options = dict(
        policy=policy["name"], batch_size=policy["batch_size"],
        deadline_ms=policy["deadline_ms"],
    )
    service = (
        TracedService(engine, spans, **options) if spans is not None
        else QueryService(engine, **options)
    )
    timeout_s = config["client_timeout_s"]
    client = _Client(service, stream, workload["k"], timeout_s)
    await service.start()
    fault_task = None
    if fault == "kill-worker":
        fault_task = asyncio.create_task(_kill_a_worker(seconds / 2))
    start = now_ns()
    try:
        requests = await _closed_loop(client, workload["clients"], seconds)
    finally:
        if fault_task is not None:
            fault_task.cancel()
        try:
            await asyncio.wait_for(service.stop(), timeout_s)
        except asyncio.TimeoutError:
            client.abort = True
    end = max((request.done for request in requests), default=now_ns())
    return Window(requests, start, end, client.abort)


def serve_window(
    engine: Any,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    stream: QueryStream,
    seconds: float,
    spans: Optional[sp.SpanLog] = None,
    fault: Optional[str] = None,
) -> Window:
    """Run one measured window on a fresh event loop.

    A window that timed out leaves the batch thread blocked inside the
    engine; its loop is closed without waiting for that thread, and the
    caller ends the process once the workers are stopped.
    """
    loop = asyncio.new_event_loop()
    window: Optional[Window] = None
    try:
        window = loop.run_until_complete(_serve(
            engine, workload, config, stream, seconds, spans, fault
        ))
        return window
    finally:
        if window is not None and not window.aborted:
            loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


# -------------------------------------------------------- correctness gate


@contextlib.contextmanager
def instrument_index(spans: Optional[sp.SpanLog]) -> Iterator[None]:
    """Record spans around the index kernels while the block runs."""
    if spans is None:
        yield
        return
    saved = kernels.child_mindists, kernels.offer_payload
    kernels.child_mindists = spans.wrap(sp.DIRECTORY, saved[0])
    kernels.offer_payload = spans.wrap(sp.SCORE, saved[1])
    try:
        yield
    finally:
        kernels.child_mindists, kernels.offer_payload = saved


@dataclass
class GateResult:
    """Reference answers' page counts and the scan timing sample."""

    reference_pages: Dict[int, np.ndarray] = field(default_factory=dict)
    scan_ms: List[float] = field(default_factory=list)


def check_answers(
    window: Window,
    store_dir: Path,
    points: np.ndarray,
    workload: Dict[str, Any],
    seed: int,
    spans: Optional[sp.SpanLog] = None,
) -> GateResult:
    """Mark every served answer that differs from the references.

    Each answer must equal, bit for bit in (oid, distance), a cacheless
    in-process ``PagedEngine`` over the same store; a cacheless served
    engine must also charge the same pages per disk.  A seeded sample
    must equal ``knn_linear_scan`` over the points in RAM.
    """
    k = workload["k"]
    compare_pages = workload.get("cache") is None
    gate = GateResult()
    served = [r for r in window.requests if r.error is None]
    store = MmapStore(store_dir, simulated_disk_ms=0.0)
    try:
        if spans is not None:
            store.read_page = spans.wrap(sp.READ_PAGE, store.read_page)
        reference = PagedEngine(store)
        query = (
            spans.wrap(sp.REF_QUERY, reference.query) if spans is not None
            else reference.query
        )
        with instrument_index(spans):
            for request in served:
                expected = query(request.query, k)
                gate.reference_pages[request.rid] = expected.pages_per_disk
                same_pages = not compare_pages or np.array_equal(
                    request.pages, expected.pages_per_disk
                )
                if request.answer != answer_of(expected.neighbors) or (
                    not same_pages
                ):
                    request.wrong = True
    finally:
        store.close()
    rng = np.random.default_rng(seed)
    sample = rng.choice(
        len(served), size=min(workload["scan_sample"], len(served)),
        replace=False,
    ) if served else []
    for index in sample:
        request = served[int(index)]
        tick = time.perf_counter()
        expected = knn_linear_scan(points, request.query, k)
        gate.scan_ms.append((time.perf_counter() - tick) * 1e3)
        if request.answer != answer_of(expected):
            request.wrong = True
    return gate


# ----------------------------------------------------------------- metrics


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile (``percentile`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _status_kb(pid: str, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live workers (MB)."""
    try:
        total = _status_kb("self", "VmHWM")
        for child in multiprocessing.active_children():
            total += _status_kb(str(child.pid), "VmHWM")
        return total / 1024.0
    except OSError:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return usage / 1024.0


def store_bytes(directory: Path) -> int:
    """Bytes of every file under a store directory."""
    return sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )


def fingerprint(seed: int) -> Dict[str, Any]:
    """The machine and toolchain a run was measured on."""
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def stop_workers() -> None:
    """Terminate and reap every child process still alive."""
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join(timeout=5.0)




# --------------------------------------------------------------------- run


@dataclass
class RunOutcome:
    """What one run prints and how it ends.

    ``aborted`` means a request timed out: the workers were stopped,
    but a thread may still be blocked inside the engine, so the caller
    must end the process without waiting for it.
    """

    record: Dict[str, Any]
    result: Dict[str, Any]
    aborted: bool

    @property
    def exit_code(self) -> int:
        ok = self.result["correct"] and self.result["failed"] == 0
        return 0 if ok else 1


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ms(span: sp.Span) -> float:
    return (span[3] - span[2]) / 1e6


def _answered(requests: Sequence[Request]) -> int:
    return sum(1 for request in requests if request.ok)


def run(
    workload_name: str,
    config: Dict[str, Any],
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    fault: Optional[str] = None,
) -> RunOutcome:
    """Run one workload once; returns the record and the result line."""
    workload = config["workloads"][workload_name]
    seeds = derived_seeds(seed)
    points = make_points(workload, seeds["data"])
    warmup = QueryStream(workload, points, seeds["warmup"]).take(
        workload["warmup_queries"]
    )
    repeats = 1 if trace else workload["setup_repeats"]
    setups: List[float] = []
    deployment: Optional[Deployment] = None
    try:
        for _ in range(repeats):
            if deployment is not None:
                deployment.close()
                deployment = None
            deployment = deploy(workload, points, warmup, work_dir)
            setups.append(deployment.setup_s)
        assert deployment is not None
        body = _traced_run if trace else _untraced_run
        outcome = body(deployment, workload, config, points, seconds,
                       seeds, fault)
    finally:
        if deployment is not None:
            deployment.close()
    if not trace:
        setup_s = _median(setups)
        outcome.result["metrics"]["setup_s"] = _metric(setup_s, "s")
        outcome.record["setup_s_each"] = setups
    outcome.record.update({
        "workload": workload_name,
        "trace": trace,
        "seconds": seconds,
        "fingerprint": fingerprint(seed),
        "constants": workload,
        "policy": config["policy"],
    })
    return outcome


def _corrupt(window: Window) -> None:
    """Fault injection: change one served answer before the gate."""
    for request in window.requests:
        if request.answer:
            oid, distance = request.answer[0]
            request.answer[0] = (oid + 1, distance)
            return


def _result(
    requests: Sequence[Request], metrics: Dict[str, Any], valid: bool
) -> Dict[str, Any]:
    """The result line: failures are errors, timeouts and wrong answers."""
    wrong = sum(1 for request in requests if request.wrong)
    return {
        "correct": valid and wrong == 0,
        "attempted": len(requests),
        "failed": sum(1 for request in requests if not request.ok),
        "metrics": metrics,
    }


def _untraced_run(
    deployment: Deployment,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    points: np.ndarray,
    seconds: float,
    seeds: Dict[str, int],
    fault: Optional[str],
) -> RunOutcome:
    stream = QueryStream(workload, points, seeds["queries"])
    window = serve_window(
        deployment.engine, workload, config, stream, seconds, fault=fault
    )
    rss_mb = peak_rss_mb()
    if window.aborted:
        stop_workers()
    if fault == "corrupt-answer":
        _corrupt(window)
    check_answers(
        window, deployment.store_dir, points, workload, seeds["sample"]
    )
    requests = window.requests
    good = [r.latency_ms for r in requests if r.ok]
    percentile = workload["tail_percentile"]
    metrics = {
        "throughput_qps": _metric(len(good) / window.seconds, "1/s"),
        "latency_p50_ms": _metric(
            nearest_rank(good, 50) if good else 0.0, "ms"),
        "latency_tail_ms": _metric(
            nearest_rank(good, percentile) if good else 0.0, "ms"),
        "setup_s": _metric(0.0, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    beyond = len(good) - math.ceil(percentile / 100.0 * len(good))
    errors = sorted({r.error for r in requests if r.error})
    if beyond < workload["tail_min_beyond"]:
        # Too few samples beyond the percentile to report it: the run
        # is invalid, not merely noisy.
        errors.append(
            f"p{percentile:g} has {beyond} samples beyond it, fewer than "
            f"the {workload['tail_min_beyond']} it needs; run longer"
        )
    result = _result(requests, metrics,
                     valid=beyond >= workload["tail_min_beyond"])
    record = {
        "failed_frac": _metric(
            result["failed"] / max(1, len(requests)), "fraction"),
        "tail": {
            "percentile": percentile,
            "samples_beyond": beyond,
            "min_beyond": workload["tail_min_beyond"],
        },
        "errors": errors,
        "latencies_ms": good,
    }
    return RunOutcome(record, result, window.aborted)


def _traced_run(
    deployment: Deployment,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    points: np.ndarray,
    seconds: float,
    seeds: Dict[str, int],
    fault: Optional[str],
) -> RunOutcome:
    """Half the window untraced, half traced, then the per-layer numbers.

    The two halves send different query streams, so the traced half
    does not replay queries the untraced half already warmed.
    """
    half = seconds / 2.0
    plain = serve_window(
        deployment.engine, workload, config,
        QueryStream(workload, points, seeds["queries"]), half, fault=fault,
    )
    spans = sp.SpanLog()
    traced: Optional[Window] = None
    speculative: List[int] = []
    if not plain.aborted:
        traced, speculative = _traced_window(
            deployment, workload, config,
            QueryStream(workload, points, seeds["traced_queries"]),
            half, spans,
        )
    aborted = plain.aborted or (traced is not None and traced.aborted)
    if aborted:
        stop_workers()
    check_answers(
        plain, deployment.store_dir, points, workload, seeds["sample"]
    )
    requests = list(plain.requests)
    if traced is None or aborted:
        return RunOutcome({"spans": spans}, _result(requests, {}, False),
                          aborted)
    if fault == "corrupt-answer":
        _corrupt(traced)
    gate = check_answers(
        traced, deployment.store_dir, points, workload, seeds["sample"],
        spans=None if workload["engine"] == "paged" else spans,
    )
    requests += traced.requests
    metrics = _layer_metrics(
        deployment, workload, config, traced, gate, spans, speculative,
        points,
    )
    throughput = {
        "untraced": _answered(plain.requests) / plain.seconds,
        "traced": _answered(traced.requests) / traced.seconds,
    }
    metrics["trace.overhead_qps"] = _metric(
        throughput["untraced"] - throughput["traced"], "1/s")
    errors = sp.tiling_errors(spans.spans)
    breakdown = sp.layer_breakdown(spans.spans)
    tiling = {
        "max_error": max(errors.values(), default=0.0),
        "tolerance": config["tiling_tolerance"],
        "requests": len(errors),
        "layers_sum_ms": sum(breakdown.values()),
        "request_mean_ms": _mean(
            [_ms(span) for span in spans.by_name(sp.REQUEST)]),
    }
    record = {
        "tiling": tiling,
        "self_ms_per_request": breakdown,
        "throughput_qps": throughput,
        "spans": spans,
    }
    valid = bool(errors) and tiling["max_error"] <= tiling["tolerance"]
    return RunOutcome(record, _result(requests, metrics, valid), False)


def _traced_window(
    deployment: Deployment,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    stream: QueryStream,
    seconds: float,
    spans: sp.SpanLog,
) -> Tuple[Window, List[int]]:
    """Serve a window with spans around the serve, engine, storage and
    index calls made in this process.

    An in-process engine gets a twin over the same store and buffer
    pool whose captured ``read_page`` is wrapped; a process engine's
    page reads and kernels run in its workers, out of reach here.
    Returns the window and each batch's speculative page count.
    """
    engine = deployment.engine
    store = deployment.store
    if workload["engine"] == "paged":
        store.read_page = spans.wrap(sp.READ_PAGE, store.read_page)
        try:
            engine = PagedEngine(store, cache=engine.cache)
        finally:
            del store.read_page
    original = engine.query_batch
    speculative: List[int] = []

    def query_batch(queries: np.ndarray, k: int = 1) -> Any:
        result = spans.call(sp.ENGINE, original, queries, k=k)
        speculative.append(int(getattr(engine, "last_speculative_pages", 0)))
        return result

    engine.query_batch = query_batch
    try:
        with instrument_index(spans):
            window = serve_window(
                engine, workload, config, stream, seconds, spans=spans,
            )
    finally:
        del engine.query_batch
    record_requests(spans, window.requests)
    return window, speculative


def _io_model(
    engine: Any,
    requests: Sequence[Request],
    gate: GateResult,
    k: int,
    service_ms: float,
) -> float:
    """Per-call engine wall time over the disk model's time.

    The model time of a query is its busiest disk's charged pages, from
    the cacheless reference, times the workload's simulated page service
    time.  Without a simulated disk there is no model time: 0.
    """
    if not service_ms:
        return 0.0
    wall_ms = model_ms = 0.0
    for request in requests:
        pages = gate.reference_pages.get(request.rid)
        if pages is None:
            continue
        tick = time.perf_counter()
        engine.query(request.query, k)
        wall_ms += (time.perf_counter() - tick) * 1e3
        model_ms += int(pages.max()) * service_ms
    return wall_ms / model_ms if model_ms else 0.0


def _layer_metrics(
    deployment: Deployment,
    workload: Dict[str, Any],
    config: Dict[str, Any],
    traced: Window,
    gate: GateResult,
    spans: sp.SpanLog,
    speculative: List[int],
    points: np.ndarray,
) -> Dict[str, Any]:
    """Per-layer metrics of a traced window (see ``BENCHMARK.json``).

    Page reads and kernel times come from the served engine when it
    runs in this process, else from the traced reference pass of the
    correctness gate (the workers' reads are out of reach); charged-page
    counts always come from that cacheless reference.
    """
    own = sp.self_times(spans.spans)
    served = [r for r in traced.requests if r.answered]
    in_process = workload["engine"] == "paged"
    per_query = max(1, len(served) if in_process
                    else len(spans.by_name(sp.REF_QUERY)))
    batches = spans.by_name(sp.BATCH)
    batched = sum(len(span[5]) for span in batches)
    reads = spans.by_name(sp.READ_PAGE)
    pages = list(gate.reference_pages.values())
    busiest = [int(p.max()) for p in pages]
    ideal = [math.ceil(int(p.sum()) / workload["num_disks"]) for p in pages]
    charged = sum(int(r.pages.sum()) for r in served)
    hits = sum(r.cache_hits for r in served)
    accesses = sum(r.cache_accesses for r in served)
    engine_ms = sum(_ms(s) for s in spans.by_name(sp.ENGINE)) / max(1, batched)
    scan_ms = _median(gate.scan_ms)
    model = _io_model(
        deployment.engine, served[: workload["model_sample"]], gate,
        workload["k"], workload["simulated_disk_ms"],
    )
    spawn_s = 0.0 if in_process else max(
        0.0, deployment.first_call_s - deployment.warm_call_s)
    return {
        "serve.queue_wait_ms": _metric(_median(
            [_ms(s) for s in spans.by_name(sp.QUEUE_WAIT)]), "ms"),
        "serve.batch_size": _metric(batched / max(1, len(batches)), "count"),
        "serve.self_ms": _metric(_median(
            [own[s[0]] / 1e6 for s in spans.by_name(sp.REQUEST)]), "ms"),
        "parallel.engine_ms_per_query": _metric(engine_ms, "ms"),
        "parallel.busiest_disk_pages": _metric(_mean(busiest), "count"),
        "parallel.charged_pages_per_query": _metric(
            _mean([int(p.sum()) for p in pages]), "count"),
        "parallel.speculative_ratio": _metric(
            sum(speculative) / charged if charged else 0.0, "ratio"),
        "parallel.spawn_s": _metric(spawn_s, "s"),
        "parallel.cache_hit_ratio": _metric(
            hits / accesses if accesses else 0.0, "ratio"),
        "storage.read_page_us": _metric(
            _median([_ms(s) * 1e3 for s in reads]), "us"),
        "storage.reads_per_query": _metric(len(reads) / per_query, "count"),
        "storage.io_model_ratio": _metric(model, "ratio"),
        "storage.build_s": _metric(deployment.build_s, "s"),
        "storage.open_s": _metric(deployment.open_s, "s"),
        "storage.bytes_per_user_byte": _metric(
            store_bytes(deployment.store_dir) / (points.size * 8.0), "ratio"),
        "index.directory_us_per_query": _metric(sum(
            _ms(s) for s in spans.by_name(sp.DIRECTORY)) * 1e3 / per_query,
            "us"),
        "index.score_us_per_query": _metric(sum(
            _ms(s) for s in spans.by_name(sp.SCORE)) * 1e3 / per_query,
            "us"),
        "index.distance_computations_per_query": _metric(
            _mean([r.distance_computations for r in served]),
            "count"),
        "core.disk_imbalance": _metric(
            sum(busiest) / sum(ideal) if sum(ideal) else 0.0, "ratio"),
        "ref.scan_ms_per_query": _metric(scan_ms, "ms"),
        "ref.engine_vs_scan": _metric(
            engine_ms / scan_ms if scan_ms else 0.0, "ratio"),
    }
