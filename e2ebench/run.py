"""End-to-end wall-clock benchmark of the query service.

Run from the repository root:

    python3 e2ebench/run.py --workload uniform16-io --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` gates ``uniform16-io`` and ``fourier8-ingest``;
``fourier8-cpu`` runs the same way but is not gated (see its ``why`` in
``e2ebench/workloads.json``).  The self-test is ``e2ebench/selftest.py``.

For one workload (constants in ``e2ebench/workloads.json``) this builds
the store from seeded inputs, starts the engine, serves a seeded query
stream through ``repro.serve.QueryService`` with the ``max-batch``
policy, checks every answer, and prints each metric by name with its
unit.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints
the per-layer metrics of a traced window (names and units in
``BENCHMARK.json``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full run record, with the machine fingerprint, is
written under ``.e2ebench_out/``.

Exit status: 0 when every request was answered correctly, 1 when any
request failed or an answer was wrong, 2 when the checkout holds no
``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".e2ebench_work"
OUT_DIR = ROOT / ".e2ebench_out"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end wall-clock benchmark through QueryService."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", type=Path,
                        default=HERE / "workloads.json",
                        help="workload constants (default: %(default)s)")
    parser.add_argument("--fault", choices=("kill-worker", "corrupt-answer"),
                        default=None,
                        help="inject a fault (used by the self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _terminate(signum: int, _frame: Any) -> None:
    """Turn SIGTERM into SystemExit so cleanup blocks run."""
    raise SystemExit(128 + signum)


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawn-context semaphores
    start, so no process of the run outlives it.  Best effort: the
    stop hook is private to ``multiprocessing``."""
    from multiprocessing import resource_tracker

    gc.collect()  # release the closed engine's semaphores first
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()


def report(outcome: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Print the human-readable lines and write the run record."""
    record = dict(outcome.record)
    spans = record.pop("spans", None)
    result = outcome.result
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if spans is not None:
        spans_path = OUT_DIR / f"{stem}-spans.jsonl"
        spans.write_jsonl(spans_path)
        record["spans_file"] = os.fspath(spans_path.relative_to(ROOT))
    record["result"] = result
    record_path = OUT_DIR / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    for name, metric in result["metrics"].items():
        line = f"  {name:40s} {metric['value']:14.6g} {metric['unit']}"
        if name == "latency_tail_ms":
            tail = record["tail"]
            line += (f"  (p{tail['percentile']:g}, "
                     f"{tail['samples_beyond']} samples beyond)")
        print(line)
    if "failed_frac" in record:
        print(f"  {'failed_frac':40s} {record['failed_frac']['value']:14.6g} "
              f"{record['failed_frac']['unit']}  ({result['failed']} of "
              f"{result['attempted']})")
    if "tiling" in record:
        tiling = record["tiling"]
        print("self time per request (ms), batch subtree charged to each "
              "request it served:")
        for name, value in record["self_ms_per_request"].items():
            print(f"  {name:40s} {value:14.6g} ms")
        print(f"  {'sum of self times':40s} {tiling['layers_sum_ms']:14.6g} ms"
              f"  vs request span {tiling['request_mean_ms']:.6g} ms; "
              f"worst request off by {tiling['max_error']:.2e} "
              f"(tolerance {tiling['tolerance']:g})")
        qps = record["throughput_qps"]
        print(f"tracing overhead: {qps['untraced'] - qps['traced']:.6g} 1/s "
              f"(untraced {qps['untraced']:.6g}, traced {qps['traced']:.6g})")
    if record.get("errors"):
        print("errors: " + "; ".join(record["errors"]))
    print(f"record: {os.fspath(record_path.relative_to(ROOT))}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no src/repro package under {ROOT}; run it from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    config = json.loads(args.config.read_text())
    if args.workload not in config["workloads"]:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(config['workloads'])}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    # Keep temporary files (stores, spill runs) inside the checkout, in
    # a directory of this run's own, so runs at once do not collide.
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    os.environ["TMPDIR"] = os.fspath(work_dir)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    sys.path[:0] = [os.fspath(ROOT / "src"), os.fspath(HERE)]
    signal.signal(signal.SIGTERM, _terminate)

    import harness

    try:
        outcome = harness.run(
            args.workload, config, args.seed, args.seconds,
            bool(args.trace), work_dir, fault=args.fault,
        )
    finally:
        harness.stop_workers()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only once no other run is using it
        _stop_resource_tracker()
    outcome.record["work_dir"] = os.fspath(work_dir.relative_to(ROOT))
    result = report(outcome, args)
    print(json.dumps(result), flush=True)
    if outcome.aborted:
        # A batch thread may still be blocked on a dead worker; the
        # workers are reaped and the files removed, so exit at once
        # instead of joining that thread.
        sys.stderr.flush()
        os._exit(outcome.exit_code)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
