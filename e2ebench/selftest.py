"""Fast self-test of the benchmark at tiny sizes.

    python3 e2ebench/selftest.py        (or: python3 -m pytest e2ebench/selftest.py)

Checks that every workload of ``workloads.json``, untraced and traced,
prints exactly the metrics ``BENCHMARK.json`` names with their units;
that the traced spans' self times tile each request span; that a
corrupted answer trips the correctness gate; that a killed worker ends
the run in bounded time as failed requests; and that the command
refuses to run, printing no result, in a directory without the
program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as sp  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

#: Per-workload overrides that make each run take a few seconds.
TINY = {
    "uniform16-io": {"data": {"n": 3000}, "warmup_queries": 4},
    "fourier8-cpu": {"data": {"n": 6000, "num_families": 20},
                     "warmup_queries": 16},
    "fourier8-ingest": {"data": {"n": 20000, "num_families": 20},
                        "build": {"max_ram_bytes": 262144},
                        "warmup_queries": 8},
}
SECONDS = "3"


def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> None:
    for key, value in override.items():
        if isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value


def tiny_config(directory: Path) -> Path:
    """Write the workload constants shrunk to self-test sizes."""
    config = json.loads((HERE / "workloads.json").read_text())
    config["client_timeout_s"] = 3.0
    for name, override in TINY.items():
        workload = config["workloads"][name]
        _merge(workload, copy.deepcopy(override))
        workload.update(setup_repeats=2, scan_sample=4, model_sample=4)
    path = directory / "tiny.json"
    path.write_text(json.dumps(config))
    return path


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(
    workload: str,
    trace: int,
    config: Optional[Path],
    fault: Optional[str] = None,
    cwd: Path = ROOT,
    timeout: float = 170.0,
) -> Tuple[int, List[str], float]:
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)]
    if config is not None:
        command += ["--config", str(config)]
    if fault is not None:
        command += ["--fault", fault]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - start
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.strip().splitlines(), elapsed


def result_line(lines: List[str]) -> Dict[str, Any]:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def record_of(lines: List[str]) -> Dict[str, Any]:
    path = next(line.split(": ", 1)[1] for line in lines
                if line.startswith("record: "))
    return json.loads((ROOT / path).read_text())


def load_spans(path: Path) -> List[sp.Span]:
    spans = []
    for line in path.read_text().splitlines():
        item = json.loads(line)
        spans.append((item["id"], item["name"], item["start_ns"],
                      item["end_ns"], item["parent"],
                      tuple(item["requests"])))
    return spans


# ------------------------------------------------------------------ tests


def test_every_metric_emitted_with_its_unit() -> None:
    spec = benchmark_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    constants = json.loads((HERE / "workloads.json").read_text())
    assert set(constants["layer_moves"]) == set(expected[1])
    assert {w["name"] for w in spec["workloads"]} <= set(
        constants["workloads"])
    with tempfile.TemporaryDirectory() as scratch:
        config = tiny_config(Path(scratch))
        for workload in constants["workloads"]:
            for trace in (0, 1):
                code, lines, _ = run_benchmark(workload, trace, config)
                result = result_line(lines)
                assert code == 0, (workload, trace, lines[-3:])
                assert result["correct"] and result["failed"] == 0, result
                emitted = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                assert emitted == expected[trace], (workload, trace, emitted)
                for name in emitted:
                    assert any(line.split()[:1] == [name] for line in lines), \
                        f"{name} not printed by name"
                if trace:
                    _check_tiling(workload, lines)
                else:
                    assert any(line.split()[:1] == ["failed_frac"]
                               for line in lines)


def _check_tiling(workload: str, lines: List[str]) -> None:
    """Self times recomputed from the written spans tile each request."""
    record = record_of(lines)
    tolerance = record["tiling"]["tolerance"]
    spans = load_spans(ROOT / record["spans_file"])
    errors = sp.tiling_errors(spans)
    assert errors, f"{workload}: no request spans"
    assert max(errors.values()) <= tolerance, (workload, max(errors.values()))
    names = {span[1] for tree in sp.request_trees(spans).values()
             for span in tree}
    assert {sp.REQUEST, sp.QUEUE_WAIT, sp.BATCH, sp.ENGINE} <= names, names
    breakdown = sp.layer_breakdown(spans)
    mean_request = sum(
        (s[3] - s[2]) / 1e6 for s in spans if s[1] == sp.REQUEST
    ) / len(errors)
    assert abs(sum(breakdown.values()) - mean_request) <= (
        tolerance * mean_request
    )


def test_tiling_detects_escaping_child() -> None:
    """A child span outside its parent breaks the tiling check."""
    log = sp.SpanLog()
    log.add(sp.BATCH, 40, 90, None, ("1",))
    root = log.new_id()
    log.add(sp.QUEUE_WAIT, 10, 40, root, ("1",))
    log.add(sp.REQUEST, 0, 100, None, ("1",), root)
    assert sp.tiling_errors(log.spans) == {"1": 0.0}
    log.add(sp.ENGINE, 80, 120, log.spans[0][0])
    assert sp.tiling_errors(log.spans)["1"] > 0.1


def test_corrupted_answer_trips_the_gate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        config = tiny_config(Path(scratch))
        for trace in (0, 1):
            code, lines, _ = run_benchmark(
                "fourier8-cpu", trace, config, fault="corrupt-answer")
            result = result_line(lines)
            assert code == 1, code
            assert not result["correct"] and result["failed"] >= 1, result


def test_killed_worker_fails_requests_in_bounded_time() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        config = tiny_config(Path(scratch))
        code, lines, elapsed = run_benchmark(
            "uniform16-io", 0, config, fault="kill-worker", timeout=120.0)
        result = result_line(lines)
        assert code == 1, code
        assert result["failed"] >= 1, result
        assert elapsed < 60.0, elapsed
        assert not (ROOT / record_of(lines)["work_dir"]).exists()


def test_too_few_tail_samples_invalidate_the_run() -> None:
    """A tail percentile with fewer samples beyond it than the workload
    requires is not reported as a valid result."""
    with tempfile.TemporaryDirectory() as scratch:
        path = tiny_config(Path(scratch))
        config = json.loads(path.read_text())
        config["workloads"]["fourier8-cpu"]["tail_min_beyond"] = 10 ** 9
        path.write_text(json.dumps(config))
        code, lines, _ = run_benchmark("fourier8-cpu", 0, path)
        result = result_line(lines)
        assert code == 1, code
        assert not result["correct"] and result["failed"] == 0, result


def test_refuses_to_run_without_sources() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, elapsed = run_benchmark(
            "fourier8-cpu", 0, None, cwd=bare, timeout=60.0)
        assert code != 0
        assert not any(line.startswith("{") for line in lines), lines


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    failures = 0
    for test in tests:
        start = time.perf_counter()
        try:
            test()
        except Exception as error:  # noqa: BLE001 - report every test
            failures += 1
            print(f"FAIL {test.__name__}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {test.__name__} "
                  f"({time.perf_counter() - start:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
