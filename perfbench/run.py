"""oscimax benchmark: time-to-verdict on layer-separating workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A closed loop with one client.  Each pass runs the workload's fixed op list
in order; every op runs in a fresh child interpreter (``child.py``), as a CLI
user pays import and cold caches on every invocation.  Passes repeat until
about ``--seconds`` have elapsed (at least ``MIN_PASSES``).  Every op's exit code,
verdict, headline numbers and report determinism are checked.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402

MIN_PASSES = 3
RUN_DEADLINE_S = 150.0  # no child outlives this, so a run ends within 180 s
OP_TIMEOUT_S = 60.0
COUNTERS = ("elements", "points", "terms")


def load_specs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    return bench, workloads


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# running and checking ops


def run_op(op: dict, seed: int, work: Path, traced: bool, deadline: float) -> dict:
    """Run one op in a fresh interpreter; returns its result file, or a
    result with ``error`` set when the child failed or timed out."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    timeout = max(1.0, min(OP_TIMEOUT_S, deadline - time.monotonic()))
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(op), str(seed), str(work), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return {"op": op["id"], "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"op": op["id"], "error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    result = json.loads((work / "result.json").read_text())
    if traced:
        result["trace"] = json.loads((work / "spans.json").read_text())
    return result


def _lookup(summary: dict, path: str):
    value = summary
    for part in path.split("."):
        value = value[part]
    return value


def check_op(op: dict, result: dict, first_report: str | None, check_headline: bool) -> list[str]:
    """Problems with one op's output; an empty list means the op succeeded."""
    if "error" in result:
        return [result["error"]]
    problems = []
    expect = op["expect"]
    if "exit" in expect and result["exit"] != expect["exit"]:
        problems.append(f"exit {result['exit']} != expected {expect['exit']}")
    if result["summary"].get("pass") != expect["pass"]:
        problems.append(f"pass {result['summary'].get('pass')} != expected {expect['pass']}")
    if first_report is not None and result["report"] != first_report:
        problems.append("summary differs from the run's first pass (determinism)")
    if check_headline:
        for item in op["headline"]:
            try:
                value = float(_lookup(result["summary"], item["path"]))
            except (KeyError, TypeError, ValueError):
                problems.append(f"{item['path']} missing from summary")
                continue
            ref = item["ref"]
            limit = item["abs"] if "abs" in item else item["rel"] * abs(ref)
            if not abs(value - ref) <= limit:
                problems.append(f"{item['path']} = {value!r}, reference {ref!r} +- {limit:.3g}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, workloads: dict) -> dict:
    ops = workloads["workloads"][name]["ops"]
    check_headline_for = {
        op["id"]: (not op.get("seeded")) or seed == workloads["reference_seed"] for op in ops
    }
    work_root = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes: list[dict] = []  # {"traced": bool, "results": [...]}
    first_reports: dict[str, str] = {}
    attempted = failed = 0
    try:
        while time.monotonic() < deadline - OP_TIMEOUT_S:
            elapsed = time.monotonic() - start
            # stop when another pass would end more than half a pass late,
            # so that a run lasts about --seconds on average
            if len(passes) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(passes) > seconds:
                break
            traced = trace and len(passes) % 2 == 1
            results = []
            for op in ops:
                result = run_op(op, seed, work_root / op["id"], traced, deadline)
                problems = check_op(op, result, first_reports.get(op["id"]), check_headline_for[op["id"]])
                if "report" in result:
                    first_reports.setdefault(op["id"], result["report"])
                attempted += 1
                if problems:
                    failed += 1
                    print(f"FAILED {name}/{op['id']}: {'; '.join(problems)}", file=sys.stderr)
                results.append(result)
            passes.append({"traced": traced, "results": results})
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass
    return {"passes": passes, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# metrics


def _batch_s(p: dict) -> float:
    return sum(r.get("op_s", 0.0) for r in p["results"])


def end_to_end(run: dict, reference_calib_s: float) -> tuple[dict, dict]:
    """End-to-end metrics in reference-speed seconds, and the raw values.

    Times are scaled by reference_calib_s over the run's median calibration
    time, which cancels the host's speed drift between runs."""
    plain = [p for p in run["passes"] if not p["traced"]]
    children = [r for p in plain for r in p["results"] if "error" not in r]
    raw = {
        "batch_s": statistics.median(_batch_s(p) for p in plain),
        "setup_s": statistics.median(r["setup_s"] for r in children),
        "calib_s": statistics.median(r["calib_s"] for r in children),
    }
    scale = reference_calib_s / raw["calib_s"]
    metrics = {
        "batch_s": raw["batch_s"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": max(r["maxrss_kb"] for r in children) / 1024.0,
    }
    return metrics, raw


def per_layer(run: dict, all_op_ids: list[str]) -> dict:
    """Per-layer metrics of a traced run.  Times are shares of the traced
    passes' op time (self time of a function or layer, inclusive time of a
    function) or, per op, of the untraced passes' op time; counts are per
    traced pass."""
    plain = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    n = len(traced)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    known: set[str] = set()
    for p in traced:
        for r in p["results"]:
            if "trace" not in r:
                continue
            t = r["trace"]
            known.update(t["names"])
            s, i, c = layertrace.self_times(t["names"], t["spans"])
            for d, src in ((self_s, s), (incl_s, i), (calls, c)):
                for key, value in src.items():
                    d[key] = d.get(key, 0) + value
            for fn, cs in t["counts"].items():
                totals = counts.setdefault(fn, {})
                for key, value in cs.items():
                    totals[key] = totals.get(key, 0) + value

    traced_total = sum(_batch_s(p) for p in traced)
    m: dict[str, float] = {}
    for fn in known:
        m[f"{fn}.calls"] = calls.get(fn, 0) / n
        m[f"{fn}.self_share"] = self_s.get(fn, 0.0) / traced_total
        m[f"{fn}.incl_share"] = incl_s.get(fn, 0.0) / traced_total
        cs = counts.get(fn, {})
        for key in COUNTERS:
            m[f"{fn}.{key}"] = cs.get(key, 0) / n
        if "distinct" in cs:
            m[f"{fn}.distinct_frac"] = cs["distinct"] / cs["elements"] if cs["elements"] else 0.0
        elif "distinct_calls" in cs:
            m[f"{fn}.distinct_frac"] = cs["distinct_calls"] / calls[fn]
        else:
            m[f"{fn}.distinct_frac"] = 0.0
    for layer in layertrace.LAYERS:
        m[f"{layer}.self_share"] = sum(v for fn, v in self_s.items() if layertrace.layer_of(fn) == layer) / traced_total

    plain_results = [r for p in plain for r in p["results"] if "op_s" in r]
    plain_total = sum(r["op_s"] for r in plain_results)
    for op_id in all_op_ids:
        m[f"cli.{op_id}.share"] = sum(r["op_s"] for r in plain_results if r["op"] == op_id) / plain_total
    m["cli.report_bytes"] = sum(r["report_bytes"] for r in plain_results) / len(plain)
    m["cli.cpu_over_wall"] = sum(r["cpu_s"] for r in plain_results) / plain_total

    m["trace.batch_s"] = statistics.median(_batch_s(p) for p in traced)
    m["trace.overhead"] = m["trace.batch_s"] / statistics.median(_batch_s(p) for p in plain)
    m["trace.coverage"] = sum(m[f"{layer}.self_share"] for layer in layertrace.LAYERS)
    m["split.quadrature_phi"] = m["quadrature.self_share"] + m["symbols.phi_cutoff.incl_share"]
    m["split.spectral"] = m["torus.self_share"] + m["operators.self_share"] + m["symbols.mu_symbol.incl_share"]
    return m


def select(names_units: list[dict], values: dict) -> dict:
    out = {}
    for item in names_units:
        if item["name"] not in values:
            raise KeyError(f"metric {item['name']!r} is not produced by the benchmark")
        out[item["name"]] = {"value": values[item["name"]], "unit": item["unit"]}
    return out


def _all_op_ids(workloads: dict) -> list[str]:
    return [op["id"] for w in workloads["workloads"].values() for op in w["ops"]]


def measure(name: str, args, bench: dict, workloads: dict) -> tuple[dict, dict]:
    run = run_workload(name, args.seed, args.seconds, args.trace == 1, workloads)
    n_plain = sum(1 for p in run["passes"] if not p["traced"])
    n_traced = len(run["passes"]) - n_plain
    print(f"{name}: {len(run['passes'])} passes ({n_traced} traced), "
          f"{run['attempted']} ops attempted, {run['failed']} failed, "
          f"ops_failed_frac {run['failed'] / run['attempted']:.4g} ratio")
    print(f"  {name} batch_s per pass: " + " ".join(
        f"{_batch_s(p):.3f}{'*' if p['traced'] else ''}" for p in run["passes"]))
    if args.trace:
        values = per_layer(run, _all_op_ids(workloads))
        metrics = select(bench["per_layer"], values)
    else:
        values, raw = end_to_end(run, workloads["reference_calib_s"])
        print(f"  {name} measured: batch_s {raw['batch_s']:.6g} s, setup_s {raw['setup_s']:.6g} s, "
              f"calibration {raw['calib_s']:.6g} s (reference {workloads['reference_calib_s']} s)")
        metrics = select(bench["end_to_end"], values)
    for key, item in metrics.items():
        print(f"  {name} {key}: {item['value']:.6g} {item['unit']}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "oscimax" / "cli.py").is_file():
        print(f"no oscimax sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench, workloads = load_specs()
    names = list(workloads["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in workloads["workloads"] for n in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads['workloads'])} or all",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment(), sort_keys=True))
    attempted = failed = 0
    all_metrics = {}
    for name in names:
        run, metrics = measure(name, args, bench, workloads)
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
