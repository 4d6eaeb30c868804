"""Run one benchmark op in a fresh interpreter and write its result file.

    python3 perfbench/child.py <op-json> <seed> <out-dir> <trace 0|1>

The op is either a CLI experiment (run through ``oscimax.cli.main``) or a
public library verifier.  The child times the import of ``oscimax.cli``
(what every CLI invocation pays), then the op from its call to its verdict,
and writes ``result.json`` (and, when traced, ``spans.json``) into
<out-dir>.  The library is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _plain(value):
    """JSON-ready copy of a verifier result (dataclasses become dicts)."""
    if hasattr(value, "__dataclass_fields__"):
        return {k: _plain(getattr(value, k)) for k in value.__dataclass_fields__}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def calibrate() -> float:
    """Seconds taken by fixed reference work (interpreter loop, numpy
    elementwise math, FFT) that involves no oscimax code.  It measures how
    fast the host runs at the time of the op."""
    import numpy as np

    x = np.linspace(0.5, 1.5, 100_000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i % 7
    for _ in range(8):
        np.fft.ifft(np.exp(1j * x**0.5) * x**-0.5)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    op = json.loads(argv[0])
    seed, out_dir, traced = int(argv[1]), Path(argv[2]), argv[3] == "1"

    t0 = time.perf_counter()
    import oscimax.cli

    setup_s = time.perf_counter() - t0

    tracer = None
    clock = time.perf_counter
    if traced:
        sys.path.insert(0, str(HERE))
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        clock = tracer.clock

    calib_s = calibrate()
    report_dir = out_dir / "report"
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = clock()
    if op["kind"] == "cli":
        argv_op = list(op["argv"])
        if op.get("seeded"):
            argv_op += ["--seed", str(seed)]
        rc = oscimax.cli.main(argv_op + ["--out", str(report_dir)])
        stop = clock()
        summary_path = report_dir / "summary.json"
        report = summary_path.read_text() if summary_path.exists() else ""
        summary = json.loads(report) if report else {}
        report_bytes = sum(p.stat().st_size for p in report_dir.iterdir())
    else:
        module_name, func_name = op["call"].split(".")
        module = sys.modules[f"oscimax.{module_name}"]
        result = getattr(module, func_name)(*op["args"])
        stop = clock()
        rc = None
        summary = _plain(result)
        report = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        report_bytes = 0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    op_s = stop - start
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    if tracer is not None:
        (out_dir / "spans.json").write_text(json.dumps(tracer.dump(op["id"])))
    result_body = {
        "op": op["id"],
        "setup_s": setup_s,
        "calib_s": calib_s,
        "op_s": op_s,
        "cpu_s": cpu_s,
        "maxrss_kb": ru1.ru_maxrss,
        "exit": rc,
        "summary": summary,
        "report": report,
        "report_bytes": report_bytes,
    }
    (out_dir / "result.json").write_text(json.dumps(result_body))
    return 0


if __name__ == "__main__":
    os.chdir(HERE.parent)
    sys.exit(main(sys.argv[1:]))
