"""The report ledger: sha256 digests of the reports of fixed configs, so that
"the reports keep their bytes" is a checked claim across commits.

`report_ledger.json` maps each config to its exit code and, per report
file, the sha256 of its bytes (summary.txt without its timestamp line)
and its numbers; for a text report, the sha256 of its text with every
number masked, and for a .npy array, its header (dtype descr, order and
shape) and its values in C order.

Where numpy's version, the platform or numpy's SIMD paths differ from the
ledger's, the bytes may differ at the last bits, so the test compares the
masked text or the .npy header exactly and every number to within
ULP_BOUND ulps of the largest magnitude in its group (its CSV column, its
whole summary file or its whole array), and says so in a warning.

A change that moves report bytes on purpose rewrites the ledger with

    PYTHONPATH=src python tests/test_report_ledger.py

and states in CHANGES.md which reports moved and by how much.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from oscimax.cli import DEFAULTS, main
from test_cli import NEGATIVE_CONTROLS, POSITIVE_CONTROLS

LEDGER = Path(__file__).with_name("report_ledger.json")

CONFIGS = [
    *([name] for name in DEFAULTS),
    *(argv for argv, _ in NEGATIVE_CONTROLS),
    *(argv for argv, _ in POSITIVE_CONTROLS),
    ["maximal-sweep", "--dimension", "2", "--n-modes", "16", "--band-limit", "4", "--time-count", "4"],
    # a law runner's "bounded" branch, a fractional Riesz order and a T^3 sweep
    ["symbol-decay", "--beta", "3"],
    ["kernel-decay", "--beta", "0.9", "--m-cap", "20000", "--n-samples", "6"],
    ["rate-riesz", "--k", "0.5"],
    ["maximal-sweep", "--dimension", "3", "--n-modes", "16", "--band-limit", "4", "--time-count", "4"],
    # 20 atoms of 4096 modes, 81,920 points: a sweep large enough to split its
    # times between threads
    ["atom-uniformity", "--n-modes", "4096", "--atom-count", "20"],
    # a multiplier chunk whose only nonzero coefficient is the band's edge
    # row, at xi = (64, 0), among random coefficients
    ["maximal-sweep", "--dimension", "2", "--n-modes", "256", "--band-limit", "64", "--time-count", "8"],
    # a pure mode in the middle of its chunk, at a fractional Riesz order
    ["rate-riesz", "--n-modes", "65536", "--mode", "20001", "--k", "2.5"],
]

# A number not inside a word: "4" in "x1" or "0.5" in "v0.5" is not one.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")

# Measured on numpy 2.4.6 by turning its dispatched SIMD paths off
# (NPY_DISABLE_CPU_FEATURES): the numbers then moved by at most 215 ulps of
# their group's largest magnitude, in symbol-decay's CSV.
ULP_BOUND = 2**12
# dyadic-decay's tail samples lie within the quadrature's 1e-10 absolute
# tolerance of zero, so its tail fit moved there: the order 9.4324 by
# 1.7e-3 and the intercept 28.320 by 8.7e-3 (1.5e11 ulps of the summary's
# 453.3); 2^41 such ulps are 0.125.
NOISY_ULP_BOUND = {"dyadic-decay": 2**41}


def environment() -> dict:
    """What report bytes depend on besides the code: numpy's version, the
    platform, and the SIMD paths numpy dispatches to on this CPU."""
    return {
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
        "simd": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)],
    }


def config_id(argv) -> str:
    return " ".join(argv)


def run_reports(argv) -> tuple:
    """The exit code and the report bytes of one in-process run, with
    summary.txt's timestamp line dropped."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        code = main([*argv, "--out", str(out)])
        reports = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    reports["summary.txt"] = reports["summary.txt"].split(b"\n", 1)[1]
    return code, reports


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def npy_header(data: bytes) -> dict:
    """A .npy file's header: its dtype descr, whether it is Fortran-ordered,
    and its shape."""
    fh = io.BytesIO(data)
    version = np.lib.format.read_magic(fh)
    read = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
    shape, fortran_order, dtype = read(fh)
    return {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": fortran_order, "shape": list(shape)}


def digests(name: str, data: bytes) -> dict:
    if name.endswith(".npy"):
        values = np.load(io.BytesIO(data), allow_pickle=False)
        return {"sha256": sha256(data), "header": npy_header(data), "numbers": values.ravel().tolist()}
    text = data.decode()
    return {
        "sha256": sha256(data),
        "masked_sha256": sha256(NUMBER.sub("#", text).encode()),
        "numbers": [float(v) for v in NUMBER.findall(text)],
    }


def groups(name: str, data: bytes, count: int) -> list:
    """Positions of the numbers compared at one scale: each CSV column, or
    all of a summary file's or an array's."""
    width = data.split(b"\r\n", 1)[0].count(b",") + 1 if name.endswith(".csv") else 1
    return [range(column, count, width) for column in range(width)]


def write_ledger() -> None:
    reports = {}
    for argv in CONFIGS:
        code, files = run_reports(argv)
        files = {name: digests(name, data) for name, data in files.items()}
        reports[config_id(argv)] = {"argv": argv, "exit": code, "files": files}
    ledger = {**environment(), "reports": reports}
    text = json.dumps(ledger, indent=2)
    # one line per list, so that a diff shows which report moved
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r",\s+", ", ", m[1]) + "]", text)
    LEDGER.write_text(text + "\n")


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


def test_ledger_covers_every_config(ledger):
    assert list(ledger["reports"]) == [config_id(argv) for argv in CONFIGS]


@pytest.mark.parametrize("argv", CONFIGS, ids=config_id)
def test_reports_match_the_ledger(ledger, argv):
    want = ledger["reports"][config_id(argv)]
    code, reports = run_reports(argv)
    assert code == want["exit"]
    assert list(reports) == list(want["files"])
    if all(ledger[key] == value for key, value in environment().items()):
        for name, data in reports.items():
            assert sha256(data) == want["files"][name]["sha256"], name
        return
    bound = NOISY_ULP_BOUND.get(config_id(argv), ULP_BOUND)
    warnings.warn(
        f"{environment()} differs from the ledger's environment: numbers "
        f"compared to {bound} ulps of their group's largest magnitude, not bytes"
    )
    for name, data in reports.items():
        got, kept = digests(name, data), want["files"][name]
        shape = "header" if name.endswith(".npy") else "masked_sha256"
        assert got[shape] == kept[shape], name
        for group in groups(name, data, len(kept["numbers"])):
            scale = math.ulp(max((abs(kept["numbers"][i]) for i in group), default=0.0))
            for i in group:
                assert abs(got["numbers"][i] - kept["numbers"][i]) <= bound * scale, (name, i)


if __name__ == "__main__":
    write_ledger()
