"""The report ledger: sha256 digests of the reports of fixed configs, so that
"the reports keep their bytes" is a checked claim across commits.

`report_ledger.json` maps each config to its exit code and, per report
file, the sha256 of its bytes (summary.txt without its timestamp line),
the sha256 of its text with every number masked, and its numbers.

Where numpy's version, the platform or numpy's SIMD paths differ from the
ledger's, the bytes may differ at the last bits, so the test compares the
masked text exactly and every number to within ULP_BOUND ulps of the
largest magnitude in its group (its CSV column, or its whole summary file),
and says so in a warning.

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
    """The exit code and the report texts of one in-process run, with
    summary.txt's timestamp line dropped."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        code = main([*argv, "--out", str(out)])
        texts = {path.name: path.read_bytes().decode() for path in sorted(out.iterdir())}
    texts["summary.txt"] = texts["summary.txt"].split("\n", 1)[1]
    return code, texts


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(text: str) -> dict:
    return {
        "sha256": sha256(text),
        "masked_sha256": sha256(NUMBER.sub("#", text)),
        "numbers": [float(v) for v in NUMBER.findall(text)],
    }


def groups(name: str, text: str, count: int) -> list:
    """Positions of the numbers compared at one scale: each CSV column, or
    all of a summary file's."""
    width = text.split("\r\n", 1)[0].count(",") + 1 if name.endswith(".csv") else 1
    return [range(column, count, width) for column in range(width)]


def write_ledger() -> None:
    reports = {}
    for argv in CONFIGS:
        code, texts = run_reports(argv)
        files = {name: digests(text) for name, text in texts.items()}
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
    code, texts = run_reports(argv)
    assert code == want["exit"]
    assert list(texts) == list(want["files"])
    if all(ledger[key] == value for key, value in environment().items()):
        for name, text in texts.items():
            assert sha256(text) == want["files"][name]["sha256"], name
        return
    bound = NOISY_ULP_BOUND.get(config_id(argv), ULP_BOUND)
    warnings.warn(
        f"{environment()} differs from the ledger's environment: numbers "
        f"compared to {bound} ulps of their group's largest magnitude, not bytes"
    )
    for name, text in texts.items():
        got, kept = digests(text), want["files"][name]
        assert got["masked_sha256"] == kept["masked_sha256"], name
        for group in groups(name, text, len(kept["numbers"])):
            scale = math.ulp(max((abs(kept["numbers"][i]) for i in group), default=0.0))
            for i in group:
                assert abs(got["numbers"][i] - kept["numbers"][i]) <= bound * scale, (name, i)


if __name__ == "__main__":
    write_ledger()
