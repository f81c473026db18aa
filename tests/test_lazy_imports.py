"""Commands load numpy and the process pool only when they compute with them.

numpy is imported inside the functions that use it, and
``concurrent.futures`` only on the ``jobs > 1`` path of
``repro.parallel``.  One stray module-level import would put the
numpy load back on every CLI call, so each command below runs through
``main()`` in one fresh interpreter, and ``sys.modules`` is read after
each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# Commands that compute nothing with numpy, in the order they run.
WITHOUT_NUMPY = (
    ["--help"],
    ["describe", "binary:4"],
    ["verify", "binary:4", "x >= 4", "--max-input", "5"],
    ["certify", "binary:6", "--section", "4"],
    ["bb", "2"],
    ["bb", "3", "--budget", "200"],
    ["simulate", "binary:4", "--input", "6", "--trials", "4", "--engine", "count"],
)
# Runs last: the tau-leap engine is numpy, so the check can fail.
WITH_NUMPY = ["simulate", "binary:4", "--input", "6", "--trials", "4", "--engine", "vector"]

_CHILD = """
import contextlib, io, json, sys
from repro.cli import main

loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    loaded.append({
        "argv": argv,
        "code": code,
        "numpy": "numpy" in sys.modules,
        "pool": "concurrent.futures.process" in sys.modules,
    })
print(json.dumps(loaded))
"""


def test_numpy_loads_only_where_it_computes(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_NO_CACHE", "REPRO_NO_RUNS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([*WITHOUT_NUMPY, WITH_NUMPY])],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    *plain, vector = json.loads(done.stdout)
    for run in plain:
        assert run["code"] == 0, run
        assert not run["numpy"], f"{run['argv']} imported numpy"
        assert not run["pool"], f"{run['argv']} imported the process pool"
    assert vector["code"] == 0
    assert vector["numpy"], "the vector engine ran without numpy"
