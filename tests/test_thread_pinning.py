"""tools/thread_pinning.py runs each arrangement and reports it, at a small size, in its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "thread_pinning.py"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux and at least 2 usable CPUs")
def test_every_arrangement_is_timed_and_the_process_keeps_its_cpus(tmp_path):
    out = tmp_path / "pinning.json"
    code = ("import os, runpy, sys; before = os.sched_getaffinity(0); sys.argv = sys.argv[1:];"
            "runpy.run_path(sys.argv[0], run_name='not_main').get('main')(sys.argv[1:]);"
            "assert os.sched_getaffinity(0) == before")
    subprocess.run([sys.executable, "-c", code, str(SCRIPT), "--mb", "1", "--repeats", "2", "--out", str(out)],
                   check=True, capture_output=True, text=True)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc["arrangements"]) == ["serial", "threads", "pinned", "processes"]
    for timing in doc["arrangements"].values():
        assert 0.0 < timing["wall_s"]["min"] <= timing["wall_s"]["median"] <= timing["wall_s"]["max"]
        assert timing["cpu_s_median"] > 0.0
    assert all(flag in ("0", "1") for flag in doc["load_balance"].values())
