import contextlib
import io
import json
import re
from pathlib import Path

from bellsim.protocol import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0].endswith("-> violation")
    assert len(lines) == 4 and lines[1].startswith("[[")


def test_the_config_block_is_the_benchmarks_pipeline_config(monkeypatch):
    # tools/stage_rss.py runs the README's block and tools/ab.py and the benchmark run workloads.pipeline_config(0):
    # read the same way, they are one config
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    block = re.search(r"### Config\n\n```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    assert ExperimentConfig.from_dict(json.loads(block)) == ExperimentConfig.from_dict(workloads.pipeline_config(0))
