"""tools/stage_rss.py's verdicts, with each stage replaced by a fake that writes the stage's outputs and reports a
chosen exit code and peak, so no pipeline runs."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SMALL, LARGE = 3_000_000, 30_000_000
STAGES = ("run", "run-2-threads", "analyze", "certify", "analyze-crlf", "certify-crlf")


@pytest.fixture
def stage_rss():
    spec = importlib.util.spec_from_file_location("stage_rss", TOOLS / "stage_rss.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeStage:
    """Stands in for stage_rss.stage: writes each output of the stage under its --out-dir, the same bytes for a
    file of every stage and size unless ``content`` holds others for (stage, trials, file), and returns the exit
    code (default 0) and peak MB (default 40) that ``codes`` and ``peaks`` hold for (stage, trials)."""

    OUTPUTS = {"run": ("records.csv", "manifest.json"), "analyze": ("report.json",),
               "certify": ("bits.txt", "certification.json")}

    def __init__(self, codes=None, peaks=None, content=None):
        self.codes, self.peaks, self.content = codes or {}, peaks or {}, content or {}
        self.calls = []

    def __call__(self, argv):
        if argv == ["--version"]:
            return 0, 0.1, 30.0, 0.1
        out = Path(argv[argv.index("--out-dir") + 1])
        trials = next(int(part) for part in reversed(out.parts) if part.isdigit())
        name = ("run-2-threads" if "--threads" in argv else argv[0]) + ("-crlf" if out.name == "crlf" else "")
        self.calls.append((name, trials))
        out.mkdir(parents=True, exist_ok=True)
        for file in self.OUTPUTS[argv[0]]:
            (out / file).write_bytes(self.content.get((name, trials, file), file.encode() + b"\n"))
        return self.codes.get((name, trials), 0), 1.0, self.peaks.get((name, trials), 40.0), 0.5


def run_main(stage_rss, monkeypatch, capsys, fake):
    monkeypatch.setattr(stage_rss, "stage", fake)
    code = stage_rss.main()
    out, err = capsys.readouterr()
    return code, out, [line for line in err.splitlines() if line.startswith("FAIL ")]


def test_the_limits_and_sizes_are_the_gates(stage_rss):
    assert (stage_rss.SIZES, stage_rss.GROWTH_LIMIT, stage_rss.PEAK_LIMIT_MB) == ((SMALL, LARGE), 1.1, 100.0)


def test_stages_at_their_limits_pass_and_each_is_reported(stage_rss, monkeypatch, capsys):
    fake = FakeStage(peaks={("run", LARGE): stage_rss.GROWTH_LIMIT * 40.0,  # both limits are inclusive
                            ("analyze", SMALL): 95.0, ("analyze", LARGE): 100.0})
    code, out, fails = run_main(stage_rss, monkeypatch, capsys, fake)
    assert (code, fails) == (0, [])
    assert fake.calls == [(name, trials) for trials in (SMALL, LARGE) for name in STAGES]
    lines = out.splitlines()
    for name in STAGES:
        for trials in (SMALL, LARGE):
            [line] = [line for line in lines if line.split()[:2] == [f"{trials:,}", name]]
            assert "exit 0" in line and "0.50 s CPU" in line
    ratios = {line.split()[0]: line for line in lines if "(limit 1.1)" in line}
    assert set(ratios) == set(STAGES)
    assert ": 1.100 " in ratios["run"] and ": 1.053 " in ratios["analyze"] and ": 1.000 " in ratios["certify"]


@pytest.mark.parametrize("fake, fail", [
    (FakeStage(peaks={("run-2-threads", LARGE): 44.5}),
     f"run-2-threads: 44.5 MB at {LARGE:,} trials is above 1.1 x its 40.0 MB at {SMALL:,}"),
    (FakeStage(peaks={("certify", SMALL): 95.0, ("certify", LARGE): 100.5}),
     f"certify: 100.5 MB at {LARGE:,} trials is above 100 MB"),
    (FakeStage(codes={("analyze", SMALL): 1}), f"analyze: exit 1 at {SMALL:,}, 0 at {LARGE:,} trials"),
    (FakeStage(codes={("run", LARGE): 2}), f"run: exit 0 at {SMALL:,}, 2 at {LARGE:,} trials"),
    (FakeStage(content={("run-2-threads", SMALL, "records.csv"): b"other\n"}),
     f"records.csv of run --threads 2 is missing or differs from run's at {SMALL:,} trials"),
    (FakeStage(content={("analyze-crlf", LARGE, "report.json"): b"other\n"}),
     f"report.json of the CRLF copy is missing or differs from the LF file's at {LARGE:,} trials"),
    (FakeStage(content={("certify-crlf", SMALL, "bits.txt"): b"other\n"}),
     f"bits.txt of the CRLF copy is missing or differs from the LF file's at {SMALL:,} trials"),
    (FakeStage(content={("certify-crlf", LARGE, "certification.json"): b"other\n"}),
     f"certification.json of the CRLF copy is missing or differs from the LF file's at {LARGE:,} trials"),
], ids=["growth", "peak", "exit-small", "exit-large", "pooled-records", "crlf-report", "crlf-bits", "crlf-cert"])
def test_each_fault_fails_on_its_own_line(stage_rss, monkeypatch, capsys, fake, fail):
    code, _, fails = run_main(stage_rss, monkeypatch, capsys, fake)
    assert (code, fails) == (1, [f"FAIL {fail}"])
