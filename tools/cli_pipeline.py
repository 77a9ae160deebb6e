"""Run a bellsim command through run -> analyze -> certify -> oracle on the README config at 60 000 trials.

Usage:
    python tools/cli_pipeline.py                          # the installed console script, `bellsim`
    python tools/cli_pipeline.py python -m bellsim.cli    # any other command line that starts the CLI

The config is the README's "### Config" block with n_trials set to 60 000,
and the stages write into a temporary directory.  Each stage must exit 0,
and `oracle` must print a JSON object that holds `correlators`, `marginals`
and `quantity`.  The script prints each stage's exit code and output, and
exits 1 at the first check that fails.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
N_TRIALS = 60_000
ORACLE_KEYS = ("correlators", "marginals", "quantity")


def readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Config\n\n```json\n(.*?)```", text, re.S).group(1)
    return {**json.loads(block), "n_trials": N_TRIALS}


def main(command: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        doc = readme_config()
        config.write_text(json.dumps(doc), encoding="utf-8")
        records, report = str(out / "records.csv"), str(out / "report.json")
        stages = [
            ["run", "--config", str(config), "--out-dir", str(out)],
            ["analyze", "--records", records, "--mode", doc["mode"], "--out-dir", str(out)],
            ["certify", "--records", records, "--report", report, "--out-dir", str(out)],
            ["oracle", "--config", str(config)],
        ]
        for stage in stages:
            done = subprocess.run([*command, *stage], capture_output=True, text=True)
            print(f"{stage[0]}: exit {done.returncode}\n{done.stdout}{done.stderr}", end="")
            if done.returncode != 0:
                return 1
    missing = [key for key in ORACLE_KEYS if key not in json.loads(done.stdout)]
    if missing:
        print(f"oracle printed no {', '.join(missing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["bellsim"]))
