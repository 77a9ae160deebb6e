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
import subprocess
import sys
import tempfile
from pathlib import Path

from stage_rss import README_CONFIG, stage_argv

N_TRIALS = 60_000
ORACLE_KEYS = ("correlators", "marginals", "quantity")


def main(command: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(dict(README_CONFIG, n_trials=N_TRIALS)), encoding="utf-8")
        stages = [*(stage_argv(name, out, config) for name in ("run", "analyze", "certify")),
                  ["oracle", "--config", str(config)]]
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
