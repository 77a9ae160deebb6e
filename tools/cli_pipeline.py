"""Run a bellsim command through run -> analyze -> certify -> oracle on the README config at 60 000 trials.

Usage:
    python tools/cli_pipeline.py                          # the installed console script, `bellsim`
    python tools/cli_pipeline.py python -m bellsim.cli    # any other command line that starts the CLI

The config is the README's "### Config" block with n_trials set to 60 000,
and the stages write into a temporary directory.  Each stage must exit 0,
and `oracle` must print a JSON object that holds `correlators`, `marginals`
and `quantity`.  Then `analyze` of a copy of the records with the first
s1 = 1 spelled "+1" must exit 1, cite that row's line on stderr and write
no report, and `run` of the config with `"selector_seed": "1_000"` (a digit
separator, which seeds may not hold) must exit 1, print `validation error`
on stderr and make no out dir.  The script prints each command's exit code
and output, and exits 1 at the first check that fails.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from stage_rss import README_CONFIG, stage_argv

N_TRIALS = 60_000
ORACLE_KEYS = ("correlators", "marginals", "quantity")


def bellsim(command: list[str], args: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run([*command, *args], capture_output=True, text=True)
    print(f"{args[0]}: exit {done.returncode}\n{done.stdout}{done.stderr}", end="")
    return done


def refuses_a_respelled_row(command: list[str], out: Path, config: Path) -> bool:
    """Whether `analyze` of the records with one s1 = 1 spelled "+1" exits 1, cites its line and writes nothing."""
    rows = (out / "records.csv").read_bytes().split(b"\n")
    i = next(i for i, row in enumerate(rows) if row.split(b",")[4:5] == [b"1"])  # rows[0] is the header, line 1
    fields = rows[i].split(b",")
    fields[4] = b"+1"
    rows[i] = b",".join(fields)
    spelled = out / "spelled"
    spelled.mkdir()
    (spelled / "records.csv").write_bytes(b"\n".join(rows))
    done = bellsim(command, stage_argv("analyze", spelled, config))
    cited = f"records line {i + 1}: not in canonical form"
    if done.returncode != 1 or cited not in done.stderr or (spelled / "report.json").exists():
        print(f"analyze of a row spelled +1 did not exit 1 citing {cited!r} and writing no report")
        return False
    return True


def refuses_a_separated_seed(command: list[str], tmp: Path) -> bool:
    """Whether `run` with the selector seed "1_000" exits 1 with a validation error and makes no out dir."""
    config, out = tmp / "separated.json", tmp / "separated"
    config.write_text(json.dumps(dict(README_CONFIG, n_trials=N_TRIALS, selector_seed="1_000")), encoding="utf-8")
    done = bellsim(command, stage_argv("run", out, config))
    if done.returncode != 1 or "validation error" not in done.stderr or out.exists():
        print("run with the selector seed '1_000' did not exit 1 with a validation error and no out dir")
        return False
    return True


def main(command: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(dict(README_CONFIG, n_trials=N_TRIALS)), encoding="utf-8")
        stages = [*(stage_argv(name, out, config) for name in ("run", "analyze", "certify")),
                  ["oracle", "--config", str(config)]]
        for stage in stages:
            done = bellsim(command, stage)
            if done.returncode != 0:
                return 1
        missing = [key for key in ORACLE_KEYS if key not in json.loads(done.stdout)]
        if missing:
            print(f"oracle printed no {', '.join(missing)}")
            return 1
        refused = refuses_a_respelled_row(command, out, config) and refuses_a_separated_seed(command, Path(tmp))
        return 0 if refused else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["bellsim"]))
