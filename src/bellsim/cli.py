"""Command-line front end: run -> analyze -> certify, plus analytic oracle queries.

The pipeline is file-mediated so every stage's input is an auditable
artifact: `run` writes the trial records CSV and a manifest, `analyze`
turns records into a report JSON, `certify` turns records + report into a
bit file and a certification JSON, and `oracle` prints the exact
correlators and inequality value a given configuration targets.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 integrity
failure (records/report mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .errors import InsufficientDataError, IntegrityError, ValidationError
from .protocol import (
    QUANTITIES,
    CorrelatorEstimate,
    RecordBatch,
    _json_float,
    analyze_records,
    load_config,
    load_report,
    make_sampler,
    resolve_threads,
    run_experiment,
    write_report,
)
from .randomness import certification_to_jsonable, certify_bits, extract_bits, write_bits

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTEGRITY = 3


class _Parser(argparse.ArgumentParser):
    # keep usage errors on the documented validation exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    config = load_config(args.config)
    threads = resolve_threads(args.threads)
    started = time.monotonic()
    records = run_experiment(config, threads=threads)
    duration = time.monotonic() - started
    out = _out_dir(args)
    records_path = out / "records.csv"
    records.write_csv(records_path)
    manifest = {
        "artifact": "bellsim",
        "version": __version__,
        "config": config.to_jsonable(),
        "selector_seed": config.selector_seed,
        "outcome_seed": config.outcome_seed,
        "threads": threads,
        "outputs": {"records": str(records_path)},
        "records_sha256": records.sha256(),
        "duration_seconds": _json_float(duration),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {records_path} ({len(records)} trials) and {manifest_path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    records = RecordBatch.from_csv(args.records)
    report = analyze_records(records, mode=args.mode, sigma_threshold=args.sigma_threshold)
    out = _out_dir(args)
    report_path = out / "report.json"
    write_report(report, report_path)
    b = report.bell
    print(
        f"{b.quantity}: value {b.value:.12g} vs bound {b.bound:.12g} "
        f"(stderr {b.stderr:.12g}) -> {b.verdict}"
    )
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_certify(args) -> int:
    records = RecordBatch.from_csv(args.records)
    report = load_report(args.report)
    bits = extract_bits(records)
    cert = certify_bits(bits, report)
    out = _out_dir(args)
    bits_path = out / "bits.txt"
    cert_path = out / "certification.json"
    write_bits(bits, bits_path)
    cert_path.write_text(json.dumps(certification_to_jsonable(cert), indent=2) + "\n", encoding="utf-8")
    status = "certified" if cert.certified else "NOT certified"
    caveat = " (conspiracy caveat applies)" if cert.conspiracy_caveat else ""
    print(f"{cert.n_bits} bits {status}{caveat}; wrote {bits_path} and {cert_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = load_config(args.config)
    contexts = config.context_set()
    sampler = make_sampler(config, contexts)
    values = {tag: sampler.analytic_correlator(code) for code, tag in enumerate(contexts.tags)}
    # exact correlators carry no sampling error
    estimates = {tag: CorrelatorEstimate(tag, 0, v, 0.0) for tag, v in values.items()}
    report = QUANTITIES[contexts.kind](estimates, config.sigma_threshold)
    doc = {
        "mode": config.mode,
        "geometry": contexts.kind,
        "correlators": {tag: _json_float(v) for tag, v in values.items()},
        "quantity": {
            "name": report.quantity,
            "value": _json_float(report.value),
            "bound": _json_float(report.bound),
            "exceeds_bound": report.value > report.bound,
        },
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellsim", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run an experiment and write records + manifest")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker threads (BELLSIM_THREADS overrides; output is identical)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="estimate correlators and evaluate the inequality")
    p_an.add_argument("--records", required=True, help="records CSV from `run`")
    p_an.add_argument("--mode", default=None,
                      help="mode label for the report (default: inferred geometry)")
    p_an.add_argument("--sigma-threshold", type=float, default=5.0,
                      help="significance threshold k for the violation verdict (default 5)")
    p_an.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_an.set_defaults(func=cmd_analyze)

    p_ce = sub.add_parser("certify", help="extract bits and certify them against a report")
    p_ce.add_argument("--records", required=True, help="records CSV from `run`")
    p_ce.add_argument("--report", required=True, help="report JSON from `analyze`")
    p_ce.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_ce.set_defaults(func=cmd_certify)

    p_or = sub.add_parser("oracle", help="print exact correlators and inequality value for a config")
    p_or.add_argument("--config", required=True, help="experiment config JSON")
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InsufficientDataError) as exc:
        print(f"bellsim: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrityError as exc:
        print(f"bellsim: integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as exc:
        print(f"bellsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
