"""Command-line front end: run -> analyze -> certify, plus analytic oracle queries.

The pipeline is file-mediated so every stage's input is an auditable
artifact: `run` writes the trial records CSV and a manifest, `analyze`
turns records into a report JSON, `certify` turns records + report into a
bit file and a certification JSON, and `oracle` prints the exact
correlators, marginals and inequality value a given configuration targets.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 integrity
failure (records/report mismatch).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import InsufficientDataError, IntegrityError, ValidationError
from .protocol import (
    INEQUALITIES,
    RecordReader,
    _json_float,
    _usable_cpus,
    analyze_records,
    check_sigma_threshold,
    check_threads,
    load_config,
    load_report,
    make_sampler,
    read_label,
    threads_used,
    write_json,
    write_report,
    write_run,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTEGRITY = 3


class _Parser(argparse.ArgumentParser):
    # keep usage errors on the documented validation exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _committed(out: Path, *paths: Path):
    """Yield a sibling ``*.partial`` path for each output path in ``out``, making ``out`` if needed.

    An output path that is a directory is refused first, before the stage
    does any work.  Each partial file is moved onto its output only if the
    block ends without an exception; otherwise, or if a move fails, the
    partial files are removed, and so is every directory this call made
    (never one that was there), so a failed stage leaves nothing new.  All
    outputs share one directory, so once the first move has succeeded the
    rest do too: no stage replaces some of its outputs and not the others.
    """
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    partials = [path.with_name(path.name + ".partial") for path in paths]
    try:
        yield partials
        for partial, path in zip(partials, paths):
            os.replace(partial, path)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):  # one that something else wrote to stays
                directory.rmdir()
        raise


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB, or None where it cannot be read."""
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere


def cmd_run(args) -> int:
    import platform

    import numpy

    threads = check_threads(args.threads, "--threads")  # before the config is read
    config = load_config(args.config)
    out = Path(args.out_dir)
    records_path = out / "records.csv"
    manifest_path = out / "manifest.json"
    with _committed(out, records_path, manifest_path) as (records_tmp, manifest_tmp):
        started = time.perf_counter()
        records_sha256 = write_run(config, records_tmp, threads=threads)
        run_s = time.perf_counter() - started
        manifest = {
            "artifact": "bellsim",
            "version": __version__,
            "config": config.to_jsonable(),
            "selector_seed": config.selector_seed,
            "outcome_seed": config.outcome_seed,
            "threads": threads,
            "outputs": {"records": str(records_path)},
            "records_sha256": records_sha256,
            "duration_seconds": _json_float(run_s),
            "timings": {
                "run_s": _json_float(run_s),  # simulation and writing, which run interleaved
                "trials_per_s": _json_float(config.n_trials / run_s) if run_s > 0 else None,
                "peak_rss_mb": _json_float(_peak_rss_mb()),
            },
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "platform": platform.platform(),
                "nproc": _usable_cpus(),
                "threads": threads,
                "threads_used": threads_used(threads),
            },
        }
        write_json(manifest, manifest_tmp)
    print(f"wrote {records_path} ({config.n_trials} trials) and {manifest_path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    check_sigma_threshold(args.sigma_threshold, "--sigma-threshold")  # before the records are read
    if args.mode is not None:
        read_label(args.mode, "--mode")
    records = RecordReader.read(args.records)
    report = analyze_records(records, mode=args.mode, sigma_threshold=args.sigma_threshold)
    out = Path(args.out_dir)
    report_path = out / "report.json"
    with _committed(out, report_path) as (report_tmp,):
        write_report(report, report_tmp)
    b = report.bell
    print(
        f"{b.quantity}: value {b.value:.12g} vs bound {b.bound:.12g} "
        f"(stderr {b.stderr:.12g}) -> {b.verdict}"
    )
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .randomness import certification_to_jsonable, certify_counts, stream_bits

    report = load_report(args.report)
    out = Path(args.out_dir)
    bits_path = out / "bits.txt"
    cert_path = out / "certification.json"
    with _committed(out, bits_path, cert_path) as (bits_tmp, cert_tmp):
        with open(args.records, "rb") as f, open(bits_tmp, "wb") as bits_file:
            reader = RecordReader(f)
            counts = stream_bits(reader, bits_file)
        cert = certify_counts(counts, reader, report)
        write_json(certification_to_jsonable(cert), cert_tmp)
    status = "certified" if cert.certified else "NOT certified"
    caveat = " (conspiracy caveat applies)" if cert.conspiracy_caveat else ""
    print(f"{cert.n_bits} bits {status}{caveat}; wrote {bits_path} and {cert_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = load_config(args.config)
    sampler = make_sampler(config)
    contexts = sampler.contexts
    moments = {tag: sampler.exact_moments(code) for code, tag in enumerate(contexts.tags)}
    values = {tag: e for tag, (_, _, e) in moments.items()}
    name, bound, value_of = INEQUALITIES[contexts.kind]
    # judged as printed: a float error below the 12th digit must not lift a value at its bound above it
    value, bound = _json_float(value_of(values)), _json_float(bound)
    doc = {
        "mode": config.mode,
        "geometry": contexts.kind,
        "correlators": {tag: _json_float(v) for tag, v in values.items()},
        "marginals": {tag: [_json_float(m1), _json_float(m2)] for tag, (m1, m2, _) in moments.items()},
        "quantity": {"name": name, "value": value, "bound": bound, "exceeds_bound": value > bound},
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
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker threads, a positive integer (default 1; output is identical)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="estimate correlators and evaluate the inequality")
    p_an.add_argument("--records", required=True, help="records CSV from `run`")
    p_an.add_argument("--mode", default=None,
                      help="mode label for the report (default: inferred geometry)")
    p_an.add_argument("--sigma-threshold", type=float, default=5.0,
                      help="significance threshold k for the violation verdict, positive and finite "
                           "(default 5)")
    p_an.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_an.set_defaults(func=cmd_analyze)

    p_ce = sub.add_parser("certify", help="extract bits and certify them against a report")
    p_ce.add_argument("--records", required=True, help="records CSV from `run`")
    p_ce.add_argument("--report", required=True, help="report JSON from `analyze`")
    p_ce.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_ce.set_defaults(func=cmd_certify)

    p_or = sub.add_parser("oracle", help="print exact correlators, marginals and inequality value for a config")
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
