"""Spans around bellsim's layer boundaries, installed from outside the package.

Each traced name is replaced, for the length of a traced pass, by a wrapper
in every ``bellsim`` module namespace (and class) where a caller looks it
up; e.g. ``extract_bits`` is wrapped both as ``bellsim.randomness.extract_bits``
and ``bellsim.cli.extract_bits``.  Spans stay in memory and are written out
when the run ends.  A name that the package no longer has is reported in
``missing`` and its span counts stay at zero.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from checks import CONTEXTS, RECORDS_HEADER

# (layer, span, module, qualified name); the layer is the module's name.
SPANS = [
    ("selector", "context_codes", "bellsim.selector", "context_codes"),
    ("selector", "trial_uniforms", "bellsim.selector", "trial_uniforms"),
    ("quantum", "SequentialSampler.run", "bellsim.quantum", "SequentialSampler.run"),
    ("quantum", "SingletSampler.run", "bellsim.quantum", "SingletSampler.run"),
    ("hidden_variables", "SignModelSampler.run", "bellsim.hidden_variables", "SignModelSampler.run"),
    ("hidden_variables", "FiniteModelSampler.run", "bellsim.hidden_variables", "FiniteModelSampler.run"),
    ("hidden_variables", "ContextualModelSampler.run", "bellsim.hidden_variables",
     "ContextualModelSampler.run"),
    ("hidden_variables", "QmMimicSampler.run", "bellsim.hidden_variables", "QmMimicSampler.run"),
    ("hidden_variables", "load_model", "bellsim.hidden_variables", "load_model"),
    ("protocol", "load_config", "bellsim.protocol", "load_config"),
    ("protocol", "make_sampler", "bellsim.protocol", "make_sampler"),
    ("protocol", "run_experiment", "bellsim.protocol", "run_experiment"),
    ("protocol", "to_csv_bytes", "bellsim.protocol", "RecordBatch.to_csv_bytes"),
    ("protocol", "sha256", "bellsim.protocol", "RecordBatch.sha256"),
    ("protocol", "write_csv", "bellsim.protocol", "RecordBatch.write_csv"),
    ("protocol", "from_csv", "bellsim.protocol", "RecordBatch.from_csv"),
    ("protocol", "estimate_correlators", "bellsim.protocol", "estimate_correlators"),
    ("protocol", "analyze_records", "bellsim.protocol", "analyze_records"),
    ("protocol", "write_report", "bellsim.protocol", "write_report"),
    ("protocol", "load_report", "bellsim.protocol", "load_report"),
    ("randomness", "certify", "bellsim.randomness", "certify"),
    ("randomness", "extract_bits", "bellsim.randomness", "extract_bits"),
    ("randomness", "monobit_test", "bellsim.randomness", "monobit_test"),
    ("randomness", "runs_test", "bellsim.randomness", "runs_test"),
    ("randomness", "write_bits", "bellsim.randomness", "write_bits"),
    ("cli", "cmd_run", "bellsim.cli", "cmd_run"),
    ("cli", "cmd_analyze", "bellsim.cli", "cmd_analyze"),
    ("cli", "cmd_certify", "bellsim.cli", "cmd_certify"),
]
SPAN_NAMES = [f"{layer}.{span}" for layer, span, _, _ in SPANS]
CLI_STAGES = ["cli.cmd_run", "cli.cmd_analyze", "cli.cmd_certify"]

# spans whose resident-memory peak is reported
PEAK_SPANS = ["protocol.to_csv_bytes", "protocol.from_csv", "randomness.extract_bits",
              "protocol.run_experiment", *CLI_STAGES]


def _file_size(path) -> int:
    return os.stat(path).st_size


def _csv_size(batch) -> int:
    """Size of a batch's canonical records CSV, computed from its columns."""
    trial = batch.trial
    top = int(trial.max()) if trial.size else 0
    digits = trial.size + sum(int(np.count_nonzero(trial >= 10 ** d))
                              for d in range(1, len(str(top))))
    tag_len = np.array([len(tag) for tag, _, _ in CONTEXTS[batch.kind]])
    tags = int(tag_len @ np.bincount(batch.codes, minlength=tag_len.size))
    minus = int(np.count_nonzero(batch.s1 < 0)) + int(np.count_nonzero(batch.s2 < 0))
    # ",tag,x,y,s1,s2\n" is 10 bytes besides the tag and the minus signs
    return len(RECORDS_HEADER) + digits + tags + minus + 10 * trial.size


# bytes handled per call, computed from sizes after the call returns
BYTES = {
    "protocol.to_csv_bytes": lambda args, result: len(result),
    "protocol.sha256": lambda args, result: _csv_size(args[0]),
    "protocol.write_csv": lambda args, result: _file_size(args[1]),
    "protocol.from_csv": lambda args, result: _file_size(args[1]),
    "randomness.write_bits": lambda args, result: _file_size(args[1]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str = ""
    thread: int = 0
    hidden: float = 0.0  # tracer bookkeeping inside this span, excluded from self time
    bytes: int | None = None
    peak: int | None = None  # resident bytes above the level at entry


@dataclass
class _Frame:
    index: int
    base: int = 0
    peak: int = 0


class RssSampler:
    """The process's resident set size, read from /proc/self/statm.

    A background thread samples it every millisecond (the interpreter's
    switch interval can stretch that to a few milliseconds in Python-bound
    code) and raises the peak of every open frame.
    """

    PERIOD_S = 0.001

    def __init__(self, frames: list, lock: threading.Lock):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._frames, self._lock = frames, lock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()

    def read(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            rss = self.read()
            with self._lock:
                for frame in self._frames:
                    frame.peak = max(frame.peak, rss)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


@dataclass
class Tracer:
    """Records spans; with ``memory=True`` it records resident-memory peaks instead of times.

    The memory pass is separate so that sampling does not inflate self times.
    """

    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    op: str = ""

    def __post_init__(self):
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._open: list[_Frame] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._rss: RssSampler | None = None

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # worker threads inherit the main thread's innermost span as parent
            stack = self._local.stack = [] if threading.current_thread() is not threading.main_thread() \
                else self._main_stack
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, 0.0, parent=parent.index if parent else None, op=self.op,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            frame = _Frame(len(self.spans) - 1)
            if self._rss is not None:
                frame.base = frame.peak = self._rss.read()
                self._open.append(frame)
        stack.append(frame)
        span.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, args, result, ok: bool) -> None:
        span = self.spans[frame.index]
        span.end = time.perf_counter()
        self._stack().pop()
        if self._rss is not None:
            rss = self._rss.read()
            with self._lock:
                self._open.remove(frame)
                span.peak = max(frame.peak, rss) - frame.base
        measure = BYTES.get(span.name)
        if measure is not None and ok:
            try:
                span.bytes = measure(args, result)
            except (AttributeError, TypeError, OSError):
                span.bytes = None
        if span.parent is not None:
            with self._lock:
                self.spans[span.parent].hidden += time.perf_counter() - span.end

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._exit(frame, args, result, ok)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name wherever a bellsim module or class holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bellsim" or key.startswith("bellsim."))]
        for layer, span, module_name, qualname in SPANS:
            name = f"{layer}.{span}"
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif owner_name:
                self._patch(owner, attr, self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, raw)
                for m in modules:
                    if m.__dict__.get(attr) is raw:
                        self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        if self.memory:
            self._rss = RssSampler(self._open, self._lock)
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        if self._rss is not None:
            self._rss.close()
            self._rss = None
        return False


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[tuple[float, float]]:
    """(self time, share covered by child spans) of each span.

    Self time is the span's duration minus the part of it that its child
    spans cover (children running in parallel threads count once) and minus
    the tracer's own bookkeeping inside it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        covered = _union_length([(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(i, [])])
        out.append((max(0.0, duration - covered - s["hidden"]), covered / duration if duration > 0 else 0.0))
    return out
