"""Experiment orchestration: configs, trial records, estimators and verdicts.

A run is fully determined by (mode, directions, n_trials, selector_seed,
outcome_seed): the selector stream fixes the context of every trial (a
span of trials continues it from the state its first trial needs), each
trial's outcome randomness is derived from its index, and the backend
samplers are pure, so records are bit-identical across re-runs,
chunkings and thread counts.
"""

from __future__ import annotations

import json
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .directions import Direction3
from .errors import InsufficientDataError, ValidationError
from .hidden_variables import (
    QM_MIMIC_NAME,
    SIGN_MODEL_NAME,
    ContextualFiniteModel,
    ContextualModelSampler,
    FiniteHVModel,
    FiniteModelSampler,
    QmMimicModel,
    QmMimicSampler,
    SignModel,
    SignModelSampler,
    load_model,
)
from .quantum import QubitState, SequentialSampler, SingletSampler
from .selector import (
    CHSH_SLOTS,
    CHSH_TAGS,
    TEMPORAL_SLOTS,
    TEMPORAL_TAGS,
    ContextSet,
    SelectorState,
    context_codes,
    derive_trial_randomness,
    next_context,
    state_after,
    trial_uniforms,
    validate_seed,
)

RECORDS_HEADER = "trial,context,slot_x,slot_y,s1,s2"
TEMPORAL_BOUND = 1.0
CHSH_BOUND = 2.0
SELECTOR_ALGORITHM = "splitmix64"

# trials per simulation span, rows per render and verification chunk
_CHUNK = 1 << 16


def round12(x: float) -> float:
    """Round to 12 significant decimal digits (the printed precision)."""
    return float(f"{x:.12g}")


def _json_float(x):
    if x is None or not math.isfinite(x):
        return None
    return round12(float(x))


# --- configuration --------------------------------------------------------------


def parse_mode(mode: str) -> tuple[str, str | None]:
    """Split a mode string into (kind, model argument)."""
    if not isinstance(mode, str):
        raise ValidationError(f"config key 'mode' must be a string, got {type(mode).__name__}")
    if mode in ("qm_sequential", "qm_singlet"):
        return mode, None
    for kind in ("hv", "conspiracy"):
        prefix = kind + ":"
        if mode.startswith(prefix) and len(mode) > len(prefix):
            return kind, mode[len(prefix):]
    raise ValidationError(
        f"config key 'mode' must be qm_sequential, qm_singlet, hv:<model> or "
        f"conspiracy:<model>, got {mode!r}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    mode: str
    directions: tuple[Direction3, ...]
    n_trials: int
    selector_seed: int
    outcome_seed: int
    sigma_threshold: float = 5.0
    selector_algorithm: str = SELECTOR_ALGORITHM

    def __post_init__(self):
        kind, _ = parse_mode(self.mode)
        for i, d in enumerate(self.directions):
            if not isinstance(d, Direction3):
                raise ValidationError(f"config key 'directions'[{i}] must be a unit 3-vector")
        n_dirs = len(self.directions)
        if kind == "qm_sequential" and n_dirs != 3:
            raise ValidationError("config key 'directions': qm_sequential needs 3 directions (a, b, c)")
        if kind == "qm_singlet" and n_dirs != 4:
            raise ValidationError("config key 'directions': qm_singlet needs 4 directions (a, a', b, b')")
        if kind == "hv" and n_dirs not in (3, 4):
            raise ValidationError("config key 'directions': hv mode needs 3 or 4 directions")
        if kind == "conspiracy" and n_dirs != 3:
            raise ValidationError("config key 'directions': conspiracy mode needs 3 directions")
        if not isinstance(self.n_trials, int) or isinstance(self.n_trials, bool):
            raise ValidationError("config key 'n_trials' must be an integer")
        if self.n_trials < 1:
            raise ValidationError(f"config key 'n_trials' must be >= 1, got {self.n_trials}")
        validate_seed(self.selector_seed, "selector_seed")
        validate_seed(self.outcome_seed, "outcome_seed")
        k = self.sigma_threshold
        if not isinstance(k, (int, float)) or isinstance(k, bool) or not math.isfinite(k) or k <= 0:
            raise ValidationError("config key 'sigma_threshold' must be a positive finite number")
        if self.selector_algorithm != SELECTOR_ALGORITHM:
            raise ValidationError(
                f"config key 'selector_algorithm': only {SELECTOR_ALGORITHM!r} is available, "
                f"got {self.selector_algorithm!r}"
            )

    @property
    def geometry(self) -> str:
        """'temporal' (three settings, consecutive) or 'chsh' (four settings, pair)."""
        kind, _ = parse_mode(self.mode)
        if kind == "qm_sequential" or kind == "conspiracy":
            return "temporal"
        if kind == "qm_singlet":
            return "chsh"
        return "temporal" if len(self.directions) == 3 else "chsh"

    def context_set(self) -> ContextSet:
        return ContextSet(self.geometry, self.directions)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        if not isinstance(doc, Mapping):
            raise ValidationError("config must be a JSON object")
        known = {
            "mode", "directions", "n_trials", "selector_seed", "outcome_seed",
            "sigma_threshold", "selector_algorithm",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown config key {sorted(unknown)[0]!r}")
        for key in ("mode", "directions", "n_trials", "selector_seed", "outcome_seed"):
            if key not in doc:
                raise ValidationError(f"missing required config key {key!r}")
        raw_dirs = doc["directions"]
        if not isinstance(raw_dirs, (list, tuple)):
            raise ValidationError("config key 'directions' must be a list of 3-vectors")
        directions = []
        for i, v in enumerate(raw_dirs):
            if not isinstance(v, (list, tuple)) or len(v) != 3:
                raise ValidationError(f"config key 'directions'[{i}] must be a list of 3 reals")
            try:
                directions.append(Direction3(float(v[0]), float(v[1]), float(v[2])))
            except (TypeError, ValueError):
                raise ValidationError(f"config key 'directions'[{i}] has non-numeric components") from None
            except ValidationError as exc:
                raise ValidationError(f"config key 'directions'[{i}]: {exc}") from None
        kwargs = {}
        if "sigma_threshold" in doc:
            kwargs["sigma_threshold"] = doc["sigma_threshold"]
        if "selector_algorithm" in doc:
            kwargs["selector_algorithm"] = doc["selector_algorithm"]
        return cls(
            mode=doc["mode"],
            directions=tuple(directions),
            n_trials=doc["n_trials"],
            selector_seed=validate_seed(doc["selector_seed"], "selector_seed"),
            outcome_seed=validate_seed(doc["outcome_seed"], "outcome_seed"),
            **kwargs,
        )

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode,
            "directions": [[d.x, d.y, d.z] for d in self.directions],
            "n_trials": self.n_trials,
            "selector_seed": self.selector_seed,
            "outcome_seed": self.outcome_seed,
            "sigma_threshold": self.sigma_threshold,
            "selector_algorithm": self.selector_algorithm,
        }


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path}: invalid JSON ({exc})") from None
    return ExperimentConfig.from_dict(doc)


# --- trial records ----------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """One protocol trial: which context was selected and the two outcomes."""

    index: int
    context: str
    slot_x: int
    slot_y: int
    s1: int
    s2: int


_KIND_TABLES = {
    "temporal": dict(zip(TEMPORAL_TAGS, TEMPORAL_SLOTS)),
    "chsh": dict(zip(CHSH_TAGS, CHSH_SLOTS)),
}
_CODE_OF = {kind: {tag: code for code, tag in enumerate(table)} for kind, table in _KIND_TABLES.items()}


def _infer_kind(rows: Iterable[tuple[str, int, int]]) -> str | None:
    """The first record kind whose context table holds every (context, slot_x, slot_y)."""
    rows = set(rows)
    for kind, table in _KIND_TABLES.items():
        if all(table.get(tag) == (sx, sy) for tag, sx, sy in rows):
            return kind
    return None


def _tail_table(table: Mapping[str, tuple[int, int]]) -> np.ndarray:
    # ",tag,x,y,s1,s2\n" by code * 4 + (s1 > 0) * 2 + (s2 > 0), NUL-padded to one width
    tails = [f",{tag},{sx},{sy},{v1},{v2}\n".encode()
             for tag, (sx, sy) in table.items() for v1 in (-1, 1) for v2 in (-1, 1)]
    width = max(len(t) for t in tails)
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tails), np.uint8).reshape(len(tails), width)


_TAILS = {kind: _tail_table(table) for kind, table in _KIND_TABLES.items()}
_HEADER_LINE = (RECORDS_HEADER + "\n").encode("ascii")
# trial 0 plus a tail names the kind; within a kind the slot digits name the context
_KIND_OF_ROW0 = {b"0" + bytes(tail).rstrip(b"\0"): kind for kind, tails in _TAILS.items() for tail in tails}
_MIN_ROW = min(len(row) for row in _KIND_OF_ROW0)  # the shortest canonical row of either kind


def _outcome_key(codes: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    # code * 4 + (s1 > 0) * 2 + (s2 > 0): a trial's row in the tail and count tables
    return codes * np.uint8(4) + (s1 > 0) * np.uint8(2) + (s2 > 0)


def _count_table(n_contexts: int, codes: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    counts = np.bincount(_outcome_key(codes, s1, s2), minlength=4 * n_contexts)
    return _read_only(counts.reshape(n_contexts, 4), np.int64)


def _render_rows(kind: str, trial: np.ndarray, codes: np.ndarray,
                 s1: np.ndarray, s2: np.ndarray) -> bytearray:
    """Canonical CSV rows of a non-empty slice of record columns.

    Every row is laid out in one fixed-width byte grid (sign, right-aligned
    digits, tail), with NUL where a row is shorter than the grid; dropping the
    NULs leaves the rows back to back.
    """
    tails = _TAILS[kind]
    key = _outcome_key(codes, s1, s2)
    neg = trial < 0
    signed = bool(neg.any())
    mag = trial.view(np.uint64)
    if signed:
        mag = np.where(neg, -mag, mag)  # mod 2**64, so -2**63 maps to 2**63
    top = int(mag.max())
    width = len(str(top))
    shortest = len(str(int(mag.min())))
    digits = np.empty((width, trial.size), dtype=np.uint8)
    q = mag.astype(np.uint32) if top < 1 << 32 else mag  # same digits, half the memory traffic
    for d in range(1, width + 1):  # d-th digit from the right
        above = q // 10
        np.add(q - above * 10, ord("0"), out=digits[-d], casting="unsafe")
        if d > shortest:  # a leading position in some rows: NUL where the number is shorter
            digits[-d] *= q > 0
        q = above
    buf = bytearray(trial.size * (signed + width + tails.shape[1]))
    grid = np.frombuffer(buf, np.uint8).reshape(trial.size, -1)
    if signed:
        grid[:, 0] = neg * ord("-")
    grid[:, signed:signed + width] = digits.T
    grid[:, signed + width:] = tails.take(key, axis=0)
    return buf.translate(None, b"\0")


def _parse_canonical(data: bytes) -> "RecordBatch | None":
    """The records of LF-terminated CSV bytes the renderer would write, else None.

    Each row's outcomes and slots are read from its last bytes, counted back
    from its newline; the trials are taken to be 0..n-1.  The columns are then
    rendered again and accepted only if that gives back exactly ``data``, so
    any other input, valid or not, returns None.
    """
    if not data.startswith(_HEADER_LINE) or not data.endswith(b"\n") or len(data) == len(_HEADER_LINE):
        return None
    body = np.frombuffer(data, np.uint8, offset=len(_HEADER_LINE))
    ends = np.flatnonzero(body == ord("\n"))
    kind = _KIND_OF_ROW0.get(bytes(body[:ends[0] + 1]))
    if kind is None or np.diff(ends, prepend=-1).min() < _MIN_ROW:
        return None  # the reads below stay inside each row only from this length on
    s2_neg = body[ends - 2] == ord("-")
    comma2 = ends - 2 - s2_neg
    s1_neg = body[comma2 - 2] == ord("-")
    comma1 = comma2 - 2 - s1_neg
    n = ends.size
    slot_x, slot_y = body[comma1 - 3], body[comma1 - 1]
    codes = np.full(n, 255, dtype=np.uint8)
    for code, (sx, sy) in enumerate(_KIND_TABLES[kind].values()):
        codes[(slot_x == ord(str(sx))) & (slot_y == ord(str(sy)))] = code
    if codes.max() == 255:
        return None
    batch = RecordBatch(kind, np.arange(n, dtype=np.int64), codes,
                        1 - 2 * s1_neg.view(np.int8), 1 - 2 * s2_neg.view(np.int8))
    start = len(_HEADER_LINE)
    for lo in range(0, n, _CHUNK):
        stop = len(_HEADER_LINE) + int(ends[min(lo + _CHUNK, n) - 1]) + 1
        if data[start:stop] != batch._render(lo, lo + _CHUNK):
            return None
        start = stop
    batch._sha256 = hashlib.sha256(data).hexdigest()
    return batch


def _parse_lines(data: bytes) -> "RecordBatch":
    """Line-by-line parser: accepts any integer spelling and cites the line of the first error."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"records line {lineno}: non-ASCII byte") from None
    lines = text.split("\n")
    if lines[0] != RECORDS_HEADER:
        raise ValidationError(f"records line 1: expected header {RECORDS_HEADER!r}")
    if lines[-1] == "":
        lines.pop()
    if len(lines) == 1:
        raise ValidationError("records line 2: no trial rows")
    rows, s1, s2 = [], [], []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ValidationError(f"records line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            trial, sx, sy, v1, v2 = (int(parts[i]) for i in (0, 2, 3, 4, 5))
        except ValueError:
            raise ValidationError(f"records line {lineno}: non-integer field") from None
        if v1 not in (-1, 1) or v2 not in (-1, 1):
            raise ValidationError(f"records line {lineno}: outcomes must be +1 or -1")
        row = (parts[1], sx, sy)
        if row not in seen:
            if _infer_kind([row]) is None:
                raise ValidationError(f"records line {lineno}: unknown context/slot combination")
            seen.add(row)
        if trial != lineno - 2:
            raise ValidationError(f"records line {lineno}: trial {trial} out of order, expected {lineno - 2} "
                                  f"(trials run 0..n-1)")
        rows.append(row)
        s1.append(v1)
        s2.append(v2)
    kind = _infer_kind(seen)
    if kind is None:
        bad = next(i for i, row in enumerate(rows, start=2) if _infer_kind([rows[0], row]) is None)
        raise ValidationError(f"records line {bad}: context/slot combination of another record kind than line 2")
    code_of = _CODE_OF[kind]
    return RecordBatch(kind, np.arange(len(rows), dtype=np.int64),
                       np.array([code_of[tag] for tag, _, _ in rows], dtype=np.uint8),
                       np.array(s1, dtype=np.int8), np.array(s2, dtype=np.int8))


def _read_only(values, dtype) -> np.ndarray:
    col = np.asarray(values, dtype=dtype).view()
    col.flags.writeable = False
    return col


class RecordBatch:
    """Columnar sequence of TrialRecord (cheap at millions of trials).

    Iterating or indexing yields TrialRecord objects; the underlying numpy
    columns are exposed for estimation as read-only views of the arrays
    passed in (no copy), which the caller must not change afterwards.  The
    CSV byte serialization below is the canonical form used for hashing and
    on-disk records; its SHA-256 and its outcome-count table are computed at
    most once per batch.
    """

    def __init__(self, kind: str, trial: np.ndarray, codes: np.ndarray,
                 s1: np.ndarray, s2: np.ndarray):
        if kind not in _KIND_TABLES:
            raise ValidationError(f"unknown record kind {kind!r}")
        self.kind = kind
        self.tags = TEMPORAL_TAGS if kind == "temporal" else CHSH_TAGS
        self.slots = TEMPORAL_SLOTS if kind == "temporal" else CHSH_SLOTS
        self.trial = _read_only(trial, np.int64)
        self.codes = _read_only(codes, np.uint8)
        self.s1 = _read_only(s1, np.int8)
        self.s2 = _read_only(s2, np.int8)
        n = self.trial.size
        if not (self.codes.size == self.s1.size == self.s2.size == n):
            raise ValidationError("record columns must have equal length")
        if n and int(self.codes.max()) >= len(self.tags):
            raise ValidationError(f"context codes of {kind} records must be below {len(self.tags)}")
        self._sha256: str | None = None
        self._counts: np.ndarray | None = None

    def __len__(self) -> int:
        return self.trial.size

    def __getitem__(self, i: int) -> TrialRecord:
        code = int(self.codes[i])
        sx, sy = self.slots[code]
        return TrialRecord(int(self.trial[i]), self.tags[code], sx, sy,
                           int(self.s1[i]), int(self.s2[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.trial, other.trial)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.s1, other.s1)
            and np.array_equal(self.s2, other.s2)
        )

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "RecordBatch":
        records = list(records)
        seen = {(r.context, r.slot_x, r.slot_y) for r in records}
        kind = _infer_kind(seen)
        if kind is None:
            raise ValidationError(f"records carry an unknown context/slot combination: {sorted(seen)}")
        code_of = _CODE_OF[kind]
        return cls(
            kind,
            np.array([r.index for r in records], dtype=np.int64),
            np.array([code_of[r.context] for r in records], dtype=np.uint8),
            np.array([r.s1 for r in records], dtype=np.int8),
            np.array([r.s2 for r in records], dtype=np.int8),
        )

    def outcome_counts(self) -> np.ndarray:
        """The (n_contexts x 4) table of outcome counts, read-only.

        Row ``code`` counts that context's trials by (s1, s2) in the column
        order (-1, -1), (-1, +1), (+1, -1), (+1, +1); counted only if not yet
        known (``run_experiment`` fills it while it runs).
        """
        if self._counts is None:
            self._counts = _count_table(len(self.tags), self.codes, self.s1, self.s2)
        return self._counts

    # -- canonical CSV form --

    def _render(self, lo: int, hi: int) -> bytearray:
        return _render_rows(self.kind, self.trial[lo:hi], self.codes[lo:hi], self.s1[lo:hi], self.s2[lo:hi])

    def _csv_chunks(self):
        yield _HEADER_LINE
        for lo in range(0, len(self), _CHUNK):
            yield self._render(lo, lo + _CHUNK)

    def to_csv_bytes(self) -> bytes:
        return b"".join(self._csv_chunks())

    def sha256(self) -> str:
        """SHA-256 of the canonical CSV (LF line ends), rendered only if not yet known."""
        if self._sha256 is None:
            digest = hashlib.sha256()
            for chunk in self._csv_chunks():
                digest.update(chunk)
            self._sha256 = digest.hexdigest()
        return self._sha256

    def write_csv(self, path) -> None:
        """Write the canonical CSV _CHUNK rows at a time, hashing it on the way."""
        digest = hashlib.sha256()
        with open(path, "wb") as f:
            for chunk in self._csv_chunks():
                f.write(chunk)
                digest.update(chunk)
        self._sha256 = digest.hexdigest()

    @classmethod
    def from_csv(cls, path) -> "RecordBatch":
        """Read a records CSV whose trial column runs 0..n-1.

        Line ends may be LF, CRLF or CR, read as LF, so the hash of a CRLF
        copy is that of the canonical file.  Canonical bytes take a vectorized
        path; anything else, including valid spellings such as "+1" or "01",
        goes through the line-by-line parser, which cites the first bad line.
        """
        data = Path(path).read_bytes()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        batch = _parse_canonical(data)
        return batch if batch is not None else _parse_lines(data)


# --- running experiments -------------------------------------------------------------


def make_sampler(config: ExperimentConfig, contexts: ContextSet | None = None,
                 model=None, state0: QubitState | None = None):
    """Build the trial sampler for a config (optionally with an in-memory model)."""
    contexts = contexts if contexts is not None else config.context_set()
    kind, arg = parse_mode(config.mode)
    if state0 is not None and kind != "qm_sequential":
        raise ValidationError("an initial state is only meaningful for qm_sequential mode")
    if kind == "qm_sequential":
        return SequentialSampler(contexts, state0)
    if kind == "qm_singlet":
        return SingletSampler(contexts)
    if kind == "hv":
        if model is None:
            model = SignModel() if arg == SIGN_MODEL_NAME else load_model(arg)
        if isinstance(model, SignModel):
            return SignModelSampler(contexts)
        if isinstance(model, FiniteHVModel):
            return FiniteModelSampler(model, contexts)
        raise ValidationError(
            f"hv mode needs a non-contextual model, got {type(model).__name__} "
            f"(contextual models run under conspiracy mode)"
        )
    if model is None:
        model = QmMimicModel() if arg == QM_MIMIC_NAME else load_model(arg)
    if isinstance(model, QmMimicModel):
        return QmMimicSampler(contexts)
    if isinstance(model, ContextualFiniteModel):
        return ContextualModelSampler(model, contexts)
    raise ValidationError(f"conspiracy mode needs a contextual model, got {type(model).__name__}")


def resolve_threads(threads: int | None = None) -> int:
    """Thread count: BELLSIM_THREADS overrides the argument; default 1."""
    env = os.environ.get("BELLSIM_THREADS")
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            raise ValidationError(f"BELLSIM_THREADS must be an integer, got {env!r}") from None
    if threads is None:
        threads = 1
    if threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {threads}")
    return threads


def run_experiment(config: ExperimentConfig, model=None,
                   state0: QubitState | None = None, threads: int | None = None) -> RecordBatch:
    """Run all trials of an experiment; bit-identical for identical seeds.

    The trials are split into balanced spans, at most _CHUNK trials each and
    at least one per thread.  A span draws its contexts from the selector
    state its first trial starts at, and its uniforms from the trial indices,
    so neither the split nor the thread pool over the spans can change the
    records.  Each span also counts its outcomes, and the batch keeps the
    sum as its :meth:`RecordBatch.outcome_counts`.
    """
    contexts = config.context_set()
    sampler = make_sampler(config, contexts, model=model, state0=state0)
    n = config.n_trials
    n_threads = resolve_threads(threads)
    codes = np.empty(n, dtype=np.uint8)
    s1 = np.empty(n, dtype=np.int8)
    s2 = np.empty(n, dtype=np.int8)

    def fill(lo: int, hi: int) -> np.ndarray:
        start = state_after(config.selector_seed, lo, len(contexts))
        codes[lo:hi] = context_codes(start, hi - lo, len(contexts))
        u = trial_uniforms(config.outcome_seed, lo, hi, n_draws=2)
        s1[lo:hi], s2[lo:hi] = sampler.run(codes[lo:hi], u[0], u[1])
        return _count_table(len(contexts), codes[lo:hi], s1[lo:hi], s2[lo:hi])

    n_spans = min(max(-(-n // _CHUNK), n_threads), n)
    spans = [(n * i // n_spans, n * (i + 1) // n_spans) for i in range(n_spans)]
    if n_threads == 1:
        tables = [fill(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            tables = list(pool.map(lambda span: fill(*span), spans))
    batch = RecordBatch(config.geometry, np.arange(n, dtype=np.int64), codes, s1, s2)
    batch._counts = _read_only(sum(tables), np.int64)
    return batch


def _run_reference(config: ExperimentConfig, model=None,
                   state0: QubitState | None = None) -> RecordBatch:
    # per-trial scalar path; the vectorized runner must match it bit-for-bit
    contexts = config.context_set()
    sampler = make_sampler(config, contexts, model=model, state0=state0)
    sel = SelectorState.from_seed(config.selector_seed)
    n = config.n_trials
    codes = np.empty(n, dtype=np.uint8)
    s1 = np.empty(n, dtype=np.int8)
    s2 = np.empty(n, dtype=np.int8)
    for i in range(n):
        ctx, sel = next_context(sel, contexts)
        code = contexts.code_of_tag(ctx.tag)
        stream = derive_trial_randomness(config.outcome_seed, i)
        u1 = stream.next()
        u2 = stream.next()
        codes[i], (s1[i], s2[i]) = code, sampler.trial(code, u1, u2)
    return RecordBatch(config.geometry, np.arange(n, dtype=np.int64), codes, s1, s2)


# --- estimation and inequality reports --------------------------------------------------


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Sample mean of s1*s2 in one context, with its plug-in standard error."""

    context: str
    n: int
    mean: float
    stderr: float


@dataclass(frozen=True)
class BellReport:
    """An inequality evaluation: the combined quantity against its bound."""

    quantity: str
    value: float
    bound: float
    stderr: float
    sigma_excess: float
    verdict: str
    sigma_threshold: float


def estimate_correlators(records, contexts: Iterable[str] | None = None) -> dict[str, CorrelatorEstimate]:
    """Per-context sample means and standard errors of the outcome product.

    Every expected context (default: all contexts of the records' geometry)
    must hold at least two trials.  The estimates read the batch's table of
    outcome counts; a sum of +-1 values is exact in float64, so the mean
    (n_same - n_diff) / n is the sample mean of s1*s2 to the last bit.
    """
    batch = records if isinstance(records, RecordBatch) else RecordBatch.from_records(records)
    expected = tuple(contexts) if contexts is not None else batch.tags
    counts = batch.outcome_counts().tolist()
    out: dict[str, CorrelatorEstimate] = {}
    for tag in expected:
        if tag not in batch.tags:
            raise InsufficientDataError(f"context {tag}: no records (need >= 2)")
        both_neg, neg_pos, pos_neg, both_pos = counts[batch.tags.index(tag)]
        n = both_neg + neg_pos + pos_neg + both_pos
        if n < 2:
            raise InsufficientDataError(f"context {tag}: {n} record(s) (need >= 2)")
        mean = (both_neg + both_pos - neg_pos - pos_neg) / n
        stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / n)
        out[tag] = CorrelatorEstimate(tag, n, mean, stderr)
    return out


def _as_estimate_map(estimates) -> Mapping[str, CorrelatorEstimate]:
    if isinstance(estimates, Mapping):
        return estimates
    return {e.context: e for e in estimates}


def _verdict(value: float, bound: float, stderr: float, k: float) -> tuple[float, str]:
    if stderr > 0.0:
        excess = (value - bound) / stderr
    else:
        excess = math.inf if value > bound else -math.inf
    if excess >= k:
        return excess, "violation"
    if value <= bound:
        return excess, "consistent"
    return excess, "inconclusive"


def bell_quantity(estimates, sigma_threshold: float = 5.0) -> BellReport:
    """|P(a,b) - P(a,c)| + P(b,c) against the determinism bound 1."""
    est = _as_estimate_map(estimates)
    for tag in TEMPORAL_TAGS:
        if tag not in est:
            raise InsufficientDataError(f"missing correlator estimate for context {tag}")
    ab, ac, bc = est["AB"], est["AC"], est["BC"]
    value = abs(ab.mean - ac.mean) + bc.mean
    stderr = math.sqrt(ab.stderr ** 2 + ac.stderr ** 2 + bc.stderr ** 2)
    excess, verdict = _verdict(value, TEMPORAL_BOUND, stderr, sigma_threshold)
    return BellReport("temporal_bell", value, TEMPORAL_BOUND, stderr, excess, verdict, sigma_threshold)


def chsh_quantity(estimates, sigma_threshold: float = 5.0) -> BellReport:
    """|P(a,b) - P(a,b')| + |P(a',b') + P(a',b)| against the bound 2."""
    est = _as_estimate_map(estimates)
    for tag in CHSH_TAGS:
        if tag not in est:
            raise InsufficientDataError(f"missing correlator estimate for context {tag}")
    value = abs(est["AB"].mean - est["ABp"].mean) + abs(est["ApBp"].mean + est["ApB"].mean)
    stderr = math.sqrt(sum(est[t].stderr ** 2 for t in CHSH_TAGS))
    excess, verdict = _verdict(value, CHSH_BOUND, stderr, sigma_threshold)
    return BellReport("chsh", value, CHSH_BOUND, stderr, excess, verdict, sigma_threshold)


# --- analysis report document -------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """Per-context estimates plus the inequality verdict for one records file."""

    mode: str
    records_sha256: str
    n_trials: int
    sigma_threshold: float
    estimates: dict[str, CorrelatorEstimate]
    bell: BellReport


def analyze_records(records: RecordBatch, mode: str | None = None,
                    sigma_threshold: float = 5.0) -> AnalysisReport:
    """Estimate all correlators of a record batch and evaluate its inequality."""
    if mode is None:
        mode = records.kind
    else:
        _check_mode_matches(mode, records.kind)
    estimates = estimate_correlators(records)
    if records.kind == "temporal":
        report = bell_quantity(estimates, sigma_threshold)
    else:
        report = chsh_quantity(estimates, sigma_threshold)
    return AnalysisReport(mode, records.sha256(), len(records), sigma_threshold, estimates, report)


def _check_mode_matches(mode: str, kind: str) -> None:
    if mode in ("temporal", "chsh"):
        expected = mode
    else:
        kindspec, _ = parse_mode(mode)
        if kindspec == "qm_sequential" or kindspec == "conspiracy":
            expected = "temporal"
        elif kindspec == "qm_singlet":
            expected = "chsh"
        else:
            return  # hv runs either geometry; the records decide
    if expected != kind:
        raise ValidationError(f"mode {mode!r} implies {expected} records, got {kind}")


def report_to_jsonable(report: AnalysisReport) -> dict:
    return {
        "mode": report.mode,
        "records_sha256": report.records_sha256,
        "n_trials": report.n_trials,
        "sigma_threshold": _json_float(report.sigma_threshold),
        "estimates": {
            tag: {"n": e.n, "mean": _json_float(e.mean), "stderr": _json_float(e.stderr)}
            for tag, e in report.estimates.items()
        },
        "bell": {
            "quantity": report.bell.quantity,
            "value": _json_float(report.bell.value),
            "bound": _json_float(report.bell.bound),
            "stderr": _json_float(report.bell.stderr),
            "sigma_excess": _json_float(report.bell.sigma_excess),
            "verdict": report.bell.verdict,
        },
    }


def report_from_jsonable(doc: Mapping) -> AnalysisReport:
    try:
        estimates = {
            tag: CorrelatorEstimate(tag, int(e["n"]), float(e["mean"]), float(e["stderr"]))
            for tag, e in doc["estimates"].items()
        }
        b = doc["bell"]
        sigma_excess = b["sigma_excess"]
        bell = BellReport(
            b["quantity"], float(b["value"]), float(b["bound"]), float(b["stderr"]),
            math.inf if sigma_excess is None and b["verdict"] == "violation"
            else (-math.inf if sigma_excess is None else float(sigma_excess)),
            b["verdict"], float(doc["sigma_threshold"]),
        )
        return AnalysisReport(
            str(doc["mode"]), str(doc["records_sha256"]), int(doc["n_trials"]),
            float(doc["sigma_threshold"]), estimates, bell,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed analysis report: {exc!r}") from None


def write_report(report: AnalysisReport, path) -> None:
    Path(path).write_text(json.dumps(report_to_jsonable(report), indent=2) + "\n", encoding="utf-8")


def load_report(path) -> AnalysisReport:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"report file {path}: invalid JSON ({exc})") from None
    return report_from_jsonable(doc)
