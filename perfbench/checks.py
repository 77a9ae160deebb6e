"""Output checker: what the program wrote, against values the benchmark derives itself.

Nothing here calls bellsim's own rendering, hashing, estimation or
certification code.  Records are rendered from numpy columns, estimates
come from per-context outcome counts (one ``np.bincount``), and the
certification fields are recomputed with the README's monobit and runs
formulas.  Documents are compared key by key over the keys listed here, so
keys that a later version adds are ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RECORDS_HEADER = b"trial,context,slot_x,slot_y,s1,s2\n"
CONTEXTS = {
    "temporal": (("AB", 1, 2), ("AC", 1, 3), ("BC", 2, 3)),
    "chsh": (("AB", 1, 3), ("ABp", 1, 4), ("ApB", 2, 3), ("ApBp", 2, 4)),
}
BOUNDS = {"temporal": ("temporal_bell", 1.0), "chsh": ("chsh", 2.0)}
SIGNIFICANCE_FLOOR = 0.01
REL_TOL = 1e-9


def _row_suffixes(kind: str) -> list[bytes]:
    # indexed by code * 4 + (s1 > 0) * 2 + (s2 > 0)
    return [f",{tag},{x},{y},{b1},{b2}\n".encode()
            for tag, x, y in CONTEXTS[kind] for b1 in (-1, 1) for b2 in (-1, 1)]


def outcome_keys(codes: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    return codes.astype(np.int64) * 4 + (s1 > 0) * 2 + (s2 > 0)


def render_records(kind: str, codes: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> bytes:
    """The canonical records CSV (LF line ends) of trials 0..n-1."""
    n = codes.size
    idx = np.arange(n, dtype=np.int64)
    ndig = np.ones(n, dtype=np.int64)
    power = 10
    while power < n:
        ndig += idx >= power
        power *= 10
    suffixes = _row_suffixes(kind)
    key = outcome_keys(codes, s1, s2)
    row_len = ndig + np.array([len(s) for s in suffixes], dtype=np.int64)[key]
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(row_len[:-1], out=starts[1:])
    buf = np.empty(int(row_len.sum()), dtype=np.uint8)
    for d in range(int(ndig.max()) if n else 0):
        rows = np.flatnonzero(ndig > d)
        buf[starts[rows] + ndig[rows] - 1 - d] = 48 + (rows // 10 ** d) % 10
    for k, suffix in enumerate(suffixes):
        rows = np.flatnonzero(key == k)
        if rows.size:
            at = (starts[rows] + ndig[rows])[:, None] + np.arange(len(suffix))
            buf[at] = np.frombuffer(suffix, dtype=np.uint8)
    return RECORDS_HEADER + buf.tobytes()


def render_bits(s1: np.ndarray, s2: np.ndarray, width: int = 64) -> bytes:
    """bits.txt: per trial s1 then s2 (+1 -> '1'), `width` bits per line."""
    chars = np.empty(2 * s1.size, dtype=np.uint8)
    chars[0::2] = 48 + (s1 > 0)
    chars[1::2] = 48 + (s2 > 0)
    full, rest = divmod(chars.size, width)
    lines = np.empty((full, width + 1), dtype=np.uint8)
    lines[:, :width] = chars[:full * width].reshape(full, width)
    lines[:, width] = 10
    tail = chars[full * width:].tobytes() + b"\n" if rest else b""
    return lines.tobytes() + tail


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def columns_digest(codes: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> str:
    """A digest of the record columns, for comparing in-memory runs."""
    h = hashlib.blake2b(digest_size=16)
    for col, dtype in ((codes, np.uint8), (s1, np.int8), (s2, np.int8)):
        h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    return h.hexdigest()


def context_counts(kind: str, codes, s1, s2) -> np.ndarray:
    """(n_contexts x 4) outcome counts: columns (-,-), (-,+), (+,-), (+,+)."""
    n_ctx = len(CONTEXTS[kind])
    return np.bincount(outcome_keys(codes, s1, s2), minlength=4 * n_ctx).reshape(n_ctx, 4)


def expected_analysis(kind: str, counts: np.ndarray, sigma_threshold: float = 5.0) -> dict:
    """Per-context estimates and the inequality verdict, from outcome counts."""
    estimates = {}
    for (tag, _, _), row in zip(CONTEXTS[kind], counts.tolist()):
        n = sum(row)
        mean = (row[0] + row[3] - row[1] - row[2]) / n
        estimates[tag] = {"n": n, "mean": mean, "stderr": math.sqrt(max(0.0, 1.0 - mean * mean) / n)}
    m = {tag: e["mean"] for tag, e in estimates.items()}
    if kind == "temporal":
        value = abs(m["AB"] - m["AC"]) + m["BC"]
    else:
        value = abs(m["AB"] - m["ABp"]) + abs(m["ApBp"] + m["ApB"])
    quantity, bound = BOUNDS[kind]
    stderr = math.sqrt(sum(e["stderr"] ** 2 for e in estimates.values()))
    excess = (value - bound) / stderr if stderr > 0 else (math.inf if value > bound else -math.inf)
    if excess >= sigma_threshold:
        verdict = "violation"
    elif value <= bound:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    bell = {"quantity": quantity, "value": value, "bound": bound, "stderr": stderr,
            "sigma_excess": excess if math.isfinite(excess) else None, "verdict": verdict}
    return {"n_trials": int(counts.sum()), "sigma_threshold": sigma_threshold,
            "estimates": estimates, "bell": bell}


def expected_certification(s1: np.ndarray, s2: np.ndarray, verdict: str, bell_value: float,
                           conspiracy: bool) -> dict:
    """certification.json fields from the README's monobit and runs formulas."""
    bits = np.empty(2 * s1.size, dtype=np.int8)
    bits[0::2] = s1 > 0
    bits[1::2] = s2 > 0
    n = bits.size
    ones = int(np.count_nonzero(bits))
    monobit_p = math.erfc(abs(2 * ones - n) / math.sqrt(2.0 * n))
    pi = ones / n
    applicable = abs(pi - 0.5) < 2.0 / math.sqrt(n)
    runs_total = 1 + int(np.count_nonzero(np.diff(bits))) if applicable else None
    runs_p = (math.erfc(abs(runs_total - 2.0 * n * pi * (1.0 - pi))
                        / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))) if applicable else None)
    certified = (verdict == "violation" and monobit_p >= SIGNIFICANCE_FLOOR
                 and applicable and runs_p >= SIGNIFICANCE_FLOOR)
    return {"certified": certified, "bell_verdict": verdict, "bell_value": bell_value,
            "monobit_p": monobit_p, "runs_applicable": applicable, "runs_p": runs_p,
            "runs_total": runs_total, "n_bits": n, "significance_floor": SIGNIFICANCE_FLOOR,
            "conspiracy_caveat": conspiracy}


def mismatches(actual, expected, where: str = "") -> list[str]:
    """Differences between a document and the expected values of its listed keys.

    Floats compare with a relative tolerance of 1e-9 (documents print 12
    significant digits); keys not listed in `expected` are ignored.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where or '.'}: expected an object"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(mismatches(actual[key], value, f"{where}.{key}"))
        return out
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=1e-12):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{where}: got {actual!r}, expected {expected!r}"]


def read_json(path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {"__unreadable__": repr(exc)}


class Reference:
    """Expected outputs of one records set, derived from its numpy columns.

    Built outside any timed region from the library's in-memory run of the
    workload config.
    """

    def __init__(self, kind: str, codes, s1, s2, mode: str, golden: dict | None = None):
        self.kind, self.mode, self.golden = kind, mode, golden or {}
        self.n = int(codes.size)
        self.csv = render_records(kind, codes, s1, s2)
        self.records_sha256 = sha256_hex(self.csv)
        self.bits_sha256 = sha256_hex(render_bits(s1, s2))
        self.analysis = expected_analysis(kind, context_counts(kind, codes, s1, s2))
        self.analysis.update(mode=mode, records_sha256=self.records_sha256)
        bell = self.analysis["bell"]
        self.certification = expected_certification(
            s1, s2, bell["verdict"], bell["value"], mode.startswith("conspiracy"))
        self.certification["records_sha256"] = self.records_sha256

    def check_run(self, out: Path, config: dict) -> list[str]:
        """records.csv bytes and manifest.json against the reference."""
        path = out / "records.csv"
        try:
            digest = sha256_hex(path.read_bytes())
        except OSError as exc:
            return [f"records.csv: {exc}"]
        bad = [] if digest == self.records_sha256 else [f"records.csv: sha256 {digest[:12]}... differs"]
        manifest = read_json(out / "manifest.json")
        expect = {"records_sha256": self.records_sha256,
                  "selector_seed": config["selector_seed"], "outcome_seed": config["outcome_seed"],
                  "config": {"mode": config["mode"], "n_trials": config["n_trials"]}}
        return bad + mismatches(manifest, expect, "manifest")

    def check_report(self, path: Path) -> list[str]:
        doc = read_json(path)
        return (mismatches(doc, self.analysis, "report")
                + mismatches(doc, self.golden.get("report", {}), "report(golden)"))

    def check_certification(self, out: Path) -> list[str]:
        doc = read_json(out / "certification.json")
        bad = (mismatches(doc, self.certification, "certification")
               + mismatches(doc, self.golden.get("certification", {}), "certification(golden)"))
        try:
            digest = sha256_hex((out / "bits.txt").read_bytes())
        except OSError as exc:
            return bad + [f"bits.txt: {exc}"]
        if digest != self.bits_sha256:
            bad.append(f"bits.txt: sha256 {digest[:12]}... differs")
        return bad


def exact_correlator(backend: str, model: dict | None, tag_slots, dirs) -> float:
    """The correlator each sweep backend targets, computed from its definition."""
    x, y = (np.array(dirs[s - 1]) for s in tag_slots)
    dot = float(np.clip(x @ y, -1.0, 1.0))
    if backend in ("qm_sequential", "conspiracy:qm-mimic"):
        return dot
    if backend == "qm_singlet":
        return -dot
    if backend == "hv:sign-model":
        return 1.0 - 2.0 * math.acos(dot) / math.pi
    w = np.array([lam["weight"] for lam in model["lambdas"]])
    r = np.array([lam["responses"] for lam in model["lambdas"]], dtype=np.float64)
    return float(w @ (r[:, tag_slots[0] - 1] * r[:, tag_slots[1] - 1]))


def check_sweep_op(spec: dict, result: dict, reference_digest: str | None, models: dict) -> list[str]:
    """One in-memory sweep operation: columns, library estimates and the sampled physics.

    `result` holds the library's estimates and quantity, the column digest
    and the outcome counts, all taken after the timed call returned.
    """
    cfg = spec["config"]
    kind = "chsh" if len(cfg["directions"]) == 4 else "temporal"
    bad = []
    if reference_digest is not None and result["digest"] != reference_digest:
        bad.append(f"{spec['op']}: records differ from the single-thread reference run")
    counts = np.array(result["counts"], dtype=np.int64)
    if counts.shape != (len(CONTEXTS[kind]), 4) or int(counts.sum()) != cfg["n_trials"]:
        return bad + [f"{spec['op']}: outcome counts do not cover {cfg['n_trials']} trials"]
    expect = expected_analysis(kind, counts, cfg["sigma_threshold"])
    bad += mismatches(result["estimates"], expect["estimates"], f"{spec['op']}.estimates")
    bad += mismatches(result["bell"], expect["bell"], f"{spec['op']}.bell")
    mode = cfg["mode"]
    model = models.get(mode.split(":", 1)[1]) if ":" in mode else None
    for (tag, sx, sy), row in zip(CONTEXTS[kind], counts.tolist()):
        if spec["backend"] == "conspiracy:contextual":
            sub = model[{"AB": "ab", "AC": "ac", "BC": "bc"}[tag]]
            exact = exact_correlator("hv:finite", sub, (sx, sy), cfg["directions"])
        else:
            exact = exact_correlator(spec["backend"], model, (sx, sy), cfg["directions"])
        n = sum(row)
        sampled = expect["estimates"][tag]["mean"]
        # six standard errors of the exact distribution: a false alarm is ~1e-9 per context
        tol = 6.0 * math.sqrt(max(0.0, 1.0 - exact * exact) / n) + 1e-12
        if abs(sampled - exact) > tol:
            bad.append(f"{spec['op']}.{tag}: sampled correlator {sampled:.6f} is not "
                       f"within 6 sigma of {exact:.6f}")
    return bad
