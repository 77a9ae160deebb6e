import numpy as np
import pytest

from bellsim.cli import main
from bellsim.directions import Direction3
from bellsim.protocol import RecordBatch, analyze_records, write_report
from bellsim.quantum import QubitState


def random_direction(rng) -> Direction3:
    v = rng.normal(size=3)
    return Direction3.normalized(*v)


def random_qubit_state(rng) -> QubitState:
    re = rng.normal(size=2)
    im = rng.normal(size=2)
    v = re + 1j * im
    v /= np.linalg.norm(v)
    return QubitState(complex(v[0]), complex(v[1]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def assert_refused(tmp_path, capsys):
    """A check that `analyze` and `certify` of these records bytes exit 1 with this message and write nothing."""
    out = tmp_path / "refused"
    out.mkdir()
    report = tmp_path / "report.json"  # any well-formed report: certify reads the records before comparing them
    write_report(analyze_records(RecordBatch("temporal", [0, 0, 1, 1, 2, 2], [1] * 6, [-1] * 6)), report)

    def check(records: bytes, message: str):
        (out / "records.csv").write_bytes(records)
        for argv in (["analyze", "--records", str(out / "records.csv"), "--out-dir", str(out)],
                     ["certify", "--records", str(out / "records.csv"), "--report", str(report),
                      "--out-dir", str(out)]):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == f"bellsim: validation error: {message}\n"
            assert [path.name for path in out.iterdir()] == ["records.csv"]  # no report, bits or partial files

    return check
