"""The JSON wire format at both ends of the CLI.

Reports are laid out exactly as ``json.dumps(report, sort_keys=True,
indent=2)`` lays them out; the writer is held to that byte for byte.  Inputs
take a one-pass path when every entry is a plain float or int; these tests
pin that every accept/reject decision and every message stays that of the
entry-by-entry check.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplebesgue import (GeometricTail, L1Sequence, PsdMatrix, hermitian_from_json, psd_from_json,
                        sequence_from_json)
from oplebesgue import cli
from oplebesgue.cli import _pretty, main
from oplebesgue.errors import ValidationError
from conftest import structured_pair

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def _stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _as_lists(obj):
    """``obj`` with every numpy array in it replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(item) for item in obj]
    return obj


@pytest.fixture
def captured_reports(monkeypatch):
    """Every report object the CLI writes, alongside the bytes it wrote."""
    seen = []
    write = cli._write_report

    def spy(path, report, quiet):
        write(path, report, quiet)
        seen.append((report, Path(path).read_text(encoding="utf-8")))

    monkeypatch.setattr(cli, "_write_report", spy)
    return seen


class TestWriterMatchesStdlib:
    @pytest.mark.parametrize("name", ["decompose_ones.json", "counterexample_half.json"])
    def test_goldens(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        assert _pretty(json.loads(text)) + "\n" == text

    def test_live_complex_matrix_report(self, tmp_path, captured_reports, capsys):
        s, t = structured_pair("generic", 64, 0)
        paths = []
        for name, a in (("s.json", s), ("t.json", t)):
            path = tmp_path / name
            path.write_text(json.dumps({"dim": 64, "real": a.real.tolist(),
                                        "imag": a.imag.tolist()}))
            paths.append(path)
        assert main(["--quiet", "decompose", *map(str, paths), str(tmp_path / "r.json")]) == 0
        (report, written), = captured_reports
        assert isinstance(report["decomposition"]["ac"]["imag"], np.ndarray)
        assert written == _stdlib(_as_lists(report)) + "\n"

    def test_sequence_and_counterexample_reports(self, tmp_path, captured_reports, capsys):
        # a base with a 600-entry gapped prefix, so the companion's prefix takes
        # the writer's long-list path
        prefix = np.random.default_rng(7).uniform(0.05, 1.0, 600)
        prefix[::4] = 0.0
        lam_path, built = tmp_path / "lam.json", tmp_path / "ce.json"
        lam_path.write_text(json.dumps({"prefix": prefix.tolist(),
                                        "tail": {"type": "geometric", "a": 0.5, "r": 0.99}}))
        assert main(["--quiet", "counterexample", str(lam_path), str(built)]) == 0
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps(json.loads(built.read_text())["s"]))
        assert main(["--quiet", "decompose", str(mu_path), str(lam_path),
                     str(tmp_path / "r.json")]) == 0
        (counterexample, ce_written), (decomposition, dec_written) = captured_reports
        assert len(counterexample["s"]["prefix"]) > 500
        assert decomposition["decomposition"]["unique"] is False
        assert ce_written == _stdlib(counterexample) + "\n"
        assert dec_written == _stdlib(decomposition) + "\n"

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], {"a": {}, "b": []},
        [-0.0, 0.0, 1, -1, 2**70, math.nan, math.inf, -math.inf, 1e-320],
        [1.5, True], [None], ["a, b", "c\n, d"], (1.0, 2.0), {"t": (1, [2.0])},
        {"é": [1.0], "ключ": {"a, b": "x\ny"}}, {1: [1.0], 2: {"x": 0.5}},
        {1.5: [], -math.inf: 1, math.nan: None}, {None: 1}, {True: 0, 2: 1},
    ])
    def test_edge_cases(self, obj):
        assert _pretty(obj) == _stdlib(obj)

    @pytest.mark.parametrize("obj", [{(1, 2): 0.5}, [1.0, {"a": object()}]])
    def test_unencodable_raises_as_stdlib(self, obj):
        with pytest.raises(TypeError) as stdlib:
            _stdlib(obj)
        with pytest.raises(TypeError, match=re.escape(str(stdlib.value))):
            _pretty(obj)


class TestStreamedWriter:
    """The report writer lays out float arrays row by row, hands long number
    lists to the C encoder in slices, and writes each chunk as it comes."""

    @pytest.mark.parametrize("arr", [
        np.array([[-0.0, math.nan], [math.inf, -math.inf]]),
        np.array([[1e-320, -1.5], [2.0**70, 0.1]]),
        np.array([[0.25]]),
        np.zeros((0, 0)), np.zeros((2, 0)), np.zeros(0),
        np.array([-0.0, 1e-320, math.nan]),
        np.arange(12.0).reshape(3, 4).T,
        (np.arange(6.0) + 1j * np.arange(6.0)[::-1]).reshape(2, 3).imag,
    ], ids=["signed", "tiny-huge", "1x1", "0x0", "2x0", "empty-1d", "1d", "transposed",
            "imag-view"])
    def test_arrays_match_stdlib_of_their_lists(self, arr):
        assert _pretty(arr) == _stdlib(arr.tolist())
        assert _pretty({"grid": arr, "n": 1}) == _stdlib({"grid": arr.tolist(), "n": 1})

    def test_number_list_past_two_slices_matches_stdlib(self):
        values = [float(i) / 7 if i % 3 else i for i in range(2 * cli._SLICE + 1)]
        values[cli._SLICE - 1:cli._SLICE + 2] = [-0.0, math.nan, -math.inf]
        assert _pretty(values) == _stdlib(values)
        assert _pretty({"v": values}) == _stdlib({"v": values})

    @staticmethod
    def report():
        return {"ac": np.arange(400.0).reshape(20, 20) / 3, "prefix": [0.5] * 300, "unique": True}

    @staticmethod
    def recording_open(writes, fail_after=None):
        """An ``open`` whose handles record the size of each write, and fail
        with a full disk once ``fail_after`` writes are stored."""
        real_open = open

        class Handle:
            def __init__(self, *args, **kwargs):
                self.handle = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                if len(writes) == fail_after:
                    raise OSError(28, "No space left on device")
                writes.append(len(data))
                return self.handle.write(data)

        return Handle

    def test_failure_after_the_first_write_leaves_the_old_report(self, tmp_path, monkeypatch):
        writes = []
        target = tmp_path / "r.json"
        target.write_text("previous report\n")
        monkeypatch.setattr(cli, "open", self.recording_open(writes, fail_after=1), raising=False)
        with pytest.raises(ValidationError, match=f"cannot write {re.escape(str(target))}: No space"):
            cli._write_report(str(target), self.report(), quiet=True)
        assert len(writes) == 1
        assert target.read_text() == "previous report\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["r.json"]


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(), st.sampled_from(["a, b", ", ", "line\n, next", "é, ü\n"]),
)
_NUMBER_LISTS = st.lists(st.one_of(st.integers(), st.floats()), min_size=1, max_size=8)
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["é", "ключ", "a, b", "x\ny", ""]))
_REPORTS = st.recursive(
    _SCALARS | _NUMBER_LISTS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_KEYS, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_writer_matches_stdlib_on_random_reports(obj):
    assert _pretty(obj) == _stdlib(obj)


_OK = [[1.0, 0.0], [0.0, 1.0]]


class TestGridDecisions:
    @pytest.mark.parametrize("blob, message", [
        ({"dim": 2, "real": [[1.0, True], [True, 1.0]]}, "'real' entries must be numbers"),
        ({"dim": 2, "real": [[1.0, "0"], ["0", 1.0]]}, "'real' entries must be numbers"),
        ({"dim": 2, "real": [[1.0, 0.0], [0.0]]},
         "'real' must be a square 2x2 grid with no ragged rows"),
        ({"dim": 2, "real": [[1.0, 0.0], (0.0, 1.0)]},
         "'real' must be a square 2x2 grid with no ragged rows"),
        ({"dim": 2, "real": [[1.0, 0.0]]}, "'real' must be a list of 2 rows"),
        ({"dim": 2, "real": [[True, 0.0], [0.0]]}, "'real' entries must be numbers"),
        ({"dim": 2, "real": _OK, "imag": [[0.0, 0.5], [-0.5]]},
         "'imag' must be a square 2x2 grid with no ragged rows"),
        ({"dim": 2, "real": _OK, "imag": [[0.0, False], [0.0, 0.0]]},
         "'imag' entries must be numbers"),
        ({"dim": 2, "real": _OK, "imag": [[0.0, 0.0]]}, "'imag' must be a list of 2 rows"),
    ])
    def test_rejections_keep_their_message(self, blob, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            psd_from_json(blob)

    def test_numpy_floats_still_accepted(self):
        blob = {"dim": 2, "real": [[np.float64(2.0), np.float64(0.5)], [0.5, 1.0]]}
        np.testing.assert_array_equal(psd_from_json(blob).array, [[2.0, 0.5], [0.5, 1.0]])

    def test_ints_become_the_floats_of_float(self):
        ints = [3, 2**53 + 1, 2**62 + 2**9 + 1, 2**63 + 2**10 + 1, 2**64 + 2**11 + 1, 10**20 + 7]
        grid = [[v if i == j else 0 for j in range(len(ints))] for i, v in enumerate(ints)]
        array = hermitian_from_json({"dim": len(ints), "real": grid}).array
        assert np.diag(array.real).tolist() == [float(v) for v in ints]


class TestLibraryGates:
    # the library constructors decide what the CLI's JSON reader decides: an int
    # no float64 can hold, a bool and a string are invalid input, not an
    # OverflowError or a number
    @pytest.mark.parametrize("build", [
        lambda: L1Sequence((10**400,)),
        lambda: GeometricTail(10**400, 0.5),
        lambda: psd_from_json({"dim": 1, "real": [[10**400]]}),
        lambda: sequence_from_json({"prefix": [1.0, 10**400]}),
        lambda: sequence_from_json({"prefix": [1.0], "tail": {"type": "geometric", "a": 10**400, "r": 0.5}}),
        lambda: L1Sequence(("1.5",)),
        lambda: L1Sequence((True,)),
        lambda: GeometricTail(True, 0.5),
        lambda: PsdMatrix([["1"]]),
        lambda: PsdMatrix([[True]]),
    ], ids=["seq-int", "tail-int", "matrix-json-int", "seq-json-int", "tail-json-int",
            "seq-str", "seq-bool", "tail-bool", "matrix-str", "matrix-bool"])
    def test_rejects_what_the_json_reader_rejects(self, build):
        with pytest.raises(ValidationError):
            build()


class TestPrefixDecisions:
    @pytest.mark.parametrize("blob, message", [
        ({"prefix": [1.0, True]}, "'prefix' entries must be numbers"),
        ({"prefix": [1.0, "2"]}, "'prefix' entries must be numbers"),
        ({"prefix": [True], "tail": {"type": "poisson"}}, "'prefix' entries must be numbers"),
        ({"prefix": [-1.0], "tail": {"type": "poisson"}}, "'tail' must be null or"),
        ({"prefix": [0.5], "tail": {"type": "geometric", "a": True, "r": 0.5}},
         "geometric tail needs numeric 'a' and 'r'"),
        ({"prefix": [1.0, -1]}, "sequence values must be finite and >= 0, got -1.0"),
        ({"prefix": [0.5, math.nan]}, "sequence values must be finite and >= 0, got nan"),
        ({"prefix": [-2.0, math.inf]}, "sequence values must be finite and >= 0, got -2.0"),
    ])
    def test_rejections_keep_their_message(self, blob, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            sequence_from_json(blob)

    def test_numpy_floats_still_accepted(self):
        seq = sequence_from_json({"prefix": [np.float64(0.25), 1.0]})
        assert seq.prefix == (0.25, 1.0) and set(map(type, seq.prefix)) == {float}

    def test_ints_become_the_floats_of_float(self):
        ints = [0, 3, 2**53 + 1, 2**64 + 2**11 + 1, 10**20 + 7]
        seq = sequence_from_json({"prefix": ints})
        assert seq.prefix == tuple(float(v) for v in ints)
        assert set(map(type, seq.prefix)) == {float}

    def test_overflowing_sum_is_rejected(self):
        # past half the float range the prefix is summed exactly: a finite sum
        # passes, one that overflows float64 is invalid input
        assert sequence_from_json({"prefix": [1e308, 5e307]}).prefix == (1e308, 5e307)
        with pytest.raises(ValidationError, match="float64 range"):
            sequence_from_json({"prefix": [1e308, 1e308]})

    def test_constructor_names_the_first_bad_entry(self):
        with pytest.raises(ValidationError, match=re.escape("got -1")):
            L1Sequence((0.5, -1, "x"))
        seq = L1Sequence((np.float64(0.5), -0.0, 2))
        assert seq.prefix == (0.5, 0.0, 2.0) and set(map(type, seq.prefix)) == {float}
