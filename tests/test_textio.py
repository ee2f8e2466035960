import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvnnlab.spectral import LayerNorms, SpectralReport, report_from_text, report_to_text
from cvnnlab.textio import f17, kv_text, read_kv, write_atomic

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(finite)
def test_f17_round_trips_every_finite_double(x):
    assert float(f17(x)).hex() == x.hex()  # bitwise, sign of zero included


def test_f17_seventeen_digits():
    assert f17(0.1) == "0.10000000000000001"
    assert f17(1.0) == "1"
    assert f17(float("inf")) == "inf"


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_kv_reader_on_arbitrary_text(text):
    try:
        entries = read_kv(text)
    except ValueError as exc:
        assert "expected 'key = value'" in str(exc) or "already set on line" in str(exc)
        return
    linenos = [lineno for lineno, _, _ in entries]
    assert linenos == sorted(set(linenos))
    assert len({key for _, key, _ in entries}) == len(entries)
    for _, key, value in entries:
        assert "=" not in key and "#" not in key + value
        assert key == key.strip() and value == value.strip()


def test_kv_reader_lines_comments_and_errors():
    text = "# header\n\na = 1  # one\nb=x=y\n   \nc =\n"
    assert read_kv(text) == [(3, "a", "1"), (4, "b", "x=y"), (6, "c", "")]
    with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
        read_kv("a = 1\nno equals sign\n")


def test_kv_reader_refuses_a_repeated_key():
    with pytest.raises(ValueError, match="^line 4: 'a' already set on line 1$"):
        read_kv("a = 1\nb = 2\n# a = 3\n a= 1\n")


def test_kv_writer_renders_each_type():
    text = kv_text([("f", 0.1), ("t", True), ("n", False), ("i", 3), ("s", "x y"), ("gone", None)])
    assert text == "f = 0.10000000000000001\nt = true\nn = false\ni = 3\ns = x y\n"


# s and b >= 0, with 0, tiny values and inf drawn often; the aggregates derive from them
norms = st.floats(min_value=0.0) | st.sampled_from([0.0, 5e-324, 1e-200, math.inf])


def _layer_norms(kind, b):
    return st.builds(LayerNorms, position=st.integers(0, 10**6), kind=st.just(kind), s=norms, b=b)


# only a conv lowering over budget leaves b out
layer_norms = _layer_norms("dense", norms) | _layer_norms("conv", st.none() | norms)
spectral_reports = st.builds(
    SpectralReport,
    layers=st.lists(layer_norms, min_size=1, max_size=5).map(tuple),
    power_iteration_converged=st.booleans(),
)


def _dense(s, b):
    return LayerNorms(position=0, kind="dense", s=s, b=b)


@settings(max_examples=200, deadline=None)
@given(spectral_reports)
@example(SpectralReport((_dense(0.0, 0.0), _dense(math.inf, 1.0)), True))
@example(SpectralReport((_dense(0.0, 0.0), LayerNorms(1, "conv", 2.0, None)), True))
@example(SpectralReport((_dense(math.inf, 3.0), _dense(2.0, 1.0)), True))
@example(SpectralReport((_dense(1e-200, math.inf),) * 2, True))  # r_a = 0 * inf = nan
def test_spectral_report_round_trip(report):
    assert report_from_text(report_to_text(report)) == report


def test_spectral_report_degenerate_aggregates():
    zero_beside_inf = SpectralReport((_dense(0.0, 0.0), _dense(math.inf, 1.0)), True)
    assert (zero_beside_inf.sn_product, zero_beside_inf.r_a) == (0.0, 0.0)
    zero_beside_no_b = SpectralReport((_dense(0.0, 0.0), LayerNorms(1, "conv", 2.0, None)), True)
    assert zero_beside_no_b.sn_product == 0.0 and zero_beside_no_b.r_a is None
    assert SpectralReport((_dense(math.inf, 3.0), _dense(2.0, 1.0)), True).r_a == math.inf
    underflow = SpectralReport((_dense(1e-200, math.inf),) * 2, True)
    assert underflow.sn_product == 0.0 and math.isnan(underflow.r_a)
    assert "r_a = nan\n" in report_to_text(underflow)


def test_report_reader_refuses_a_repeated_key():
    text = report_to_text(SpectralReport((_dense(2.0, 1.0),), True))
    line = next(l for l in text.splitlines() if l.startswith("layer.0.s = "))
    with pytest.raises(ValueError, match="'layer.0.s' already set on line"):
        report_from_text(text + line + "\n")  # the same value again


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_report_reader_on_arbitrary_text(text):
    try:
        report_from_text(text)
    except ValueError:
        pass


def test_write_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    write_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_atomic_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")

    def fail(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace refused"):
        write_atomic(path, "new contents\n")
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_atomic_unencodable_text_keeps_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "café\n")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_atomic_writes_pieces_in_turn(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(path, (piece for piece in ["{", "", "\"a\":1", "}\n"]))
    assert path.read_bytes() == b'{"a":1}\n'
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_atomic_failing_pieces_keep_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def pieces():
        yield "new "
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        write_atomic(path, pieces())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("piece", [b"bytes\n", 7, None])
def test_write_atomic_refuses_a_piece_that_is_not_str(tmp_path, piece):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(TypeError):
        write_atomic(path, ["new\n", piece])
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
