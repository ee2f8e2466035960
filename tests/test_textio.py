import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab.spectral import LayerNorms, SpectralReport, report_from_text, report_to_text
from cvnnlab.textio import f17, json_text, kv_text, read_kv, write_atomic

finite = st.floats(allow_nan=False, allow_infinity=False)
no_nan = st.floats(allow_nan=False)


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
        assert "expected 'key = value'" in str(exc)
        return
    linenos = [lineno for lineno, _, _ in entries]
    assert linenos == sorted(set(linenos))
    for _, key, value in entries:
        assert "=" not in key and "#" not in key + value
        assert key == key.strip() and value == value.strip()


def test_kv_reader_lines_comments_and_errors():
    text = "# header\n\na = 1  # one\nb=x=y\n   \nc =\n"
    assert read_kv(text) == [(3, "a", "1"), (4, "b", "x=y"), (6, "c", "")]
    with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
        read_kv("a = 1\nno equals sign\n")


def test_kv_writer_renders_each_type():
    text = kv_text([("f", 0.1), ("t", True), ("n", False), ("i", 3), ("s", "x y"), ("gone", None)])
    assert text == "f = 0.10000000000000001\nt = true\nn = false\ni = 3\ns = x y\n"


layer_norms = st.builds(
    LayerNorms,
    position=st.integers(0, 10**6),
    kind=st.sampled_from(["dense", "conv"]),
    s=no_nan,
    b=st.none() | no_nan,
    rho=no_nan,
)
spectral_reports = st.builds(
    SpectralReport,
    layers=st.lists(layer_norms, max_size=5).map(tuple),
    sn_product=no_nan,
    lipschitz_product=no_nan,
    r_a=st.none() | no_nan,
    sn_product_only=st.booleans(),
    thresholds_nonzero=st.booleans(),
    power_iteration_converged=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(spectral_reports)
def test_spectral_report_round_trip(report):
    assert report_from_text(report_to_text(report)) == report


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_report_reader_on_arbitrary_text(text):
    try:
        report_from_text(text)
    except ValueError:
        pass


json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_docs)
def test_json_writer_round_trips(doc):
    out = json_text(doc)
    assert json.loads(out) == doc  # float equality is exact
    assert out.isascii() and "\n" not in out


def test_json_writer_formats():
    doc = {"v": [0.1, 1.0, -2.5e-300], "k": None, "b": True, "s": "é", "n": 3}
    assert json_text(doc) == (
        '{"v":[0.10000000000000001,1,-2.5e-300],'
        '"k":null,"b":true,"s":"\\u00e9","n":3}'
    )
    assert json_text((1, [2, ()])) == "[1,[2,[]]]"


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
