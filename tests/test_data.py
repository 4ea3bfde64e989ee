"""CSV ingestion, validation and registry-order tests."""

import csv
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grdmf import data
from grdmf.data import (
    AssociationDataset,
    load_association_csv,
    load_profile_csv,
    load_similarity_csv,
    save_association_csv,
    write_matrix_csv,
)
from grdmf.exceptions import (
    AsymmetryWarning,
    ParseError,
    RegistryError,
    ZeroProfileWarning,
)
from helpers import csv_table_oracle

# ---------------------------------------------------------------------------
# association matrices


def _write(path, text):
    path.write_text(text)
    return path


def test_association_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    y = (rng.random((6, 4)) < 0.4).astype(float)
    dataset = AssociationDataset(
        drugs=tuple(f"drug {i}" for i in range(6)),  # spaces survive the trip
        viruses=tuple(f"virus-{j}" for j in range(4)),
        y=y,
    )
    path = tmp_path / "assoc.csv"
    save_association_csv(dataset, path, comments=["written by the round-trip test"])
    back = load_association_csv(path)
    assert back.drugs == dataset.drugs
    assert back.viruses == dataset.viruses
    assert np.array_equal(back.y, dataset.y)


def test_association_loads_hand_written_file(tmp_path):
    path = _write(
        tmp_path / "a.csv",
        "# a comment line\n"
        "drug,v1,v2,v3\n"
        "aspirin,1,0,1\n"
        "ribavirin,0,0,1\n",
    )
    ds = load_association_csv(path)
    assert ds.drugs == ("aspirin", "ribavirin")
    assert ds.viruses == ("v1", "v2", "v3")
    assert np.array_equal(ds.y, [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


def test_association_rejects_nonbinary_with_location(tmp_path):
    path = _write(tmp_path / "a.csv", "drug,v1\nd1,1\nd2,0.7\n")
    with pytest.raises(ParseError, match=r"a\.csv:3"):
        load_association_csv(path)


def test_association_rejects_text_cell_with_location(tmp_path):
    path = _write(tmp_path / "a.csv", "drug,v1,v2\nd1,1,yes\n")
    with pytest.raises(ParseError, match=r"a\.csv:2: column 3"):
        load_association_csv(path)


def test_association_rejects_ragged_rows(tmp_path):
    path = _write(tmp_path / "a.csv", "drug,v1,v2\nd1,1\n")
    with pytest.raises(ParseError, match="expected 3 fields"):
        load_association_csv(path)


def test_association_rejects_duplicates(tmp_path):
    path = _write(tmp_path / "a.csv", "drug,v1,v2\nd1,1,0\nd1,0,1\n")
    with pytest.raises(RegistryError, match="duplicate row"):
        load_association_csv(path)
    path2 = _write(tmp_path / "b.csv", "drug,v1,v1\nd1,1,0\n")
    with pytest.raises(RegistryError, match="duplicate column"):
        load_association_csv(path2)


@pytest.mark.parametrize("name", ["", " "], ids=["empty", "blank"])
@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_association_rejects_empty_names(tmp_path, monkeypatch, quote, name):
    # `predict --virus ''` reads as no virus at all, so no such name may load
    walks = []
    walk_rows = data._walk_rows

    def counting_walk(*args):
        walks.append(1)
        return walk_rows(*args)

    monkeypatch.setattr(data, "_walk_rows", counting_walk)
    blank = f"{quote}{name}{quote}"
    column = _write(tmp_path / "c.csv", f",v0,{blank},v2\nd0,0,1,0\n")
    with pytest.raises(RegistryError) as exc:
        load_association_csv(column)
    assert str(exc.value) == f"empty column name in {column} (column 2 of 3)"
    # a quoted file is read by the row walker, a plain one by the C reader
    assert len(walks) == bool(quote)
    row = _write(tmp_path / "r.csv", f",v0,v1\nd0,0,1\n{blank},0,1\n")
    with pytest.raises(RegistryError) as exc:
        load_association_csv(row)
    assert str(exc.value) == f"empty row name in {row} (row 2 of 2)"
    # a bad column name is reported before any row is read
    early = _write(tmp_path / "e.csv", f",v0,{blank}\nd0,0,x\n")
    with pytest.raises(RegistryError, match="^empty column name in "):
        load_association_csv(early)


def test_empty_and_missing_files(tmp_path):
    empty = _write(tmp_path / "empty.csv", "# only a comment\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_association_csv(empty)
    with pytest.raises(ParseError, match="cannot read"):
        load_association_csv(tmp_path / "absent.csv")


def test_dataset_shape_registry_consistency():
    with pytest.raises(RegistryError):
        AssociationDataset(drugs=("a",), viruses=("x", "y"), y=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# similarity matrices


def test_similarity_round_trip_exact(tmp_path):
    rng = np.random.default_rng(41)
    s = rng.random((5, 5))
    s = 0.5 * (s + s.T)
    names = tuple(f"e{i}" for i in range(5))
    path = tmp_path / "sim.csv"
    write_matrix_csv(path, names, names, s, comments=["sim"])
    back = load_similarity_csv(path, names)
    # repr-formatted floats reload bit-exactly
    assert np.array_equal(back, s)


def test_similarity_requires_matching_names(tmp_path):
    path = _write(tmp_path / "s.csv", ",a,b\nb,1,0\na,0,1\n")
    with pytest.raises(ParseError, match="row names and column names differ"):
        load_similarity_csv(path, ("a", "b"))


def test_similarity_asymmetry_warning_and_repair(tmp_path):
    path = _write(tmp_path / "s.csv", ",a,b\na,1,0.9\nb,0.7,1\n")
    with pytest.warns(AsymmetryWarning):
        sim = load_similarity_csv(path, ("a", "b"))
    assert sim[0, 1] == pytest.approx(0.8)
    assert np.allclose(sim, sim.T)


def test_similarity_tiny_asymmetry_repaired_silently(tmp_path, recwarn):
    path = _write(tmp_path / "s.csv", ",a,b\na,1,0.50000000000001\nb,0.5,1\n")
    sim = load_similarity_csv(path, ("a", "b"))
    assert not any(isinstance(w.message, AsymmetryWarning) for w in recwarn.list)
    assert np.allclose(sim, sim.T)


@pytest.mark.parametrize(
    "body, location",
    [
        (",a,b\na,1,nan\nb,0.5,1\n", r"s\.csv:3: column 3: .*'nan'"),
        (",a,b\na,1,0.5\nb,inf,1\n", r"s\.csv:4: column 2: .*'inf'"),
        (",a,b\na,1,-0.25\nb,-0.25,1\n", r"s\.csv:3: column 3: .*'-0.25'"),
    ],
    ids=["nan", "inf", "negative"],
)
def test_similarity_rejects_nonfinite_and_negative_cells(tmp_path, body, location):
    # the first offending cell is named by file, line (comments counted) and column
    path = _write(tmp_path / "s.csv", "# comment\n" + body)
    with pytest.raises(ParseError, match=location):
        load_similarity_csv(path, ("a", "b"))


def test_similarity_first_bad_cell_in_file_order_is_named(tmp_path):
    # a negative cell on line 2 comes before an unparsable cell on line 3
    path = _write(tmp_path / "s.csv", ",a,b\na,1,-1\nb,oops,1\n")
    with pytest.raises(ParseError, match=r"s\.csv:2: column 3: .*'-1'"):
        load_similarity_csv(path, ("a", "b"))
    # within a row, too: the negative cell precedes the unparsable one
    path = _write(tmp_path / "t.csv", ",a,b\na,-1,oops\nb,0,1\n")
    with pytest.raises(ParseError, match=r"t\.csv:2: column 2: .*'-1'"):
        load_similarity_csv(path, ("a", "b"))


def test_similarity_load_memory_is_bounded(tmp_path):
    # one pass, no list of Python floats: the peak stays a small multiple
    # of the loaded array
    rng = np.random.default_rng(43)
    s = rng.random((300, 300))
    s = 0.5 * (s + s.T)
    names = tuple(f"e{i}" for i in range(300))
    path = tmp_path / "sim.csv"
    write_matrix_csv(path, names, names, s)
    tracemalloc.start()
    try:
        sim = load_similarity_csv(path, names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sim.nbytes


# ---------------------------------------------------------------------------
# profiles


def test_profile_zero_row_warns(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1,f2\ne1,1,0\ne2,0,0\n")
    with pytest.warns(ZeroProfileWarning, match="e2"):
        rows = load_profile_csv(path, ("e1", "e2"))
    assert np.array_equal(rows, [[1.0, 0.0], [0.0, 0.0]])


def test_profile_rejects_nonbinary(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1\ne1,2\n")
    with pytest.raises(ParseError):
        load_profile_csv(path, ("e1",))


# ---------------------------------------------------------------------------
# registry order


def test_similarity_loads_in_registry_order(tmp_path):
    rng = np.random.default_rng(42)
    s = rng.random((4, 4))
    s = 0.5 * (s + s.T)
    names = ("c", "a", "d", "b")
    path = tmp_path / "s.csv"
    write_matrix_csv(path, names, names, s)
    registry = ("a", "b", "c", "d")
    aligned = load_similarity_csv(path, registry)
    for i, ri in enumerate(registry):
        for j, rj in enumerate(registry):
            assert aligned[i, j] == s[names.index(ri), names.index(rj)]


def test_profile_rows_load_in_registry_order(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1,f2\nb,1,0\na,0,1\n")
    aligned = load_profile_csv(path, ("a", "b"))
    assert np.array_equal(aligned, [[0.0, 1.0], [1.0, 0.0]])


def test_align_reports_missing_and_extra(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1\na,1\nzz,1\n")
    with pytest.raises(RegistryError) as info:
        load_profile_csv(path, ("a", "b"))
    assert str(info.value).startswith(f"{path}: profile names do not match")
    assert "missing ['b'], unexpected ['zz']" in str(info.value)
    path = _write(tmp_path / "s.csv", ",a,zz\na,1,0\nzz,0,1\n")
    with pytest.raises(RegistryError) as info:
        load_similarity_csv(path, ("a", "b"))
    assert str(info.value).startswith(f"{path}: similarity names do not match")
    assert "missing ['b'], unexpected ['zz']" in str(info.value)


def test_comments_anywhere_are_skipped(tmp_path):
    path = _write(
        tmp_path / "a.csv",
        "# header comment\ndrug,v1\n# between rows\nd1,1\n# trailing\n",
    )
    ds = load_association_csv(path)
    assert ds.drugs == ("d1",)
    assert ds.y[0, 0] == 1.0


# ---------------------------------------------------------------------------
# the reader against its definition

# tokens where numpy's C reader and csv + float() could part ways: spellings
# only float() accepts, quoting, padding, signed zero, subnormals, non-finite
_CELLS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "1.0", "-0", "-0.0", "1e-300", "5e-324", "0.25 "]),
    st.sampled_from([
        "1_0", "\u0661", " 1", '" 1"', '"1"', "nan", "inf", "-1", "", " ", "1e999", "abc",
        "1\xa0",
    ]),
)
_NAMES = st.sampled_from(["a", "b", "c", " d ", "\u00e9", '"e"', '"x,y"', "#n", ""])
_ODD_LINES = st.sampled_from(["# mid", "# mid,1", '# "q"', "", " ", "\t"])


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    lines = draw(st.lists(st.sampled_from(["# top", ""]), max_size=1))
    lines.append(",".join([draw(st.sampled_from(["", "drug"]))]
                          + draw(st.lists(_NAMES, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            lines.append(draw(_ODD_LINES))
            continue
        n = draw(st.sampled_from([width, width, width, width - 1, width + 1]))
        cells = draw(st.lists(_CELLS, min_size=n, max_size=n))
        lines.append(",".join([draw(_NAMES), *cells]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read, path, binary):
    try:
        names, cols, values = read(path, binary)
    except (ParseError, RegistryError) as exc:
        return type(exc).__name__, str(exc)
    return names, cols, values.shape, values.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts(), binary=st.booleans())
def test_reader_matches_csv_and_float_per_cell(tmp_path, text, binary):
    # same names, bit-identical values, or the same error type and text
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(data._parse_table, path, binary)
    assert got == _outcome(csv_table_oracle, path, binary)


@pytest.mark.parametrize("text", ["drug,v1,v2\n", "drug,v1\nd1,\n", "drug,v1\r\n\r\n"])
def test_bodies_without_cells_emit_no_warning(tmp_path, text):
    # numpy's reader warns on an empty body; the loader must not pass it one
    path = _write(tmp_path / "h.csv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(data._parse_table, path, True)
    assert got == _outcome(csv_table_oracle, path, True)


def test_bodies_longer_than_one_reader_block(tmp_path):
    # a tall body, and one whose rows past the 64th agree with each other but
    # not with the header, which is still a field-count error
    rows = [f"r{i},0.5,1" for i in range(150)]
    path = _write(tmp_path / "tall.csv", ",a,b\n" + "\n".join(rows) + "\n")
    got = _outcome(data._parse_table, path, False)
    assert got == _outcome(csv_table_oracle, path, False) and got[2] == (150, 2)
    ragged = rows[:64] + [row + ",1" for row in rows[64:]]
    path = _write(tmp_path / "ragged.csv", ",a,b\n" + "\n".join(ragged) + "\n")
    line = 64 + 2
    with pytest.raises(ParseError, match=rf"ragged\.csv:{line}: expected 3 fields, got 4"):
        data._parse_table(path, False)


def test_fields_past_the_csv_limit_are_left_to_csv(tmp_path):
    # csv refuses a field longer than its limit; the C reader has none
    path = _write(tmp_path / "l.csv", "drug,v1\nlonger_name,1\n")
    limit = csv.field_size_limit(8)
    try:
        with pytest.raises(ParseError, match=r"l\.csv:2: field larger than field limit"):
            data._parse_table(path, True)
    finally:
        csv.field_size_limit(limit)


def test_field_past_the_default_csv_limit_names_file_and_line(tmp_path):
    name = "d" * (csv.field_size_limit() + 1)
    path = _write(tmp_path / "long.csv", f"# note\ndrug,v1\nd0,1\n{name},0\n")
    with pytest.raises(ParseError, match=r"long\.csv:4: field larger than field limit"):
        load_association_csv(path)


@pytest.mark.parametrize("line", [0, 1500], ids=["header", "past-first-read"])
def test_undecodable_byte_is_a_parse_error(tmp_path, line):
    # in the header the C-reader pass meets the byte; 1500 rows down, past
    # the first buffered read, that pass declines and the row walker meets it.
    # Either way the error names the file, in the platform's text encoding
    lines = [b"drug,v1,v2", *(b"d%d,1,0" % i for i in range(1500))]
    lines[line] += b"\xff"
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        path.read_text()
    except UnicodeDecodeError:
        pass
    else:
        pytest.skip("0xff decodes in this platform's encoding")
    with pytest.raises(
        ParseError, match=r"^cannot read .*bytes\.csv: .*can't decode byte 0xff"
    ) as info:
        load_association_csv(path)
    # the physical line, and the position counted within that line, not from
    # the start of the decoder's buffered chunk
    assert f"bytes.csv: line {line + 1}: " in str(info.value)
    assert f" in position {len(lines[line]) - 1}: " in str(info.value)


def test_plain_bodies_skip_the_row_walker(tmp_path, monkeypatch):
    # the C reader takes plain files; only a file it cannot take exactly (here
    # a quoted name) is walked row by row
    walked = []
    walk = data._walk_rows

    def recording(handle, path, binary):
        walked.append(path)
        return walk(handle, path, binary)

    monkeypatch.setattr(data, "_walk_rows", recording)
    plain = _write(tmp_path / "p.csv", "# c\r\n,a,b\r\na, 1 ,0.5\r\n\r\nb,0.5,1e0\n")
    assert load_similarity_csv(plain, ("a", "b")).tolist() == [[1.0, 0.5], [0.5, 1.0]]
    assert walked == []
    quoted = _write(tmp_path / "q.csv", ',a,b\n"a",1,0.5\nb,0.5,1\n')
    assert load_similarity_csv(quoted, ("a", "b")).tolist() == [[1.0, 0.5], [0.5, 1.0]]
    assert walked == [quoted]


def test_unseekable_input_is_walked_once(tmp_path):
    # a pipe (a shell's `<(...)`) cannot be rewound for a second read, so
    # it goes to the row walker directly
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(',a\n"a",1\n',), daemon=True)
    writer.start()
    try:
        names, cols, values = data._parse_table(fifo, False)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert (names, cols, values.tolist()) == (("a",), ("a",), [[1.0]])


def test_matrix_writer_bytes_are_pinned(tmp_path):
    # shortest round-trip repr per cell, csv quoting for names, CRLF rows
    path = tmp_path / "m.csv"
    values = np.array([[-0.0, 1e-300, 5e-324], [0.1, 1.0 / 3.0, 1e16]])
    write_matrix_csv(path, ["r1", "r,2"], ["a", "b", "c"], values, comments=["note"])
    assert path.read_bytes() == (
        b"# note\n,a,b,c\r\n"
        b"r1,-0.0,1e-300,5e-324\r\n"
        b'"r,2",0.1,0.3333333333333333,1e+16\r\n'
    )
    write_matrix_csv(path, ["r"], ["a", "b"], np.array([[1, 0]]))
    assert path.read_bytes() == b",a,b\r\nr,1.0,0.0\r\n"
