"""CSV ingestion, validation and alignment tests."""

import tracemalloc

import numpy as np
import pytest

from grdmf.data import (
    AssociationDataset,
    align_profile,
    align_similarity,
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
    back = load_similarity_csv(path)
    assert back.entities == names
    # repr-formatted floats reload bit-exactly
    assert np.array_equal(back.values, s)


def test_similarity_requires_matching_names(tmp_path):
    path = _write(tmp_path / "s.csv", ",a,b\nb,1,0\na,0,1\n")
    with pytest.raises(ParseError, match="row names and column names differ"):
        load_similarity_csv(path)


def test_similarity_asymmetry_warning_and_repair(tmp_path):
    path = _write(tmp_path / "s.csv", ",a,b\na,1,0.9\nb,0.7,1\n")
    with pytest.warns(AsymmetryWarning):
        sim = load_similarity_csv(path)
    assert sim.values[0, 1] == pytest.approx(0.8)
    assert np.allclose(sim.values, sim.values.T)


def test_similarity_tiny_asymmetry_repaired_silently(tmp_path, recwarn):
    path = _write(tmp_path / "s.csv", ",a,b\na,1,0.50000000000001\nb,0.5,1\n")
    sim = load_similarity_csv(path)
    assert not any(isinstance(w.message, AsymmetryWarning) for w in recwarn.list)
    assert np.allclose(sim.values, sim.values.T)


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
        load_similarity_csv(path)


def test_similarity_first_bad_cell_in_file_order_is_named(tmp_path):
    # a negative cell on line 2 comes before an unparsable cell on line 3
    path = _write(tmp_path / "s.csv", ",a,b\na,1,-1\nb,oops,1\n")
    with pytest.raises(ParseError, match=r"s\.csv:2: column 3: .*'-1'"):
        load_similarity_csv(path)
    # within a row, too: the negative cell precedes the unparsable one
    path = _write(tmp_path / "t.csv", ",a,b\na,-1,oops\nb,0,1\n")
    with pytest.raises(ParseError, match=r"t\.csv:2: column 2: .*'-1'"):
        load_similarity_csv(path)


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
        sim = load_similarity_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sim.values.nbytes


# ---------------------------------------------------------------------------
# profiles


def test_profile_zero_row_warns(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1,f2\ne1,1,0\ne2,0,0\n")
    with pytest.warns(ZeroProfileWarning, match="e2"):
        profile = load_profile_csv(path)
    assert profile.entities == ("e1", "e2")
    assert profile.features == ("f1", "f2")
    assert np.array_equal(profile.indicator, [[1.0, 0.0], [0.0, 0.0]])


def test_profile_rejects_nonbinary(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1\ne1,2\n")
    with pytest.raises(ParseError):
        load_profile_csv(path)


# ---------------------------------------------------------------------------
# registry alignment


def test_align_similarity_permutes_consistently(tmp_path):
    rng = np.random.default_rng(42)
    s = rng.random((4, 4))
    s = 0.5 * (s + s.T)
    names = ("c", "a", "d", "b")
    path = tmp_path / "s.csv"
    write_matrix_csv(path, names, names, s)
    sim = load_similarity_csv(path)
    registry = ("a", "b", "c", "d")
    aligned = align_similarity(sim, registry)
    for i, ri in enumerate(registry):
        for j, rj in enumerate(registry):
            assert aligned[i, j] == s[names.index(ri), names.index(rj)]


def test_align_profile_rows(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1,f2\nb,1,0\na,0,1\n")
    profile = load_profile_csv(path)
    aligned = align_profile(profile, ("a", "b"))
    assert np.array_equal(aligned, [[0.0, 1.0], [1.0, 0.0]])


def test_align_reports_missing_and_extra(tmp_path):
    path = _write(tmp_path / "p.csv", "entity,f1\na,1\nzz,1\n")
    profile = load_profile_csv(path)
    with pytest.raises(RegistryError, match=r"missing \['b'\].*unexpected \['zz'\]"):
        align_profile(profile, ("a", "b"))


def test_comments_anywhere_are_skipped(tmp_path):
    path = _write(
        tmp_path / "a.csv",
        "# header comment\ndrug,v1\n# between rows\nd1,1\n# trailing\n",
    )
    ds = load_association_csv(path)
    assert ds.drugs == ("d1",)
    assert ds.y[0, 0] == 1.0
