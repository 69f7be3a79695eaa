"""Exact round-trips and format validation for the CSV layer."""

import csv
import time
import warnings

import numpy as np
import pytest

import netxform as nx
from netxform.csvio import (read_initial_state, read_schedule_csv, write_columns_csv,
                            write_schedule_csv, write_trajectory_csv)
from netxform.graph import InputError


def _random_schedule(rng, t0=0.0, tf=1.0):
    msk = nx.path_graph(3).mask
    grid = np.linspace(t0, tf, 7)
    W_seq = np.array([np.where(msk, rng.normal(size=(3, 3)), 0.0) for _ in grid])
    return nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)


def test_schedule_round_trip_is_exact(tmp_path):
    sched = _random_schedule(np.random.default_rng(0))
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, sched)
    back = read_schedule_csv(path)
    assert np.array_equal(back.grid, sched.grid)
    assert np.array_equal(back.W_seq, sched.W_seq)
    assert np.array_equal(back.mask, sched.mask)


def test_schedule_header_lists_only_pattern_entries(tmp_path):
    sched = _random_schedule(np.random.default_rng(1))
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, sched)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[1:] == ["w_1_1", "w_1_2", "w_2_1", "w_2_2", "w_2_3", "w_3_2",
                                     "w_3_3"]


def test_multi_segment_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    s1 = _random_schedule(rng, 0.0, 0.5)
    s2 = _random_schedule(rng, 0.5, 1.0)
    joined = nx.WeightSchedule(grid=np.concatenate([s1.grid, s2.grid]),
                               W_seq=np.concatenate([s1.W_seq, s2.W_seq]), mask=s1.mask)
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, joined)
    back = read_schedule_csv(path).pieces()
    assert len(back) == 2
    assert np.array_equal(back[0].W_seq, s1.W_seq)
    assert np.array_equal(back[1].W_seq, s2.W_seq)
    assert back[0].grid[-1] == back[1].grid[0] == 0.5


def test_schedule_bad_header_and_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,w_1_1\n0.0,1.0\n")
    with pytest.raises(InputError):
        read_schedule_csv(p)
    p.write_text("t,weight11\n0.0,1.0\n")
    with pytest.raises(InputError):
        read_schedule_csv(p)


def test_wide_schedule_header_parses_in_linear_time(tmp_path):
    # the complete graph on 200 nodes: 40,000 weight columns, each checked for a repeat
    p = tmp_path / "wide.csv"
    names = [f"w_{i}_{j}" for i in range(1, 201) for j in range(1, 201)]
    p.write_text(",".join(["t", *names]) + "\n" + "".join(
        ",".join([t, *["0"] * len(names)]) + "\n" for t in ("0", "1")))
    start = time.perf_counter()
    sched = read_schedule_csv(p)
    assert time.perf_counter() - start < 2.0
    assert sched.mask.shape == (200, 200) and sched.mask.all()


def test_wide_schedule_bad_cell_names_its_line_in_linear_time(tmp_path):
    # the bad-line search reads the 40,001-cell header as one row only
    p = tmp_path / "wide.csv"
    names = [f"w_{i}_{j}" for i in range(1, 201) for j in range(1, 201)]
    p.write_text(",".join(["t", *names]) + "\n" + ",".join(["0", *["0"] * len(names)]) + "\n"
                 + ",".join(["1", *["0"] * (len(names) - 1), "x"]) + "\n")
    start = time.perf_counter()
    with pytest.raises(InputError, match="line 3 must hold 40001 numbers"):
        read_schedule_csv(p)
    assert time.perf_counter() - start < 2.0


MALFORMED = [
    ("t\n0.0\n1.0\n", "header has no w_i_j columns"),
    ("t,w_1_1,w_1_2\n0.0,1.0\n1.0,1.0,2.0\n", "line 2 must hold 3 numbers"),  # short row
    ("t,w_1_1\n0.0,1.0,5.0\n1.0,1.0\n", "line 2 must hold 2 numbers"),        # long row
    ("t,w_1_1\n0.0,abc\n1.0,1.0\n", "line 2 must hold 2 numbers"),            # no number
    ("t,w_1_1\n0.0,1.0#\n1.0,1.0\n", "line 2 must hold 2 numbers"),  # '#' starts no comment
    ("t,w_1_1\n0.0,1_0\n1.0,1.0\n", "line 2 must hold 2 numbers"),   # digits with '_'
    ("t,w_1_1\n0.0,nan\n1.0,1.0\n", "has non-finite entries"),
    ("t,w_0_1\n0.0,1.0\n1.0,1.0\n", "bad schedule column 'w_0_1'"),  # 0 is not 1-based
    # the first offending column in header order is named, malformed or repeated
    ("t,w_1_1,w_1_1,w_0_1\n0,1,1,1\n1,1,1,1\n", "repeated schedule column 'w_1_1'"),
    ("t,w_0_1,w_1_1,w_1_1\n0,1,1,1\n1,1,1,1\n", "bad schedule column 'w_0_1'"),
    ("t,w_1_1,w_1_2\n0,1\n1,2\n", "line 2 must hold 3 numbers"),  # every row short
    ("t,w_1_1\n0,1,2\n1,2,3\n", "line 2 must hold 2 numbers"),    # every row long
    ("t,w_1_1\n0.0,1.0\n", "schedule grid must be increasing"),      # a one-point segment
    ("t,w_1_1\n", "no schedule rows"),
    ("t\n0.0\n", "header has no w_i_j columns"),
]


@pytest.mark.parametrize("text, words", [pytest.param(t, w, id=t) for t, w in MALFORMED])
def test_schedule_malformed_rows_raise_format_error(tmp_path, text, words):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(InputError) as info:
        read_schedule_csv(p)
    assert str(info.value).startswith(str(p)) and words in str(info.value)


def test_blank_lines_are_skipped_and_quoted_cells_read(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text('t,w_1_1\n0.0,"1.5"\n\n1.0,2.0\n\n')
    sched = read_schedule_csv(p)
    assert sched.grid.tolist() == [0.0, 1.0]
    assert sched.W_seq[:, 0, 0].tolist() == [1.5, 2.0]
    # a bad row is named by its line in the file, blank lines counted
    p.write_text('t,w_1_1\n0.0,"1.5"\n\n1.0,2.0,3.0\n')
    with pytest.raises(InputError, match="line 4 must hold 2 numbers, one per header column$"):
        read_schedule_csv(p)


@pytest.mark.parametrize("last", ["   ", "\t", " \t "], ids=["spaces", "tab", "mixed"])
def test_whitespace_only_lines_are_blank(tmp_path, last):
    want = tmp_path / "want.csv"
    want.write_text("t,w_1_1\n0.0,1.0\n1.0,2.0\n\n")
    p = tmp_path / "s.csv"
    p.write_text(f"t,w_1_1\n0.0,1.0\n{last}\n1.0,2.0\n{last}")
    got, ref = read_schedule_csv(p), read_schedule_csv(want)
    assert np.array_equal(got.grid, ref.grid) and np.array_equal(got.W_seq, ref.W_seq)
    assert np.array_equal(got.mask, ref.mask)
    # a bad row keeps its line in the file, the whitespace lines counted
    p.write_text(f"t,w_1_1\n{last}\n0.0,1.0\n1.0,2.0,3.0\n")
    with pytest.raises(InputError, match="line 4 must hold 2 numbers, one per header column$"):
        read_schedule_csv(p)


def test_non_finite_cell_error_names_the_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,w_1_1\n0.0,1.0\n1.0,inf\n")
    with pytest.raises(InputError) as info:
        read_schedule_csv(p)
    assert str(info.value) == f"{p} has non-finite entries"


def test_empty_schedule_raises_without_a_warning(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,w_1_1\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="no schedule rows"):
            read_schedule_csv(p)


def test_schedule_is_read_at_least_n_nodes_wide(tmp_path):
    # a node the header never names holds zero weight; a wider header keeps its width
    p = tmp_path / "s.csv"
    p.write_text("t,w_1_1,w_1_2,w_2_1,w_2_2\n0,1,2,3,4\n1,1,2,3,4\n")
    narrow, wide = read_schedule_csv(p), read_schedule_csv(p, 4)
    assert (narrow.n, wide.n, read_schedule_csv(p, 1).n) == (2, 4, 2)
    assert wide.grid.tobytes() == narrow.grid.tobytes()
    padded = np.zeros((4, 4), dtype=bool)
    padded[:2, :2] = narrow.mask
    assert np.array_equal(wide.mask, padded)
    assert np.array_equal(wide.W_seq[:, :2, :2], narrow.W_seq) and not wide.W_seq[:, ~padded].any()


def test_initial_state_is_a_row_or_a_column(tmp_path):
    p = tmp_path / "xi.csv"
    for text in ("1,-2.5,3\n", "1\n-2.5\n3\n", '"1",-2.5,3\n', "\n1,-2.5,3\n\n"):
        p.write_text(text)
        assert read_initial_state(3, "xi", path=p).tolist() == [1.0, -2.5, 3.0]
    assert read_initial_state(3, "xi", text="1,-2.5,3").tolist() == [1.0, -2.5, 3.0]
    p.write_text("1\n2,3\n")
    with pytest.raises(InputError, match="^xi: line 2 must hold 1 number, one per cell"):
        read_initial_state(3, "xi", path=p)
    with pytest.raises(InputError, match="^xi: line 1 must hold 2 numbers"):
        read_initial_state(2, "xi", text='"1,5",abc')  # a quoted comma splits no cell
    with pytest.raises(InputError, match=r"^xi must be of shape \(2,\), got shape \(3,\)"):
        read_initial_state(2, "xi", text="1,2,3")
    with pytest.raises(InputError, match="^cannot read"):
        read_initial_state(2, "xi", path=tmp_path / "nope.csv")


def test_missing_file_raises_format_error(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_schedule_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("shape, prefix, header", [
    ((9, 4), "x", ["x_1", "x_2", "x_3", "x_4"]),
    ((5, 3, 3), "X", ["X_1_1", "X_1_2", "X_1_3", "X_2_1", "X_2_2", "X_2_3",
                      "X_3_1", "X_3_2", "X_3_3"]),
], ids=["vector", "matrix"])
def test_trajectory_round_trip(tmp_path, shape, prefix, header):
    # one column per entry, row-major and 1-based, in the bytes csv.writer gives
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 2.0, shape[0])
    seq = rng.normal(size=shape)
    path, ref = tmp_path / "traj.csv", tmp_path / "ref.csv"
    write_trajectory_csv(path, grid, seq, prefix)
    table = np.column_stack([grid, seq.reshape(shape[0], -1)])
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", *header])
        w.writerows(map(repr, row) for row in table.tolist())
    assert path.read_bytes() == ref.read_bytes()
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], grid)
    assert np.array_equal(data[:, 1:].reshape(shape), seq)


def test_columns_csv_layout(tmp_path):
    path = tmp_path / "cols.csv"
    write_columns_csv(path, np.array([0.0, 0.5]), {"err": np.array([1.0, 0.25])})
    lines = path.read_text().splitlines()
    assert lines[0] == "t,err"
    assert lines[1] == "0.0,1.0"
    assert lines[2] == "0.5,0.25"


def test_rows_are_the_bytes_csv_writer_gives(tmp_path):
    # the cells are joined without csv.writer; awkward floats must still come
    # out as the bytes it writes, and so must a header of the names the
    # program writes, none of which needs quoting
    tiny = np.nextafter(0.0, 1.0)
    values = [-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e300, -1e300,
              0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), -123456.78901234567, 1e16]
    header = ["t", "x_1", "x_2"]
    table = np.array(values[:12]).reshape(4, 3)
    path, ref = tmp_path / "cols.csv", tmp_path / "ref.csv"
    write_columns_csv(path, table[:, 0], {"x_1": table[:, 1], "x_2": table[:, 2]})
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(map(repr, row) for row in table.tolist())
    assert path.read_bytes() == ref.read_bytes()
    assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()
    assert path.read_bytes().count(b"\r\n") == 5
