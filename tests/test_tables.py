"""The CSV table layer: exact integers, write→read round trips, and typed
errors that name the file line of a malformed row."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppskit import cli
from ppskit.detection import CountRecord, read_counts_csv, write_counts_csv
from ppskit.errors import ConfigError, InvalidInputError
from ppskit.jsd import JsdGrid, read_filter_csv, read_jsd_csv, write_jsd_csv
from ppskit.pnd import PndMatrix, read_pnd_csv, write_pnd_csv
from ppskit.tables import parse_int, read_table, write_table

COUNT_HEADER = "nu,n_m," + ",".join(f"f{a}{b}" for a in range(1, 5) for b in range(1, 5))
DETECTORS = "[detectors]\nd1 = 0\nd2 = 0\nd3 = 0\nd4 = 0\n"


def count_row(nu, cells):
    return ",".join(str(v) for v in [nu, sum(cells), *cells])


class TestParseInt:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("0", 0),
            (" 42\n", 42),
            ("-7", -7),
            ("1e9", 10**9),
            ("100000000.0", 10**8),
            ("9007199254740993", 2**53 + 1),
            ("123456789012345678901234567890", 123456789012345678901234567890),
            ("9.007199254740992e15", 2**53),
        ],
    )
    def test_exact_values(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize(
        "text", ["2.5", "9.5", "0.5", "abc", "", "nan", "inf", "1e20", "9.007199254740994e15"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_int(text)


count_tables = st.lists(
    st.tuples(
        st.integers(0, 3),
        hnp.arrays(np.int64, 16, elements=st.integers(0, 10**12)),
    ),
    min_size=1,
    max_size=6,
)


class TestRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(count_tables)
    def test_counts_rows_summed_exactly_per_setting(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("counts") / "counts.csv"
        records = [CountRecord(f.reshape(4, 4), int(f.sum()), nu=nu) for nu, f in rows]
        write_counts_csv(path, records)
        loaded, info = read_counts_csv(path)
        expected = {}
        for nu, f in rows:
            expected[nu] = expected.get(nu, 0) + f.astype(object)
        assert [rec.nu for rec in loaded] == sorted(expected)
        for rec in loaded:
            np.testing.assert_array_equal(rec.f.reshape(-1), expected[rec.nu].astype(float))
            assert rec.n_m == int(expected[rec.nu].sum())
        assert info["rows_per_setting"] == {
            nu: sum(1 for n, _ in rows if n == nu) for nu in expected
        }

    def test_counts_above_2_pow_53_stay_exact(self, tmp_path):
        f = np.zeros((4, 4))
        f[0, 0] = 2.0**53
        f[3, 3] = 1.0
        path = tmp_path / "counts.csv"
        write_counts_csv(path, [CountRecord(f, 2**53 + 1)])
        (rec,), _ = read_counts_csv(path)
        assert rec.n_m == 2**53 + 1

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, st.sampled_from([(2, 2), (3, 3), (4, 4)]),
                   elements=st.floats(0.0, 1.0)),
        st.dictionaries(
            st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
            st.one_of(st.integers(), st.booleans(), st.from_regex(r"[A-Za-z0-9.]{0,10}", fullmatch=True)),
            max_size=4,
        ),
    )
    def test_pnd_with_metadata(self, tmp_path_factory, cells, metadata):
        assume(cells.sum() > 0)
        P = PndMatrix(cells / cells.sum())
        path = tmp_path_factory.mktemp("pnd") / "pnd.csv"
        write_pnd_csv(path, P, metadata)
        Q, meta = read_pnd_csv(path)
        np.testing.assert_array_equal(Q.p, P.p)
        assert meta == {key: str(value) for key, value in metadata.items()}

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.floats(-5.0, 5.0),
        st.floats(0.5, 5.0),
        st.data(),
    )
    def test_jsd(self, tmp_path_factory, n_s, n_i, start, step, data):
        parts = hnp.arrays(np.float64, (2, n_s, n_i), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts)
        assume(np.abs(re).max() > 1e-3)
        axis_s = start + step * np.arange(n_s)
        axis_i = -start + 0.5 * step * np.arange(n_i)
        jsd = JsdGrid(re + 1j * im, axis_s, axis_i)
        path = tmp_path_factory.mktemp("jsd") / "jsd.csv"
        write_jsd_csv(path, jsd)
        loaded = read_jsd_csv(path)
        np.testing.assert_array_equal(loaded.axis_s, jsd.axis_s)
        np.testing.assert_array_equal(loaded.axis_i, jsd.axis_i)
        # The file holds jsd.values exactly; the reader builds the same grid from them.
        np.testing.assert_array_equal(loaded.values, JsdGrid(jsd.values, axis_s, axis_i).values)

    def test_writer_cell_formats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b", "c", "d"], [[0.1, True, 3, "x"]], {"k": True})
        assert path.read_bytes() == b"# k=True\na,b,c,d\r\n0.10000000000000001,true,3,x\r\n"
        write_table(path, ["a"], [[0.1]], float_format=".12g")
        assert path.read_bytes() == b"a\r\n0.1\r\n"


class TestMalformedRows:
    def test_line_numbers_count_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a=1\n\na,b\n1,2\n\n# note\n3,x\n")
        with pytest.raises(InvalidInputError, match="malformed table CSV row at line 7"):
            read_table(path, ["a", "b"], "table", lambda row: (int(row["a"]), int(row["b"])))

    @pytest.mark.parametrize("row", ["1", "1,2,3"])
    def test_wrong_cell_count(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,2\n{row}\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            read_table(path, ["a", "b"], "table", dict)

    @pytest.mark.parametrize("text", ["", "# only=metadata\n\n", "a,b\n", "a,b,b\n1,2,3\n", "b,a\n1,2\n"])
    def test_empty_or_wrong_header(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError):
            read_table(path, ["a", "b"], "table", dict, ordered=True)

    def test_binary_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
        with pytest.raises(InvalidInputError, match="not UTF-8"):
            read_table(path, ["a", "b"], "table", dict)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "table CSV header must be a,b, got []"),
            (b"a,b\n", "table CSV is empty"),
            (b"a,c\n1,2\n", "table CSV header must be a,b"),
            (b"a,b\n1\n", "malformed table CSV row at line 2"),
            (b"\xff\xfea,b\n1,2\n", "table CSV is not UTF-8 text"),
        ],
    )
    def test_every_error_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(InvalidInputError) as info:
            read_table(path, ["a", "b"], "table", dict)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe" + COUNT_HEADER.encode() + b"\n",
            (COUNT_HEADER + "\n" + count_row(0, [10] + [0] * 15) + "\nabc,1\n").encode(),
        ],
        ids=["not-utf8", "malformed-row"],
    )
    def test_counts_error_names_the_counts_file(self, tmp_path, capsys, data):
        counts = tmp_path / "bad_counts.csv"
        counts.write_bytes(data)
        config = tmp_path / "est.cfg"
        config.write_text(DETECTORS)
        code = cli.main(["estimate", "--config", str(config), "--counts", str(counts),
                         "--out", str(tmp_path / "fit")])
        assert code == 2
        assert f"error: {counts}: " in capsys.readouterr().err

    def test_unordered_header_maps_columns_by_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("b,a\n1,2\n")
        rows, _ = read_table(path, ["a", "b"], "table", dict)
        assert rows == [{"a": "2", "b": "1"}]

    @pytest.mark.parametrize(
        "bad_row",
        ["abc," + ",".join(["1"] * 17), count_row(0, [9.5, 0.5] + [0] * 14), count_row(0, [10] * 15)],
    )
    def test_counts_file_exits_2_naming_the_line(self, tmp_path, capsys, bad_row):
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join([COUNT_HEADER, count_row(0, [10] + [0] * 15), bad_row]) + "\n")
        config = tmp_path / "est.cfg"
        config.write_text(DETECTORS)
        code = cli.main(["estimate", "--config", str(config), "--counts", str(counts),
                         "--out", str(tmp_path / "fit")])
        assert code == 2
        assert "malformed count CSV row at line 3" in capsys.readouterr().err

    def test_counts_comment_and_blank_line_do_not_shift_line(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(
            f"# run=7\n{COUNT_HEADER}\n{count_row(0, [10] + [0] * 15)}\n\n# note\n"
            + count_row(0, [2.5] + [0] * 15) + "\n"
        )
        config = tmp_path / "est.cfg"
        config.write_text(DETECTORS)
        assert cli.main(["estimate", "--config", str(config), "--counts", str(counts),
                         "--out", str(tmp_path / "fit")]) == 2
        assert "malformed count CSV row at line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["1,x,0.0", "1.5,0,0.0", "-1,0,0.0", "0,0"])
    def test_pnd_file_exits_2_naming_the_line(self, tmp_path, capsys, bad_row):
        pnd = tmp_path / "pnd.csv"
        pnd.write_text(f"# seed=1\nj,k,p\n0,0,1.0\n\n{bad_row}\n")
        config = tmp_path / "sim.cfg"
        config.write_text(
            f"[pnd]\nsource = csv\nfile = {pnd}\n\n{DETECTORS}\n[simulate]\nn_m = 1000\n"
        )
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "malformed PND CSV row at line 5" in capsys.readouterr().err

    def test_pnd_file_with_missing_cells_exits_2(self, tmp_path, capsys):
        pnd = tmp_path / "pnd.csv"
        pnd.write_text("j,k,p\n0,0,1.0\n3000,0,0\n")
        config = tmp_path / "sim.cfg"
        config.write_text(
            f"[pnd]\nsource = csv\nfile = {pnd}\n\n{DETECTORS}\n[simulate]\nn_m = 1000\n"
        )
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "2 rows" in capsys.readouterr().err

    def test_jsd_and_filter_rows_name_the_line(self, tmp_path):
        jsd = tmp_path / "jsd.csv"
        jsd.write_text("omega_s,omega_i,re,im\n0,0,1,0\n# c\n0,1,one,0\n")
        with pytest.raises(InvalidInputError, match="malformed JSD CSV row at line 4"):
            read_jsd_csv(jsd)
        filt = tmp_path / "filt.csv"
        filt.write_text("omega,t\n\n0,1\n1\n")
        with pytest.raises(InvalidInputError, match="malformed filter CSV row at line 4"):
            read_filter_csv(filt)


class TestConfigIntegers:
    def test_fractional_trial_budget_exits_2(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("[pnd]\nsource = random\np_g = 1e-2\n\n[simulate]\nn_m = 2.5\n")
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "n_m" in capsys.readouterr().err
        assert not (tmp_path / "out" / "counts.csv").exists()

    def test_get_int_is_exact(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("[simulate]\nn_m = 9007199254740993\nseed = 1e3\n")
        cfg = cli.load_config(str(config))
        assert cfg.get("simulate", "n_m") == 2**53 + 1
        assert cfg.get("simulate", "seed") == 1000
        config.write_text("[simulate]\nreps = 1e20\n")  # values are parsed on load
        with pytest.raises(ConfigError, match="reps"):
            cli.load_config(str(config))
