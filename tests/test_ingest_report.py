import json
import math

import pytest

from qitest.errors import ParseError, QITestError, ValidationError
from qitest.ingest import InputSpec, ingest_csv
from qitest.report import ReportEnvelope, format_float, rows_to_csv, to_json
from qitest.teststat import quasi_independence_test


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngest:
    def test_basic_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit,event\n0,3,1\n1,2,0\n1.5,4,1\n")
        data, report = ingest_csv(InputSpec(path=path, event_column="event"))
        assert data.n == 3
        assert list(data.event) == [1, 0, 1]
        assert report.n_used == 3
        assert not report.uncensored_mode

    def test_missing_event_column_means_uncensored(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit\n0,3\n1,2\n")
        data, report = ingest_csv(InputSpec(path=path))
        assert data.event.all()
        assert report.uncensored_mode

    def test_entry_equal_exit_rejected_with_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit\n0,3\n2,2\n")
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(InputSpec(path=path))

    def test_infinite_time_rejected_with_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit\n0,3\n1,inf\n")
        with pytest.raises(ValidationError, match="row 3.*finite"):
            ingest_csv(InputSpec(path=path))

    def test_malformed_value(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit\n0,3\nx,2\n")
        with pytest.raises(ParseError, match="row 3"):
            ingest_csv(InputSpec(path=path))

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "start,stop\n0,3\n")
        with pytest.raises(ParseError, match="entry"):
            ingest_csv(InputSpec(path=path))

    @pytest.mark.parametrize("text,header,want", [
        ("entry,exit,event\n0,3,1\n1,2\n", True, "row 3: missing column 'event'"),
        ("entry,exit,event\n0,3,1\n1\n", True, "row 3: missing column 'exit'"),
        ("0,3,1\n1,2\n", False, "row 2: missing column 2"),
    ], ids=["header-event", "header-exit", "headerless"])
    def test_short_row_names_the_missing_column(self, tmp_path, text, header, want):
        # with or without a header, a cell past a short row's end is missing
        path = write(tmp_path, "d.csv", text)
        columns = dict(event_column="event") if header else dict(entry_column=0, exit_column=1, event_column=2)
        with pytest.raises(ParseError, match=f"^{want}$"):
            ingest_csv(InputSpec(path=path, header=header, **columns))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            ingest_csv(InputSpec(path=str(tmp_path / "nope.csv")))

    def test_bad_event_flag(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit,event\n0,3,2\n")
        with pytest.raises(ParseError, match="event flag"):
            ingest_csv(InputSpec(path=path, event_column="event"))

    def test_headerless_indices(self, tmp_path):
        path = write(tmp_path, "d.csv", "0,3,1\n1,2,0\n")
        data, _ = ingest_csv(InputSpec(path=path, entry_column=0, exit_column=1,
                                       event_column=2, header=False))
        assert data.n == 2

    def test_integer_columns_index_a_header_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit,event\n0,3,1\n1,2,0\n")
        data, _ = ingest_csv(InputSpec(path=path, entry_column=0, exit_column="1", event_column=2))
        assert data.entry.tolist() == [0.0, 1.0] and data.event.tolist() == [1, 0]
        # a header name wins over the same text read as an index
        path = write(tmp_path, "n.csv", "1,0\n5,9\n6,8\n")
        data, _ = ingest_csv(InputSpec(path=path, entry_column=1, exit_column=0))
        assert data.entry.tolist() == [5.0, 6.0] and data.exit.tolist() == [9.0, 8.0]

    def test_rows_are_numbered_by_file_line(self, tmp_path):
        path = write(tmp_path, "d.csv", 'entry,exit,note\n0,3,"two\nlines"\n\n\n1,2,\nx,2,\n')
        with pytest.raises(ParseError, match="^row 7: non-numeric"):
            ingest_csv(InputSpec(path=path))

    def test_group_filter(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "sex,entry,exit\nM,0,3\nF,1,2\nM,1,4\n")
        data, _ = ingest_csv(InputSpec(path=path, group_column="sex", group_value="M"))
        assert data.n == 2

    @pytest.mark.parametrize("group", [dict(group_column="sex"), dict(group_value="M")])
    def test_lone_group_option_rejected(self, tmp_path, group):
        path = write(tmp_path, "d.csv", "sex,entry,exit\nM,0,3\nF,1,2\nM,1,4\n")
        with pytest.raises(ParseError, match="group column and a group value"):
            ingest_csv(InputSpec(path=path, **group))

    @pytest.mark.parametrize("delimiter", ["", ";;", ", "])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = write(tmp_path, "d.csv", "entry,exit\n0,3\n1,2\n")
        with pytest.raises(ParseError, match="one character"):
            ingest_csv(InputSpec(path=path, delimiter=delimiter))

    def test_one_character_delimiter(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry;exit\n0;3\n1;2\n")
        data, _ = ingest_csv(InputSpec(path=path, delimiter=";"))
        assert data.exit.tolist() == [3.0, 2.0]

    def test_tie_warning(self, tmp_path):
        path = write(tmp_path, "d.csv", "entry,exit\n0,3\n0,4\n1,3\n")
        _, report = ingest_csv(InputSpec(path=path))
        assert report.tied_entries == 1
        assert report.tied_exits == 1
        assert report.warnings


class TestSerialization:
    def test_float_format_precision(self):
        for x in (0.5, 1 / 3, 1.2345678901234567e-7, 3.972):
            s = format_float(x)
            assert float(s) == x  # exact round trip
            mantissa = s.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 12  # significant digits

    def test_json_round_trip_exact(self, make_dataset):
        data = make_dataset(30, censored=True)
        result = quasi_independence_test(data, "rank", "sign", censored_mode=True)
        env = ReportEnvelope(command="test", payload=result, seeds=[1, 2])
        parsed = json.loads(env.to_json())
        assert parsed["result"]["kappa_hat"] == result.kappa_hat
        assert parsed["result"]["phi_hat"] == result.phi_hat
        assert parsed["result"]["p_value"] == result.p_value
        assert parsed["result"]["g_kernel"] == "rank"
        assert parsed["seeds"] == [1, 2]
        assert parsed["tool"] == "qitest"

    def test_json_escaping_and_types(self):
        doc = {"s": 'quote " and \\ and\nnewline', "b": True, "none": None,
               "list": [1, 2.5], "empty": {}, "emptylist": []}
        parsed = json.loads(to_json(doc))
        assert parsed["s"] == 'quote " and \\ and\nnewline'
        assert parsed["b"] is True
        assert parsed["none"] is None
        assert parsed["list"][1] == 2.5

    def test_json_escapes_control_characters(self):
        text = "tab\there, bell\x01, cr\r, nul\x00, unit\x1f, del\x7f, é"
        doc = {text: text, "list": [text]}
        assert json.loads(to_json(doc)) == doc

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_floats(self, x):
        with pytest.raises(QITestError, match="non-finite"):
            to_json({"result": {"kappa_hat": x}})

    def test_csv_rows(self):
        rows = [{"a": 1, "b": 0.5, "c": "x"}, {"a": 2, "b": 1 / 3, "c": "y"}]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,c"
        assert float(lines[2].split(",")[1]) == 1 / 3
        assert rows_to_csv([]) == ""
