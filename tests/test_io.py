import pytest
from hypothesis import given
from hypothesis import strategies as st

from layertree import EmptyInput, Point, PointSet
from layertree.io import ParseError, parse_points, parse_queries, write_points, write_report

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestParsePoints:
    def test_comma_separated(self):
        ps = parse_points("1,2\n3,4\n", 2)
        assert [(p.coords, p.id) for p in ps] == [((1.0, 2.0), 0), ((3.0, 4.0), 1)]

    def test_comment_and_whitespace(self):
        ps = parse_points("# x y\n1 2\n", 2)
        assert len(ps) == 1 and ps.points[0].coords == (1.0, 2.0)

    def test_mixed_separators_and_blank_lines(self):
        ps = parse_points("\n1, 2\n\n3\t4\n", 2)
        assert len(ps) == 2

    def test_crlf_accepted(self):
        ps = parse_points("1,2\r\n3,4\r\n", 2)
        assert len(ps) == 2

    def test_wrong_arity_reports_line(self):
        with pytest.raises(ParseError) as ei:
            parse_points("1,2,3\n", 2)
        assert ei.value.line == 1

    def test_error_line_numbers_count_all_lines(self):
        with pytest.raises(ParseError) as ei:
            parse_points("# header\n1,2\nbad,word\n", 2)
        assert ei.value.line == 3

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_nonfinite_rejected(self, field):
        with pytest.raises(ParseError):
            parse_points(f"1,{field}\n", 2)

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            parse_points("1,two\n", 2)

    @pytest.mark.parametrize("line", ["1,,2", ",1,2", "1,2,", "1, ,2", "1,\t,2"])
    def test_empty_field_rejected(self, line):
        # the two remaining fields must not pass for a 2-d point
        with pytest.raises(ParseError) as ei:
            parse_points(f"0,0\n{line}\r\n", 2)
        assert ei.value.line == 2 and ei.value.reason == "empty field"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_points("# only comments\n\n", 2)


class TestParseQueries:
    def test_basic_box(self):
        boxes = parse_queries("0,0,1,1\n", 2)
        assert boxes[0].lo == (0.0, 0.0) and boxes[0].hi == (1.0, 1.0)

    def test_empty_interval_is_valid(self):
        boxes = parse_queries("5,0,1,9\n", 2)
        assert boxes[0].lo == (5.0, 0.0) and boxes[0].hi == (1.0, 9.0)

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_queries("0,1\n", 2)

    @pytest.mark.parametrize("line", ["0,,0,1,1", ",0,0,1,1", "0,0,1,1,"])
    def test_empty_field_rejected(self, line):
        with pytest.raises(ParseError) as ei:
            parse_queries(f"# boxes\n{line}\n", 2)
        assert ei.value.line == 2 and ei.value.reason == "empty field"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_queries("", 2)


class TestWriteReport:
    def test_empty_result(self):
        assert write_report([[]]) == "q=0 k=0\n"

    def test_single_hit(self):
        p = Point((1.0, 2.0), 3)
        assert write_report([[p]]) == "q=0 k=1\n3: 1.0,2.0\n"

    def test_hits_sorted_by_id(self):
        # hits are written in the order given; LayeredRangeTree.query gives them sorted by id
        a, b = Point((0.0, 0.0), 4), Point((1.0, 1.0), 1)
        assert write_report([[b, a]]).splitlines() == ["q=0 k=2", "1: 1.0,1.0", "4: 0.0,0.0"]
        assert write_report([[a, b]]).splitlines() == ["q=0 k=2", "4: 0.0,0.0", "1: 1.0,1.0"]

    def test_int_entries_are_count_lines(self):
        assert write_report([2, 0]) == "q=0 k=2\nq=1 k=0\n"


class TestRoundTrip:
    @given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=30))
    def test_write_then_parse_is_bit_exact(self, rows):
        ps = PointSet([Point(tuple(r), i) for i, r in enumerate(rows)], 3)
        back = parse_points(write_points(ps), 3)
        assert [p.coords for p in back] == [p.coords for p in ps]
        assert [p.id for p in back] == [p.id for p in ps]

    def test_ids_round_trip_from_any_order(self):
        # lines are written in id order, whatever order the Points were given in
        rows = [(0.5, -0.0), (1.7e308, 5e-324), (-1.0, 2.0)]
        ps = PointSet([Point(rows[i], i) for i in (2, 0, 1)], 2)
        back = parse_points(write_points(ps), 2)
        assert [[c.hex() for c in p.coords] for p in back.by_id] == [
            [c.hex() for c in r] for r in rows]
