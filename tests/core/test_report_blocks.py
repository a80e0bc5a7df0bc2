"""Tests of the structured report blocks and their serialization."""

import numpy as np
import pytest

from repro.core.report import (
    ReportDocument,
    ReportSeries,
    ReportTable,
    ReportText,
    block_from_payload,
    format_series,
    format_table,
)


class TestRenderParity:
    """The block classes render exactly what the legacy helpers printed."""

    def test_table_matches_format_table(self):
        headers = ("name", "value", "note")
        rows = [("a", 1.2345, "x"), ("bb", 1e-9, "y"), ("c", 0.0, "z")]
        assert (
            ReportTable(headers, rows, precision=3, title="T:").render()
            == format_table(headers, rows, precision=3, title="T:")
        )

    def test_series_matches_format_series(self):
        values = [1.0, 0.5, 1e-7]
        assert (
            ReportSeries("nmse", values, precision=2).render()
            == format_series("nmse", values, precision=2)
        )

    def test_text_renders_verbatim(self):
        assert ReportText("hello").render() == "hello"
        assert ReportText("").render() == ""

    def test_document_joins_blocks_with_newlines(self):
        document = ReportDocument(
            [ReportText("a"), ReportText(""), ReportText("b")]
        )
        assert document.render() == "a\n\nb"

    def test_document_coerces_plain_strings(self):
        assert ReportDocument(["a", "b"]).render() == "a\nb"

    def test_append_coerces_plain_strings(self):
        document = ReportDocument([ReportText("a")])
        document.append("b")
        assert document.blocks[-1] == ReportText("b")
        assert document.render() == "a\nb"


class TestValidation:
    def test_document_rejects_non_blocks(self):
        with pytest.raises(TypeError, match="not a report block"):
            ReportDocument([3.5])

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReportTable(("a", "b"), [(1,)])

    def test_numpy_cells_render_like_builtins(self):
        table = ReportTable(("x",), [(np.float64(1.5),)])
        assert table.render() == ReportTable(("x",), [(1.5,)]).render()


class TestPayloadRoundTrip:
    def blocks(self):
        return [
            ReportTable(
                ("a", "b"), ((1, 2.5), ("x", True)), precision=3, title="T:"
            ),
            ReportText(""),
            ReportSeries("s", [1.0, 2.0], precision=2),
            ReportText("footer"),
        ]

    def test_block_payloads_round_trip(self):
        for block in self.blocks():
            clone = block_from_payload(block.to_payload())
            assert clone.render() == block.render()
            assert clone.to_payload() == block.to_payload()

    def test_document_payload_round_trips_byte_identical(self):
        document = ReportDocument(self.blocks())
        clone = ReportDocument.from_payload(document.to_payload())
        assert clone.render() == document.render()

    def test_payload_survives_json(self):
        import json

        document = ReportDocument(self.blocks())
        payload = json.loads(json.dumps(document.to_payload()))
        assert ReportDocument.from_payload(payload).render() == document.render()

    def test_unknown_block_kind_rejected(self):
        with pytest.raises(ValueError):
            block_from_payload({"kind": "hologram"})

    def test_tables_accessor_filters_tables(self):
        document = ReportDocument(self.blocks())
        tables = document.tables()
        assert len(tables) == 1
        assert tables[0].title == "T:"
