"""Unit tests for the experiment harness and table rendering."""

from repro.experiments.harness import ExperimentResult, format_table


def make_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="EX",
        title="Example",
        paper_claim="claim text",
        params={"n": 5},
        rows=[
            dict(name="a", value=1.23456, flag=True),
            dict(name="bb", value=7.0, flag=False),
        ],
    )


class TestExperimentResult:
    def test_columns_come_from_first_row(self):
        result = make_result()
        assert result.columns == ("name", "value", "flag")

    def test_describe_includes_everything(self):
        result = make_result()
        result.notes.append("a note")
        result.verdict = "REPRODUCED"
        text = result.describe()
        assert "EX: Example" in text
        assert "claim text" in text
        assert "n=5" in text
        assert "a note" in text
        assert "REPRODUCED" in text


class TestEmptyAndErrorPaths:
    """The harness edge cases every engine-built experiment leans on."""

    def empty_result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="E0", title="Empty", paper_claim="claim"
        )

    def test_a_rowless_result_has_no_columns(self):
        # No rows ever added -> no columns exist yet.
        assert self.empty_result().columns == ()

    def test_to_table_with_no_rows_renders_placeholder(self):
        assert self.empty_result().to_table() == "(no rows)"

    def test_describe_with_no_rows_no_params_no_notes_no_verdict(self):
        text = self.empty_result().describe()
        assert "E0: Empty" in text
        assert "(no rows)" in text
        assert "parameters:" not in text
        assert "note:" not in text
        assert "verdict:" not in text

    def test_describe_orders_notes_before_verdict(self):
        result = make_result()
        result.notes.extend(["first note", "second note"])
        result.verdict = "REPRODUCED: everything"
        lines = result.describe().splitlines()
        note_indices = [
            i for i, line in enumerate(lines) if line.startswith("note: ")
        ]
        verdict_indices = [
            i for i, line in enumerate(lines) if line.startswith("verdict: ")
        ]
        assert note_indices == sorted(note_indices)
        assert len(verdict_indices) == 1
        assert note_indices[-1] < verdict_indices[0]
        assert "note: first note" in lines
        assert "note: second note" in lines
        assert "verdict: REPRODUCED: everything" in lines

    def test_describe_with_verdict_but_no_notes(self):
        result = make_result()
        result.verdict = "PARTIAL: shrug"
        text = result.describe()
        assert "note:" not in text
        assert text.rstrip().endswith("verdict: PARTIAL: shrug")


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(("x", "longcol"), [{"x": 1, "longcol": "v"}])
        lines = text.splitlines()
        assert lines[0].startswith("x")
        assert "longcol" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_floats_are_compact(self):
        text = format_table(("v",), [{"v": 0.123456789}])
        assert "0.1235" in text

    def test_bools_render_yes_no(self):
        text = format_table(("f",), [{"f": True}, {"f": False}])
        assert "yes" in text and "no" in text

    def test_empty_rows(self):
        assert format_table(("a",), []) == "(no rows)"

    def test_missing_cell_renders_empty(self):
        text = format_table(("a", "b"), [{"a": 1}])
        assert text  # does not raise
