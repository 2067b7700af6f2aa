"""Truth tables: the simplest way to program a ROM or a PLA."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.logic.cube import Cover, Cube
from repro.logic.expr import Expr, expr_to_truth_rows


class TruthTable:
    """A complete multi-output truth table.

    Rows are indexed by the integer value of the inputs (first input name is
    the most significant bit).  Each row holds one output bit per output
    name.  Don't-care outputs are represented by ``None`` and are exploited
    by the minimiser.
    """

    def __init__(self, input_names: Sequence[str], output_names: Sequence[str]):
        if not input_names:
            raise ValueError("a truth table needs at least one input")
        if not output_names:
            raise ValueError("a truth table needs at least one output")
        if len(set(input_names)) != len(input_names):
            raise ValueError("duplicate input names")
        if len(set(output_names)) != len(output_names):
            raise ValueError("duplicate output names")
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        self._rows: List[List[Optional[int]]] = [
            [0] * len(self.output_names) for _ in range(2 ** len(self.input_names))
        ]

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_function(input_names: Sequence[str], output_names: Sequence[str],
                      function: Callable[[Dict[str, int]], Dict[str, int]]) -> "TruthTable":
        """Build a table by calling a Python function on every input row."""
        table = TruthTable(input_names, output_names)
        for index in range(table.num_rows):
            assignment = table.assignment_for(index)
            outputs = function(assignment)
            for name in output_names:
                if name not in outputs:
                    raise KeyError(f"function did not produce output {name!r}")
                table.set_output(index, name, outputs[name])
        return table

    @staticmethod
    def from_expressions(expressions: Dict[str, Expr],
                         input_names: Optional[Sequence[str]] = None) -> "TruthTable":
        """Build a table from named boolean expressions (one per output)."""
        if not expressions:
            raise ValueError("no expressions supplied")
        if input_names is None:
            names = set()
            for expr in expressions.values():
                names |= expr.variables()
            input_names = sorted(names)
        table = TruthTable(list(input_names), list(expressions))
        for output_name, expr in expressions.items():
            rows = expr_to_truth_rows(expr, table.input_names)
            for index, value in enumerate(rows):
                table.set_output(index, output_name, value)
        return table

    @staticmethod
    def from_values(input_names: Sequence[str], output_names: Sequence[str],
                    rows: Iterable[Sequence[Optional[int]]]) -> "TruthTable":
        """Build a table from an explicit row-major list of output values."""
        table = TruthTable(input_names, output_names)
        rows = list(rows)
        if len(rows) != table.num_rows:
            raise ValueError(
                f"expected {table.num_rows} rows for {len(input_names)} inputs, got {len(rows)}"
            )
        for index, row in enumerate(rows):
            if len(row) != len(table.output_names):
                raise ValueError(f"row {index} has {len(row)} outputs, expected {len(output_names)}")
            for position, value in enumerate(row):
                table.set_output(index, table.output_names[position], value)
        return table

    # -- access ------------------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return len(self.input_names)

    @property
    def num_outputs(self) -> int:
        return len(self.output_names)

    @property
    def num_rows(self) -> int:
        return 2 ** self.num_inputs

    def assignment_for(self, row_index: int) -> Dict[str, int]:
        if not 0 <= row_index < self.num_rows:
            raise IndexError(f"row {row_index} out of range")
        return {
            name: (row_index >> (self.num_inputs - 1 - position)) & 1
            for position, name in enumerate(self.input_names)
        }

    def set_output(self, row_index: int, output_name: str, value: Optional[int]) -> None:
        column = self.output_names.index(output_name)
        if value is not None and value not in (0, 1):
            raise ValueError("output values must be 0, 1 or None (don't care)")
        self._rows[row_index][column] = value

    def set_row(self, row_index: int, values: Sequence[Optional[int]]) -> None:
        for name, value in zip(self.output_names, values):
            self.set_output(row_index, name, value)

    def output(self, row_index: int, output_name: str) -> Optional[int]:
        column = self.output_names.index(output_name)
        return self._rows[row_index][column]

    def row(self, row_index: int) -> List[Optional[int]]:
        return list(self._rows[row_index])

    def on_set(self, output_name: str) -> List[int]:
        """Row indices where the output is 1."""
        column = self.output_names.index(output_name)
        return [i for i, row in enumerate(self._rows) if row[column] == 1]

    def dc_set(self, output_name: str) -> List[int]:
        """Row indices where the output is a don't care."""
        column = self.output_names.index(output_name)
        return [i for i, row in enumerate(self._rows) if row[column] is None]

    # -- conversion -----------------------------------------------------------------

    def to_cover(self) -> Cover:
        """The canonical (unminimised) cover: one cube per on-set minterm.

        Minterms shared between outputs are merged into multi-output cubes so
        the PLA generator can share product terms even before minimisation.
        """
        cover = Cover(self.input_names, self.output_names)
        for index in range(self.num_rows):
            output_part = ""
            for column in range(self.num_outputs):
                output_part += "1" if self._rows[index][column] == 1 else "0"
            if "1" not in output_part:
                continue
            input_part = format(index, f"0{self.num_inputs}b")
            cover.add_term(input_part, output_part)
        return cover

    def __str__(self) -> str:
        header = " ".join(self.input_names) + " | " + " ".join(self.output_names)
        lines = [header, "-" * len(header)]
        for index in range(self.num_rows):
            bits = format(index, f"0{self.num_inputs}b")
            outputs = " ".join(
                "-" if value is None else str(value) for value in self._rows[index]
            )
            lines.append(f"{' '.join(bits)} | {outputs}")
        return "\n".join(lines)
