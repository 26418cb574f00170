"""The one CSV layout every pintlab output file uses.

`# ` header lines, one column row, data rows, then `# key = value` footers.
Float cells are written with repr (round-trip exact), bools as true/false,
everything else with str; callers map special cells (e.g. `unbounded`)
themselves.
"""

from __future__ import annotations


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(fileobj, header_lines, columns, rows, footer=()) -> None:
    """Write header comments, the column row, data rows and footer pairs."""
    for line in header_lines:
        fileobj.write(f"# {line}\n")
    fileobj.write(",".join(columns) + "\n")
    for row in rows:
        fileobj.write(",".join(_cell(v) for v in row) + "\n")
    for key, value in footer:
        fileobj.write(f"# {key} = {_cell(value)}\n")
