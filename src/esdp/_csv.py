"""The one CSV writer behind every table the package exports.

Rows go out in blocks of _BLOCK_ROWS, each read through `column.flat`, so
no column is copied or held as text at full length. Within a block each
column's distinct values are formatted once: floats as "%.17g" (exact
round trip; inf, nan and -0 spelled as Python spells them), integers and
booleans as decimal integers.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 4096


def _format(block: np.ndarray) -> list[str]:
    """Text of each entry of a 1-D block."""
    if block.dtype.kind == "f":
        # keyed on the bit pattern, so -0.0 and 0.0 stay distinct
        keys = np.asarray(block, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(keys, return_inverse=True)
        text = ["%.17g" % x for x in distinct.view(np.float64).tolist()]
    else:
        distinct, inverse = np.unique(block.astype(np.int64),
                                      return_inverse=True)
        text = [str(x) for x in distinct.tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(path, header, columns) -> None:
    """Write `columns`, arrays broadcast to one shape (transposed views
    welcome), as CSV rows in C order under the column names `header`."""
    columns = np.broadcast_arrays(*columns)
    rows = columns[0].size
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            cells = [_format(column.flat[start:stop]) for column in columns]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")
