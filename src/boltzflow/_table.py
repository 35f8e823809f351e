"""The one row format of every CSV run file."""

from __future__ import annotations

import numpy as np


def csv_table(header, formats, columns) -> str:
    """A header line, then one line per row of the equal-length columns.

    Each row is one printf-style template applied to the columns'
    `.tolist()` scalars: "%.17g" gives the bytes of str.format's
    "{:.17g}" (a binary64 value round-trips), "%d" an integer, and a bool
    as 0 or 1.
    """
    row = ",".join(formats) + "\n"
    body = "".join(row % r for r in zip(*(np.asarray(c).tolist() for c in columns)))
    return ",".join(header) + "\n" + body
