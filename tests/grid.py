"""A law statement of the library read on its whole (x, y, z) grid at once.

Each triple law is stated once in src/ as a module-level
`*_fails(*tables, x, y, z)`.  The tests take it as their oracle, evaluated
here in one call rather than slice by slice as `checks._first_triple`
reads it, so the scan is held to the statement too.  pytest does not
collect this file.
"""

import numpy as np


def failing_mask(fails, tables, shape) -> np.ndarray:
    """The boolean grid of `shape` that is true where fails(*tables, x, y, z) holds."""
    grid = np.ogrid[tuple(slice(size) for size in shape)]
    return np.broadcast_to(fails(*tables, *grid), shape)


def first_failing(fails, tables, shape) -> tuple[int, int, int] | None:
    """The first (x, y, z), x-major, at which the statement fails, or None."""
    bad = failing_mask(fails, tables, shape)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), shape))
