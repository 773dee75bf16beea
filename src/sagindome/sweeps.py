"""Parameter sweeps over scenario geometry, one grid point at a time.

A sweep is checked once: its fixed values pass ``scenarios._check_values``
when its base scenario is built, and are not checked again when it runs
(without the swept value they can only lose the altitude-order bound, so
they still pass).  They fix the one interval of values the swept parameter
may take (``scenarios._interval``).  Each row then costs two float
comparisons against that interval and its arithmetic.  A value outside
it records the reason ``ScenarioSpec`` would raise there
(``scenarios._fault``) without raising it; a value inside goes through the
function ``coverage`` resolves its dome with (``scenarios._resolve``), which
evaluates the private bodies of the closed forms and keeps only the checks
such a value can still fail.  So a row is exactly ``coverage`` at its grid
value, or the text of the error it raises.  No record is built per row,
and no numpy is needed.

The rows are made 1 024 at a time (``sweep_blocks``).  The CLI writes each
block as it comes and keeps only the failed-row count and the first failed
row, so a CLI sweep holds one block whatever its size: a 1e6-step a2s sweep
with a third of its rows failed peaks at 16.2 MB RSS (108.7 MB when it held
the whole table), as a 25 000-step one does.  ``run_sweep`` returns the
whole grid as one table, every reason included.
"""

import math
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator

from .errors import SaginDomeError
from .geometry import _Record
from .scenarios import (
    SweepParameter,
    SweepScale,
    SweepSpec,
    _check_values,
    _fault,
    _interval,
    _resolve,
    _slot,
    _values,
)

# Grid points per block of a streamed sweep (``sweep_blocks``).  At 1 024
# rows a block's columns and failed-row reasons stay near 0.1 MB; at 4 096
# its reasons and CSV row objects still held about 1 MB.
_BLOCK_ROWS = 1024


class SweepTable(_Record):
    """A sweep's grid points, or one block of them (``sweep_blocks``), as
    columns, in grid order.  A point that could not be evaluated holds nan,
    nan and False; ``errors`` maps its index in the table to why.  Two
    tables are equal only if they are the same object."""

    parameter_value: array
    vertex_angle_rad: array
    area_km2: array
    tangent_limited: list[bool]
    errors: dict[int, str]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, parameter_value: array, vertex_angle_rad: array, area_km2: array,
                 tangent_limited: list[bool], errors: dict[int, str]) -> None:
        self.__dict__.update(parameter_value=parameter_value,
                             vertex_angle_rad=vertex_angle_rad, area_km2=area_km2,
                             tangent_limited=tangent_limited, errors=errors)


def grid_point(low: float, high: float, steps: int, scale: SweepScale) -> Callable[[int], float]:
    """The function from an index to that point of a range that passed
    ``check_grid``, so any point costs one evaluation.

    A linear grid follows np.linspace's formula, so it has its bytes.  A log
    grid is 10 ** y over the linear grid of the bounds' log10, clamped to
    [low, high] (a power that overflows gives ``high``), between the bounds.
    Both are non-decreasing in the index.
    """
    last = steps - 1
    if scale is SweepScale.LINEAR:
        delta = high - low
        step = delta / last
        if step:
            return lambda index: index * step + low if index < last else high
        return lambda index: index / last * delta + low if index < last else high
    exponent = grid_point(math.log10(low), math.log10(high), steps, SweepScale.LINEAR)

    def point(index: int) -> float:
        if index == 0:
            return low
        if index == last:
            return high
        try:
            value = 10.0 ** exponent(index)
        except OverflowError:
            return high
        return low if value < low else high if value > high else value
    return point


def base_value(parameter: SweepParameter, air_altitude_km: float | None,
               space_altitude_km: float | None, low: float, high: float, steps: int,
               scale: SweepScale) -> float:
    """The first grid point (library units) that ``scenarios._check_values``
    accepts given only itself and, for an altitude, the other layer's fixed
    altitude (None for a layer the scenario lacks); ``low`` when no point
    does, or when that fixed altitude fails on its own.  The CLI seeds a
    sweep's base scenario with it before any scenario exists; every other
    fixed value is checked when the base is built.  The grid is monotone and
    the accepted values an interval, so a bisection finds the point in
    O(log steps) evaluations."""
    slot = _slot(parameter)
    # The altitudes take the last two slots.
    values = [None, None, air_altitude_km, space_altitude_km] if slot > 1 else [None] * 4
    values[slot] = None
    try:
        _check_values(*values)
    except SaginDomeError:
        return low
    below, above = _interval(slot, values)
    point = grid_point(low, high, steps, scale)
    index = bisect_right(range(steps), below, key=point)
    if index < steps and (value := point(index)) < above:
        return value
    return low


def sweep_blocks(spec: SweepSpec, rows: int = _BLOCK_ROWS) -> Iterator[SweepTable]:
    """The sweep's grid in grid order, as tables of ``rows`` consecutive
    points (the last may hold fewer), each made when it is asked for.  Each
    table's ``errors`` is keyed by its own row index.  The fixed values were
    checked when the base scenario was built; the swept value's interval is
    fixed at the call, before any block is made."""
    base, values, slot = spec.base, _values(spec.base), _slot(spec.parameter)
    values[slot] = None
    low, high = _interval(slot, values)
    point = grid_point(spec.low, spec.high, spec.steps, spec.scale)
    failed = math.nan, math.nan, math.nan, math.nan, False

    def block(start: int) -> SweepTable:
        grid = array("d", map(point, range(start, min(start + rows, spec.steps))))
        phi, area, tangent, errors = array("d"), array("d"), [], {}
        for index, value in enumerate(grid):
            values[slot] = value
            if low < value < high:
                try:
                    row = _resolve(base, values)
                except SaginDomeError as exc:
                    errors[index], row = str(exc), failed
            else:
                errors[index], row = str(_fault(slot, value, values)), failed
            phi.append(row[2])
            area.append(row[3])
            tangent.append(row[4])
        return SweepTable(grid, phi, area, tangent, errors)

    return map(block, range(0, spec.steps, rows))


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate coverage at each grid point, in grid order: the whole grid
    as one table."""
    table, = sweep_blocks(spec, spec.steps)
    return table
