"""Parameter sweeps over scenario geometry, one grid point at a time.

A row is the base scenario's values with the swept one set to the grid
value, put through ``ScenarioSpec``'s own value check
(``scenarios._check_values``) and then the function ``coverage`` resolves
its dome with (``scenarios._resolve``).  So a row is exactly ``coverage``
at its grid value, or the text of the error it raises.  No dataclass is
built per row, and no numpy is needed.
"""

import math
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

from .errors import SaginDomeError
from .scenarios import (
    SweepParameter,
    SweepScale,
    SweepSpec,
    _check_values,
    _resolve,
    _slot,
    _values,
)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's grid points as columns, in grid order.  A point that could
    not be evaluated holds nan, nan and False; ``errors`` maps its index to why."""

    parameter_value: array
    vertex_angle_rad: array
    area_km2: array
    tangent_limited: list[bool]
    errors: dict[int, str]


def grid_values(low: float, high: float, steps: int, scale: SweepScale) -> Iterator[float]:
    """The points of a range that passed ``check_grid``, one at a time.

    A linear grid follows np.linspace's formula, so it has its bytes.  A log
    grid is 10 ** y over the linear grid of the bounds' log10, clamped to
    [low, high] (a power that overflows gives ``high``), between the bounds.
    """
    if scale is SweepScale.LINEAR:
        div, delta = steps - 1, high - low
        step = delta / div
        for index in range(div):
            yield index * step + low if step else index / div * delta + low
        yield high
        return
    yield low
    exponents = grid_values(math.log10(low), math.log10(high), steps, SweepScale.LINEAR)
    for exponent in islice(exponents, 1, steps - 1):
        try:
            value = 10.0 ** exponent
        except OverflowError:
            value = high
        yield min(max(value, low), high)
    yield high


def row_check(parameter: SweepParameter, air_altitude_km: float | None,
              space_altitude_km: float | None) -> Callable[[float], bool] | None:
    """Whether a swept value (library units) passes ``scenarios._check_values``
    given only itself and, for an altitude, the other layer's fixed altitude
    (None for a layer the scenario lacks); None when that fixed altitude
    fails on its own, so that no value can pass.  The CLI picks a sweep's
    base value with it before any scenario exists; every other fixed value
    is checked when the base is built."""
    slot = _slot(parameter)
    altitude = parameter in (SweepParameter.AIR_ALTITUDE, SweepParameter.SPACE_ALTITUDE)
    values = [None, None, air_altitude_km, space_altitude_km] if altitude else [None] * 4
    values[slot] = None
    try:
        _check_values(*values)
    except SaginDomeError:
        return None

    def passes(value: float) -> bool:
        values[slot] = value
        try:
            _check_values(*values)
        except SaginDomeError:
            return False
        return True
    return passes


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate coverage at each grid point, in grid order."""
    base, values, slot = spec.base, _values(spec.base), _slot(spec.parameter)
    grid = array("d", grid_values(spec.low, spec.high, spec.steps, spec.scale))
    phi, area, tangent, errors = array("d"), array("d"), [], {}
    for index, value in enumerate(grid):
        values[slot] = value
        try:
            _check_values(*values)
            row = _resolve(base, values)
        except SaginDomeError as exc:
            errors[index] = str(exc)
            row = math.nan, math.nan, math.nan, math.nan, False
        phi.append(row[2])
        area.append(row[3])
        tangent.append(row[4])
    return SweepTable(grid, phi, area, tangent, errors)
