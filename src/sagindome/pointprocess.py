"""Seeded stochastic transmitter generation on a coverage dome.

Reproducibility contract: a fixed (dome, config) pair yields the same bytes
on any machine with the same libm, whatever numpy's SIMD dispatch or BLAS
kernel.  From its uniforms a point is made with IEEE ``+``, ``-``, ``*`` and
``sqrt``, and libm's ``sin`` and ``cos``, for which numpy's functions give
libm's bits: the area-uniform polar angle enters only through its sine and
cosine, taken from sqrt(U) * sin(phi/2) without an ``arcsin``, and the
rotation onto the receiver direction is nine multiply-adds in a fixed
order, not a BLAS product.  The formulas are written once, in ``_draw``,
which also makes a draw that fits one block without numpy, for the
``sample`` command, with the same bytes.  Uniform variates come from PCG64
seeded by ``SeedSequence``, through ``Generator.random`` here and through
``_draw.PCG64`` there; the Poisson count is drawn by the package's own
samplers (sequential inversion below mean 30, Hormann's PTRS transformed
rejection above) so the stream never depends on numpy's distribution
internals.

The stream order is: the count, then all azimuths, then all polar uniforms.
``Generator.random`` takes one 64-bit output of the bit generator per
double, so the polar uniforms begin ``count`` outputs after the azimuths.
``point_blocks`` draws its blocks in that order without holding the draw:
each block takes its azimuths from the seeded generator and its polar
uniforms from a copy of it advanced by ``count`` (``PCG64.advance``), or,
when the draw fits one block, from the seeded generator after the
azimuths.  ``generate`` and the ``sample`` command are built on it, so a
streamed sample holds one block whatever its count.  Each point is computed
on its own, so the block boundaries are not part of the bytes.  The tests
draw whole uniform arrays in one go with their own one-shot oracle and
compare its points with the blocks bit for bit.  It checks no record again:
a ``DomeGeometry`` holds a vertex angle in [0, pi] and a ``SampleConfig`` a
``SampleMode``, each checked when the record was built.
"""

import copy
from collections.abc import Iterator

import numpy as np

# MAX_SAMPLE_POINTS, DEFAULT_RNG_ALGORITHM and poisson_count are this
# module's names too.
from ._draw import (
    _BLOCK_ROWS,
    DEFAULT_RNG_ALGORITHM,
    MAX_SAMPLE_POINTS,
    local_points,
    poisson_count,
    rotate,
    rotation_rows,
)
from .geometry import DomeGeometry, _Record
from .scenarios import SampleConfig, SampleMode, _check_seed


class Topology(_Record):
    """Generated transmitter positions: an (n, 3) array of x, y, z in km.
    Two topologies are equal only if they are the same object."""

    points: np.ndarray

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: np.ndarray) -> None:
        self.__dict__["points"] = points

    @property
    def count(self) -> int:
        """The number of points."""
        return len(self.points)


def make_rng(seed: int) -> np.random.Generator:
    """Build the seeded PCG64 generator used by all sampling routines."""
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def yaw_pitch_matrix(rx_azimuth_rad: float, rx_polar_rad: float) -> np.ndarray:
    """Rotation R_z(azimuth) @ R_y(polar) moving the +z pole onto the receiver
    direction: the entries of ``_draw.rotation_rows`` as an array."""
    return np.array(rotation_rows(rx_azimuth_rad, rx_polar_rad))


def point_blocks(dome: DomeGeometry,
                 config: SampleConfig) -> tuple[int, Iterator[np.ndarray]]:
    """The count of a seeded topology inside the coverage dome, and its
    points as consecutive (rows, 3) blocks of _BLOCK_ROWS rows; the last
    block has 1 to _BLOCK_ROWS rows.

    The count is drawn and every check made in this call; the blocks are
    drawn, built and rotated only as they are taken, so a caller that writes
    each block as it comes holds one block whatever the count.  Each point
    is computed on its own, so the points do not depend on the block size.
    """
    rng = make_rng(config.seed)
    count = poisson_count(config.density_per_km2, dome.area_km2, rng)
    # The polar uniforms begin ``count`` outputs on (see the module
    # docstring); a draw of one block reaches them after its azimuths.
    polar_rng = rng
    if count > _BLOCK_ROWS:
        polar_rng = copy.deepcopy(rng)
        polar_rng.bit_generator.advance(count)
    # rotate(columns, x, y, z) with (3, 1) columns of the rotation makes the
    # three rotated coordinates of the block as the rows of a (3, rows) array.
    columns = yaw_pitch_matrix(config.rx_azimuth_rad, config.rx_polar_rad).T[:, :, None]
    return count, _blocks(dome, config.mode, columns, count, rng, polar_rng)


def _blocks(dome: DomeGeometry, mode: SampleMode, columns: np.ndarray, count: int,
            rng: np.random.Generator, polar_rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The blocks of ``point_blocks``: each block's points about the +z pole
    on the transmitter sphere, rotated onto the receiver direction."""
    while count:
        rows = min(count, _BLOCK_ROWS)
        count -= rows
        if polar_rng is rng:
            # One block: its azimuth and polar uniforms are consecutive.
            u_azimuth, u_polar = rng.random((2, rows))
        else:
            u_azimuth, u_polar = rng.random(rows), polar_rng.random(rows)
        # The unrotated coordinates and the (3, rows) sums are freed before
        # the block is taken, which keeps a block's heap small (_BLOCK_ROWS).
        yield np.ascontiguousarray(rotate(columns, *local_points(
            u_azimuth, u_polar, dome.transmitter_radius_km,
            dome.vertex_angle_rad, mode, np.sqrt, np.sin, np.cos)).T)


def generate(dome: DomeGeometry, config: SampleConfig) -> Topology:
    """Generate a seeded transmitter topology inside the coverage dome.

    Points are sampled about the +z pole on the transmitter sphere, then
    rotated by the yaw-pitch matrix so the cap centre lands on the receiver
    direction (sin(polar)cos(azimuth), sin(polar)sin(azimuth), cos(polar)).
    The points are those of ``point_blocks``: a draw's one block is the
    result, and the blocks of a larger draw are copied one by one into it,
    so no unrotated copy of the whole draw and no whole uniform array is
    held.
    """
    count, blocks = point_blocks(dome, config)
    if count <= _BLOCK_ROWS:
        return Topology(next(blocks, np.empty((0, 3))))
    points = np.empty((count, 3))
    start = 0
    for block in blocks:
        points[start:start + len(block)] = block
        start += len(block)
    return Topology(points)
