"""Seeded stochastic transmitter generation on a coverage dome.

Reproducibility contract: a fixed (dome, config) pair yields bit-identical
output across runs on one machine, and on any machine with the same numpy
bit generator, libm, numpy SIMD dispatch and BLAS kernel.  Two steps depend
on the CPU: area-uniform polar angles go through ``np.arcsin``, which numpy
dispatches by CPU features, and the rotation onto the receiver direction
through a BLAS matrix product, whose kernel OpenBLAS picks by CPU; either
can move the last bit of a coordinate on another CPU.  Uniform variates
come from numpy's PCG64 bit generator through ``Generator.random``; the
Poisson count is drawn by
this module's own samplers (sequential inversion below mean 30, Hormann's
PTRS transformed rejection above) so the stream never depends on numpy's
distribution internals.

The stream order is: the count, then all azimuths, then all polar angles.
``Generator.random`` takes one 64-bit output of the bit generator per
double, so the polar uniforms begin ``count`` outputs after the azimuths.
``point_blocks`` draws its blocks in that order without holding the draw:
each block takes its azimuths from the seeded generator and its polar
uniforms from a copy of it advanced by ``count`` (``PCG64.advance``), or,
when the draw fits one block, from the seeded generator after the
azimuths.  ``generate`` and the ``sample`` command are built on it, so a
streamed sample holds one block whatever its count.  No row is rotated on
its own unless the draw is one row, so the points are those of one matrix
product over the whole draw, whatever the block size.  It is the package's
only angle sampler; the tests draw whole angle arrays in one go with their
own one-shot oracle and compare its blocks with them bit for bit.  It checks
no record again: a ``DomeGeometry`` holds a vertex angle in [0, pi] and a
``SampleConfig`` a ``SampleMode``, each checked when the record was built.
"""

import copy
import math
from collections.abc import Iterator

import numpy as np

from .errors import InvalidParameterError
from .geometry import DomeGeometry, _Record, _require_finite_nonnegative
from .scenarios import SampleConfig, SampleMode, _check_seed

# The bit generator ``make_rng`` builds, by numpy's name for it.
DEFAULT_RNG_ALGORITHM = "pcg64"

# Mean at which the Poisson sampler switches from sequential inversion to
# transformed rejection.
_POISSON_REJECTION_THRESHOLD = 30

# Largest Poisson mean a topology may be drawn with.  ``generate`` holds
# its result (24 bytes a point) and one block, so a draw at the cap holds
# about 0.25 GB; the CLI writes each block as it comes and holds one block
# whatever the count.
MAX_SAMPLE_POINTS = 10_000_000

# Points drawn, built and rotated at a time: a block has at most
# _BLOCK_ROWS + 1 rows and is never a one-row tail.  A block's angles and
# unrotated coordinates stay small next to the draw, and its (rows, 3) @
# (3, 3) product runs on one BLAS thread.  numpy computes the product of a
# one-row block through another BLAS routine, which can differ in the last
# bit from the row of a longer product, so the last row of a draw joins the
# block before it; then the block boundaries are not part of the bytes.  So
# this must be at least 2.  The CLI writes each block as one chunk of CSV
# text.  A chunk's largest array, the ``_csvtext`` workspace, takes up to
# (_BLOCK_ROWS + 1) x 3 values x 34 byte slots: 104 550 B here, under the
# 128 KiB from which glibc's and musl's malloc map a request on its own,
# so no block's pages are mapped and faulted in anew.  Keep it so when
# raising this.  The workspace and its bytes copy, twice that, come close
# to glibc's 256 KiB trim threshold; test_package.py counts the faults of
# a sample with both thresholds fixed.
_BLOCK_ROWS = 1024


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


def _poisson_inversion(mean: int, rng: np.random.Generator) -> int:
    # Multiplicative sequential search; one uniform per candidate value.
    limit = math.exp(-mean)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def _poisson_ptrs(mean: int, rng: np.random.Generator) -> int:
    # Transformed rejection with squeeze (Hormann 1993, algorithm PTRS),
    # valid for mean >= 10.  Two uniforms per trial, acceptance rate ~98%.
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        u_shifted = 0.5 - abs(u)
        k = math.floor((2.0 * a / u_shifted + b) * u + mean + 0.43)
        if u_shifted >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (u_shifted < 0.013 and v > u_shifted):
            continue
        if (math.log(v * inv_alpha / (a / (u_shifted * u_shifted) + b))
                <= k * log_mean - mean - math.lgamma(k + 1.0)):
            return int(k)


def poisson_count(density_per_km2: float, area_km2: float,
                  rng: np.random.Generator) -> int:
    """Poisson node count with mean floor(density * area); a mean above
    MAX_SAMPLE_POINTS is refused."""
    _require_finite_nonnegative("density_per_km2", density_per_km2)
    _require_finite_nonnegative("area_km2", area_km2)
    # Checked before any draw, so accepted inputs consume the stream as before.
    product = density_per_km2 * area_km2
    if not (math.isfinite(product) and math.floor(product) <= MAX_SAMPLE_POINTS):
        raise InvalidParameterError(
            f"Poisson mean floor(density * area) must be <= {MAX_SAMPLE_POINTS}, "
            f"got density * area = {product!r}")
    mean = int(math.floor(product))
    if mean == 0:
        return 0
    if mean < _POISSON_REJECTION_THRESHOLD:
        return _poisson_inversion(mean, rng)
    return _poisson_ptrs(mean, rng)


def _polar_angles(vertex_angle_rad: float, mode: SampleMode,
                  uniforms: np.ndarray) -> np.ndarray:
    """Polar angles inside a cap of half-angle ``vertex_angle_rad`` from
    uniforms U on [0, 1), by the formula of ``mode``.

    AREA_UNIFORM draws polar = arccos(1 - U * (1 - cos(phi))), evaluated in
    the equivalent cancellation-free form 2*arcsin(sqrt(U) * sin(phi/2));
    PAPER_FAITHFUL draws polar uniformly on [-phi, phi].
    """
    if mode is SampleMode.PAPER_FAITHFUL:
        return vertex_angle_rad * (2.0 * uniforms - 1.0)
    return 2.0 * np.arcsin(np.sqrt(uniforms) * math.sin(0.5 * vertex_angle_rad))


def yaw_pitch_matrix(rx_azimuth_rad: float, rx_polar_rad: float) -> np.ndarray:
    """Rotation R_z(azimuth) @ R_y(polar) moving the +z pole onto the receiver
    direction.  Each entry is the whole sum over a row of R_z and a column of
    R_y, zero terms included, so its zeros carry the signs that numpy's
    product of the two matrices gives them."""
    ca, sa = math.cos(rx_azimuth_rad), math.sin(rx_azimuth_rad)
    cp, sp = math.cos(rx_polar_rad), math.sin(rx_polar_rad)
    return np.array([
        [ca * cp + -sa * 0.0 + 0.0 * -sp, ca * 0.0 + -sa * 1.0 + 0.0 * 0.0,
         ca * sp + -sa * 0.0 + 0.0 * cp],
        [sa * cp + ca * 0.0 + 0.0 * -sp, sa * 0.0 + ca * 1.0 + 0.0 * 0.0,
         sa * sp + ca * 0.0 + 0.0 * cp],
        [0.0 * cp + 0.0 * 0.0 + 1.0 * -sp, 0.0 * 0.0 + 0.0 * 1.0 + 1.0 * 0.0,
         0.0 * sp + 0.0 * 0.0 + 1.0 * cp],
    ])


def point_blocks(dome: DomeGeometry,
                 config: SampleConfig) -> tuple[int, Iterator[np.ndarray]]:
    """The count of a seeded topology inside the coverage dome, and its
    points as consecutive (rows, 3) blocks of _BLOCK_ROWS rows; the last
    block has 2 to _BLOCK_ROWS + 1 rows, or 1 when the draw is one row.

    The count is drawn and every check made in this call; the blocks are
    drawn, built and rotated only as they are taken, so a caller that writes
    each block as it comes holds one block whatever the count.  The points
    are those of drawing all azimuths, then all polar angles, in one go,
    and rotating them by one matrix product.
    """
    rng = make_rng(config.seed)
    count = poisson_count(config.density_per_km2, dome.area_km2, rng)
    # The polar uniforms begin ``count`` outputs on (see the module
    # docstring); a draw of one block reaches them after its azimuths.
    polar_rng = rng
    if count > _BLOCK_ROWS + 1:
        polar_rng = copy.deepcopy(rng)
        polar_rng.bit_generator.advance(count)
    rotation = yaw_pitch_matrix(config.rx_azimuth_rad, config.rx_polar_rad)
    return count, _blocks(dome, config.mode, rotation, count, rng, polar_rng)


def _blocks(dome: DomeGeometry, mode: SampleMode, rotation: np.ndarray, count: int,
            rng: np.random.Generator, polar_rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The blocks of ``point_blocks``: each block's angles about the +z pole,
    its points on the transmitter sphere, then rotated onto the receiver
    direction."""
    r_t = dome.transmitter_radius_km
    while count:
        rows = count if count <= _BLOCK_ROWS + 1 else _BLOCK_ROWS
        count -= rows
        azimuth = 2.0 * math.pi * rng.random(rows)
        polar = _polar_angles(dome.vertex_angle_rad, mode, polar_rng.random(rows))
        local = np.empty((rows, 3))
        r_sin_polar = r_t * np.sin(polar)
        np.multiply(r_sin_polar, np.cos(azimuth), out=local[:, 0])
        np.multiply(r_sin_polar, np.sin(azimuth), out=local[:, 1])
        np.multiply(r_t, np.cos(polar), out=local[:, 2])
        yield local @ rotation.T


def generate(dome: DomeGeometry, config: SampleConfig) -> Topology:
    """Generate a seeded transmitter topology inside the coverage dome.

    Points are sampled about the +z pole on the transmitter sphere, then
    rotated by the yaw-pitch matrix so the cap centre lands on the receiver
    direction (sin(polar)cos(azimuth), sin(polar)sin(azimuth), cos(polar)).
    The points are those of ``point_blocks``, copied block by block into the
    result, so no unrotated copy of the whole draw and no whole angle array
    is held.
    """
    count, blocks = point_blocks(dome, config)
    points = np.empty((count, 3))
    start = 0
    for block in blocks:
        points[start:start + len(block)] = block
        start += len(block)
    return Topology(points)
