"""The part of a seeded draw that needs no numpy: the random stream, the
Poisson count and the formulas that make a point of two uniforms.

``PCG64`` is numpy's PCG64 bit generator (O'Neill 2014, XSL-RR output of a
128-bit LCG) seeded by numpy's ``SeedSequence`` from an integer seed in
[0, 2**64), and ``random`` is ``Generator.random``: the top 53 bits of one
output as a double.  It draws one double at a time, so it serves a draw that
fits one block; ``pointprocess`` draws larger ones with numpy's generator.

``local_points`` and ``rotate`` hold the formulas of a point once, with
``sqrt``, ``sin`` and ``cos`` passed in: ``pointprocess`` calls them with
numpy's functions on columns of a block, and ``small_draw`` with ``math``'s
on floats, one point at a time.  The arithmetic is ``+``, ``-`` and ``*`` in
the same order on both, and numpy's ``sqrt``, ``sin`` and ``cos`` give
libm's bits, so both give the same bytes.
"""

import math

from .errors import InvalidParameterError
from .geometry import DomeGeometry, _require_finite_nonnegative
from .scenarios import SampleConfig, SampleMode

# The bit generator a sample is drawn with, by numpy's name for it.
DEFAULT_RNG_ALGORITHM = "pcg64"

# Mean at which the Poisson sampler switches from sequential inversion to
# transformed rejection.
_POISSON_REJECTION_THRESHOLD = 30

# Largest Poisson mean a topology may be drawn with.  ``generate`` holds
# its result (24 bytes a point) and one block, so a draw at the cap holds
# about 0.25 GB; the CLI writes each block as it comes and holds one block
# whatever the count.
MAX_SAMPLE_POINTS = 10_000_000

# Points drawn, built and rotated at a time; the last block of a draw has
# 1 to _BLOCK_ROWS rows.  A block's uniforms and coordinates stay small next
# to the draw.  The CLI makes a draw of at most one block without numpy
# (``small_draw``) and writes each block of a larger one as one chunk of CSV
# text.  A chunk's largest array, the ``_csvtext`` workspace, takes up to
# _BLOCK_ROWS x 3 values x 34 byte slots: 104 448 B here, under the 128 KiB
# from which glibc's and musl's malloc map a request on its own, so no
# block's pages are mapped and faulted in anew.  Keep it so when raising
# this.  The workspace and its bytes copy, twice that, come close to glibc's
# 256 KiB trim threshold; test_package.py counts the faults of a sample with
# both thresholds fixed.
_BLOCK_ROWS = 1024

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, np.uint32)``: the seed's 32-bit
    words (one, or two from 2**32 on) hashed into a pool of four, mixed,
    and hashed out again."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value = (value ^ hash_const) * hash_const * _MULT_A & _MASK32
        hash_const = hash_const * _MULT_A & _MASK32
        return value ^ value >> 16

    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                mixed = (_MIX_MULT_L * pool[target] - _MIX_MULT_R * hashmix(pool[source])
                         & _MASK32)
                pool[target] = mixed ^ mixed >> 16
    words, hash_const = [], _INIT_B
    for index in range(8):
        value = (pool[index % _POOL_SIZE] ^ hash_const) * hash_const * _MULT_B & _MASK32
        hash_const = hash_const * _MULT_B & _MASK32
        words.append(value ^ value >> 16)
    return words


class PCG64:
    """numpy's ``Generator(PCG64(seed))``, for its ``random()`` alone."""

    def __init__(self, seed: int) -> None:
        w = _seed_words(seed)
        # The state and the stream from the four 64-bit words, each made of
        # two 32-bit words low first, and set as pcg64_set_seed does.
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        stream = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._increment = (stream << 1 | 1) & _MASK128
        self._state = (self._increment + state) * _MULTIPLIER + self._increment & _MASK128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of one output."""
        state = self._state = self._state * _MULTIPLIER + self._increment & _MASK128
        value, rotation = (state >> 64 ^ state) & _MASK64, state >> 122
        return (((value >> rotation | value << 64 - rotation) & _MASK64) >> 11) * 2.0 ** -53


def _poisson_inversion(mean: int, rng) -> int:
    # Multiplicative sequential search; one uniform per candidate value.
    limit = math.exp(-mean)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def _poisson_ptrs(mean: int, rng) -> int:
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


def poisson_count(density_per_km2: float, area_km2: float, rng) -> int:
    """Poisson node count with mean floor(density * area); a mean above
    MAX_SAMPLE_POINTS is refused.  ``rng`` is this module's ``PCG64`` or a
    numpy ``Generator``: only its ``random()`` is called."""
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


def rotation_rows(rx_azimuth_rad: float, rx_polar_rad: float) -> tuple[tuple[float, ...], ...]:
    """The rows of the rotation R_z(azimuth) @ R_y(polar), which moves the +z
    pole onto the receiver direction.  Each entry is the whole sum over a
    row of R_z and a column of R_y, zero terms included, so its zeros carry
    the signs that numpy's product of the two matrices gives them."""
    ca, sa = math.cos(rx_azimuth_rad), math.sin(rx_azimuth_rad)
    cp, sp = math.cos(rx_polar_rad), math.sin(rx_polar_rad)
    return (
        (ca * cp + -sa * 0.0 + 0.0 * -sp, ca * 0.0 + -sa * 1.0 + 0.0 * 0.0,
         ca * sp + -sa * 0.0 + 0.0 * cp),
        (sa * cp + ca * 0.0 + 0.0 * -sp, sa * 0.0 + ca * 1.0 + 0.0 * 0.0,
         sa * sp + ca * 0.0 + 0.0 * cp),
        (0.0 * cp + 0.0 * 0.0 + 1.0 * -sp, 0.0 * 0.0 + 0.0 * 1.0 + 1.0 * 0.0,
         0.0 * sp + 0.0 * 0.0 + 1.0 * cp),
    )


def local_points(u_azimuth, u_polar, radius_km: float, vertex_angle_rad: float,
                 mode: SampleMode, sqrt, sin, cos):
    """The x, y and z of points about the +z pole on a sphere of
    ``radius_km``, inside a cap of half-angle ``vertex_angle_rad``, from an
    azimuth uniform and a polar uniform on [0, 1) each.

    The azimuth is 2*pi*U.  AREA_UNIFORM's polar angle is arccos(1 - U * (1 -
    cos(phi))), which is 2*arcsin(s) with s = sqrt(U) * sin(phi/2); its sine
    and cosine are taken from s as 2*s*sqrt(1 - s*s) and 1 - 2*s*s, so no
    angle is formed.  The radius times that sine is formed as (2 * radius) *
    (s * sqrt(1 - s*s)): doubling is exact, so that is the same number, with
    one array operation fewer.  PAPER_FAITHFUL's polar angle is uniform on
    [-phi, phi].
    """
    azimuth = 2.0 * math.pi * u_azimuth
    if mode is SampleMode.PAPER_FAITHFUL:
        polar = vertex_angle_rad * (2.0 * u_polar - 1.0)
        r_sin_polar, cos_polar = radius_km * sin(polar), cos(polar)
    else:
        s = sqrt(u_polar) * math.sin(0.5 * vertex_angle_rad)
        s_s = s * s
        r_sin_polar, cos_polar = 2.0 * radius_km * (s * sqrt(1.0 - s_s)), 1.0 - 2.0 * s_s
    return r_sin_polar * cos(azimuth), r_sin_polar * sin(azimuth), radius_km * cos_polar


def rotate(entries, x, y, z):
    """a*x + b*y + c*z for ``entries`` (a, b, c), added left to right: one
    coordinate of a rotated point for a row of ``rotation_rows``."""
    a, b, c = entries
    return a * x + b * y + c * z


def small_draw(dome: DomeGeometry, config: SampleConfig) -> tuple[int, list[float] | None]:
    """The count of a seeded topology inside the coverage dome and, when it
    is at most _BLOCK_ROWS, its points' coordinates x, y, z one point after
    another (else None), made without numpy.  They are the points of
    ``pointprocess.point_blocks``: the same count, the azimuth uniforms and
    then the polar ones from the same stream, and the same formulas."""
    rng = PCG64(config.seed)
    count = poisson_count(config.density_per_km2, dome.area_km2, rng)
    if count > _BLOCK_ROWS:
        return count, None
    azimuths = [rng.random() for _ in range(count)]
    rows = rotation_rows(config.rx_azimuth_rad, config.rx_polar_rad)
    values = []
    for u_azimuth in azimuths:
        x, y, z = local_points(u_azimuth, rng.random(), dome.transmitter_radius_km,
                               dome.vertex_angle_rad, config.mode, math.sqrt, math.sin,
                               math.cos)
        values += (rotate(row, x, y, z) for row in rows)
    return count, values
