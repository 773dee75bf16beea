"""Output checks: independent difference-form oracles and strict parsers.

Every check compares against a tolerance, never a pinned digest, so a
declared byte change in the program (say, a vectorised sweep that moves the
last digit of some rows) does not read as a failure.  The oracles here are
written against the published formulas, not imported from the package, so
a defect in the package's own oracles cannot hide a defect in its closed
forms.

A check returns a dict of facts about the output (rows, points, bytes) and
raises ``CheckFailure`` with a one-line reason when the output is wrong.
"""

import io
import json
import math

import numpy as np

# The package defaults.  The benchmark never overrides the Earth radius and
# strips SAGIN_EARTH_RADIUS_KM from the environment of every process it runs.
EARTH_RADIUS_KM = 6371.0
LIGHT_SPEED_M_PER_S = 2.998e8

ANGLE_TOL_RAD = 1e-9        # closed form against difference-form oracle
REL_TOL = 1e-12             # cap area against the reported vertex angle, radii, echoes
SPHERE_REL_TOL = 1e-9       # |p| against the transmitter radius
CAP_EDGE_TOL_RAD = 1e-12    # angular distance from the cap centre beyond phi
BRANCH_TOL_RAD = 1e-12      # tangent-limited flags are not compared this close to the boundary

UPLINKS = frozenset({"g2a", "a2s", "g2s"})
LAYERS = {  # scenario -> (transmitter layer, receiver layer)
    "g2a": ("ground", "air"), "a2s": ("air", "space"), "g2s": ("ground", "space"),
    "a2g": ("air", "ground"), "s2a": ("space", "air"), "s2g": ("space", "ground"),
}

SWEEP_HEADER = "param_value,vertex_angle_rad,area_km2,tangent_limited"
POINTS_HEADER = "x_km,y_km,z_km"


class CheckFailure(Exception):
    """An output is wrong; the message is the one-line reason."""


def fail_unless(condition, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


def strict_json(text: str):
    """Parse one JSON document, rejecting the NaN and Infinity tokens."""
    def reject(token):
        raise CheckFailure(f"JSON carries the non-finite token {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not valid JSON: {exc}") from None


def library_params(descriptor: dict) -> dict:
    """Descriptor keys (degrees) to library units; missing keys stay missing."""
    params = {key: value for key, value in descriptor.items() if not key.endswith("_deg")}
    if "min_elevation_deg" in descriptor:
        params["min_elevation_rad"] = np.radians(descriptor["min_elevation_deg"])
    return params


def radii(params: dict):
    """(transmitter radius, receiver radius) in km; altitudes may be arrays."""
    def radius(layer):
        if layer == "ground":
            return EARTH_RADIUS_KM
        return EARTH_RADIUS_KM + params[f"{layer}_altitude_km"]
    tx, rx = LAYERS[params["scenario"]]
    return radius(tx), radius(rx)


def beamwidth_rad(params: dict):
    """Full 3-dB beamwidth: kappa * c / (f * D) degrees, in radians."""
    return np.radians(params["illumination_coefficient"] * LIGHT_SPEED_M_PER_S
                      / (params["carrier_frequency_hz"] * params["reflector_diameter_m"]))


def vertex_oracle(params: dict):
    """Difference-form vertex angle for (possibly array-valued) parameters.

    Returns arrays (phi, tangent_limited, near_branch_boundary, valid), where
    ``valid`` is False exactly where the geometry cannot be evaluated.
    """
    r_t, r_r = (np.asarray(r, dtype=float) for r in radii(params))
    with np.errstate(invalid="ignore", divide="ignore"):
        if params["scenario"] in UPLINKS:
            theta = np.asarray(beamwidth_rad(params), dtype=float)
            half = 0.5 * theta
            valid = (r_t < r_r) & (theta > 0.0) & (theta < math.pi)
            edge = np.arcsin(np.clip(r_t / r_r, -1.0, 1.0))
            tangent = half > edge
            near = np.abs(half - edge) <= BRANCH_TOL_RAD
            phi = np.where(tangent, np.arccos(np.clip(r_t / r_r, -1.0, 1.0)),
                           np.arcsin(np.clip(r_r / r_t * np.sin(half), -1.0, 1.0)) - half)
        else:
            alpha = np.asarray(params["min_elevation_rad"], dtype=float)
            valid = (r_r < r_t) & (alpha >= 0.0) & (alpha <= 0.5 * math.pi)
            phi = np.arccos(np.clip(r_r / r_t * np.cos(alpha), -1.0, 1.0)) - alpha
            tangent = near = np.zeros(np.shape(phi), dtype=bool)
    phi, tangent, near, valid = np.broadcast_arrays(phi, tangent, near, valid)
    return phi, tangent, near, valid


def cap_area(r_t, phi):
    half_sin = np.sin(0.5 * np.asarray(phi, dtype=float))
    return 4.0 * math.pi * r_t * r_t * half_sin * half_sin


def _close(actual, expected, rel=REL_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(actual) - expected) <= rel * np.abs(expected)))


def _check_dome(what: str, params: dict, phi: float, area: float,
                tangent: bool | None = None) -> float:
    """Check one resolved dome; returns the transmitter radius."""
    r_t, _ = radii(params)
    want, want_tangent, near, valid = (a.item() for a in vertex_oracle(params))
    fail_unless(valid, f"{what}: benchmark input is outside the valid geometry")
    fail_unless(math.isfinite(phi) and abs(phi - want) <= ANGLE_TOL_RAD,
                f"{what}: vertex angle {phi!r} differs from oracle {want!r}")
    fail_unless(_close(area, cap_area(r_t, phi)),
                f"{what}: area {area!r} disagrees with its vertex angle")
    if tangent is not None and not near:
        fail_unless(tangent is want_tangent, f"{what}: tangent_limited flag is wrong")
    return r_t


def check_coverage(stdout: str, params: dict) -> dict:
    doc = strict_json(stdout)
    fail_unless(isinstance(doc, dict), "coverage output is not a JSON object")
    keys = {"scenario", "r_t_km", "r_r_km", "vertex_angle_rad", "delta", "area_km2",
            "tangent_limited", "validation_warnings"}
    if params["scenario"] in UPLINKS:
        keys.add("beamwidth_rad")
    fail_unless(keys <= doc.keys(), f"coverage output lacks {sorted(keys - doc.keys())}")
    if params["scenario"] in UPLINKS:
        fail_unless(_close(doc["beamwidth_rad"], beamwidth_rad(params)),
                    "coverage beamwidth is wrong")
    fail_unless(doc["scenario"] == params["scenario"], "coverage echoes the wrong scenario")
    r_t, r_r = radii(params)
    fail_unless(_close(doc["r_t_km"], r_t) and _close(doc["r_r_km"], r_r),
                "coverage radii are wrong")
    _check_dome("coverage", params, doc["vertex_angle_rad"], doc["area_km2"],
                doc["tangent_limited"])
    fail_unless(abs(doc["delta"] - math.cos(doc["vertex_angle_rad"])) <= REL_TOL,
                "coverage delta is not cos(vertex angle)")
    fail_unless(isinstance(doc["validation_warnings"], list),
                "validation_warnings is not a list")
    return {"bytes_out": len(stdout)}


def check_count(stdout: str, params: dict, density: float) -> dict:
    doc = strict_json(stdout)
    fail_unless(isinstance(doc, dict), "count output is not a JSON object")
    keys = {"exact_product", "poisson_mean", "full_sphere_count"}
    fail_unless(keys <= doc.keys(), f"count output lacks {sorted(keys - doc.keys())}")
    r_t, _ = radii(params)
    phi = vertex_oracle(params)[0].item()
    low = density * cap_area(r_t, max(phi - ANGLE_TOL_RAD, 0.0))
    high = density * cap_area(r_t, phi + ANGLE_TOL_RAD)
    exact = doc["exact_product"]
    fail_unless(low * (1 - REL_TOL) <= exact <= high * (1 + REL_TOL),
                f"exact_product {exact!r} is outside the oracle's range")
    mean = doc["poisson_mean"]
    fail_unless(isinstance(mean, int) and mean == math.floor(exact),
                "poisson_mean is not floor(exact_product)")
    fail_unless(_close(doc["full_sphere_count"], 4.0 * math.pi * r_t * r_t * density),
                "full_sphere_count is wrong")
    return {"bytes_out": len(stdout)}


def check_malformed(returncode: int, stdout: str, stderr: str) -> dict:
    fail_unless(returncode == 2, f"malformed descriptor exited {returncode}, not 2")
    fail_unless(stdout == "", "malformed descriptor printed to standard output")
    fail_unless(stderr.endswith("\n") and stderr.count("\n") == 1 and len(stderr) > 1,
                "malformed descriptor did not give a one-line reason")
    return {"bytes_out": 0}


def check_points(points: np.ndarray, r_t: float, phi: float,
                 rx_azimuth_rad: float, rx_polar_rad: float) -> None:
    """Every point on the transmitter sphere and inside the cap."""
    fail_unless(points.ndim == 2 and points.shape[1] == 3, "points are not an (n, 3) array")
    if not len(points):
        return
    fail_unless(np.all(np.isfinite(points)), "a point is not finite")
    norms = np.linalg.norm(points, axis=1)
    fail_unless(np.all(np.abs(norms - r_t) <= SPHERE_REL_TOL * r_t),
                "a point is off the transmitter sphere")
    sin_p = math.sin(rx_polar_rad)
    centre = np.array([sin_p * math.cos(rx_azimuth_rad), sin_p * math.sin(rx_azimuth_rad),
                       math.cos(rx_polar_rad)])
    # atan2 of |p x c| and p.c keeps full precision for small caps, where
    # arccos of the cosine would lose half the digits.
    x, y, z = points.T
    cross = np.sqrt((y * centre[2] - z * centre[1]) ** 2 + (z * centre[0] - x * centre[2]) ** 2
                    + (x * centre[1] - y * centre[0]) ** 2)
    angle = np.arctan2(cross, points @ centre)
    fail_unless(np.all(angle <= phi + CAP_EDGE_TOL_RAD), "a point lies outside the cap")


def check_poisson_count(count: int, mean: int) -> None:
    """A fixed-seed draw this far out would be a broken sampler, not chance."""
    fail_unless(abs(count - mean) <= 8.0 * math.sqrt(mean) + 8.0,
                f"count {count} is implausible for Poisson mean {mean}")


def check_sample(stdout: str, csv_path, descriptor: dict) -> dict:
    doc = strict_json(stdout)
    fail_unless(isinstance(doc, dict), "sample output is not a JSON object")
    keys = {"count", "area_km2", "vertex_angle_rad", "seed", "rng_algorithm", "mode"}
    fail_unless(keys <= doc.keys(), f"sample output lacks {sorted(keys - doc.keys())}")
    params = library_params(descriptor)
    phi = doc["vertex_angle_rad"]
    r_t = _check_dome("sample", params, phi, doc["area_km2"])
    fail_unless(doc["seed"] == descriptor["seed"] and doc["mode"] == descriptor["mode"],
                "sample echoes the wrong seed or mode")
    count = doc["count"]
    fail_unless(isinstance(count, int), "sample count is not an integer")
    check_poisson_count(count, math.floor(descriptor["density_per_km2"] * doc["area_km2"]))
    with open(csv_path, "rb") as handle:
        fail_unless(handle.readline() == (POINTS_HEADER + "\n").encode(),
                    "points CSV has the wrong header")
        try:
            points = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailure(f"points CSV does not parse: {exc}") from None
        size = handle.seek(0, io.SEEK_END)
        handle.seek(size - 1)
        fail_unless(handle.read(1) == b"\n", "points CSV has no final newline")
    fail_unless(len(points) == count,
                f"points CSV has {len(points)} rows but JSON count is {count}")
    check_points(points.reshape(-1, 3), r_t, phi, math.radians(descriptor["rx_azimuth_deg"]),
                 math.radians(descriptor["rx_polar_deg"]))
    return {"points": count, "bytes_out": size + len(stdout)}


def sweep_grid(sweep: dict) -> np.ndarray:
    if sweep["scale"] == "log":
        return np.geomspace(sweep["low"], sweep["high"], sweep["steps"])
    return np.linspace(sweep["low"], sweep["high"], sweep["steps"])


def check_sweep(csv_text: str, sweep: dict) -> dict:
    """``sweep`` holds the base ``params``, the swept ``key`` (library units),
    ``low``/``high`` in library units, ``steps`` and ``scale``."""
    fail_unless(csv_text.startswith(SWEEP_HEADER + "\n") and csv_text.endswith("\n"),
                "sweep CSV has the wrong header or no final newline")
    rows = [line.split(",") for line in csv_text[len(SWEEP_HEADER) + 1:-1].split("\n")]
    fail_unless(len(rows) == sweep["steps"] and all(len(row) == 4 for row in rows),
                f"sweep CSV has {len(rows)} rows, expected {sweep['steps']}")
    try:
        value, phi, area = (np.array(column, dtype=float)
                            for column in list(zip(*rows))[:3])
    except ValueError:
        raise CheckFailure("sweep CSV holds a non-numeric field") from None
    flag = np.array([row[3] for row in rows])
    fail_unless(np.all((flag == "true") | (flag == "false")), "tangent_limited is not a boolean")
    tangent = flag == "true"
    fail_unless(_close(value, sweep_grid(sweep)), "sweep grid values are wrong")

    params = dict(sweep["params"], **{sweep["key"]: value})
    want, want_tangent, near, valid = vertex_oracle(params)
    failed = np.isnan(phi)
    fail_unless(np.array_equal(failed, ~valid),
                f"{int(np.sum(failed != ~valid))} rows are nan where the geometry is "
                "valid, or the reverse")
    fail_unless(np.all(np.isnan(area[failed])) and not np.any(tangent[failed]),
                "a nan row carries values")
    ok = ~failed
    r_t = np.broadcast_to(radii(params)[0], value.shape)
    fail_unless(np.all(np.abs(phi[ok] - want[ok]) <= ANGLE_TOL_RAD),
                "a sweep vertex angle differs from the oracle")
    fail_unless(_close(area[ok], cap_area(r_t[ok], phi[ok])),
                "a sweep area disagrees with its vertex angle")
    compare = ok & ~near
    fail_unless(np.array_equal(tangent[compare], want_tangent[compare]),
                "a sweep tangent_limited flag is wrong")
    return {"rows": len(rows), "nan_rows": int(np.sum(failed)), "bytes_out": len(csv_text)}


def check_topology(topology, dome, count_pair, descriptor: dict) -> dict:
    """One in-process ``generate`` plus ``expected_count`` result."""
    params = library_params(descriptor)
    r_t = _check_dome("topology", params, dome.vertex_angle_rad, dome.area_km2,
                      dome.tangent_limited)
    fail_unless(_close(dome.transmitter_radius_km, r_t), "dome radius is wrong")
    density = descriptor["density_per_km2"]
    exact, mean = count_pair
    fail_unless(_close(exact, density * dome.area_km2) and mean == math.floor(exact),
                "expected_count is wrong")
    points = np.asarray(topology.points)
    fail_unless(topology.count == len(points), "topology count differs from its points")
    check_poisson_count(topology.count, mean)
    check_points(points, r_t, dome.vertex_angle_rad, math.radians(descriptor["rx_azimuth_deg"]),
                 math.radians(descriptor["rx_polar_deg"]))
    return {"points": topology.count}
