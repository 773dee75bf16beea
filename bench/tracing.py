"""Span tracing from outside the package.

``Tracer.install`` wraps each public function named in ``TARGETS`` and
rebinds the wrapper under every name that refers to the function in any
``sagindome`` module, so calls between modules go through it and spans nest
(``run_sweep`` > ``coverage`` > ``vertex_angle_*``).  Spans are kept in
memory as columns and written out once, when the run ends.
"""

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer (module) -> public functions that get a span.
TARGETS = {
    "cli": ("main",),
    "io": ("load_descriptor", "parse_descriptor", "dumps", "sweep_rows_to_csv",
           "points_to_csv", "write_text_file"),
    "scenarios": ("coverage", "validate"),
    "geometry": ("half_power_beamwidth", "vertex_angle_uplink", "vertex_angle_downlink",
                 "cap_area"),
    "sweeps": ("run_sweep", "expected_count", "full_sphere_count"),
    "pointprocess": ("make_rng", "poisson_count", "sample_cap_angles", "generate"),
}
LAYERS = tuple(TARGETS)
ROOT_SPAN = "op"   # one per operation, opened by the benchmark itself


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]     # span name id -> "layer.function"
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.op_col = array("i")
        self._open: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _begin(self, name_id: int) -> int:
        index = len(self.start_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._open[-1] if self._open else -1)
        self.op_col.append(self._op)
        self.end_col.append(0)
        self._open.append(index)
        self.start_col.append(time.perf_counter_ns())
        return index

    def _end(self, index: int) -> None:
        self.end_col[index] = time.perf_counter_ns()
        self._open.pop()

    def run_op(self, function, *args):
        """Run one operation under a root span with a fresh operation id."""
        self._op += 1
        index = self._begin(0)
        try:
            return function(*args)
        finally:
            self._end(index)

    def _wrap(self, qualified: str, function):
        name_id = len(self.names)
        self.names.append(qualified)
        name_col = self.name_col

        def traced(*args, **kwargs):
            # A recursive call (dumps) stays inside its outer span.
            if self._open and name_col[self._open[-1]] == name_id:
                return function(*args, **kwargs)
            index = self._begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                self._end(index)

        traced.__wrapped__ = function
        return traced

    # -- installing

    def install(self) -> None:
        """Rebind every target in every loaded sagindome module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sagindome" or name.startswith("sagindome."))]
        for layer, functions in TARGETS.items():
            module = sys.modules.get(f"sagindome.{layer}")
            for function_name in functions:
                original = getattr(module, function_name, None)
                if original is None:      # renamed or removed by a later change
                    continue
                wrapper = self._wrap(f"{layer}.{function_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results

    def columns(self) -> dict:
        # Copies, so the arrays stay appendable.
        return {"name": np.frombuffer(self.name_col, dtype=np.intc).copy(),
                "start_ns": np.frombuffer(self.start_col, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end_col, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent_col, dtype=np.intc).copy(),
                "op": np.frombuffer(self.op_col, dtype=np.intc).copy()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict:
        """Per span name: calls and inclusive durations; per layer: self time.

        A span's self time is its duration minus its direct children's, which
        run inside it on the one thread.
        """
        cols = self.columns()
        duration = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        parent = cols["parent"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        own = duration - children
        by_name = {}
        self_ns = dict.fromkeys(LAYERS, 0.0)
        for name_id, name in enumerate(self.names):
            mask = cols["name"] == name_id
            if not mask.any():
                continue
            by_name[name] = duration[mask]
            layer = name.split(".")[0]
            if layer in self_ns:
                self_ns[layer] += float(own[mask].sum())
        return {"ops": self._op + 1, "durations_ns": by_name, "self_ns": self_ns}
