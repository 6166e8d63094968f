"""Per-layer tracing from outside the program.

The tracer swaps the public functions of each ``hcscatter`` module for
timing wrappers, both in the defining module and wherever another module
(``hcscatter.cli`` above all) imported the name, and patches
``WaveGrid.norm``, ``EllipseShape.boundary_points`` and the constructors of
the closed-form value types.  ``uninstall`` puts every original back.

Layers are the package's modules.  ``cli.main`` and the ``gridsim`` stages
record spans (name, start, end, parent span, op id).  The closed-form
layers run once per sweep row (~1 us a call), so they are aggregated into
call counts and self time per op instead.  A layer's self time is its
wall time minus the time of the traced calls nested inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

from checks import full_svd_entropy

# gridsim stages: public function -> stage key.
GRIDSIM_STAGES = {
    "auto_grid": "gridsim.auto_grid",
    "free_state": "gridsim.sample",
    "reflected_state": "gridsim.sample",
    "collision_state": "gridsim.sample",
    "schmidt_entropy": "gridsim.schmidt",
    "transient_curve": "gridsim.curve",
}
CLOSED_FORM_LAYERS = ("covariance", "scattering", "ellipse")
KEYS = ("cli", *CLOSED_FORM_LAYERS, *sorted(set(GRIDSIM_STAGES.values())), "gridsim.norm")


def schmidt_flops(n1: int, n2: int) -> float:
    """Computed real flops of a values-only complex SVD: Golub-Van Loan
    bidiagonalization, 4 m n^2 - 4 n^3 / 3 (m >= n), times 4 for complex."""
    m, n = max(n1, n2), min(n1, n2)
    return 4.0 * (4.0 * m * n * n - 4.0 * n**3 / 3.0)


def schmidt_bytes(n1: int, n2: int) -> float:
    """Computed bytes of one read of the complex128 input matrix."""
    return 16.0 * n1 * n2


class Tracer:
    def __init__(self, package) -> None:
        self.modules = {
            name: getattr(package, name)
            for name in ("cli", "covariance", "scattering", "ellipse", "gridsim")
        }
        self.spans: list = []  # (key, start, end, parent index, op id)
        self.ops: list[dict] = []  # per traced op: counts, self time, counters
        self._totals = {key: [0, 0.0] for key in KEYS}
        self._stack: list = []  # open traced calls: [start, nested time]
        self._span_stack: list[int] = []
        self._patches: list = []
        self._op = None
        self._schmidt_inputs: list = []
        self._amplitudes = 0
        self._coverage_errors = 0
        self._patch_table = self._build_patch_table()

    # ----------------------------------------------------------- wrappers
    def _aggregate(self, fn, key):
        slot, stack, clock = self._totals[key], self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                slot[0] += 1
                slot[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _span(self, fn, key, after=None):
        slot, stack, clock = self._totals[key], self._stack, time.perf_counter
        spans, span_stack = self.spans, self._span_stack
        coverage_error = self.modules["gridsim"].CoverageError
        counts_errors = key in ("gridsim.sample", "gridsim.schmidt")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = span_stack[-1] if span_stack else None
            span_stack.append(index)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except coverage_error:
                if counts_errors:
                    self._coverage_errors += 1
                raise
            finally:
                end = clock()
                elapsed = end - frame[0]
                stack.pop()
                span_stack.pop()
                slot[0] += 1
                slot[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                spans[index] = (key, frame[0], end, parent, self._op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_sample(self, args, wave) -> None:
        self._amplitudes += wave.amplitudes.size

    def _after_schmidt(self, args, entropy) -> None:
        self._schmidt_inputs.append(args[0])

    # ------------------------------------------------------------ patches
    def _build_patch_table(self):
        """(owner, attribute, wrapper) for every patch, built once."""
        table = []
        by_id = {}
        gridsim = self.modules["gridsim"]
        cli = self.modules["cli"]
        by_id[id(cli.main)] = self._span(cli.main, "cli")
        for name, key in GRIDSIM_STAGES.items():
            fn = getattr(gridsim, name)
            after = {"gridsim.sample": self._after_sample,
                     "gridsim.schmidt": self._after_schmidt}.get(key)
            by_id[id(fn)] = self._span(fn, key, after)
        for layer in CLOSED_FORM_LAYERS:
            module = self.modules[layer]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    by_id[id(obj)] = self._aggregate(obj, layer)
                elif dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                    table.append((obj, "__init__", self._aggregate(obj.__init__, layer)))
        ellipse_shape = self.modules["ellipse"].EllipseShape
        table.append((ellipse_shape, "boundary_points",
                      self._aggregate(ellipse_shape.boundary_points, "ellipse")))
        wave_grid = gridsim.WaveGrid
        table.append((wave_grid, "norm", self._span(wave_grid.norm, "gridsim.norm")))
        for module in self.modules.values():
            for name, value in vars(module).items():
                if id(value) in by_id and inspect.isfunction(value):
                    table.append((module, name, by_id[id(value)]))
        return table

    def install(self) -> None:
        for owner, name, wrapper in self._patch_table:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ---------------------------------------------------------------- ops
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._before = {key: tuple(slot) for key, slot in self._totals.items()}
        self._amplitudes = 0
        self._coverage_errors = 0
        self._schmidt_inputs = []

    def end_op(self) -> dict:
        """Close the op and record its per-layer numbers.

        Runs after the op's timed section: the retained Schmidt rank comes
        from the benchmark's own SVD of each stashed input, outside any
        span.
        """
        record = {}
        for key, (calls, busy) in self._totals.items():
            calls0, busy0 = self._before[key]
            record[f"{key}.calls"] = calls - calls0
            record[f"{key}.busy_s"] = busy - busy0
        ranks, ratios, flops, nbytes = [], [], 0.0, 0.0
        for wave in self._schmidt_inputs:
            n1, n2 = wave.amplitudes.shape
            rank = full_svd_entropy(wave.amplitudes, wave.grid.dx1 * wave.grid.dx2)[1]
            ranks.append(rank)
            ratios.append(rank / min(n1, n2))
            flops += schmidt_flops(n1, n2)
            nbytes += schmidt_bytes(n1, n2)
        self._schmidt_inputs = []
        record.update({
            "ranks": ranks,
            "rank_ratios": ratios,
            "gridsim.amplitudes": self._amplitudes,
            "gridsim.bytes_computed": nbytes,
            "gridsim.schmidt.flops_computed": flops,
            "gridsim.coverage_errors": self._coverage_errors,
            "gridsim_span_s": self._outer_gridsim_time(self._op),
        })
        self._op = None
        self.ops.append(record)
        return record

    def _outer_gridsim_time(self, op_id: int) -> float:
        """Wall time of the op's outermost gridsim spans."""
        total = 0.0
        for key, start, end, parent, op in reversed(self.spans):
            if op != op_id:
                break
            if key.startswith("gridsim.") and (parent is None or self.spans[parent][0] == "cli"):
                total += end - start
        return total
