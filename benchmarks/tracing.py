"""In-memory spans around solaraudit's public functions, for the traced run.

`install()` wraps each target below and puts the wrapper everywhere a
solaraudit module looks the target up: module globals such as both
`solaraudit.core.propagate` and `solaraudit.fmo.propagate`, tables of
functions held in module-level dicts such as the sweep model table, and
class attributes. Nothing under `src/` is edited; `Tracer.restore()` puts
the originals back.

A span is (name, start, end, parent index, op id). Spans stay in a list
until the run ends. A layer's self time is its span durations minus the
time covered by its direct child spans; calls nest strictly because the
program is single-threaded.
"""

import functools
import importlib
import sys
import time

# layer name -> "module:qualname" targets. A target that no longer exists
# is skipped and listed in Tracer.missing, so a refactor that renames a
# function shows up as a missing target rather than a crash.
SPAN_TARGETS = {
    "core.propagate": ["solaraudit.core:propagate"],
    "core.liouvillian_apply": ["solaraudit.core:liouvillian_apply"],
    "core.generator_init": ["solaraudit.core:LindbladGenerator.__init__"],
    "core.superoperator": ["solaraudit.core:LindbladGenerator.superoperator"],
    "core.steady_state": ["solaraudit.core:steady_state"],
    "core.density_matrix": ["solaraudit.core:DensityMatrix.__init__"],
    "core.floor_positivity": ["solaraudit.core:floor_positivity"],
    "thermo.heat_current": ["solaraudit.thermo:heat_current"],
    "thermo.entropy_production": ["solaraudit.thermo:entropy_production"],
    "models.generator": [
        "solaraudit.models.three_level:decay_generator",
        "solaraudit.models.three_level:hamiltonian_transfer_generator",
        "solaraudit.models.donor_acceptor:donor_acceptor_generator",
        "solaraudit.models.photocell:photocell_generator",
    ],
    "models.report": [
        "solaraudit.models.three_level:decay_report",
        "solaraudit.models.three_level:hamiltonian_transfer_report",
        "solaraudit.models.donor_acceptor:donor_acceptor_report",
        "solaraudit.models.photocell:photocell_report",
    ],
    "fmo.build_model": ["solaraudit.fmo:build_model"],
    "config": [
        "solaraudit.config:parse_config_file",
        "solaraudit.config:validate_sections",
        "solaraudit.config:convert_section",
        "solaraudit.config:default_section",
    ],
    "cli.main": ["solaraudit.cli:main"],
    "sweeps.run_sweep": ["solaraudit.sweeps:run_sweep"],
    "sweeps.power_comparison": ["solaraudit.sweeps:power_comparison"],
    "output.emit": [
        "solaraudit.output:emit_csv",
        "solaraudit.output:emit_json",
        "solaraudit.output:write_output",
    ],
}

# counted, not timed: a sweep point's cost is already inside run_sweep and
# models.report, a span here would only split it
COUNT_TARGETS = {"sweeps.point_evals": ["solaraudit.sweeps:SweepSpec.point_report"]}


def array_bytes(arr):
    """Bytes held by a dense ndarray or a scipy.sparse matrix."""
    if hasattr(arr, "nbytes"):
        return int(arr.nbytes)
    total = 0
    for attr in ("data", "indices", "indptr", "row", "col", "coords"):
        part = getattr(arr, attr, None)
        if isinstance(part, tuple):
            total += sum(int(p.nbytes) for p in part)
        elif hasattr(part, "nbytes"):
            total += int(part.nbytes)
    return total


def _generator_sizes(tracer, args, result):
    gen = args[0]
    tracer.size("core.dim", gen.dim)
    tracer.size("core.channels", len(gen.channels))
    tracer.size("core.jump_bytes", sum(array_bytes(ch.jump) for ch in gen.channels))


def _superop_sizes(tracer, args, result):
    tracer.size("core.superop_nnz", int(result.nnz))
    tracer.size("core.superop_bytes", array_bytes(result))


def _sweep_grid(tracer, args, result):
    tracer.count("sweeps.grid_points", len(args[0].grid))


def _output_bytes(tracer, args, result):
    if isinstance(result, str):
        tracer.count("output.bytes", len(result.encode("utf-8")))


RESULT_HOOKS = {
    "core.generator_init": _generator_sizes,
    "core.superoperator": _superop_sizes,
    "output.emit": _output_bytes,
    "sweeps.run_sweep": _sweep_grid,
}


class Tracer:
    """Span list, counters and size maxima of one process."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # name -> summed count
        self.sizes = {}  # name -> largest size seen
        self.op = 0
        self.missing = []
        self._stack = []
        self._restore = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def size(self, name, value):
        self.sizes[name] = max(self.sizes.get(name, 0), value)

    def _span_wrapper(self, name, fn):
        hook = RESULT_HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, container, key, value):
        if isinstance(container, dict):
            old = container[key]
            container[key] = value
            self._restore.append(lambda: container.__setitem__(key, old))
        else:
            old = inspect_attr(container, key)
            setattr(container, key, value)
            self._restore.append(lambda: setattr(container, key, old))

    def _patch_function(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "solaraudit" or modname.startswith("solaraudit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper)
                        elif isinstance(v, tuple) and any(x is original for x in v):
                            self._set(value, k, tuple(wrapper if x is original else x for x in v))

    def _install_target(self, name, target, make_wrapper):
        modname, qualname = target.split(":")
        try:
            owner = importlib.import_module(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect_attr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        if isinstance(original, functools.cached_property):
            prop = functools.cached_property(make_wrapper(name, original.func))
            prop.__set_name__(owner, attr)
            self._set(owner, attr, prop)
        elif isinstance(owner, type):
            self._set(owner, attr, make_wrapper(name, original))
        else:
            self._patch_function(original, make_wrapper(name, original))

    def install(self):
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                self._install_target(name, target, self._span_wrapper)
        for name, targets in COUNT_TARGETS.items():
            for target in targets:
                self._install_target(name, target, self._count_wrapper)
        return self

    def restore(self):
        while self._restore:
            self._restore.pop()()

    def export(self):
        """Plain-JSON form, for a traced subprocess to hand to its parent."""
        return {
            "spans": self.spans,
            "counts": self.counts,
            "sizes": self.sizes,
            "missing": self.missing,
        }

    def absorb(self, exported, op):
        """Append a subprocess's export, re-tagged with this run's op id."""
        offset = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        for name, n in exported["counts"].items():
            self.count(name, n)
        for name, n in exported["sizes"].items():
            self.size(name, n)
        self.missing = sorted(set(self.missing) | set(exported["missing"]))


def inspect_attr(owner, attr):
    """The attribute as stored, so a cached_property is not evaluated."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return klass.__dict__[attr]
        raise AttributeError(attr)
    return getattr(owner, attr)


def self_times(spans):
    """Summed self time per span name, and the number of spans per name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    calls = {}
    for (name, start, end, _, _), covered in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
    return totals, calls
