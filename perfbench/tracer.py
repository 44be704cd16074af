"""Per-layer tracing of deltachain from outside the package.

The tracer wraps public functions of each layer and rebinds the wrapper in
every deltachain module that holds the original, so calls made through the
calling module's own name (``spectra.word_matrix``, the nested
``band_germs`` inside ``bound_states``, ``cli.run`` from ``cli.main``) are
seen.  Nothing under ``src/`` is edited.

Layer-level calls (one per query, row, CLI invocation or bisection step) get
a span each; a span's self time is its duration minus the time of the spans
and core leaves that ran inside it.  Spans are aggregated as they close, so
memory stays bounded.  The hot leaves ``core.compose`` and
``core.cell_matrix`` (millions of calls per scatter run) only get counters
and aggregated time, attributed to the innermost open span as child time.
"""

import sys
from collections import Counter
from time import perf_counter

from deltachain.errors import GridTooCoarse
from deltachain.spectra import DEFAULT_GRID_STEPS

# (module, function) -> layer; each call gets a span.
SPANS = {
    ("deltachain.cli", "run"): "cli",
    ("deltachain.spectra", "band_germs"): "spectra",
    ("deltachain.spectra", "bound_states"): "spectra",
    ("deltachain.scattering", "s_matrix"): "scattering",
    ("deltachain.states", "sample_wavefunction"): "states",
    ("deltachain.substitution", "word_matrix"): "substitution",
}
# Hot leaves of the core layer: counters and aggregated time only.
LEAVES = (("deltachain.core", "compose"), ("deltachain.core", "cell_matrix"))
LAYERS = ("cli", "spectra", "scattering", "states", "substitution", "core")
GRID_STEPS_ARG = 4  # positional index of grid_steps in band_germs / bound_states


class Tracer:
    """Collects per-layer self times and work counters while installed."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = Counter()
        self.leaf_s = Counter()
        self.counts = Counter()  # letters, cells, grid_points, grid_too_coarse
        self.root_s = 0.0  # duration of spans and leaves with no open span above them
        self._stack = []  # child-time accumulators of the open spans
        self._leaf_depth = 0
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        for (modname, fname), layer in SPANS.items():
            fn = getattr(sys.modules[modname], fname)
            self._rebind(fn, self._span(f"{layer}.{fname}", layer, fn))
        for modname, fname in LEAVES:
            fn = getattr(sys.modules[modname], fname)
            self._rebind(fn, self._leaf(f"core.{fname}", fn))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "deltachain" and not modname.startswith("deltachain."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    # -- wrappers -------------------------------------------------------

    def _on_call(self, name, args, kwargs):
        if name in ("spectra.band_germs", "spectra.bound_states"):
            steps = args[GRID_STEPS_ARG] if len(args) > GRID_STEPS_ARG else kwargs.get(
                "grid_steps", DEFAULT_GRID_STEPS
            )
            # the base scan plus the x4 verification scan
            self.counts["spectra.grid_points"] += (steps + 1) + (4 * steps + 1)
        elif name == "substitution.word_matrix":
            self.counts["substitution.letters"] += len(args[0])
        elif name == "states.sample_wavefunction":
            self.counts["states.cells"] += len(args[0])

    def _span(self, name, layer, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            self._on_call(name, args, kwargs)
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except GridTooCoarse as err:
                # count each raise once, not again in every enclosing span
                if not getattr(err, "_perfbench_counted", False):
                    err._perfbench_counted = True
                    self.counts["spectra.grid_too_coarse"] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - child[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur

        return wrapper

    def _leaf(self, name, fn):
        stack = self._stack
        calls = self.calls
        leaf_s = self.leaf_s
        self_s = self.self_s

        def wrapper(*args):
            calls[name] += 1
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                self._leaf_depth -= 1
                leaf_s[name] += dur
                if self._leaf_depth == 0:  # cell_matrix calls compose inside
                    self_s["core"] += dur
                    if stack:
                        stack[-1][0] += dur
                    else:
                        self.root_s += dur

        return wrapper

    # -- results --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced job that took ``wall_s`` seconds."""
        return {
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - self.root_s,
            "cli.self_s": self.self_s["cli"],
            "spectra.self_s": self.self_s["spectra"],
            "spectra.band_germs.calls": self.calls["spectra.band_germs"],
            "spectra.bound_states.calls": self.calls["spectra.bound_states"],
            "spectra.grid_points": self.counts["spectra.grid_points"],
            "spectra.grid_too_coarse": self.counts["spectra.grid_too_coarse"],
            "substitution.word_matrix.calls": self.calls["substitution.word_matrix"],
            "substitution.word_matrix.self_s": self.self_s["substitution"],
            "substitution.letters": self.counts["substitution.letters"],
            "core.compose.calls": self.calls["core.compose"],
            "core.cell_matrix.calls": self.calls["core.cell_matrix"],
            "core.compose.s": self.leaf_s["core.compose"],
            "core.self_s": self.self_s["core"],
            "scattering.s_matrix.calls": self.calls["scattering.s_matrix"],
            "scattering.self_s": self.self_s["scattering"],
            "states.sample_wavefunction.self_s": self.self_s["states"],
            "states.cells": self.counts["states.cells"],
        }
