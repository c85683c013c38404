"""Span tracing of the badapprox layers from outside the package.

`Tracer.install()` replaces the public functions and methods of each
layer module (cli, cf, gaps, kronecker, sturmian, quadratic, render,
oracle) with timing wrappers, everywhere the package binds them, including
the names other modules imported; `uninstall()` puts the originals back.
No source file changes.

Every wrapped call records its duration and the time its wrapped callees
took, so a layer's self time is its span time minus its child spans, and
the self times of all layers add up to the time spent inside cli.main.
Ordinary calls become spans with a parent; hot leaf calls (quadratic
arithmetic, rendering, small accessors) are aggregated per parent span.
Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

PACKAGE = "badapprox"
LAYERS = ("cli", "cf", "gaps", "kronecker", "sturmian", "quadratic", "render", "oracle")

# Private names that carry a layer's work and are traced too.
EXTRA = {
    "cli": ("_witness_at_display_depth",),
}

# Calls aggregated per parent span instead of one span each.
HOT_LAYERS = {"quadratic", "render"}
HOT_CLASSES = {"CertifiedValue", "CFSpec", "Convergent", "GapSet"}

ARITHMETIC = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__", "__eq__", "__lt__", "__floor__",
}

# Functions whose work is counted under a named part of their layer.
STURMIAN_PARTS = {
    "SturmianSeq.ensure": "bits",
    "agreement": "scan",
    "diversity_scan": "scan",
    "fib_lucas": "golden",
    "frac_golden_multiple": "golden",
    "fractional_grids": "golden",
    "crossing_cell": "golden",
    "crossing_unique": "golden",
    "lower_bound_witness": "golden",
    "witness_ratio_report": "golden",
}
CERTIFIERS = {"_witness_at_display_depth", "extremal_witness", "solve"}
BRUTE = {"brute_gap_points", "brute_kronecker", "brute_bits", "brute_agreement"}
DECADES = (3, 4, 5, 6)
STEP_BINS = (2, 4, 8, 16, 32)


def decade(n: int) -> int:
    """Decade bin of a size: 3 holds everything below 10^4, 6 everything from 10^6."""
    return min(max(int(math.log10(max(n, 1))), DECADES[0]), DECADES[-1])


def step_bin(r: int) -> int:
    """Power-of-two bin of a progression step: 2 holds 2-3, 32 holds 32 and up."""
    return min(max(b for b in STEP_BINS if b <= max(r, 2)), STEP_BINS[-1])


class _Frame:
    __slots__ = ("span", "child_ns")

    def __init__(self, span: int):
        self.span = span
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [_Frame(0)]  # the root frame sums the outermost calls
        self._cert_depth = 0
        self._solve_depth = 0
        self.request = 0
        self.spans: list[tuple] = []  # (id, parent, request, layer, name, start_ns, end_ns, self_ns)
        self.aggregates: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])  # (parent, name) -> [calls, ns]
        self.self_ns: Counter = Counter()  # (layer, name) -> ns
        self.calls: Counter = Counter()  # name -> calls
        self.counts: Counter = Counter()  # named counters
        self.maxima: Counter = Counter()

    # ---- recording ----------------------------------------------------

    def start_request(self, request: int) -> None:
        self.request = request

    def _wrap(self, fn, layer: str, name: str):
        hot = layer in HOT_LAYERS or name.split(".")[0] in HOT_CLASSES or inspect.isgeneratorfunction(fn)
        hook = _HOOKS.get(name)
        cert = name in CERTIFIERS
        solve = name == "solve"
        stack, clock = self._stack, time.perf_counter_ns

        def enter():
            if cert:
                if self._cert_depth == 0:
                    self.counts["cert_results"] += 1
                self._cert_depth += 1
            if solve:
                self._solve_depth += 1
            frame = _Frame(stack[-1].span if hot else len(self.spans) + 1)
            if not hot:
                self.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            return frame

        def leave(frame, start, end):
            stack.pop()
            dur = end - start
            own = dur - frame.child_ns
            parent = stack[-1]
            parent.child_ns += dur
            self.self_ns[layer, name] += own
            self.calls[name] += 1
            if hot:
                agg = self.aggregates[parent.span, name]
                agg[0] += 1
                agg[1] += dur
            else:
                self.spans[frame.span - 1] = (frame.span, parent.span, self.request, layer, name, start, end, own)
            if cert:
                self._cert_depth -= 1
            if solve:
                self._solve_depth -= 1
            return own

        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator; the consumer runs between steps.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        leave(frame, start, clock())
                        return
                    except BaseException:
                        leave(frame, start, clock())
                        raise
                    leave(frame, start, clock())
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter()
            token = hook.before(self, args, kwargs) if hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, start, clock())
                raise
            own = leave(frame, start, clock())
            if hook:
                hook.after(self, args, kwargs, result, token, own)
            return result

        return wrapper

    # ---- patching -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == PACKAGE}
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in EXTRA.get(layer, ())
                ):
                    replaced[id(value)] = self._wrap(value, layer, attr)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer, mod.__file__)
        # Rebind each wrapped function wherever the package holds it.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._patch(mod, attr, replaced[id(value)])

    def _wrap_class(self, cls, layer: str, source: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, cached_property):
                new = cached_property(self._wrap(value.func, layer, name))
                new.__set_name__(cls, attr)
            elif isinstance(value, property):
                new = property(self._wrap(value.fget, layer, name))
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap(value.__func__, layer, name))
            elif inspect.isfunction(value) and value.__code__.co_filename == source:
                # Methods generated by dataclass or total_ordering are skipped;
                # they call the traced ones.
                new = self._wrap(value, layer, name)
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ---- results ------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), ns in self.self_ns.items():
            out[layer] += ns / 1e9
        return out

    def part_self_s(self, part: str) -> float:
        return sum(ns for (layer, name), ns in self.self_ns.items()
                   if layer == "sturmian" and STURMIAN_PARTS.get(name) == part) / 1e9

    def take_spans(self) -> tuple[list, dict]:
        """Hand over the spans and aggregates recorded so far and start afresh."""
        spans, aggregates = self.spans, self.aggregates
        self.spans, self.aggregates = [], defaultdict(lambda: [0, 0])
        return spans, aggregates

    @staticmethod
    def dump(path, spans, aggregates) -> None:
        """Write spans and per-parent aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, layer, name, start, end, own in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req, "layer": layer, "name": name,
                                     "start_ns": start, "end_ns": end, "self_ns": own}, separators=(",", ":")) + "\n")
            for (parent, name), (calls, ns) in sorted(aggregates.items()):
                fh.write(json.dumps({"parent": parent, "name": name, "calls": calls, "total_ns": ns},
                                    separators=(",", ":")) + "\n")


# ---- per-function counters -----------------------------------------------


class _Hook:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, result, token, own_ns):
        pass


class _GapSet(_Hook):
    def after(self, tracer, args, kwargs, result, token, own_ns):
        n = args[1] if len(args) > 1 else kwargs["N"]
        c = tracer.counts
        c["gap_set_calls"] += 1
        c["points_built"] += n
        c["int64_calls" if type(result.nums).__module__ == "numpy" else "pyint_calls"] += 1
        c[f"points.n{decade(n)}"] += n
        c[f"gap_set_ns.n{decade(n)}"] += own_ns
        c["gap_set_ns"] += own_ns
        if tracer._cert_depth:
            c["cert_gap_sets"] += 1
        if tracer._solve_depth:
            c["solve_gap_sets"] += 1


class _Surrogate(_Hook):
    def after(self, tracer, args, kwargs, result, token, own_ns):
        tracer.maxima["surrogate_q_bits"] = max(tracer.maxima["surrogate_q_bits"], result[0].q.bit_length())


class _Solve(_Hook):
    def after(self, tracer, args, kwargs, result, token, own_ns):
        n = args[2] if len(args) > 2 else kwargs["N"]
        tracer.counts[f"solve_ns.n{decade(n)}"] += own_ns


class _Ensure(_Hook):
    def before(self, tracer, args, kwargs):
        seq = args[0]
        return len(seq), getattr(seq, "_surr", None)

    def after(self, tracer, args, kwargs, result, token, own_ns):
        seq = args[0]
        before, surrogate = token
        # A new surrogate regenerates the prefix from the start.
        restarted = getattr(seq, "_surr", None) is not surrogate
        tracer.counts["bits_built"] += len(seq) if restarted else len(seq) - before


class _Agreement(_Hook):
    def after(self, tracer, args, kwargs, result, token, own_ns):
        tracer.counts[f"scan_ns.r{step_bin(args[1])}"] += own_ns


_HOOKS = {
    "gap_set": _GapSet(),
    "choose_surrogate": _Surrogate(),
    "solve": _Solve(),
    "SturmianSeq.ensure": _Ensure(),
    "agreement": _Agreement(),
}


# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.calls": "count",
    "cf.surrogate_calls": "count",
    "cf.surrogate_q_bits_max": "bits",
    "gaps.gap_set_calls": "count",
    "gaps.points_built": "count",
    "gaps.int64_calls": "count",
    "gaps.pyint_calls": "count",
    "gaps.ns_per_point": "ns",
    **{f"gaps.ns_per_point.n{d}": "ns" for d in DECADES},
    "gaps.cert_rounds": "ratio",
    "kronecker.solve_calls": "count",
    "kronecker.gap_sets_per_solve": "ratio",
    **{f"kronecker.self_s.n{d}": "s" for d in DECADES},
    "render.calls": "count",
    "sturmian.bits_self_s": "s",
    "sturmian.bits_built": "count",
    "sturmian.ns_per_bit": "ns",
    "sturmian.scan_self_s": "s",
    **{f"sturmian.scan_self_s.r{r}": "s" for r in STEP_BINS},
    "sturmian.pairs_scanned": "count",
    "sturmian.golden_self_s": "s",
    "quadratic.ops": "count",
    "quadratic.squarefree_calls": "count",
    "oracle.brute_calls": "count",
    "trace.overhead": "ratio",
    "trace.self_share": "ratio",
}


def layer_metrics(tr: Tracer, passes: int, speed: float) -> dict[str, float]:
    """Per-layer metrics per pass over the call pool.

    Times are scaled by `speed` to the reference speed, like the end-to-end
    times; counts are exact and repeat from run to run.
    """
    c, calls = tr.counts, tr.calls
    own = {layer: ns * speed / passes for layer, ns in tr.layer_self_s().items()}

    def ratio(a, b):
        return a / b if b else 0.0

    def part(name):
        return tr.part_self_s(name) * speed / passes

    out = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    out.update({
        "cli.calls": calls["main"] / passes,
        "cf.surrogate_calls": calls["choose_surrogate"] / passes,
        "cf.surrogate_q_bits_max": tr.maxima["surrogate_q_bits"],
        "gaps.gap_set_calls": c["gap_set_calls"] / passes,
        "gaps.points_built": c["points_built"] / passes,
        "gaps.int64_calls": c["int64_calls"] / passes,
        "gaps.pyint_calls": c["pyint_calls"] / passes,
        "gaps.ns_per_point": ratio(c["gap_set_ns"] * speed, c["points_built"]),
        "gaps.cert_rounds": ratio(c["cert_gap_sets"], c["cert_results"]),
        "kronecker.solve_calls": calls["solve"] / passes,
        "kronecker.gap_sets_per_solve": ratio(c["solve_gap_sets"], calls["solve"]),
        "render.calls": calls["decimal_str"] / passes,
        "sturmian.bits_self_s": part("bits"),
        "sturmian.bits_built": c["bits_built"] / passes,
        "sturmian.ns_per_bit": ratio(part("bits") * 1e9, c["bits_built"] / passes),
        "sturmian.scan_self_s": part("scan"),
        "sturmian.pairs_scanned": calls["agreement"] / passes,
        "sturmian.golden_self_s": part("golden"),
        "quadratic.ops": sum(n for name, n in calls.items() if name.startswith("QuadraticNumber.")) / passes,
        "quadratic.squarefree_calls": calls["squarefree_decompose"] / passes,
        "oracle.brute_calls": sum(calls[name] for name in BRUTE) / passes,
    })
    for d in DECADES:
        out[f"gaps.ns_per_point.n{d}"] = ratio(c[f"gap_set_ns.n{d}"] * speed, c[f"points.n{d}"])
        out[f"kronecker.self_s.n{d}"] = c[f"solve_ns.n{d}"] * speed / 1e9 / passes
    for r in STEP_BINS:
        out[f"sturmian.scan_self_s.r{r}"] = c[f"scan_ns.r{r}"] * speed / 1e9 / passes
    return out
