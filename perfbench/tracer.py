"""Per-layer tracing by wrapping braidact's public functions from outside.

``install`` replaces each traced function or method with a wrapper
that times the call and counts its work.  A function imported with
``from .x import y`` is bound in several modules; every module-level
binding of the original object is rebound.  The closed-form counter
checks in ``run.py`` catch a call path that still escapes the wrappers,
so a missed patch shows as a mismatch rather than a silent zero.

Calls nest, so a call's self time is its duration minus the durations of
the traced calls made directly inside it.  Coarse calls (suites, and the
benchmark's own set-up, pass and operation boundaries) are also kept as
spans ``(id, name, start, end, parent id)``.  Hot leaf calls, such as the
word kernels, are only aggregated per (name, parent name), because a
single verify run makes millions of them.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

perf_counter = time.perf_counter

# The word-kernel implementations are reached only through the _kernels
# module attributes, so their own modules are never rebound.
_SKIP_MODULES = ("braidact._kernels._",)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stats: dict[tuple[str, str], _Stat] = {}
        self.counters: dict[str, float] = {}
        # Frames of the calls in progress: [name, child seconds, span id].
        self._stack: list[list] = [["<root>", 0.0, None]]
        self._next_span = 0

    # -- recording -------------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def call(self, name: str, fn: Callable, args, kwargs, span: bool):
        stack = self._stack
        parent = stack[-1]
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = [name, 0.0, span_id]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            parent[1] += duration
            key = (name, parent[0])
            stat = self.stats.get(key)
            if stat is None:
                stat = self.stats[key] = _Stat()
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - frame[1]
            if span:
                self.spans.append((span_id, name, t0, t1, parent[2]))

    def region(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a benchmark-level span."""
        return self.call(name, fn, args, kwargs, True)

    # -- patching --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *, span: bool = False,
             count: Callable | None = None) -> Callable:
        """Traced twin of ``fn``.  ``count(tracer, result, *args)`` may add
        counters after each call."""
        call = self.call

        if count is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name, fn, args, kwargs, span)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = call(name, fn, args, kwargs, span)
                count(self, result, *args, **kwargs)
                return result
        return traced

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **options))

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Rebind ``module.attr`` and every other module-level binding of it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **options)
        self.rebind(original, traced)

    def patch_generator(self, module, attr: str, counter: str) -> None:
        """Count the items a generator function yields."""
        original = getattr(module, attr)
        add = self.add

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                add(counter)
                yield item

        self.rebind(original, counted)

    def rebind(self, original: object, replacement: object) -> None:
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("braidact") or mod_name.startswith(_SKIP_MODULES):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original!r} is bound in no braidact module")

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total and self seconds, summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _), stat in self.stats.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += stat.calls
            row["total_s"] += stat.total_s
            row["self_s"] += stat.self_s
        return out

    def by_parent(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": s.calls,
             "total_s": s.total_s, "self_s": s.self_s}
            for (name, parent), s in sorted(self.stats.items())
        ]

    def snapshot(self) -> dict:
        return {"totals": self.totals(), "counters": dict(self.counters)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every braidact layer."""
    from braidact import _kernels, action, braids, cli, endo, matrices, monoid, report, sp4, symplectic

    def substitute_count(t, result, pos, neg, word, cap):
        t.add("kernels.substitute.letters_out", len(result))
        t.peak("kernels.substitute.peak_len", len(result))

    for fn in ("substitute", "invert_reduced", "reduce_letters", "concat_reduced"):
        tracer.patch_function(_kernels, fn, f"kernels.{fn}",
                              count=substitute_count if fn == "substitute" else None)

    def compose_count(t, result, left, right):
        if result is NotImplemented:
            return
        t.add("endo.compose.images", len(right.images))
        t.add("endo.compose.changed",
              sum(new.letters != old.letters for new, old in zip(result.images, right.images)))

    tracer.patch_method(endo.Endomorphism, "__mul__", "endo.compose", count=compose_count)
    tracer.patch_method(endo.Endomorphism, "apply", "endo.apply")
    tracer.patch_method(endo.Automorphism, "__init__", "endo.automorphism")

    def letters_of(counter):
        def count(t, result, *args):
            braid = args[-1]
            t.add(counter, len(braid.letters))
        return count

    tracer.patch_function(action, "braid_automorphism", "action.braid_automorphism",
                          count=letters_of("action.braid_automorphism.letters"))
    tracer.patch_function(braids, "artin_action", "braids.artin_action",
                          count=letters_of("braids.artin_action.letters"))

    def equal_count(t, result, b1, b2):
        if b1.letters == b2.letters:
            t.add("braids.braids_equal.identical_shortcut")

    tracer.patch_function(braids, "braids_equal", "braids.braids_equal", count=equal_count)

    def mul_count(t, result, left, right):
        if result is not NotImplemented:
            t.add("matrices.mul.mults_computed", left.dim ** 3)

    tracer.patch_method(matrices.IntMatrix, "__mul__", "matrices.mul", count=mul_count)
    tracer.patch_method(matrices.IntMatrix, "det", "matrices.det")
    tracer.patch_method(matrices.IntMatrix, "inverse", "matrices.inverse")

    tracer.patch_function(symplectic, "braid_matrix", "symplectic.braid_matrix",
                          count=letters_of("symplectic.braid_matrix.letters"))
    tracer.patch_function(symplectic, "is_symplectic", "symplectic.is_symplectic")

    tracer.patch_generator(monoid, "omega_words", "monoid.words_enumerated")
    tracer.patch_function(monoid, "omega_normal_form", "monoid.omega_normal_form")
    tracer.patch_method(monoid.OmegaWord, "automorphism", "monoid.omega_automorphism")

    suites = (
        (action, "verify_u_braid_relations", "action.verify_u_braid_relations"),
        (action, "verify_center_vanishes", "action.verify_center_vanishes"),
        (symplectic, "verify_symplectic_generators", "symplectic.verify_symplectic_generators"),
        (symplectic, "verify_sl2_braid_relation", "symplectic.verify_sl2_braid_relation"),
        (symplectic, "verify_symplectic_random", "symplectic.verify_symplectic_random"),
        (monoid, "check_omega_alphabet", "monoid.check_omega_alphabet"),
        (monoid, "free_monoid_oracle", "monoid.free_monoid_oracle"),
        (monoid, "verify_normal_form_sweep", "monoid.normal_form_sweep"),
        (monoid, "verify_section", "monoid.section"),
        (sp4, "verify_all", "sp4.verify_all"),
        (cli, "main", "cli.main"),
    )
    for module, attr, name in suites:
        tracer.patch_function(module, attr, name, span=True)
    tracer.patch_function(report, "merge_reports", "report.merge_reports")


# Per-layer metrics, read from a snapshot: (metric, unit, source).  A
# source is ("calls" | "self_s", traced name) or ("counter", counter).
# Metric names must start with a letter, so the _kernels layer reports as
# "kernels".
def _calls_self(name: str) -> list[tuple[str, str, tuple[str, str]]]:
    return [
        (f"{name}.calls", "count", ("calls", name)),
        (f"{name}.self_s", "s", ("self_s", name)),
    ]


LAYER_METRICS: list[tuple[str, str, tuple[str, str]]] = [
    *_calls_self("kernels.substitute"),
    *_calls_self("kernels.invert_reduced"),
    *_calls_self("kernels.reduce_letters"),
    *_calls_self("kernels.concat_reduced"),
    ("kernels.substitute.letters_out", "count", ("counter", "kernels.substitute.letters_out")),
    ("kernels.substitute.peak_len", "count", ("counter", "kernels.substitute.peak_len")),
    *_calls_self("endo.compose"),
    ("endo.compose.images", "count", ("counter", "endo.compose.images")),
    *_calls_self("endo.apply"),
    ("endo.automorphism.verified", "count", ("calls", "endo.automorphism")),
    *_calls_self("action.braid_automorphism"),
    ("action.braid_automorphism.letters", "count", ("counter", "action.braid_automorphism.letters")),
    *_calls_self("braids.artin_action"),
    ("braids.artin_action.letters", "count", ("counter", "braids.artin_action.letters")),
    *_calls_self("braids.braids_equal"),
    ("braids.braids_equal.identical_shortcut", "count",
     ("counter", "braids.braids_equal.identical_shortcut")),
    *_calls_self("matrices.mul"),
    ("matrices.mul.mults_computed", "count", ("counter", "matrices.mul.mults_computed")),
    *_calls_self("matrices.det"),
    *_calls_self("matrices.inverse"),
    *_calls_self("symplectic.braid_matrix"),
    ("symplectic.braid_matrix.letters", "count", ("counter", "symplectic.braid_matrix.letters")),
    *_calls_self("symplectic.is_symplectic"),
    ("monoid.words_enumerated", "count", ("counter", "monoid.words_enumerated")),
    *_calls_self("monoid.omega_normal_form"),
    *_calls_self("monoid.omega_automorphism"),
    ("monoid.normal_form_sweep.self_s", "s", ("self_s", "monoid.normal_form_sweep")),
    ("monoid.section.self_s", "s", ("self_s", "monoid.section")),
    ("sp4.verify_all.self_s", "s", ("self_s", "sp4.verify_all")),
    ("cli.main.self_s", "s", ("self_s", "cli.main")),
    ("report.merge_reports.calls", "count", ("calls", "report.merge_reports")),
]


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from a snapshot, as ``name -> (value, unit)``."""
    totals, counters = snap["totals"], snap["counters"]
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, (kind, key) in LAYER_METRICS:
        if kind == "counter":
            value = counters.get(key, 0)
        else:
            value = totals.get(key, {}).get(kind, 0)
        out[metric] = (value, unit)
    images = counters.get("endo.compose.images", 0)
    changed = counters.get("endo.compose.changed", 0)
    out["endo.compose.useful_ratio"] = (changed / images if images else 0.0, "ratio")
    return out
