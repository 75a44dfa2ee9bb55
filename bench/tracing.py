"""Per-layer tracing of triadica from outside the package.

`Tracer.install` replaces the layer functions listed in `LAYERS` with
wrappers, in every triadica module that holds a reference to them, and
`uninstall` puts the originals back; nothing under src/ changes.  Each call
records a span (name, start, end, parent) in flat arrays, and a few
wrappers also count the work their arguments or results describe.  A
layer's self time is its spans' duration minus what their child spans
cover; the time of the root `job` spans that no layer covers is reported as
`other.self_s`.

Only functions that do a layer's work are wrapped.  The vector helpers
(`dot`, `vec_add`, ...) run millions of times per pass and would swamp the
trace.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# module -> functions whose spans are recorded; "Matrix.__matmul__" is a
# method patched on the class
LAYERS = {
    "exactla": ("rref", "kernel", "span", "solve", "quotient_space",
                "product_subspace", "Matrix.__matmul__"),
    "finspace": ("check_topology", "is_continuous"),
    "algebra": ("validate_algebra", "characters", "nilradical",
                "tensor_product", "enumerate_unital_morphisms"),
    "sheaf": ("irredundant_covers", "check_sheaf_condition", "sheafify",
              "sheafify_module", "validate_algebra_presheaf",
              "validate_module_presheaf", "validate_presheaf_morphism",
              "pushforward", "pushforward_module"),
    "triad": ("check_leibniz", "validate_triad", "pushforward_triad"),
    "kaehler": ("kaehler_module", "factor_derivation", "derivation_space",
                "kaehler_presheaf"),
    "dtcat": ("check_morphism", "compose", "constant_morphism",
              "verify_pullback_forced", "enumerate_presheaf_morphisms",
              "fullness_check"),
    "workspace": ("parse_workspace",),
    "cli": ("render_json", "render_human"),
}

# span names that differ from module.function
RENAMED = {"exactla.Matrix.__matmul__": "exactla.matmul",
           "cli.render_json": "cli.render", "cli.render_human": "cli.render"}


def _counting(name: str, fn, counts: Counter):
    """Wrap `fn` so that it adds the work it is handed to `counts`."""
    if name == "exactla.rref":
        def call(vectors, width):
            vectors = list(vectors)
            counts["exactla.rref.cells"] += len(vectors) * width
            return fn(vectors, width)
    elif name == "exactla.product_subspace":
        def call(u, v, struct):
            counts["exactla.product_subspace.products"] += u.dim * v.dim
            return fn(u, v, struct)
    elif name == "exactla.matmul":
        def call(a, b):
            counts["exactla.matmul.mults"] += a.rows * a.cols * b.cols
            return fn(a, b)
    elif name == "workspace.parse_workspace":
        def call(text):
            counts["workspace.bytes_in"] += len(text.encode())
            return fn(text)
    elif name in ("sheaf.irredundant_covers",
                  "dtcat.enumerate_presheaf_morphisms",
                  "algebra.enumerate_unital_morphisms"):
        key = {"sheaf.irredundant_covers": "sheaf.irredundant_covers.covers",
               "dtcat.enumerate_presheaf_morphisms":
                   "dtcat.enumerate_presheaf_morphisms.families",
               "algebra.enumerate_unital_morphisms": "dtcat.candidates"}[name]

        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += len(out)
            return out
    else:
        return fn
    return call


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records one span named `name`."""
        tid = self._id(name)
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(tid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "triadica" or n.startswith("triadica.")]
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"triadica.{module_name}"]
            for fname in functions:
                full = f"{module_name}.{fname}"
                name = RENAMED.get(full, full)
                if "." in fname:
                    cls_name, method = fname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    wrapped = self.span(name, _counting(name, original,
                                                        self.counts))
                    self._patches.append((owner, method, original))
                    setattr(owner, method, wrapped)
                    continue
                original = getattr(module, fname)
                wrapped = self.span(name, _counting(name, original,
                                                    self.counts))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_root(self, name: str, fn):
        """Run `fn()` inside a root span named `name`."""
        return self.span(name, fn)()

    def summary(self) -> tuple[dict, dict, list[dict]]:
        """Self seconds and calls by span name, and self seconds by span
        name under each root span, in the order the roots ran."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        roots: dict[int, dict] = {}
        root_of = [0] * n
        for i in range(n):
            name = self.names[self.name_id[i]]
            own = self.end[i] - self.start[i] - child[i]
            self_s[name] += own
            calls[name] += 1
            p = self.parent[i]
            root_of[i] = i if p < 0 else root_of[p]
            roots.setdefault(root_of[i], defaultdict(float))[name] += own
        return dict(self_s), dict(calls), [dict(v) for v in roots.values()]


def layer_metrics(tracer: Tracer, root: str) -> dict[str, tuple]:
    """The per-layer metrics of one traced pass, as (value, unit)."""
    self_s, calls, _ = tracer.summary()
    counts = tracer.counts

    def s(name):
        return self_s.get(name, 0.0), "s"

    def n(name):
        return calls.get(name, 0), "count"

    def c(key, unit="count"):
        return counts[key], unit

    families = counts["dtcat.enumerate_presheaf_morphisms.families"]
    candidates = counts["dtcat.candidates"]
    return {
        "exactla.rref.calls": n("exactla.rref"),
        "exactla.rref.cells": c("exactla.rref.cells"),
        "exactla.rref.self_s": s("exactla.rref"),
        "exactla.product_subspace.products":
            c("exactla.product_subspace.products"),
        "exactla.product_subspace.self_s": s("exactla.product_subspace"),
        "exactla.matmul.calls": n("exactla.matmul"),
        "exactla.matmul.mults": c("exactla.matmul.mults"),
        "exactla.matmul.self_s": s("exactla.matmul"),
        "sheaf.check_sheaf_condition.calls": n("sheaf.check_sheaf_condition"),
        "sheaf.check_sheaf_condition.self_s":
            s("sheaf.check_sheaf_condition"),
        "sheaf.irredundant_covers.covers":
            c("sheaf.irredundant_covers.covers"),
        "sheaf.irredundant_covers.self_s": s("sheaf.irredundant_covers"),
        "sheaf.validate_algebra_presheaf.self_s":
            s("sheaf.validate_algebra_presheaf"),
        "sheaf.validate_module_presheaf.self_s":
            s("sheaf.validate_module_presheaf"),
        "sheaf.sheafify.self_s": s("sheaf.sheafify"),
        "triad.check_leibniz.calls": n("triad.check_leibniz"),
        "triad.check_leibniz.self_s": s("triad.check_leibniz"),
        "triad.validate_triad.self_s": s("triad.validate_triad"),
        "kaehler.kaehler_module.calls": n("kaehler.kaehler_module"),
        "kaehler.kaehler_module.self_s": s("kaehler.kaehler_module"),
        "kaehler.factor_derivation.calls": n("kaehler.factor_derivation"),
        "kaehler.factor_derivation.self_s": s("kaehler.factor_derivation"),
        "kaehler.kaehler_presheaf.self_s": s("kaehler.kaehler_presheaf"),
        "dtcat.enumerate_presheaf_morphisms.calls":
            n("dtcat.enumerate_presheaf_morphisms"),
        "dtcat.enumerate_presheaf_morphisms.families":
            c("dtcat.enumerate_presheaf_morphisms.families"),
        "dtcat.enumerate_presheaf_morphisms.self_s":
            s("dtcat.enumerate_presheaf_morphisms"),
        "dtcat.families_per_candidate":
            (families / candidates if candidates else 0.0, "ratio"),
        "algebra.characters.calls": n("algebra.characters"),
        "algebra.characters.self_s": s("algebra.characters"),
        "finspace.is_continuous.calls": n("finspace.is_continuous"),
        "workspace.parse_workspace.self_s": s("workspace.parse_workspace"),
        "workspace.bytes_in": c("workspace.bytes_in", "bytes"),
        "cli.render.self_s": s("cli.render"),
        "cli.bytes_out": c("cli.bytes_out", "bytes"),
        "other.self_s": s(root),
    }
