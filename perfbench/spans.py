"""Span tracing of layext from the benchmark's side, and the per-layer metrics.

`Tracer.install()` wraps the public functions of every layer module, the
public methods and arithmetic operators of the classes they define, and the
few private helpers a per-layer metric names (`intlinalg._echelon`).  It
patches every namespace that holds a wrapped object, including modules that
imported a name directly (`uniform` imports `positive_at_root`, `cli` imports
most of its names) and the package itself, so calls between layers are seen.
No file of the program is edited.  `uninstall()` restores the originals.

Each call records a span [layer, name, start, end, parent, query id, size,
extra]; spans stay in memory and are written out at the end.  A span's self
time is its duration minus the durations of its child spans (children nest,
so they never overlap).

Trivial coercions that every layer calls per coefficient (`as_fraction`,
`polys.poly`, `polys.degree`) are not wrapped: they would multiply the span
count without marking a layer boundary.  Their time is part of the caller's
self time.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import time

LAYERS = ("tropical", "intlinalg", "bipotent", "polys", "cancellative", "uniform", "jsonio", "cli")
SKIP = {("tropical", "as_fraction"), ("polys", "poly"), ("polys", "degree")}
PRIVATE = {("intlinalg", "_echelon")}
OPERATORS = {"__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__", "__eq__", "__contains__"}
BIPOTENT_QUERIES = {
    "decompose_extension", "extension_rank", "torsion_degree", "torsion_subdomain_contains",
    "is_divisibly_dependent", "divisible_dependence_witness", "is_bipotent_semifield",
    "linearly_dependent_pair", "monoid_contains", "canonical_coset_value",
}

LAYER, NAME, T0, T1, PARENT, QID, SIZE, EXTRA = range(8)

# Every per-layer metric of a traced run, with its unit.
METRIC_UNITS = {
    "tropical.ops": "count", "tropical.self_s": "s",
    "intlinalg.smith_calls": "count", "intlinalg.echelon_calls": "count", "intlinalg.self_s": "s",
    "intlinalg.smith_max_bits": "bits",
    "bipotent.queries": "count", "bipotent.lattice_builds": "count", "bipotent.lattice_reuse": "ratio",
    "bipotent.self_s": "s",
    "polys.irreducible_calls": "count", "polys.irreducible_s": "s", "polys.sturm_calls": "count",
    "polys.sturm_len_max": "count", "polys.self_s": "s",
    "cancellative.validate_s": "s", "cancellative.ext_mul_calls": "count",
    "cancellative.minpoly_rebuilds": "count", "cancellative.refine_per_sign": "ratio", "cancellative.self_s": "s",
    "uniform.calls": "count", "uniform.self_s": "s",
    "jsonio.parse_calls": "count", "jsonio.self_s": "s", "cli.main_ms": "ms",
    "cli.interp_start_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _size_of(layer, name, args):
    """Input size recorded on a span: generators, matrix columns or degree."""
    try:
        a = args[0]
        if layer == "bipotent":
            return a.n if hasattr(a, "generators") else len(a[0])
        if layer == "intlinalg":
            return args[1] if isinstance(args[1], int) else len(a)
        if layer == "polys":
            return len(a) - 1
        if layer == "cancellative":
            return a.degree if name == "validate_generator" else a.gen.n
    except (AttributeError, IndexError, TypeError):
        pass
    return None


def _max_bits(mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m for x in row), default=0)


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # layer name -> module
        self.spans = []
        self.stack = []
        self.qid = -1
        self.enabled = True
        self.minpolys = set()
        self._keep = []  # keeps minimal polynomials alive so their ids stay unique
        self._restore = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, name):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        key = (layer, name)

        def traced(*args, **kw):
            if not tracer.enabled:  # the benchmark's own checks run untraced
                return fn(*args, **kw)
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, tracer.qid,
                   _size_of(layer, name, args), None]
            if key == ("cancellative", "validate_generator"):
                tracer.minpolys.add(id(args[0]))
                tracer._keep.append(args[0])
            elif key == ("cancellative", "SignedPoly.to_coeffs"):
                rec[EXTRA] = id(args[0]) in tracer.minpolys
            elif key == ("bipotent", "exponent_lattice"):
                rec[EXTRA] = args[0]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                out = fn(*args, **kw)
            finally:
                rec[T1] = clock()
                stack.pop()
            if key == ("intlinalg", "smith"):
                rec[EXTRA] = _max_bits((out[0], out[2]))
            elif key == ("polys", "sturm_chain"):
                rec[EXTRA] = len(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        funcs = {}  # id(original) -> wrapper; the originals stay alive, so ids are unique
        for layer, mod in self.modules.items():
            path = mod.__file__
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (name.startswith("_") and (layer, name) not in PRIVATE) or (layer, name) in SKIP:
                        continue
                    funcs[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, path)
        for ns in [self.package] + list(self.modules.values()):
            for name, obj in list(vars(ns).items()):
                w = funcs.get(id(obj))
                if w is not None:
                    self._restore.append((ns, name, obj))
                    setattr(ns, name, w)

    def _wrap_class(self, cls, layer, path):
        done = {}
        for name, attr in list(cls.__dict__.items()):
            public = not name.startswith("_")
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                if public:
                    wrapped = type(attr)(self._wrap(fn, layer, f"{cls.__name__}.{name}"))
                    self._restore.append((cls, name, attr))
                    setattr(cls, name, wrapped)
                continue
            if not inspect.isfunction(attr) or attr.__code__.co_filename != path:
                continue
            if not (public or name in OPERATORS):
                continue
            if id(attr) not in done:
                done[id(attr)] = self._wrap(attr, layer, f"{cls.__name__}.{attr.__name__}")
            self._restore.append((cls, name, attr))
            setattr(cls, name, done[id(attr)])

    def uninstall(self):
        for ns, name, obj in reversed(self._restore):
            setattr(ns, name, obj)
        self._restore.clear()

    # --- metrics ------------------------------------------------------------

    def self_times(self):
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[T1] - s[T0]
        return [s[T1] - s[T0] - c for s, c in zip(spans, child)], child

    def layer_metrics(self):
        spans = self.spans
        selfs, child = self.self_times()
        self_by = {layer: 0.0 for layer in LAYERS}
        count_by = {layer: 0 for layer in LAYERS}
        calls, dur = {}, {}
        for s, st in zip(spans, selfs):
            self_by[s[LAYER]] += st
            count_by[s[LAYER]] += 1
            key = (s[LAYER], s[NAME])
            calls[key] = calls.get(key, 0) + 1
            dur[key] = dur.get(key, 0.0) + (s[T1] - s[T0])

        def n(layer, name):
            return calls.get((layer, name), 0)

        def of(layer, name):
            return [s for s in spans if s[LAYER] == layer and s[NAME] == name]

        lattice = of("bipotent", "exponent_lattice")
        builds = [s for s, c in zip(spans, child) if s[LAYER] == "bipotent" and s[NAME] == "exponent_lattice" and c > 0]
        distinct = len({s[EXTRA] for s in lattice})
        mains = [(s[T1] - s[T0]) * 1e3 for s in of("cli", "main")]
        refines = n("cancellative", "AlgebraicGenerator.refine")
        signs = n("cancellative", "positive_at_root")
        return {
            "tropical.ops": count_by["tropical"],
            "tropical.self_s": self_by["tropical"],
            "intlinalg.smith_calls": n("intlinalg", "smith"),
            "intlinalg.echelon_calls": n("intlinalg", "_echelon"),
            "intlinalg.self_s": self_by["intlinalg"],
            "intlinalg.smith_max_bits": max((s[EXTRA] for s in of("intlinalg", "smith")), default=0),
            "bipotent.queries": sum(c for (layer, name), c in calls.items()
                                    if layer == "bipotent" and name in BIPOTENT_QUERIES),
            "bipotent.lattice_builds": len(builds),
            "bipotent.lattice_reuse": distinct / len(builds) if builds else 0.0,
            "bipotent.self_s": self_by["bipotent"],
            "polys.irreducible_calls": n("polys", "is_irreducible"),
            "polys.irreducible_s": dur.get(("polys", "is_irreducible"), 0.0),
            "polys.sturm_calls": n("polys", "sturm_chain"),
            "polys.sturm_len_max": max((s[EXTRA] for s in of("polys", "sturm_chain")), default=0),
            "polys.self_s": self_by["polys"],
            "cancellative.validate_s": dur.get(("cancellative", "validate_generator"), 0.0),
            "cancellative.ext_mul_calls": n("cancellative", "ExtElem.__mul__"),
            "cancellative.minpoly_rebuilds": sum(1 for s in of("cancellative", "SignedPoly.to_coeffs") if s[EXTRA]),
            "cancellative.refine_per_sign": refines / signs if signs else 0.0,
            "cancellative.self_s": self_by["cancellative"],
            "uniform.calls": count_by["uniform"],
            "uniform.self_s": self_by["uniform"],
            "jsonio.parse_calls": sum(c for (layer, name), c in calls.items()
                                      if layer == "jsonio" and name.startswith("parse")),
            "jsonio.self_s": self_by["jsonio"],
            "cli.main_ms": statistics.median(mains) if mains else 0.0,
        }

    def by_size(self, keys):
        """Duration by input size for the spans that can show a cliff."""
        table = {}
        for s in self.spans:
            key = f"{s[LAYER]}.{s[NAME]}"
            if key in keys and s[SIZE] is not None:
                table.setdefault(key, {}).setdefault(s[SIZE], []).append((s[T1] - s[T0]) * 1e3)
        return {
            key: {str(size): {"n": len(v), "median_ms": round(statistics.median(v), 4), "max_ms": round(max(v), 4)}
                  for size, v in sorted(rows.items())}
            for key, rows in table.items()
        }

    def write(self, path):
        """One JSON array per span: layer, name, start, end, parent, query id, size, extra."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                extra = s[EXTRA] if isinstance(s[EXTRA], (int, float, bool)) else None
                fh.write(f'["{s[LAYER]}","{s[NAME]}",{s[T0]:.9f},{s[T1]:.9f},{s[PARENT]},{s[QID]},'
                         f'{"null" if s[SIZE] is None else s[SIZE]},{"null" if extra is None else int(extra)}]\n')
