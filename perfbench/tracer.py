"""Tracing of the tmodext layers from outside the program.

`Tracer.install()` replaces each layer module's public functions, and the
operators of `FieldElement`, `SkewPoly`, `SkewMatrix`, `TModule` and
`ExtStructure`, with timing wrappers.  Every module-level copy of a wrapped
function (the `from .x import name` bindings, including the package root)
is rebound too, so calls between layers go through the wrappers.
`uninstall()` restores the originals.

Coarse calls (the public functions of a layer) are stored as spans:
(span id, query id, name, start ns, end ns, parent span id).  Hot calls
(field, polynomial and matrix operators) are only aggregated per parent
span as [count, busy ns], so a run does not store millions of spans.

Each call's self time is its duration minus the time of the wrapped calls
made inside it; the wrapper's own book-keeping is charged to no layer.
Counters accumulate in `raw` under flat keys, so the counters of several
processes can be merged (`merge_raw`) before `layer_metrics` turns them
into the per-layer metrics of BENCHMARK.json.
"""

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("coefficients", "skewpoly", "modules_t", "biderivations",
          "ext_structures", "homological", "oracle", "cli")
KINDS = ("finite", "rational", "formal")

# Operators whose calls are aggregated instead of stored as spans.
_FIELD_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "inverse": "inverse", "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow", "twist": "twist", "is_zero": "is_zero",
    "negate_indices": "negate_indices",
}
_POLY_OPS = {
    "__add__": "poly_add", "__radd__": "poly_add", "__sub__": "poly_sub",
    "__rsub__": "poly_sub", "__neg__": "poly_neg", "__mul__": "poly_mul",
    "__rmul__": "poly_mul", "__pow__": "poly_pow",
    "eval_linear": "eval_linear", "adjoint": "poly_adjoint",
    "shift": "shift", "from_pairs": "from_pairs",
}
_MATRIX_OPS = {
    "__add__": "matrix_add", "__sub__": "matrix_sub",
    "__neg__": "matrix_neg", "__mul__": "matrix_mul",
    "__rmul__": "matrix_mul", "__pow__": "matrix_pow",
    "adjoint": "matrix_adjoint", "from_rows": "from_rows",
}
_HOT_FUNCTIONS = {
    "skewpoly": {"const_mul", "const_identity", "const_twist",
                 "const_inverse", "const_is_nilpotent", "twist_sign"},
    "oracle": {"apply_matrix", "random_poly", "random_matrix"},
}
# Public functions counted under a shared group name as well as their own.
_GROUPS = {
    "skewpoly": {name: "parse" for name in (
        "parse_value", "parse_poly", "parse_matrix", "parse_element",
        "parse_apoly")},
    "biderivations": {"reduce_canonical": "reduce"},
    "oracle": {name: "verify" for name in (
        "verify_structure", "verify_ga", "verify_sixterm", "verify_duality")},
}
# Calls whose layer-internal self time is also reported on its own.
_SCOPES = {"parse", "reduce", "ext_structure"}


class Tracer:
    def __init__(self):
        self.active = False
        self.query_id = -1
        self.raw = Counter()
        self.spans = []
        self.hot = {}
        self._frames = []       # open calls: [layer, scope, child_ns]
        self._span_stack = []   # open coarse spans: (span id, name)
        self._restore = []
        self._units = {}        # id(spec) -> (spec, zero payload, one payload)

    # -- installation -----------------------------------------------------

    def install(self, package="tmodext"):
        """Wrap every layer of an imported tmodext package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS
                if f"{package}.{layer}" in sys.modules}
        replaced = {}
        for layer, mod in mods.items():
            hot_names = _HOT_FUNCTIONS.get(layer, ())
            groups = _GROUPS.get(layer, {})
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                extra = "ops" if layer == "homological" else groups.get(name)
                names = (name,) + ((extra,) if extra else ())
                replaced[fn] = self._wrap(
                    fn, layer, name, names, coarse=name not in hot_names,
                    scope=next((g for g in names if g in _SCOPES), None),
                    post=self._post_hook(layer, name))
        self._wrap_class(mods["coefficients"].FieldElement, "coefficients",
                         _FIELD_OPS, kinded=True)
        self._wrap_class(mods["skewpoly"].SkewPoly, "skewpoly", _POLY_OPS)
        self._wrap_class(mods["skewpoly"].SkewMatrix, "skewpoly", _MATRIX_OPS)
        self._wrap_class(mods["modules_t"].TModule, "modules_t",
                         {"__post_init__": "build"})
        self._wrap_class(mods["ext_structures"].ExtStructure,
                         "ext_structures", {"coords_of": "coords",
                                            "from_coords": "coords",
                                            "act_coords": "coords"})
        # Rebind the wrapped functions wherever a module holds a copy.
        targets = [sys.modules[package]] + list(mods.values())
        for mod in targets:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, replaced[value])
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap_class(self, cls, layer, ops, kinded=False):
        for attr, group in ops.items():
            if attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(
                    original.__func__, layer, f"{cls.__name__}.{attr}",
                    (group,), coarse=False, kinded=kinded,
                    pre=self._pre_hook(group, kinded)))
            else:
                wrapped = self._wrap(
                    original, layer, f"{cls.__name__}.{attr}", (group,),
                    coarse=False, kinded=kinded,
                    pre=self._pre_hook(group, kinded))
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    # -- hooks ------------------------------------------------------------

    def _pre_hook(self, group, kinded):
        if not kinded:
            return None
        raw = self.raw
        if group == "mul":
            def pre(args):
                raw["coefficients.mul.trivial"] += (
                    self._is_trivial(args[0]) or self._is_trivial(args[1]))
            return pre
        if group == "twist":
            def pre(args):
                depth = abs(args[1])
                if depth > raw["coefficients.twist.max_depth.max"]:
                    raw["coefficients.twist.max_depth.max"] = depth
            return pre
        return None

    def _is_trivial(self, x):
        """True for the field elements 0 and 1 and the integers 0 and 1."""
        if isinstance(x, int):
            return x in (0, 1)
        payload = getattr(x, "payload", None)
        if payload is None:
            return False
        spec = x.spec
        entry = self._units.get(id(spec))
        if entry is None:
            entry = (spec, spec.zero().payload, spec.one().payload)
            self._units[id(spec)] = entry
        return payload == entry[1] or payload == entry[2]

    def _post_hook(self, layer, name):
        raw = self.raw
        if name == "reduce_canonical":
            def post(args, result):
                raw["biderivations.reduce.noop"] += (
                    result.canonical.matrix == args[0].matrix)
            return post
        if name == "is_split":
            def post(args, result):
                raw["homological.is_split.decided"] += (
                    result.kind != "inconclusive")
            return post
        if layer == "oracle" and name.startswith("verify_"):
            def post(args, result):
                raw["oracle.checks.count"] += len(result.checks)
                raw["oracle.checks.passed"] += sum(
                    c.passed for c in result.checks)
            return post
        return None

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, layer, name, groups, coarse, kinded=False,
              scope=None, pre=None, post=None):
        tracer = self
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        hot = self.hot
        raw = self.raw
        clock = time.perf_counter_ns
        self_key = f"{layer}.self_ns"
        scope_keys = {s: f"{layer}.{s}.self_ns" for s in _SCOPES}
        if kinded:
            count_keys = {k: [f"{layer}.{k}.{g}.count" for g in groups]
                          for k in KINDS}
            kind_busy = {k: f"{layer}.{k}.busy_ns" for k in KINDS}
        else:
            count_keys = [f"{layer}.{g}.count" for g in groups]

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = clock()
            if kinded:
                kind = args[0].spec.kind
                for key in count_keys[kind]:
                    raw[key] += 1
            else:
                for key in count_keys:
                    raw[key] += 1
            if pre is not None:
                pre(args)
            parent = frames[-1] if frames else None
            inner = parent is not None and parent[0] == layer
            frame_scope = scope or (parent[1] if inner else None)
            frame = [layer, frame_scope, 0]
            frames.append(frame)
            if coarse:
                span_id = len(spans)
                parent_span = span_stack[-1][0] if span_stack else None
                spans.append(None)
                span_stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                own = duration - frame[2]
                raw[self_key] += own
                if frame_scope is not None:
                    raw[scope_keys[frame_scope]] += own
                if kinded and not inner:
                    raw[kind_busy[kind]] += duration
                if coarse:
                    span_stack.pop()
                    spans[span_id] = (span_id, tracer.query_id, name,
                                      start, end, parent_span)
                else:
                    key = (span_stack[-1][1] if span_stack else None, name)
                    slot = hot.get(key)
                    if slot is None:
                        hot[key] = [1, duration]
                    else:
                        slot[0] += 1
                        slot[1] += duration
            if post is not None:
                post(args, result)
            if parent is not None:
                parent[2] += clock() - enter
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- output -----------------------------------------------------------

    def dump(self):
        """Spans and per-parent hot aggregates, for writing out."""
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "hot": [[parent, name, count, busy]
                    for (parent, name), (count, busy)
                    in sorted(self.hot.items(), key=lambda kv: str(kv[0]))],
        }


def merge_raw(total, raw):
    """Add the counters of `raw` into `total` (maxima are kept as maxima)."""
    for key, value in raw.items():
        if key.endswith(".max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw, cli_import_s=0.0, cli_output_bytes=0):
    """The per-layer metrics, named as in BENCHMARK.json, from raw counters."""
    r = Counter(raw)
    m = {}

    def secs(key):
        return r[key] / 1e9

    for kind in KINDS:
        for op in ("mul", "add", "inverse", "twist"):
            m[f"coefficients.{kind}.{op}.count"] = \
                r[f"coefficients.{kind}.{op}.count"]
        m[f"coefficients.{kind}.busy_s"] = secs(f"coefficients.{kind}.busy_ns")
    m["coefficients.is_zero.count"] = sum(
        r[f"coefficients.{kind}.is_zero.count"] for kind in KINDS)
    m["coefficients.mul.trivial_ratio"] = _ratio(
        r["coefficients.mul.trivial"],
        sum(r[f"coefficients.{kind}.mul.count"] for kind in KINDS))
    m["coefficients.twist.max_depth"] = r["coefficients.twist.max_depth.max"]
    m["coefficients.self_s"] = secs("coefficients.self_ns")
    for group in ("poly_mul", "matrix_mul", "from_pairs", "parse"):
        m[f"skewpoly.{group}.count"] = r[f"skewpoly.{group}.count"]
    m["skewpoly.parse.self_s"] = secs("skewpoly.parse.self_ns")
    m["skewpoly.self_s"] = secs("skewpoly.self_ns")
    m["modules_t.build.count"] = r["modules_t.build.count"]
    m["modules_t.self_s"] = secs("modules_t.self_ns")
    m["biderivations.reduce.count"] = r["biderivations.reduce.count"]
    m["biderivations.reduce.self_s"] = secs("biderivations.reduce.self_ns")
    m["biderivations.reduce.noop_ratio"] = _ratio(
        r["biderivations.reduce.noop"], r["biderivations.reduce.count"])
    m["biderivations.select_regime.count"] = \
        r["biderivations.select_regime.count"]
    m["biderivations.self_s"] = secs("biderivations.self_ns")
    m["ext_structures.ext_structure.count"] = \
        r["ext_structures.ext_structure.count"]
    m["ext_structures.ext_structure.self_s"] = \
        secs("ext_structures.ext_structure.self_ns")
    m["ext_structures.coords.count"] = r["ext_structures.coords.count"]
    m["ext_structures.self_s"] = secs("ext_structures.self_ns")
    m["homological.ops.count"] = r["homological.ops.count"]
    m["homological.is_split.count"] = r["homological.is_split.count"]
    m["homological.is_split.decided_ratio"] = _ratio(
        r["homological.is_split.decided"], r["homological.is_split.count"])
    m["homological.self_s"] = secs("homological.self_ns")
    m["oracle.verify.count"] = r["oracle.verify.count"]
    m["oracle.checks.count"] = r["oracle.checks.count"]
    m["oracle.checks.pass_ratio"] = _ratio(r["oracle.checks.passed"],
                                           r["oracle.checks.count"])
    m["oracle.self_s"] = secs("oracle.self_ns")
    m["cli.main.count"] = r["cli.main.count"]
    m["cli.self_s"] = secs("cli.self_ns")
    m["cli.import_s"] = cli_import_s
    m["cli.output_bytes"] = cli_output_bytes
    return m
