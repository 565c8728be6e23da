"""Layer spans recorded from outside the library, by wrapping its public names.

The five layers are the modules `class2_words`, `zq_linalg`,
`demushkin_core`, `quotient_builder` and `cli`.  `Tracer.install()` wraps

* every function exported by `demuskin/__init__.py`, in every `demuskin`
  module namespace that binds it (the modules `from ... import` each other,
  so patching only the defining module would miss, say, `cli`'s and
  `quotient_builder`'s calls to `invariants`);
* the public methods and properties of the exported classes, plus their
  `__init__`, `__call__`, `__mul__`, `__pow__`, `__eq__` and `__le__`;
* `cli.main` and `cli.render`.

`Tracer.restore()` puts every original object back.

A call into a layer from a different layer (or from the benchmark) opens a
span: name, start, end and parent, kept in memory and written out by
`write()`.  A call made from inside its own layer is only counted, unless a
metric needs its own time or ancestry (`ALWAYS_SPANNED`): its time already
belongs to its caller's span, which is in the same layer, so layer self
times are unchanged, and the hot arithmetic primitives stay cheap to trace.
Code that is not wrapped (private helpers) counts as self time of the
innermost open span.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("class2_words", "zq_linalg", "demushkin_core", "quotient_builder", "cli")

# Value types whose methods are trivial accessors or comparisons: a span
# would cost more than the work it times.
SKIP_CLASSES = {"Modulus", "GeneratorSet", "Signature"}
SKIP_MEMBERS = {
    "ZqMatrix.rows",
    "ZqMatrix.cols",
    "Submodule.ngens",
    "BilinearForm.dim",
    "BilinearForm.modulus",
    "DemushkinPresentation.d",
    "CohomologyData.is_demushkin",
    "FreeQuotientCertificate.all_green",
    "IsotropicSubmodule.rank",
}
WRAPPED_DUNDERS = ("__init__", "__call__", "__mul__", "__pow__", "__eq__", "__le__")

# Calls whose inclusive time, result or ancestry a metric reads.
ALWAYS_SPANNED = {
    "class2_words.ClassTwoEndo.__call__",
    "class2_words.invert_auto",
    "zq_linalg.isotropic_free_submodules",
    "zq_linalg.max_isotropic_oracle",
    "zq_linalg.Submodule.intersect",
    "demushkin_core.transform_presentation",
    "demushkin_core.InvolutionAction.build",
    "demushkin_core.lift_involution",
    "demushkin_core.symmetrize_basis",
    "demushkin_core.coinvariants",
    "quotient_builder.build_V",
    "quotient_builder.free_quotient",
    "quotient_builder.uniqueness_check",
    "cli.main",
    "cli.render",
}

# (counted call, ancestor): count the call only while the ancestor is open.
NESTED_COUNTS = {
    ("zq_linalg.Submodule.__init__", "zq_linalg.isotropic_free_submodules"),
    ("zq_linalg.Submodule.intersect", "quotient_builder.free_quotient"),
}


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("demuskin."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Wraps the library's public callables and aggregates their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.installed = False
        self.enabled = True  # False passes calls straight through
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        n = len(self.names)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * n
        self.inclusive_ns = [0] * n
        self.active = [0] * n
        self.child_ns: list[int] = []
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        self.layer_inclusive_ns = dict.fromkeys(LAYERS, 0)
        self.layer_active = dict.fromkeys(LAYERS, 0)
        self.nested = dict.fromkeys(NESTED_COUNTS, 0)
        self.oracle_found = 0
        self.green = 0
        self._stack: list[int] = []
        self._stack_layer: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _make_wrapper(self, fn, name: str, layer: str):
        cid = self._id(name)
        always = name in ALWAYS_SPANNED
        nested = [(key, self._id(key[1])) for key in NESTED_COUNTS if key[0] == name]
        on_result = {
            "zq_linalg.isotropic_free_submodules": self._count_found,
            "quotient_builder.free_quotient": self._count_green,
        }.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[cid] += 1
            for key, anc in nested:
                if tracer.active[anc]:
                    tracer.nested[key] += 1
            stack_layer = tracer._stack_layer
            if not always and stack_layer and stack_layer[-1] == layer:
                return fn(*args, **kwargs)
            idx = tracer._enter(cid, layer, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, cid, layer, clock())
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _enter(self, cid: int, layer: str, now: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(cid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(now)
        self.span_end.append(0)
        self.child_ns.append(0)
        self._stack.append(idx)
        self._stack_layer.append(layer)
        self.active[cid] += 1
        self.layer_active[layer] += 1
        return idx

    def _exit(self, idx: int, cid: int, layer: str, now: int):
        self.span_end[idx] = now
        self._stack.pop()
        self._stack_layer.pop()
        dur = now - self.span_start[idx]
        self.layer_self_ns[layer] += dur - self.child_ns[idx]
        parent = self.span_parent[idx]
        if parent >= 0:
            self.child_ns[parent] += dur
        self.active[cid] -= 1
        if not self.active[cid]:
            self.inclusive_ns[cid] += dur
        self.layer_active[layer] -= 1
        if not self.layer_active[layer]:
            self.layer_inclusive_ns[layer] += dur

    def _count_found(self, result):
        self.oracle_found += len(result)

    def _count_green(self, cert):
        self.green += bool(cert.all_green)

    # -- installing and restoring -------------------------------------------

    def _targets(self):
        """("function", fn, name) or ("member", (cls, attr, raw), name) for
        every callable to wrap; name is "<layer>.<qualified name>"."""
        import demuskin
        from demuskin import cli

        exported = [
            (name, obj)
            for name, obj in vars(demuskin).items()
            if not name.startswith("_") and _layer_of(obj) is not None
        ]
        functions = [(name, obj) for name, obj in exported if inspect.isfunction(obj)]
        functions += [("main", cli.main), ("render", cli.render)]
        for name, fn in functions:
            yield "function", fn, f"{_layer_of(fn)}.{name}"
        for cname, cls in exported:
            if not inspect.isclass(cls) or cname in SKIP_CLASSES:
                continue
            for attr, raw in vars(cls).items():
                if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                    continue
                full = f"{cname}.{attr}"
                if full in SKIP_MEMBERS:
                    continue
                if isinstance(raw, (classmethod, staticmethod, property)) or inspect.isfunction(raw):
                    yield "member", (cls, attr, raw), f"{_layer_of(cls)}.{full}"

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "demuskin" or key.startswith("demuskin.")
        ]
        for kind, target, name in list(self._targets()):
            layer = name.split(".", 1)[0]
            if kind == "function":
                wrapped = self._make_wrapper(target, name, layer)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is target:
                            self._patch(mod, attr, val, wrapped)
                continue
            cls, attr, raw = target
            if isinstance(raw, property):
                new = property(
                    self._make_wrapper(raw.fget, name, layer), raw.fset, raw.fdel, raw.__doc__
                )
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._make_wrapper(raw.__func__, name, layer))
            else:
                new = self._make_wrapper(raw, name, layer)
            self._patch(cls, attr, raw, new)
        self.installed = True
        self.reset()

    def _patch(self, owner, attr, original, new):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.installed = False

    # -- results -----------------------------------------------------------

    def count(self, name: str) -> int:
        cid = self._ids.get(name)
        return self.calls[cid] if cid is not None else 0

    def inclusive_s(self, name: str) -> float:
        cid = self._ids.get(name)
        return self.inclusive_ns[cid] / 1e9 if cid is not None else 0.0

    def counts(self) -> dict[str, int]:
        """Every deterministic count: calls per name and the nested counts."""
        out = {name: self.calls[cid] for name, cid in self._ids.items()}
        out.update({f"{k[0]} in {k[1]}": v for k, v in self.nested.items()})
        out["oracle_found"] = self.oracle_found
        out["green_certificates"] = self.green
        return out

    def write(self, path: str):
        """Spans as tab-separated name, parent index, start and end (ns)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i, (cid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{names[cid]}\t{parent}\t{start}\t{end}\n")
