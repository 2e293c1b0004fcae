"""Spans around the program's layer functions, installed from outside.

``Tracer.install()`` replaces each function in ``LAYERS`` by a wrapper
that records a span (name, parent span, job id, start, end) in memory.
A module-level function is replaced on every cendlab module that holds
it, because ``from .x import f`` copies the binding; a method is replaced
on its class, with its aliases (``CycElem.__rmul__`` is ``__mul__``).
``uninstall()`` puts the originals back.  Spans are timed in CPU seconds
of the process, like the end-to-end metrics; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import process_time

# (metric prefix, module, attribute path)
LAYERS = [
    ("linalg.echelon_add", "cendlab.linalg", "EchelonBuilder.add"),
    ("linalg.reduce", "cendlab.linalg", "SubspaceBasis.reduce"),
    ("linalg.nullspace", "cendlab.linalg", "nullspace"),
    ("linalg.rank", "cendlab.linalg", "Mat.rank"),
    ("linalg.inverse", "cendlab.linalg", "Mat.inverse"),
    ("linalg.matmul", "cendlab.linalg", "Mat.__mul__"),
    ("linalg.matvec", "cendlab.linalg", "Mat.apply"),
    ("linalg.span_closure", "cendlab.linalg", "span_closure"),
    ("linalg.kernel_partition", "cendlab.linalg", "kernel_partition"),
    ("linalg.skolem_noether", "cendlab.linalg", "skolem_noether"),
    ("conformal.diff_product", "cendlab.conformal", "diff_product"),
    ("conformal.closure_witness", "cendlab.conformal", "subalgebra_closure_witness"),
    ("conformal.from_elems", "cendlab.conformal", "SubSpan.from_elems"),
    ("workbench.evaluate", "cendlab.workbench", "evaluate"),
    ("workbench.gamma_op", "cendlab.workbench", "gamma_op"),
    ("workbench.check_tinvariance", "cendlab.workbench", "check_Tinvariance"),
    ("workbench.op_product", "cendlab.workbench", "op_product"),
    ("workbench.wn_span", "cendlab.workbench", "wn_span"),
    ("workbench.module_closure", "cendlab.workbench", "module_closure"),
    ("workbench.enrich", "cendlab.workbench", "enrich"),
    ("workbench.is_irreducible", "cendlab.workbench", "is_irreducible"),
    ("workbench.submodule_search", "cendlab.workbench", "invariant_submodule_search"),
    ("workbench.ideal_closure", "cendlab.workbench", "_ideal_closure"),
    ("workbench.ideal_shape", "cendlab.workbench", "ideal_shape"),
    ("workbench.is_essential", "cendlab.workbench", "is_essential"),
    ("classify.canonicalize", "cendlab.classify", "canonicalize"),
    ("classify.analyze_se", "cendlab.classify", "analyze_Se"),
    ("classify.grading", "cendlab.classify", "grading"),
    ("classify.build_sigma", "cendlab.classify", "build_sigma"),
    ("classify.sigma_condition", "cendlab.classify", "sigma_condition_witness"),
    ("classify.extract_chi", "cendlab.classify", "extract_chi"),
    ("classify.validate_chi", "cendlab.classify", "validate_chi"),
    ("classify.apply_automorphism", "cendlab.classify", "apply_automorphism"),
    ("fields.cyc_mul", "cendlab.fields", "CycElem.__mul__"),
    ("fields.cyc_div", "cendlab.fields", "CycElem.__truediv__"),
    ("cli.run_job", "cendlab.cli", "run_job"),
    ("groups.make_group", "cendlab.groups", "make_group"),
]
# Spans the benchmark opens around its own calls rather than around a
# program function: the json.dumps of the report that ``cli.main`` prints.
OWN_SPANS = ["cli.report_json"]
MODULES = ["fields", "linalg", "conformal", "workbench", "classify", "cli", "groups"]
ECHELON_ADD = "linalg.echelon_add"


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in [key for key, _, _ in LAYERS] + OWN_SPANS:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if name == ECHELON_ADD:
            specs.append((f"{name}.rejected", "count", "lower"))
            specs.append((f"{name}.useful", "ratio", "higher"))
    specs += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    return specs


class Tracer:
    def __init__(self):
        self.names = [key for key, _, _ in LAYERS] + OWN_SPANS
        self._index = {name: k for k, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("l")
        self.job = array("H")
        self.start = array("d")
        self.end = array("d")
        self.job_id = 0
        self.rejected = 0
        self._stack = [-1]
        self._saved = []

    def span(self, key, fn):
        """``fn`` wrapped so that each call records a span named ``key``."""
        k = self._index[key]
        name, parent, job, start, end = self.name, self.parent, self.job, self.start, self.end
        stack = self._stack
        tracer = self
        count_rejects = key == ECHELON_ADD

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(k)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(process_time())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = process_time()
                stack.pop()
            if count_rejects and out is None:
                tracer.rejected += 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("cendlab")}
        for key, modname, path in LAYERS:
            owner = modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self.span(key, fn)
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                for alias, value in list(owner.__dict__.items()):
                    if value is raw:
                        self._saved.append((owner, alias, raw))
                        setattr(owner, alias, new)
            else:
                fn = getattr(owner, attr)
                wrapped = self.span(key, fn)
                for mod in modules.values():
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, alias, fn))
                            setattr(mod, alias, wrapped)

    def uninstall(self):
        for owner, alias, original in reversed(self._saved):
            setattr(owner, alias, original)
        self._saved.clear()

    def metrics(self):
        """Per-layer calls and self time, plus the echelon counters and one
        self-time total per module."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        out = {}
        module_s = dict.fromkeys(MODULES, 0.0)
        for k, key in enumerate(self.names):
            out[f"{key}.calls"] = calls[k]
            out[f"{key}.self_s"] = self_s[k]
            module_s[key.split(".")[0]] += self_s[k]
            if key == ECHELON_ADD:
                out[f"{key}.rejected"] = self.rejected
                out[f"{key}.useful"] = (calls[k] - self.rejected) / calls[k] if calls[k] else 0.0
        for mod, value in module_s.items():
            out[f"{mod}.self_s"] = value
        return out

    def write(self, path, job_ids):
        """All spans as one JSON object of parallel columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "jobs": job_ids,
                    "columns": ["name", "parent", "job", "start", "end"],
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "job": self.job.tolist(),
                    "start": [round(t, 7) for t in self.start],
                    "end": [round(t, 7) for t in self.end],
                },
                fh,
                separators=(",", ":"),
            )
