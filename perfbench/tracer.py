"""Span tracing at twogrp's layer boundaries, installed from outside.

Each target is a dotted name.  A module-level function is replaced in every
loaded twogrp module that holds it, since `from .x import f` copies the
binding into the importer; a method or constructor is replaced on its class.
A target that no longer resolves is reported as absent with zero calls.
Spans are kept in memory and written out once, when the run ends.
"""

import collections
import functools
import importlib
import json
import sys
import time


def _cells(args, kwargs):
    # kernel(gtable, ng, degree, ...): one output cell per G^(degree+1) tuple
    return args[1] ** (args[2] + 1)


def _entries(args, kwargs):
    mat = args[0]
    shape = getattr(mat, "shape", None) or (len(mat), len(mat[0]) if len(mat) else 0)
    return int(shape[0]) * int(shape[1])


def _levels(args, kwargs):
    # TruncatedSSet.__init__(self, truncation, levels, ...)
    return sum(len(lv) for lv in args[2])


# (layer, targets, counter name, counter function)
LAYERS = [
    ("kernels.coboundary_table", ["twogrp.kernels.coboundary_table"], "kernels.cells", _cells),
    ("kernels.first_coboundary_violation", ["twogrp.kernels.first_coboundary_violation"],
     "kernels.cells", _cells),
    ("cochain.coboundary", ["twogrp.cochain.coboundary"], None, None),
    ("cochain.is_cocycle", ["twogrp.cochain.is_cocycle"], None, None),
    ("cochain.cohomology", ["twogrp.cochain.cohomology"], None, None),
    ("cochain.bar_matrix", ["twogrp.cochain.bar_matrix"], None, None),
    ("cochain.class_coordinates", ["twogrp.cochain.CohomologyResult.class_coordinates"],
     None, None),
    ("cochain.cochain_from_coordinates",
     ["twogrp.cochain.CohomologyResult.cochain_from_coordinates"], None, None),
    ("cochain.lex_minimal_representative",
     ["twogrp.cochain.CohomologyResult.lex_minimal_representative"], None, None),
    ("cochain.pull_back_along_automorphism", ["twogrp.cochain.pull_back_along_automorphism"],
     None, None),
    ("cochain.cohomology_classes_mod_aut", ["twogrp.cochain.cohomology_classes_mod_aut"],
     None, None),
    ("modlinalg.smith_mod_prime_power", ["twogrp.modlinalg.smith_mod_prime_power"],
     "modlinalg.smith_mod_prime_power.entries", _entries),
    ("modlinalg.kernel_mod_prime_power", ["twogrp.modlinalg.kernel_mod_prime_power"], None, None),
    ("modlinalg.lex_reduce_mod", ["twogrp.modlinalg.lex_reduce_mod"], None, None),
    ("group.group_automorphisms", ["twogrp.group.group_automorphisms"], None, None),
    ("twogroup.check_pentagon", ["twogrp.twogroup.check_pentagon"], None, None),
    ("twogroup.TwoGroupSkeleton", ["twogrp.twogroup.TwoGroupSkeleton.__init__"], None, None),
    ("simplicial.TruncatedSSet", ["twogrp.simplicial.TruncatedSSet.__init__"],
     "simplicial.cells_built", _levels),
    ("simplicial.from_json", ["twogrp.simplicial.TruncatedSSet.from_json"], None, None),
    ("simplicial.SimplicialMap", ["twogrp.simplicial.SimplicialMap.__init__"], None, None),
    ("simplicial.SimplicialMap.validate", ["twogrp.simplicial.SimplicialMap.validate"],
     None, None),
    ("simplicial.validate_simplicial", ["twogrp.simplicial.validate_simplicial"], None, None),
    ("simplicial.fiber_product", ["twogrp.simplicial.fiber_product"], None, None),
    ("simplicial.cocycle_as_map", ["twogrp.simplicial.cocycle_as_map"], None, None),
    ("simplicial.mediating_map", ["twogrp.simplicial.mediating_map"], None, None),
    ("simplicial.is_kan", ["twogrp.simplicial.is_kan"], None, None),
    ("simplicial.fillers", ["twogrp.simplicial.fillers"], None, None),
    ("simplicial.static", ["twogrp.simplicial.nerve_bg", "twogrp.simplicial.w_b2a",
                           "twogrp.simplicial.wbar_b2a", "twogrp.simplicial.decalage_map"],
     None, None),
    ("correspondence.duskin_nerve", ["twogrp.correspondence.duskin_nerve"], None, None),
    ("correspondence.pullback_model", ["twogrp.correspondence.pullback_model"], None, None),
    ("correspondence.canonical_iso", ["twogrp.correspondence.canonical_iso"], None, None),
    ("correspondence.verify_theorem", ["twogrp.correspondence.verify_theorem"], None, None),
    ("cli.main", ["twogrp.cli.main"], None, None),
]

MODULES = ["kernels", "cochain", "modlinalg", "group", "twogroup", "simplicial",
           "correspondence", "cli", "bench"]

# Layers reported with a call count as well as a self time.
COUNTED = [
    "kernels.coboundary_table", "kernels.first_coboundary_violation",
    "cochain.class_coordinates", "cochain.pull_back_along_automorphism",
    "cochain.lex_minimal_representative", "modlinalg.smith_mod_prime_power",
    "modlinalg.lex_reduce_mod", "group.group_automorphisms",
    "simplicial.validate_simplicial",
]
COUNTERS = ["kernels.cells", "modlinalg.smith_mod_prime_power.entries", "simplicial.cells_built"]

ROOT_OP = "op"
ROOT_SETUP = "setup"


def _resolve(dotted):
    """(owner, attribute) for a dotted name, or None when it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if parts[-1] not in vars(owner):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    def __init__(self):
        self.spans = []      # (label, start, end, parent, op)
        self.stack = []
        self.op = -1
        self.counters = collections.Counter()
        self.absent = []
        self.layer_of = {}   # span label -> layer

    def install(self):
        for layer, targets, counter, count_fn in LAYERS:
            for dotted in targets:
                found = _resolve(dotted)
                if found is None:
                    self.absent.append(dotted)
                    continue
                owner, attr = found
                label = dotted[len("twogrp."):]
                self.layer_of[label] = layer
                self._patch(owner, attr, label, counter, count_fn)

    def _patch(self, owner, attr, label, counter, count_fn):
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = self._wrap(raw.__func__, label, counter, count_fn)
                setattr(owner, attr, classmethod(wrapped))
            else:
                setattr(owner, attr, self._wrap(raw, label, counter, count_fn))
            return
        wrapper = self._wrap(raw, label, counter, count_fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "twogrp" or name.startswith("twogrp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)

    def _wrap(self, fn, label, counter, count_fn):
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter] += count_fn(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)

        return wrapper

    def begin(self, op):
        """Open the root span of op (an op index, or -1 for set-up)."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, time.perf_counter()

    def end(self, handle):
        idx, start = handle
        self.stack.pop()
        label = ROOT_SETUP if self.op < 0 else ROOT_OP
        self.spans[idx] = (label, start, time.perf_counter(), -1, self.op)



def dump(spans, path):
    """One span per line: [label, start, end, parent, op]."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def aggregate(spans, layer_of, ops=None):
    """Self time and calls per layer, module self time, and root time.

    ops, when given, restricts the module totals and the root time to
    spans of those op indices; layer totals always cover the whole run.
    """
    child = [0.0] * len(spans)
    for label, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = collections.Counter()
    calls = collections.Counter()
    module_s = collections.Counter()
    root_s = 0.0
    for i, (label, start, end, parent, op) in enumerate(spans):
        own = end - start - child[i]
        layer = layer_of.get(label, label)
        self_s[layer] += own
        calls[layer] += 1
        if op < 0 or (ops is not None and op not in ops):
            continue
        if label == ROOT_OP:
            root_s += end - start
            module_s["bench"] += own
        else:
            module_s[layer.split(".")[0]] += own
    return self_s, calls, module_s, root_s


def static_miss_ratio(spans):
    """nerve_bg calls made directly by verify_theorem, per verify call:
    the per-(G, A) static objects that verify had to build."""
    verify = [i for i, s in enumerate(spans) if s[0] == "correspondence.verify_theorem"]
    if not verify:
        return 0.0
    owners = set(verify)
    misses = sum(1 for s in spans if s[0] == "simplicial.nerve_bg" and s[3] in owners)
    return misses / len(verify)


def layer_metrics(spans, layer_of, counters):
    """Calls, self seconds and counters per layer over the whole run."""
    self_s, calls, _module_s, _root_s = aggregate(spans, layer_of)
    out = {}
    for layer, _targets, _counter, _fn in LAYERS:
        if layer in COUNTED:
            out[layer + ".calls"] = (calls[layer], "count")
        out[layer + ".self_s"] = (self_s[layer], "s")
    for name in COUNTERS:
        out[name] = (counters[name], "count")
    out["correspondence.static_miss_ratio"] = (static_miss_ratio(spans), "ratio")
    return out
