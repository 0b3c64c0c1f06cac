"""Span recording around the library's layer boundaries, from outside it.

The recorder wraps chosen functions of each module: it rebinds every
``carlitzbases.*`` module attribute that holds the function, so calls
through module globals and ``from`` imports are both seen, and it replaces
class attributes for the ``Poly`` and ``TruncSeries`` methods.  Spans
(name, start, end, parent, job id) are kept in flat arrays in memory and
written out once, when the run ends.  Self time is a span's duration minus
the time covered by its direct children.
"""
from __future__ import annotations

import array
import functools
import json
import os
import sys
import time

from carlitzbases import algebra, carlitz, cli, hasse, identities, transforms
from carlitzbases.algebra import Poly, TruncSeries


def _poly_mul_count(rec, args, result):
    a, b = args
    if isinstance(b, Poly):
        rec.counts["mul_pairs"] += len(a.coeffs) * len(b.coeffs)
        rec.counts["max_degree"] = max(rec.counts["max_degree"], result.degree)


def _series_mul_count(rec, args, result):
    a, b = args
    if isinstance(b, (Poly, TruncSeries)):
        rec.counts["mul_pairs"] += len(a.coeffs) * len(b.coeffs)


def _divmod_count(rec, args, result):
    a, b = args
    rec.counts["divmod_pairs"] += max(len(a.coeffs) - len(b.coeffs) + 1, 0) * len(b.coeffs)
    rec.counts["max_degree"] = max(rec.counts["max_degree"], a.degree)


def _enumerate_count(rec, args, result):
    rec.counts["enumerated"] += len(result)


# (span name, owner, attribute, counting hook).  The owner is a class for
# kernel methods and a module for functions.
TARGETS = (
    ("algebra.poly_mul", Poly, "__mul__", _poly_mul_count),
    ("algebra.poly_divmod", Poly, "divmod", _divmod_count),
    ("algebra.poly_add", Poly, "__add__", None),
    ("algebra.series_mul", TruncSeries, "__mul__", _series_mul_count),
    ("algebra.invert_unit", TruncSeries, "invert_unit", None),
    ("algebra.poly_enumerate", algebra, "poly_enumerate", _enumerate_count),
    ("carlitz.eval_E", carlitz, "eval_E", None),
    ("carlitz.eval_G", carlitz, "eval_G", None),
    ("carlitz.e_poly", carlitz, "e_poly", None),
    ("hasse.hasse_derivative", hasse, "hasse_derivative", None),
    ("hasse.eval_D", hasse, "eval_D", None),
    ("transforms.inverse_matrix", transforms, "inverse_matrix", None),
    ("transforms.voloch_matrix", transforms, "voloch_matrix", None),
    ("transforms.carlitz_coeffs", transforms, "carlitz_coeffs", None),
    ("transforms.digit_coeffs", transforms, "digit_coeffs", None),
    ("transforms.wagner_coeffs", transforms, "wagner_coeffs", None),
    ("identities.run_suite", identities, "run_suite", None),
    ("identities.check_orthogonality", identities, "check_orthogonality", None),
    ("identities.check_addition_law", identities, "check_addition_law", None),
    ("cli.main", cli, "main", None),
)


class SpanRecorder:
    """In-memory spans of the wrapped functions, plus kernel work counts."""

    def __init__(self):
        self.names = []
        self.name_id = array.array("H")
        self.parent = array.array("q")
        self.job = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.current_job = 0
        self.counts = {"mul_pairs": 0, "divmod_pairs": 0, "max_degree": -1,
                       "enumerated": 0}
        self._restore = []

    def wrap(self, fn, name, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, jobs = self.name_id, self.parent, self.job
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(rec.current_job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(rec, args, result)
            return result

        return wrapper

    def install(self):
        for name, owner, attr, hook in TARGETS:
            fn = getattr(owner, attr)
            wrapper = self.wrap(fn, name, hook)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "carlitzbases" or mod_name.startswith("carlitzbases."):
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, new):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    def reduce(self):
        """Per span name: (calls, total self time in seconds)."""
        n = len(self.start)
        covered = array.array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, directory, stem, job_names):
        """Write the spans as a JSON header plus one raw array per field."""
        os.makedirs(directory, exist_ok=True)
        fields = ("name_id", "parent", "job", "start", "end")
        header = {"names": self.names, "jobs": job_names, "count": len(self.start),
                  "fields": {f: getattr(self, f).typecode for f in fields},
                  "byteorder": sys.byteorder}
        with open(os.path.join(directory, f"{stem}.json"), "w") as fh:
            json.dump(header, fh, indent=1)
        with open(os.path.join(directory, f"{stem}.bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)


def cache_callables(module):
    """The module's lru_cache-wrapped functions, by name."""
    return {k: v for k, v in vars(module).items() if hasattr(v, "cache_info")}


def cache_hit_ratio(cached) -> float:
    infos = [fn.cache_info() for fn in cached.values()]
    lookups = sum(i.hits + i.misses for i in infos)
    return sum(i.hits for i in infos) / lookups if lookups else 0.0


def layer_metrics(rec: SpanRecorder, cached, output_bytes: int) -> dict:
    """The per-layer metrics of one traced run, as plain numbers."""
    spans = rec.reduce()
    calls = {k: v[0] for k, v in spans.items()}
    self_s = {k: v[1] for k, v in spans.items()}
    return {
        "algebra.poly_mul.calls": calls["algebra.poly_mul"],
        "algebra.poly_mul.self_s": self_s["algebra.poly_mul"],
        "algebra.poly_divmod.calls": calls["algebra.poly_divmod"],
        "algebra.poly_divmod.self_s": self_s["algebra.poly_divmod"],
        "algebra.poly_add.self_s": self_s["algebra.poly_add"],
        "algebra.series_mul.calls": calls["algebra.series_mul"],
        "algebra.series_mul.self_s": self_s["algebra.series_mul"],
        "algebra.invert_unit.calls": calls["algebra.invert_unit"],
        "algebra.invert_unit.self_s": self_s["algebra.invert_unit"],
        "algebra.mul.coeff_pairs": rec.counts["mul_pairs"],
        "algebra.divmod.coeff_pairs": rec.counts["divmod_pairs"],
        "algebra.max_degree": rec.counts["max_degree"],
        "algebra.poly_enumerate.polys": rec.counts["enumerated"],
        "carlitz.eval_E.calls": calls["carlitz.eval_E"],
        "carlitz.eval_E.self_s": self_s["carlitz.eval_E"],
        "carlitz.eval_G.calls": calls["carlitz.eval_G"],
        "carlitz.eval_G.self_s": self_s["carlitz.eval_G"],
        "carlitz.e_poly.calls": calls["carlitz.e_poly"],
        "carlitz.cache_hit_ratio": cache_hit_ratio(cached),
        "hasse.hasse_derivative.calls": calls["hasse.hasse_derivative"],
        "hasse.hasse_derivative.self_s": self_s["hasse.hasse_derivative"],
        "hasse.eval_D.calls": calls["hasse.eval_D"],
        "hasse.eval_D.self_s": self_s["hasse.eval_D"],
        "transforms.inverse_matrix.self_s": self_s["transforms.inverse_matrix"],
        "transforms.voloch_matrix.self_s": self_s["transforms.voloch_matrix"],
        "transforms.enumeration_coeffs.self_s": (self_s["transforms.carlitz_coeffs"]
                                                 + self_s["transforms.digit_coeffs"]),
        "transforms.wagner_coeffs.self_s": self_s["transforms.wagner_coeffs"],
        "identities.run_suite.self_s": self_s["identities.run_suite"],
        "identities.check_orthogonality.calls": calls["identities.check_orthogonality"],
        "identities.check_addition_law.calls": calls["identities.check_addition_law"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.output_bytes": output_bytes,
        "trace.spans": len(rec.start),
    }
