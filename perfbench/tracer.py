"""Per-layer spans recorded from outside the package.

Tracer.install() replaces each traced public function with a wrapper that
times it.  Modules import many of these with ``from .x import f``, so the
wrapper replaces every attribute of every lehmerlab module that *is* the
target function, not just the defining one; uninstall() puts the originals
back.  A span's self time is its duration minus the durations of the traced
spans it directly encloses.
"""

import sys
import time

# (metric prefix, module, attribute path) for every traced function.
TARGETS = (
    ("cli.main", "lehmerlab.cli", "main"),
    ("polynomial.mahler_measure", "lehmerlab.polynomial", "mahler_measure"),
    ("polynomial.roots", "lehmerlab.polynomial", "roots"),
    ("polynomial.squarefree_decomposition", "lehmerlab.polynomial", "squarefree_decomposition"),
    ("polynomial.poly_gcd", "lehmerlab.polynomial", "poly_gcd"),
    ("polynomial.irreducibility_certificate", "lehmerlab.polynomial", "irreducibility_certificate"),
    ("polynomial.is_cyclotomic_product", "lehmerlab.polynomial", "is_cyclotomic_product"),
    ("sequence.growth_report", "lehmerlab.sequence", "growth_report"),
    ("sequence.fit_min_poly", "lehmerlab.sequence", "fit_min_poly"),
    ("sequence.hankel_det", "lehmerlab.sequence", "hankel_det"),
    ("dynamics.char_poly", "lehmerlab.dynamics", "char_poly"),
    ("dynamics.lefschetz_seq", "lehmerlab.dynamics", "lefschetz_seq"),
    ("dynamics.net_traces", "lehmerlab.dynamics", "net_traces"),
    ("dynamics.perron_check", "lehmerlab.dynamics", "perron_check"),
    ("braid.reduced_burau", "lehmerlab.braid", "reduced_burau"),
    ("braid.det_burau_minus_identity", "lehmerlab.braid", "det_burau_minus_identity"),
    ("braid.reduced_alexander", "lehmerlab.braid", "reduced_alexander"),
    ("braid.lehmer_gap", "lehmerlab.braid", "lehmer_gap"),
    ("braid.artin_endo", "lehmerlab.braid", "artin_endo"),
    ("braid.entropy_estimate", "lehmerlab.braid", "entropy_estimate"),
    ("freegroup.iterate_lengths", "lehmerlab.freegroup", "iterate_lengths"),
    ("freegroup.apply", "lehmerlab.freegroup", "apply"),
    ("freegroup.compose", "lehmerlab.freegroup", "compose"),
    ("freegroup.growth_report", "lehmerlab.freegroup", "growth_report"),
    ("blockword.apply_endo_blocks", "lehmerlab._blockword", "apply_endo_blocks"),
    ("blockword.BlockWord.to_runs", "lehmerlab._blockword", "BlockWord.to_runs"),
)

# Counts and ratios gathered at the same boundaries; each repeats exactly
# from run to run for a given job list.
COUNTERS = (
    "polynomial.roots.degree_sum",
    "polynomial.mahler_measure.exact_ratio",
    "polynomial.irreducibility_certificate.conclusive_ratio",
    "polynomial.precision_errors",
    "braid.reduced_burau.letters",
    "freegroup.iterate_lengths.letters_out",
    "freegroup.budget_error_ratio",
)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for label, _, _ in TARGETS:
        names[f"{label}.calls"] = "count"
        names[f"{label}.self_s"] = "s"
    for name in COUNTERS:
        names[name] = "ratio" if name.endswith("_ratio") else "count"
    return names


def _resolve(path):
    module, attr = path
    owner = sys.modules[module]
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.calls = {label: 0 for label, _, _ in TARGETS}
        self.self_s = {label: 0.0 for label, _, _ in TARGETS}
        self.by_bucket = {}  # (bucket, label) -> [calls, self seconds]
        self.bucket = "-"
        self.raw = dict.fromkeys(
            ("degree_sum", "exact", "conclusive", "precision_errors", "letters", "letters_out", "budget_errors", "engine_calls"), 0
        )
        self._children = []  # child-time accumulator per open span
        self._saved = []

    # -- installation ---------------------------------------------------

    def install(self):
        import lehmerlab.cli  # noqa: F401  (loads every traced module)

        for label, module, attr in TARGETS:
            owner, name = _resolve((module, attr))
            target = getattr(owner, name)
            wrapper = self._wrap(label, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lehmerlab" or mod_name.startswith("lehmerlab."):
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._saved.append((mod, key, value))
                            setattr(mod, key, wrapper)
            if owner.__dict__.get(name) is target:
                self._saved.append((owner, name, target))
                setattr(owner, name, wrapper)
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------

    def _wrap(self, label, fn):
        observe = getattr(self, "_observe_" + label.replace(".", "_"), None)
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = clock() - start
                own = elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[label] += 1
                self.self_s[label] += own
                cell = self.by_bucket.setdefault((self.bucket, label), [0, 0.0])
                cell[0] += 1
                cell[1] += own
                if observe is not None:
                    observe(args, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- counters observed at the span boundaries ------------------------

    def _observe_polynomial_roots(self, args, result, exc):
        self.raw["degree_sum"] += args[0].degree
        if type(exc).__name__ == "PrecisionError":
            self.raw["precision_errors"] += 1

    def _observe_polynomial_mahler_measure(self, args, result, exc):
        if result is not None and result.exact:
            self.raw["exact"] += 1

    def _observe_polynomial_irreducibility_certificate(self, args, result, exc):
        if result is not None and result.status != "inconclusive":
            self.raw["conclusive"] += 1

    def _observe_braid_reduced_burau(self, args, result, exc):
        self.raw["letters"] += len(args[0].expanded_letters())

    def _observe_freegroup_iterate_lengths(self, args, result, exc):
        if result is not None:
            self.raw["letters_out"] += int(sum(result.terms))
        self._observe_engine(exc)

    def _observe_freegroup_apply(self, args, result, exc):
        self._observe_engine(exc)

    def _observe_engine(self, exc):
        self.raw["engine_calls"] += 1
        if type(exc).__name__ == "BudgetError":
            self.raw["budget_errors"] += 1

    # -- report ---------------------------------------------------------

    def metrics(self):
        """Every per-layer metric as {name: (value, unit)}."""

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for label, _, _ in TARGETS:
            out[f"{label}.calls"] = (self.calls[label], "count")
            out[f"{label}.self_s"] = (self.self_s[label], "s")
        raw, calls = self.raw, self.calls
        values = {
            "polynomial.roots.degree_sum": raw["degree_sum"],
            "polynomial.mahler_measure.exact_ratio": ratio(raw["exact"], calls["polynomial.mahler_measure"]),
            "polynomial.irreducibility_certificate.conclusive_ratio": ratio(
                raw["conclusive"], calls["polynomial.irreducibility_certificate"]
            ),
            "polynomial.precision_errors": raw["precision_errors"],
            "braid.reduced_burau.letters": raw["letters"],
            "freegroup.iterate_lengths.letters_out": raw["letters_out"],
            "freegroup.budget_error_ratio": ratio(raw["budget_errors"], raw["engine_calls"]),
        }
        units = metric_names()
        out.update({name: (value, units[name]) for name, value in values.items()})
        return out

    def bucket_breakdown(self):
        """{bucket: {function: {"calls", "self_s", "self_s_per_call"}}} for
        every function that ran in that bucket."""
        out = {}
        for (bucket, label), (calls, own) in sorted(self.by_bucket.items()):
            out.setdefault(bucket, {})[label] = {
                "calls": calls,
                "self_s": round(own, 6),
                "self_s_per_call": round(own / calls, 6),
            }
        return out
