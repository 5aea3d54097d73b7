"""Span tracer for the traced benchmark run.

The tracer wraps public callables of factorchain's modules by name, from
outside the package: every module binding that holds the original object
is replaced by a wrapper while the tracer is installed, and restored by
``uninstall``.  Nothing under ``src/`` changes, and an untraced run never
installs a wrapper.

Each wrapped call becomes a span (name, start, end, parent, phase, round).
A span's self time is its duration minus the time its direct children
cover, which matters because ``RefinedOperator`` nests Horner loops
inside Horner loops.  Counts (matvec columns, power-iteration steps,
normals drawn) are recorded at the same boundaries.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from statistics import median

# (module defining the callable, attribute, span name, only these bindings)
# None as the last field means every factorchain module binding that holds
# the original object, so calls made through any import path are caught.
FUNCTION_TARGETS = (
    ("factorchain.sparse", "validate_sddm", "sparse.validate", None),
    ("factorchain.sparse", "normalize", "sparse.normalize", None),
    ("factorchain.sparsify", "sparsify_square_step", "sparsify.step", None),
    ("factorchain.chain", "build_chain", "chain.build", None),
    ("factorchain.sparse", "nonneg_spectral_radius", "chain.radius", None),
    ("factorchain.chain", "refine_inverse_factor", "chain.refine", None),
    # chain.power_iteration is the refinement's spectrum estimate; the
    # binding in factorchain.sparse (radius, kappa) is left alone
    ("factorchain.chain", "power_iteration", "chain.refine_power",
     ("factorchain.chain",)),
    ("factorchain.chain", "solve", "chain.solve", None),
    ("factorchain.maclaurin", "apply_operator_poly", "maclaurin.horner", None),
    ("factorchain.sampler", "prepare", "sampler.prepare", None),
    ("factorchain.sampler", "sample", "sampler.color", None),
    ("factorchain.rng", "stream", "rng.stream", None),
    ("factorchain.serialize", "operator_bytes", "serialize.save", None),
    ("factorchain.serialize", "operator_from_bytes", "serialize.load", None),
)


class _CountingGenerator:
    """Generator proxy that times and counts standard normal draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("rng.stream"):
            out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.count("rng.normals", int(getattr(out, "size", 1)))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.record = {
            "id": len(tr.spans), "parent": None if parent is None else parent["id"],
            "name": self.name, "phase": tr.phase, "round": tr.round,
            "start": time.perf_counter(), "end": 0.0, "child_s": 0.0,
        }
        tr.spans.append(self.record)
        tr._stack.append(self.record)
        return self.record

    def __exit__(self, *exc):
        tr = self.tracer
        rec = tr._stack.pop()
        rec["end"] = time.perf_counter()
        if tr._stack:
            tr._stack[-1]["child_s"] += rec["end"] - rec["start"]
        return False


class Tracer:
    """Collects spans and counts; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.values: list[dict] = []
        self.phase = "setup"
        self.round = None
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, amount: int) -> None:
        self.counts.append({"name": name, "phase": self.phase,
                            "round": self.round, "n": int(amount)})

    def value(self, name: str, amount: float) -> None:
        """A number read off a result (degree, level nnz), not a tally."""
        self.values.append({"name": name, "phase": self.phase,
                            "round": self.round, "v": float(amount)})

    def inside(self, name: str) -> bool:
        return any(rec["name"] == name for rec in self._stack)

    def set_phase(self, phase: str, round_index=None) -> None:
        self.phase = phase
        self.round = round_index

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        if name == "rng.stream":
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    gen = fn(*args, **kwargs)
                return _CountingGenerator(gen, tracer)
        elif name == "chain.refine_power":
            def wrapper(matvec, *args, **kwargs):
                def counted(v):
                    tracer.count("chain.refine_power_steps", 1)
                    return matvec(v)
                with tracer.span(name):
                    return fn(counted, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    out = fn(*args, **kwargs)
                tracer._observe(name, out)
                return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, out) -> None:
        if name == "sparsify.step":
            self.value("sparsify.nnz_out", out[1].nnz_out)
        elif name == "chain.build":
            self.value("chain.levels", out.d)
            self.value("chain.level_nnz", sum(lv.full_nnz for lv in out.levels))
            self.value("chain.poly_degree_sum", sum(q.t for q in out.polys))
        elif name == "chain.refine":
            self.value("chain.refine_degree", out.info.degree)

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the targets in every loaded factorchain module."""
        import factorchain  # noqa: F401  (loads every submodule)
        from factorchain.sparse import SparseSymMatrix

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "factorchain"
                                         or key.startswith("factorchain."))]
        for home, attr, name, only in FUNCTION_TARGETS:
            orig = getattr(sys.modules[home], attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                if only is not None and mod.__name__ not in only:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

        orig_matvec = SparseSymMatrix.matvec
        tracer = self

        def matvec(mat, x):
            with tracer.span("sparse.matvec"):
                out = orig_matvec(mat, x)
            # a mean solve inside a sampling process is not colouring work
            name = ("sparse.matvec_cols_solve" if tracer.inside("chain.solve")
                    else "sparse.matvec_cols")
            tracer.count(name, 1 if out.ndim == 1 else out.shape[1])
            return out

        matvec.__wrapped__ = orig_matvec
        self._patch(SparseSymMatrix, "matvec", matvec)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def dump(self, path, extra: dict | None = None) -> None:
        body = {"spans": self.spans, "counts": self.counts, "values": self.values}
        body.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


# -- aggregation ---------------------------------------------------------------


def _groups(records, name, phases, field):
    """Per-(phase, round) totals of one record name, in the given phases."""
    out = defaultdict(float)
    for rec in records:
        if rec["name"] == name and rec["phase"] in phases:
            out[(rec["phase"], rec["round"])] += field(rec)
    return out


def span_time(spans, name, phases, *, self_time=False) -> float:
    """Median over (phase, round) groups of a span's summed time.

    Set-up phases form one group, so this is their total; a phase that
    repeats per round gives the median round.  A span that never ran
    reads 0.
    """
    if self_time:
        def field(r):
            return r["end"] - r["start"] - r["child_s"]
    else:
        def field(r):
            return r["end"] - r["start"]
    groups = _groups(spans, name, phases, field)
    return median(groups.values()) if groups else 0.0


def count_total(counts, name, phases) -> int:
    """Sum of a count over one group; raises if rounds disagree."""
    groups = _groups(counts, name, phases, lambda r: r["n"])
    distinct = set(groups.values())
    if len(distinct) > 1:
        raise RuntimeError(f"count {name} differs between rounds: {sorted(distinct)}")
    return int(distinct.pop()) if distinct else 0


def value_total(values, name) -> float:
    return sum(r["v"] for r in values if r["name"] == name)
