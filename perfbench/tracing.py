"""Outside-in span tracing of the opclass layers.

The tracer wraps public functions of the package from outside: every module
of the package that holds a binding of a wrapped function (``from .linalg
import psd_power`` copies the binding into ``membership`` and
``decomposition``) gets the wrapper, so nested calls open nested spans.
Spans hold a name, a start, an end and a parent index. They stay in memory
in flat arrays and are aggregated into per-layer metrics when the run ends.

Self time of a span is its duration minus the durations of its direct
child spans. Time spent on measurement-only work (the sweep-only re-run of
``pencil_check``) is recorded as an excluded span and subtracted from every
enclosing span and from the traced wall time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

_EXCLUDED = "trace.excluded"
_DEFECT = "membership.sphere_check.defect"

LINALG_FUNCS = (
    "psd_power", "hermitian_eigen", "operator_norm", "matrix_power",
    "kernel", "subspace_intersect", "preimage_in",
)
ALGEBRAIC = (
    "is_normal", "is_quasinormal", "quasinormal_embry", "is_hyponormal",
    "is_p_hyponormal", "is_class_a", "is_normaloid",
)
DUAL = ("is_k_quasi_paranormal", "is_k_paranormal", "is_absolute_k_paranormal")
PENCIL_BUILDERS = (
    "quasi_paranormal_pencil", "k_paranormal_pencil", "absolute_k_paranormal_pencil",
)
DECOMPOSITIONS = ("root_decompose", "normal_pure_split", "nilpotent2_canonical", "rr_assemble")
BUILDERS = (
    "random_unitary", "random_normal", "random_ginibre", "jordan_nilpotent",
    "normaloid_counterexample", "root_of_scalar_instance", "k_quasi_member",
    "rr_instance", "build",
)

# Metric prefix -> span names it covers. ``s`` of a group counts only spans
# with no ancestor in the same group, so nested builders are not counted twice.
GROUPS: dict[str, tuple[str, ...]] = {
    "membership.sphere_check": ("membership.sphere_check",),
    _DEFECT: (_DEFECT,),
    "membership.pencil_check": ("membership.pencil_check",),
    "membership.pencil_build": tuple(f"membership.{f}" for f in PENCIL_BUILDERS),
    "membership.dual": tuple(f"membership.{f}" for f in DUAL),
    "membership.algebraic": tuple(f"membership.{f}" for f in ALGEBRAIC),
    **{f"linalg.{f}": (f"linalg.{f}",) for f in LINALG_FUNCS},
    **{f"decomposition.{f}": (f"decomposition.{f}",) for f in DECOMPOSITIONS},
    "generators": tuple(f"generators.{f}" for f in BUILDERS),
    "matio.load_matrix": ("matio.load_matrix",),
    "matio.save_matrix": ("matio.save_matrix",),
    "cli.main": ("cli.main",),
}

VERDICT_KEYS = ("member", "nonmember_sphere", "nonmember_pencil",
                "nonmember_algebraic", "inconclusive")


class Tracer:
    """In-memory span store plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.paused = False
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """Span-recording wrapper; ``after(result, args, kwargs)`` runs once
        the span is closed."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def excluded(self, fn, *args, **kwargs) -> float:
        """Run measurement-only work untraced; returns its seconds."""
        idx = self._open(self._nid(_EXCLUDED))
        self.paused = True
        try:
            fn(*args, **kwargs)
        finally:
            self.paused = False
            self._close(idx)
        return self.end[idx] - self.start[idx]

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every binding of ``original`` in the package at
        ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "opclass" or mod_name.startswith("opclass.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import opclass.cli as cli
        import opclass.decomposition as decomposition
        import opclass.generators as generators
        import opclass.linalg as linalg
        import opclass.matio as matio
        import opclass.membership as membership

        def simple(mod, func, prefix, after=None):
            orig = getattr(mod, func)
            self._rebind(orig, self.wrap(orig, f"{prefix}.{func}", after))

        for f in LINALG_FUNCS:
            simple(linalg, f, "linalg")
        for f in ALGEBRAIC + DUAL:
            simple(membership, f, "membership", self._count_verdict)
        for f in PENCIL_BUILDERS:
            simple(membership, f, "membership")
        for f in DECOMPOSITIONS:
            simple(decomposition, f, "decomposition")
        for f in BUILDERS:
            simple(generators, f, "generators")
        simple(matio, "load_matrix", "matio")
        simple(matio, "save_matrix", "matio", self._count_bytes)
        simple(cli, "main", "cli")

        sphere = membership.sphere_check
        self._rebind(sphere, self.wrap(self._with_counted_defect(sphere),
                                       "membership.sphere_check"))
        pencil = membership.pencil_check
        self._rebind(pencil, self._with_sweep(self.wrap(pencil, "membership.pencil_check"),
                                              pencil))
        evaluate = membership.PencilSpec.evaluate
        self._patches.append((membership.PencilSpec, "evaluate", evaluate))
        membership.PencilSpec.evaluate = self._counted_evaluate(evaluate)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- counters at layer boundaries --------------------------------------

    def _count_verdict(self, verdict, args, kwargs) -> None:
        status = verdict.status.value
        if status == "Member":
            self.count("verdicts.member")
        elif status == "Inconclusive":
            self.count("verdicts.inconclusive")
        else:
            self.count(f"verdicts.nonmember_{verdict.oracle}")

    def _count_bytes(self, result, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.count("matio.bytes_written", os.path.getsize(path))

    def _with_counted_defect(self, sphere_check):
        nid = self._nid(_DEFECT)

        def counted(defect):
            def f(x):
                self.count("sphere.defect_columns", x.shape[1] if x.ndim == 2 else 1)
                idx = self._open(nid)
                try:
                    return defect(x)
                finally:
                    self._close(idx)

            return f

        @functools.wraps(sphere_check)
        def wrapper(defect, *args, **kwargs):
            if self.paused:
                return sphere_check(defect, *args, **kwargs)
            return sphere_check(counted(defect), *args, **kwargs)

        return wrapper

    def _with_sweep(self, traced, original):
        """After each traced pencil_check, re-run the same spec with no
        refinement, untraced, to time the grid sweep alone."""

        @functools.wraps(original)
        def wrapper(pencil, *args, **kwargs):
            result = traced(pencil, *args, **kwargs)
            if not self.paused:
                kwargs = dict(kwargs, max_refine=0)
                self.count("pencil.sweep_s", self.excluded(original, pencil, *args, **kwargs))
            return result

        return wrapper

    def _counted_evaluate(self, evaluate):
        @functools.wraps(evaluate)
        def wrapper(spec, lams):
            if not self.paused:
                size = int(getattr(lams, "size", 1))
                self.count("pencil.lams_evaluated", size)
                if size == 1:
                    self.count("pencil.refine_evals")
            return evaluate(spec, lams)

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span (name, parent index, start, end) to ``path`` as a
        compressed numpy archive; times are perf_counter seconds."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self._names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64),
        )

    # -- aggregation -------------------------------------------------------

    def aggregate(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        ``wall_s`` is the traced wall time including excluded work; the
        excluded time is taken off it here.
        """
        n = len(self.name)
        names = self._names
        excl_id = self._ids.get(_EXCLUDED, -1)
        group_bits = {g: 1 << i for i, g in enumerate(GROUPS)}
        name_mask = [0] * len(names)
        for g, members in GROUPS.items():
            for m in members:
                if m in self._ids:
                    name_mask[self._ids[m]] |= group_bits[g]

        dur = [self.end[i] - self.start[i] for i in range(n)]
        excl = [0.0] * n
        excluded_total = 0.0
        for i in range(n):
            if self.name[i] == excl_id:
                excluded_total += dur[i]
                p = self.parent[i]
                while p >= 0:
                    excl[p] += dur[i]
                    p = self.parent[p]
        eff = [dur[i] - excl[i] for i in range(n)]
        child = [0.0] * n
        anc = [0] * n
        covered = 0.0
        for i in range(n):
            if self.name[i] == excl_id:
                continue
            p = self.parent[i]
            if p >= 0:
                child[p] += eff[i]
                anc[i] = anc[p] | name_mask[self.name[p]]
            else:
                covered += eff[i]

        calls = dict.fromkeys(GROUPS, 0)
        busy = dict.fromkeys(GROUPS, 0.0)
        self_s = dict.fromkeys(GROUPS, 0.0)
        for i in range(n):
            mask = name_mask[self.name[i]]
            if not mask:
                continue
            for g, bit in group_bits.items():
                if mask & bit:
                    calls[g] += 1
                    self_s[g] += eff[i] - child[i]
                    if not anc[i] & bit:
                        busy[g] += eff[i]

        c = self.counters
        wall = wall_s - excluded_total
        out: dict[str, float] = {
            "membership.sphere_check.calls": calls["membership.sphere_check"],
            "membership.sphere_check.s": busy["membership.sphere_check"],
            "membership.sphere_check.self_s": self_s["membership.sphere_check"],
            "membership.sphere_check.defect_columns": c.get("sphere.defect_columns", 0),
            "membership.sphere_check.defect_s": busy[_DEFECT],
            "membership.pencil_check.calls": calls["membership.pencil_check"],
            "membership.pencil_check.s": busy["membership.pencil_check"],
            "membership.pencil_check.sweep_s": c.get("pencil.sweep_s", 0.0),
            "membership.pencil_check.refine_s": (
                busy["membership.pencil_check"] - c.get("pencil.sweep_s", 0.0)
            ),
            "membership.pencil.lams_evaluated": c.get("pencil.lams_evaluated", 0),
            "membership.pencil.refine_evals": c.get("pencil.refine_evals", 0),
            "membership.pencil_build.s": busy["membership.pencil_build"],
            "membership.dual.self_s": self_s["membership.dual"],
            "membership.algebraic.calls": calls["membership.algebraic"],
            "membership.algebraic.s": busy["membership.algebraic"],
        }
        for key in VERDICT_KEYS:
            out[f"membership.verdicts.{key}"] = c.get(f"verdicts.{key}", 0)
        for f in LINALG_FUNCS:
            out[f"linalg.{f}.calls"] = calls[f"linalg.{f}"]
            out[f"linalg.{f}.s"] = busy[f"linalg.{f}"]
        out["decomposition.root_decompose.calls"] = calls["decomposition.root_decompose"]
        out["decomposition.root_decompose.self_s"] = self_s["decomposition.root_decompose"]
        for f in DECOMPOSITIONS[1:]:
            out[f"decomposition.{f}.calls"] = calls[f"decomposition.{f}"]
            out[f"decomposition.{f}.s"] = busy[f"decomposition.{f}"]
        out["generators.calls"] = calls["generators"]
        out["generators.s"] = busy["generators"]
        for f in ("load_matrix", "save_matrix"):
            out[f"matio.{f}.calls"] = calls[f"matio.{f}"]
            out[f"matio.{f}.s"] = busy[f"matio.{f}"]
        out["matio.bytes_written"] = c.get("matio.bytes_written", 0)
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        out["trace.unattributed_share"] = (wall - covered) / wall if wall > 0 else 0.0
        out["trace.wall_s"] = wall
        out["trace.spans"] = n
        return out
