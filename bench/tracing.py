"""Spans and counters around public ffba names, for the traced run.

A span wrapper records (name, parent, job, start, end) for one call and
accumulates per-name calls, total time and self time (duration minus the
time covered by child spans).  Counter wrappers only count calls: they sit
on names called hundreds of thousands of times per job, where a span would
cost more than the work it measures.

Wrappers are installed by rebinding names where their callers look them
up: a module-level function is replaced in every ffba module (and the
package) that holds a reference to it, and a method is replaced on the
class that defines it.  ``uninstall`` restores every original, so rounds
run untraced in the same process pay nothing.  A name that does not exist
(for example after a refactor) is recorded as absent; metrics derived from
it are left out of the report rather than read as zero.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

# span metric -> targets "module:attribute path"; several targets may feed
# one metric (a method defined on several classes, or a to/from pair)
SPANS = {
    "linalg.left_null_lexmin": ["ffba.linalg:left_null_lexmin"],
    "linalg.rref": ["ffba.linalg:rref"],
    "linalg.nullspace": ["ffba.linalg:nullspace"],
    "linalg.solve": ["ffba.linalg:solve"],
    "linalg.RankEngine.add": ["ffba.linalg:RankEngine.add"],
    "linalg.RankEngine.contains": ["ffba.linalg:RankEngine.contains"],
    "hankel.left_null_vector": ["ffba.hankel:left_null_vector"],
    "hankel.HankelView.stacked_rows": ["ffba.hankel:HankelView.stacked_rows"],
    "hankel.square_invertibility_spectrum": ["ffba.hankel:square_invertibility_spectrum"],
    "indices.indices_sequence": ["ffba.indices:indices_sequence"],
    "indices.rationality_probe": ["ffba.indices:rationality_probe"],
    "targets.gamma_prefix": ["ffba.targets:gamma_prefix"],
    "targets.verify_certificate": ["ffba.targets:verify_certificate"],
    "targets.extension_counts": ["ffba.targets:extension_counts"],
    "targets.survivor_cylinders": ["ffba.targets:survivor_cylinders"],
    "targets.Certificate.json": ["ffba.targets:Certificate.to_json",
                                 "ffba.targets:Certificate.from_json"],
    "cantor.dimension_lower_bound": ["ffba.cantor:dimension_lower_bound"],
    "cantor.validate_tree_like": ["ffba.cantor:validate_tree_like"],
    "verify.c_depth_weighted": ["ffba.verify:c_depth_weighted"],
    "verify.compare_weighted_constants": ["ffba.verify:compare_weighted_constants"],
    "verify.find_witness_small": ["ffba.verify:find_witness_small"],
    "verify.m0_structure": ["ffba.verify:m0_structure"],
    "series.period_info": ["ffba.series:CoefficientSource.period_info",
                           "ffba.series:PeriodicSource.period_info",
                           "ffba.series:RationalSource.period_info",
                           "ffba.series:RuleSource.period_info"],
    "series.expand_rational": ["ffba.series:expand_rational"],
    "field.Field.of_order": ["ffba.field:Field.of_order"],
    "cli.main": ["ffba.cli:main"],
}

COUNTERS = {
    "series.coefficient.pulls": ["ffba.series:FiniteSource.coefficient",
                                 "ffba.series:PeriodicSource.coefficient",
                                 "ffba.series:RationalSource.coefficient",
                                 "ffba.series:RuleSource.coefficient"],
    "polynomial.divmod.calls": ["ffba.polynomial:Poly.__divmod__"],
    "weights.GeneralizedWeight.eval.calls": ["ffba.weights:GeneralizedWeight.eval"],
}

LAYERS = ("linalg", "hankel", "indices", "targets", "cantor", "verify", "series",
          "polynomial", "weights", "field", "cli")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _cells(args, kwargs, result):
    return {"hankel.left_null_vector.cells":
            _arg(args, kwargs, 2, "rows") * _arg(args, kwargs, 3, "cols")}


def _walk_counts(args, kwargs, trace):
    return {"indices.indices_sequence.columns_scanned":
            sum(st.scan_width for st in trace.stages[1:]),
            "indices.indices_sequence.stages_found": len(trace.found_stages()) - 1}


def _checks(args, kwargs, report):
    return {"targets.verify_certificate.checks": len(report.checks)}


def _grew(args, kwargs, grew):
    return {"linalg.RankEngine.add.grew": 1 if grew else 0}


def _states(args, kwargs, info):
    """Remainder states hashed by a rational source's period search:
    preperiod + period, counted once per source object."""
    src = args[0]
    if info is None or getattr(src, "_bench_states_counted", False):
        return {}
    src._bench_states_counted = True
    return {"series.period_info.states": info[0] + info[1]}


# exact counts derived from a wrapped call's arguments or result:
# target -> (function returning {metric: increment}, metrics it feeds)
EXTRAS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "ffba.hankel:left_null_vector": (_cells, ("hankel.left_null_vector.cells",)),
    "ffba.indices:indices_sequence": (_walk_counts, (
        "indices.indices_sequence.columns_scanned",
        "indices.indices_sequence.stages_found")),
    "ffba.targets:verify_certificate": (_checks, ("targets.verify_certificate.checks",)),
    "ffba.linalg:RankEngine.add": (_grew, ("linalg.RankEngine.add.grew",)),
    "ffba.series:RationalSource.period_info": (_states, ("series.period_info.states",)),
}


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.fails: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.broken: set[str] = set()           # extras whose result lookup failed
        self.job = -1
        # spans: name index, parent span index (-1 = none), job, start, end
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_job = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack: list[list] = []            # [span index, child time]
        self._saved: list[tuple] = []

    # --- wrappers ------------------------------------------------------

    def _fail(self, metric: str, exc: BaseException) -> None:
        if not getattr(exc, "_bench_counted", False):
            try:
                exc._bench_counted = True
            except AttributeError:
                pass
            self.fails[metric.split(".", 1)[0]] += 1

    def span(self, metric: str, fn: Callable, extra: Callable | None,
             target: str) -> Callable:
        if metric not in self.stats:
            self.stats[metric] = [0, 0.0, 0.0]
            self.names.append(metric)
        stats = self.stats[metric]
        name_id = self.names.index(metric)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.sp_name)
            tracer.sp_name.append(name_id)
            tracer.sp_parent.append(stack[-1][0] if stack else -1)
            tracer.sp_job.append(tracer.job)
            tracer.sp_start.append(0.0)
            tracer.sp_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._fail(metric, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.sp_start[idx] = start
                tracer.sp_end[idx] = end
            if extra is not None and target not in tracer.broken:
                try:
                    for key, value in extra(args, kwargs, result).items():
                        tracer.counts[key] += value
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.broken.add(target)
            return result

        return wrapper

    def counter(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._fail(metric, exc)
                raise

        return wrapper

    # --- installation --------------------------------------------------

    def _resolve(self, target: str):
        """(owner, attribute, raw value) for "module:Class.attr" or
        "module:function"; None when the name does not exist."""
        mod_name, _, path = target.partition(":")
        owner = sys.modules.get(mod_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        attr = parts[-1]
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return None
        return owner, attr, raw

    def _rebind(self, owner, attr: str, raw, make: Callable) -> None:
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        new = make(raw)
        for name, mod in list(sys.modules.items()):
            if name != "ffba" and not name.startswith("ffba."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._saved.append((mod, key, raw))
                    setattr(mod, key, new)

    def install(self) -> None:
        for metric, targets in SPANS.items():
            found = False
            for target in targets:
                hit = self._resolve(target)
                if hit is None:
                    continue
                found = True
                extra = EXTRAS[target][0] if target in EXTRAS else None
                self._rebind(*hit, lambda fn, m=metric, t=target, e=extra:
                             self.span(m, fn, e, t))
            if not found:
                self.absent.add(metric)
            for target in targets:
                if target in EXTRAS and self._resolve(target) is None:
                    self.absent.update(EXTRAS[target][1])
        for metric, targets in COUNTERS.items():
            found = False
            for target in targets:
                hit = self._resolve(target)
                if hit is not None:
                    found = True
                    self._rebind(*hit, lambda fn, m=metric: self.counter(m, fn))
            if not found:
                self.absent.add(metric)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # --- snapshots and output ------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-name figures, for differencing around a round."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.fail"] = self.fails.get(layer, 0)
        return out

    def broken_metrics(self) -> set[str]:
        return {m for target in self.broken for m in EXTRAS[target][1]}

    def write_spans(self, path: str) -> int:
        """Write every span as a tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tjob\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.sp_name)):
                fh.write(f"{i}\t{names[self.sp_name[i]]}\t{self.sp_parent[i]}\t"
                         f"{self.sp_job[i]}\t{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\n")
        return len(self.sp_name)
