"""Timed calls, output checks, spans and per-module profiles for the benchmark.

Every call the benchmark makes into graphld goes through ``Recorder.call``: it
is one op, timed as a span.  ``Recorder.check`` attaches an output check to
the most recent op; an op fails when its call raises or any of its checks
fails, and ``failed / attempted`` is the run's error rate.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import math
import os
import pstats
import resource
import time
from typing import Dict, List

# graphld modules, one layer each
MODULES = ("samplers", "empirical", "measures", "trees", "rates", "gibbs", "cli")

# call counters read from a deterministic profile: metric -> (module, qualname)
COUNTED = {
    "trees.canonical_tree_inits": ("trees", "CanonicalTree.__init__"),
    "trees.truncate_calls": ("trees", "truncate"),
    "trees.split_at_child_calls": ("trees", "split_at_child"),
    "measures.pair_measure_calls": ("measures", "pair_measure"),
    "rates.one_step_extension_calls": ("rates", "one_step_extension"),
}


def _cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class OpFailed(Exception):
    """A recorded call raised; the enclosing ``Recorder.section`` skips the rest."""


class Recorder:
    """Spans, op outcomes, input sizes and result digests of one benchmark run."""

    def __init__(self, run_id: str, force_fail=()):
        self.run_id = run_id
        self.force_fail = set(force_fail)
        self.spans: List[dict] = []
        self.failures: List[dict] = []
        self.sizes: List[Dict[str, float]] = []
        self.digests: List[str] = []
        self.child_profiles: List[dict] = []
        self.profile_children = False
        self._iteration = -1
        self._parent = None
        self._hash = None

    # ------------------------------------------------------------ iterations

    def begin(self, iteration: int) -> None:
        self._iteration = iteration
        self._parent = len(self.spans)
        self.spans.append({"id": self._parent, "name": "iteration", "parent": None,
                           "run_id": self.run_id, "iteration": iteration,
                           "start": time.perf_counter(), "end": None, "failed": False})
        self.sizes.append({})
        self._hash = hashlib.sha256()
        self._cpu0 = _cpu_seconds()

    def end(self) -> Dict[str, float]:
        """Seconds of the iteration: its span (``wall_s``), the sum of its op
        spans (``ops_s``, the calls without the benchmark's own checks), and
        the CPU time of this process and its finished children (``cpu_s``)."""
        span = self.spans[self._parent]
        span["end"] = time.perf_counter()
        self.digests.append(self._hash.hexdigest())
        ops = self.spans[self._parent + 1:]
        return {"wall_s": span["end"] - span["start"],
                "ops_s": math.fsum(s["end"] - s["start"] for s in ops),
                "cpu_s": _cpu_seconds() - self._cpu0}

    @contextlib.contextmanager
    def section(self):
        """Run a dependent group of ops; a raising op or check skips the rest.

        A check that raises (say, on an output file the program did not
        write) fails the most recent op.
        """
        try:
            yield
        except OpFailed:
            pass
        except Exception as e:
            self._fail(self.spans[-1], "check_raised", f"{type(e).__name__}: {e}")

    # ------------------------------------------------------------ ops

    def call(self, metric: str, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": metric, "parent": self._parent,
                "run_id": self.run_id, "iteration": self._iteration,
                "start": time.perf_counter(), "end": None, "failed": False}
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        except Exception as e:
            span["end"] = time.perf_counter()
            self._fail(span, "raised", f"{type(e).__name__}: {e}")
            raise OpFailed(metric) from e
        span["end"] = time.perf_counter()
        return out

    def check(self, name: str, ok: bool, detail="") -> bool:
        """Output check on the most recent op; a failure fails that op."""
        ok = bool(ok) and name not in self.force_fail
        if not ok:
            self._fail(self.spans[-1], name, detail)
        return ok

    def _fail(self, span: dict, check: str, detail) -> None:
        self.failures.append({"iteration": self._iteration, "op": span["name"],
                              "check": check, "detail": str(detail)})
        span["failed"] = True

    @property
    def ops(self) -> List[dict]:
        return [s for s in self.spans if s["name"] != "iteration"]

    # ------------------------------------------------------------ sizes, digests

    def add(self, name: str, value) -> None:
        """Accumulate an input or output size of the current iteration."""
        cur = self.sizes[-1]
        cur[name] = cur.get(name, 0) + value

    def digest(self, label: str, value) -> None:
        """Fold a result into the iteration's determinism digest."""
        self._hash.update(f"{label}={value!r};".encode())

    # ------------------------------------------------------------ per-layer times

    def op_seconds(self, iteration: int) -> Dict[str, float]:
        """Total span time per op name within one iteration."""
        out: Dict[str, float] = {}
        for s in self.ops:
            if s["iteration"] == iteration:
                out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
        return out


# ---------------------------------------------------------------- profiles


def _code_key(module: str, qualname: str):
    obj = importlib.import_module(f"graphld.{module}")
    try:
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = inspect.unwrap(obj).__code__
    except AttributeError:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_summary(stats: pstats.Stats) -> dict:
    """Self time and call count per graphld module, plus the named counters."""
    modules = {m: {"self_s": 0.0, "calls": 0} for m in MODULES}
    raw = stats.stats
    for (filename, _, _), (_, nc, tt, _, _) in raw.items():
        head, base = os.path.split(filename)
        mod = base[:-3] if base.endswith(".py") else None
        if os.path.basename(head) == "graphld" and mod in modules:
            modules[mod]["self_s"] += tt
            modules[mod]["calls"] += nc
    counters = {}
    for metric, (module, qualname) in COUNTED.items():
        key = _code_key(module, qualname)
        counters[metric] = raw[key][1] if key in raw else 0
    return {"modules": modules, "counters": counters}


def merge_summaries(parts: List[dict]) -> dict:
    out = {"modules": {m: {"self_s": 0.0, "calls": 0} for m in MODULES},
           "counters": {k: 0 for k in COUNTED}}
    for p in parts:
        for m, row in p["modules"].items():
            out["modules"][m]["self_s"] += row["self_s"]
            out["modules"][m]["calls"] += row["calls"]
        for k, v in p["counters"].items():
            out["counters"][k] += v
    return out
