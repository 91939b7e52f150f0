"""Spans around the public entry points of each dotesd module.

The tracer wraps functions from outside the package: it swaps each target for
a timing wrapper in every loaded dotesd module that holds it, so calls made
through `from .x import y` bindings are caught too, and restores the
originals on uninstall. A target that a later version of the package removed
or renamed is listed as absent and simply not traced.

Each call records one span (name, start, end, parent index, work counts).
Spans stay in memory; the caller takes them round by round, so parent
indices always point into the round's own list, and writes them out when
the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

from reference import block_count

# (span name, module, attribute path) for every wrapped entry point.
TARGETS = (
    ("cli.main", "dotesd.cli", "main"),
    ("config.load", "dotesd.config", "load_config"),
    ("material.couplings", "dotesd.material", "generate_couplings"),
    ("boxmodel.sector_weights", "dotesd.boxmodel", "sector_weights"),
    ("boxmodel.channel_init", "dotesd.boxmodel", "BoxChannel.__init__"),
    ("boxmodel.eval", "dotesd.boxmodel", "BoxChannel.evaluate"),
    ("entanglement.closed_form", "dotesd.entanglement", "concurrence_closed_form"),
    ("experiments.sweep", "dotesd.experiments", "sweep_b"),
    ("experiments.tsd_search", "dotesd.experiments", "find_sudden_death"),
    ("dephasing.factor", "dotesd.dephasing", "dephasing_factor"),
    ("dephasing.fit", "dotesd.dephasing", "fit_t2star"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []
        self._distinct: dict[int, tuple] = {}  # id(a_k) -> (a_k, distinct)

    def _call(self, name, fn, args, kwargs, work=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, {}]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            # Counting is the tracer's own cost: book it as a child span of
            # the caller so it lands in no layer's self time.
            start = time.perf_counter()
            span[4] = work(args, kwargs, result)
            self.spans.append(["trace.bookkeeping", start, time.perf_counter(), parent, {}])
        return result

    def _distinct_count(self, a_k) -> int:
        key = id(a_k)
        if key not in self._distinct:
            self._distinct[key] = (a_k, int(np.unique(a_k).size))
        return self._distinct[key][1]

    # Work counts, computed after the span has closed.
    def _init_work(self, args, _kwargs, _):
        return {"blocks": block_count(int(args[0].n_spins))}

    def _eval_work(self, args, kwargs, _):
        times = args[1] if len(args) > 1 else kwargs["times"]
        return {"block_times": block_count(int(args[0].n_spins)) * int(np.size(times))}

    def _couplings_work(self, _args, _kwargs, result):
        return {"couplings": len(result.a_k), "distinct": self._distinct_count(result.a_k)}

    def _factor_work(self, args, kwargs, _):
        couplings = args[0] if args else kwargs["couplings"]
        times = args[1] if len(args) > 1 else kwargs["times"]
        return {"coupling_times": self._distinct_count(couplings.a_k) * int(np.size(times))}

    def _wrapper(self, name, fn):
        work = {
            "boxmodel.channel_init": self._init_work,
            "boxmodel.eval": self._eval_work,
            "material.couplings": self._couplings_work,
            "dephasing.factor": self._factor_work,
        }.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "boxmodel.eval":
                times = args[1] if len(args) > 1 else kwargs["times"]
                span_name = "boxmodel.grid_eval" if np.size(times) > 1 else "boxmodel.point_eval"
            return tracer._call(span_name, fn, args, kwargs, work)

        return traced

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrapper(name, original)
            if owners:
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "dotesd" and not mod_name.startswith("dotesd."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take_spans(self) -> list[list]:
        """The spans recorded since the last call; call it between rounds.

        Parent indices of the returned spans index the returned list. The
        distinct-coupling cache is dropped too, so its arrays are freed.
        """
        assert not self._stack, "take_spans called inside a traced call"
        spans, self.spans = self.spans, []
        self._distinct.clear()
        return spans
