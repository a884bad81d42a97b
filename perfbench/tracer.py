"""Spans around the calls into each fgindex module, installed from outside.

``Tracer.install()`` replaces each wrapped function in every ``fgindex``
module namespace that holds it (methods on their class), and ``uninstall()``
puts the originals back, so no file under ``src/`` is edited.  Letters are read
from ``Budget.used`` at span boundaries; the budget is captured by wrapping
``RunConfig.make_budget``.  Per-letter and per-position calls
(``Budget.charge``, ``inverse_letter_image``, ``Stream._extend``) are never
wrapped, so the traced run executes the same work.

A name that no longer exists is recorded in ``missing``; the metrics that
depend on it are reported as missing rather than as zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span, module, class or None, attribute).  Two attributes may share a span;
# nested calls of a span already open (recursion) are not timed again.
SPANS = (
    ("sweep", "singularities", None, "find_all"),
    ("full_level", "singularities", None, "_full_level"),
    ("eps_level", "singularities", None, "_eps_level"),
    ("merge", "singularities", None, "merge"),
    ("gamma_bound", "gamma", None, "gamma_bound"),
    ("all_matches", "gamma", None, "all_matches"),
    ("star_index", "gamma", None, "star_index"),
    ("loops", "prefix_suffix", None, "loops"),
    ("counts", "automorphism", "Automorphism", "image_lengths"),
    ("counts", "automorphism", "Automorphism", "occurrence_matrix"),
    ("build_graph", "sgraph", None, "build_graph"),
    ("fo_index", "sgraph", None, "fo_index"),
    ("components", "sgraph", None, "components"),
    ("attracting_reps", "sgraph", None, "attracting_reps"),
)
# Called once per candidate window pair: counted, not timed.
COUNTED = ("window_equal", "gamma", "Stream", "window_equal")
BUDGET_HOOK = ("config", "RunConfig", "make_budget")

LEVEL_SPANS = ("full_level", "eps_level")
PACKAGE = "fgindex"


class _Frame:
    __slots__ = ("name", "t0", "budget", "used0", "child", "desc", "desc_used")

    def __init__(self, name, t0, budget):
        self.name = name
        self.t0 = t0
        self.budget = budget
        self.used0 = budget.used if budget is not None else 0
        self.child = 0.0
        self.desc = defaultdict(float)
        self.desc_used = defaultdict(int)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.open = defaultdict(int)
        self.seconds = defaultdict(float)
        self.letters = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = set()
        self.budget = None
        self.input_label = None
        self.levels = {}
        self._last_level_end = 0.0
        self._patches = []

    # -- installation ---------------------------------------------------------

    def _module(self, short):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _package_modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _replace(self, owner_mod, cls_name, attr, make_wrapper):
        """Swap one function for its wrapper everywhere it is bound."""
        mod = self._module(owner_mod)
        if cls_name is not None:
            cls = getattr(mod, cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                return False
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, make_wrapper(orig))
            return True
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            return False
        wrapper = make_wrapper(orig)
        for m in self._package_modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._patches.append((m, key, orig))
                    setattr(m, key, wrapper)
        return True

    def install(self):
        for span, mod, cls, attr in SPANS:
            if not self._replace(mod, cls, attr, lambda fn, s=span: self._span(s, fn)):
                self.missing.add(span)
        name, mod, cls, attr = COUNTED
        if not self._replace(mod, cls, attr, self._counter):
            self.missing.add(name)
        mod, cls, attr = BUDGET_HOOK
        if not self._replace(mod, cls, attr, self._budget_hook):
            self.missing.add("budget")

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.open[name]:
                return fn(*args, **kwargs)
            frame = self._enter(name, args)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, args, None, exc)
                raise
            self._exit(frame, args, out, None)
            return out

        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["window_equal_calls"] += 1
            if out:
                self.counts["window_equal_hits"] += 1
            return out

        return wrapper

    def _budget_hook(self, fn):
        def wrapper(*args, **kwargs):
            self.budget = fn(*args, **kwargs)
            return self.budget

        return wrapper

    # -- span bookkeeping -----------------------------------------------------

    def begin_input(self, label):
        self.input_label = label

    def _enter(self, name, args):
        now = self.clock()
        if name == "sweep":
            self._last_level_end = now
        elif name in LEVEL_SPANS:
            key = (self.input_label, args[1])
            if key not in self.levels:
                self.levels[key] = {
                    "input": self.input_label,
                    "level": args[1],
                    "mode": None,
                    "gate_s": now - self._last_level_end,
                    "wall_s": 0.0,
                    "letters": 0,
                    "gamma_bound_s": 0.0,
                    "all_matches_self_s": 0.0,
                    "merge_s": 0.0,
                    "classes": None,
                }
        self.open[name] += 1
        frame = _Frame(name, now, self.budget)
        self.stack.append(frame)
        return frame

    def _exit(self, frame, args, out, exc):
        now = self.clock()
        self.stack.pop()
        self.open[frame.name] -= 1
        dt = now - frame.t0
        if self.budget is None:
            used = 0
        elif frame.budget is self.budget:
            used = self.budget.used - frame.used0
        else:
            # The budget was made inside this span (the sweep): it started at 0.
            used = self.budget.used
        self._add(frame.name, dt, used)
        self.calls[frame.name] += 1
        if self.stack:
            self.stack[-1].child += dt
        name = frame.name
        if name == "all_matches":
            self._add(
                "all_matches_self",
                dt - frame.desc["gamma_bound"],
                used - frame.desc_used["gamma_bound"],
            )
            n = len(args[3])
            self.counts["affix_pairs"] += n * (n - 1) // 2
            if out is not None:
                self.counts["matches"] += len(out)
        elif name == "loops" and out is not None:
            self.counts["loops"] += len(out)
        elif name == "sweep":
            self.seconds["gate"] += dt - frame.child
            self.letters["charged"] += used
        elif name in LEVEL_SPANS:
            rec = self.levels[(self.input_label, args[1])]
            rec["wall_s"] += dt
            rec["letters"] += used
            rec["gamma_bound_s"] += frame.desc["gamma_bound"]
            rec["all_matches_self_s"] += frame.desc["all_matches_self"]
            rec["merge_s"] += frame.desc["merge"]
            rec["classes"] = len(args[2])
            self._last_level_end = now
            if name == "full_level":
                if exc is None:
                    rec["mode"] = "full"
                elif type(exc).__name__ == "BudgetExceeded":
                    rec["mode"] = "full-aborted"
            else:
                rec["mode"] = "full->eps" if rec["mode"] == "full-aborted" else "eps"

    def _add(self, name, dt, used):
        self.seconds[name] += dt
        self.letters[name] += used
        for f in self.stack:
            f.desc[name] += dt
            f.desc_used[name] += used

    # -- results --------------------------------------------------------------

    def level_records(self):
        return sorted(self.levels.values(), key=lambda r: (r["input"], r["level"]))
