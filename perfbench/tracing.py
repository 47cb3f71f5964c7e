"""Span tracer that wraps nnloop's public functions from outside the package.

Each wrapper is installed at the name its caller resolves at call time (for
example ``nnloop.sdp.solve_conic``, which ``sdp`` imported from ``ipm``), so
the package itself is not modified.  Every wrapped call pushes a frame; when it
returns, its duration is charged to its parent frame, and its self time
(duration minus its children) to its layer.  Self times therefore add up to
the root span, the ``nnloop.cli.main`` call of one CLI command.

Calls marked fine-grained (``forward``, ``joint_quad``, ``step``, ``govern``)
run thousands of times per command; they are kept as a count and a total time
under their parent span instead of one span each.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (owner, attribute, layer, fine-grained).  The owner is a module path, or
# "module:Class" for a method.
TARGETS = (
    ("nnloop.cli", "main", "cli", False),
    ("nnloop.cli", "build_pendulum", "plant", False),
    ("nnloop.cli", "augment", "plant", False),
    ("nnloop.cli", "steady_state", "plant", False),
    ("nnloop.cli", "steady_state_map", "plant", False),
    ("nnloop.cli", "load_nn", "network", False),
    ("nnloop.cli", "steady_forward", "network", False),
    ("nnloop.sectors", "propagate_box", "sectors", False),
    ("nnloop.sectors", "local_sectors", "sectors", False),
    ("nnloop.lmi", "build_selectors", "lmi", False),
    ("nnloop.lmi", "ref_sensitivity", "lmi", False),
    ("nnloop.lmi", "build_global", "lmi", False),
    ("nnloop.lmi", "build_local_fixed", "lmi", False),
    ("nnloop.lmi", "build_local_range", "lmi", False),
    ("nnloop.sdp", "solve_certified", "sdp", False),
    ("nnloop.sdp", "certify", "sdp.certify", False),
    ("nnloop.sdp", "solve_conic", "ipm", False),
    ("nnloop.roa", "joint_ellipsoid_for", "roa", False),
    ("nnloop.roa", "admissible_references", "roa", False),
    ("nnloop.closed_loop", "simulate", "closed_loop", False),
    ("nnloop.closed_loop", "simulate_with_governor", "closed_loop", False),
    ("nnloop.closed_loop", "write_trajectory_csv", "closed_loop", False),
    ("nnloop.closed_loop", "step", "closed_loop", True),
    ("nnloop.closed_loop", "govern", "closed_loop", True),
    ("nnloop.closed_loop", "forward", "network", True),
    ("nnloop.closed_loop", "admissible_references", "roa", True),
    ("nnloop.roa:JointEllipsoid", "joint_quad", "roa", True),
    ("nnloop.roa:JointEllipsoid", "joint_quad_many", "roa", True),
)

_BUILDS = ("build_global", "build_local_fixed", "build_local_range")


class _Frame:
    __slots__ = ("id", "name", "child_s", "fine")

    def __init__(self, span_id, name):
        self.id = span_id
        self.name = name
        self.child_s = 0.0
        self.fine = {}


class CommandStats:
    """What the wrappers saw during one CLI command."""

    def __init__(self, command_id):
        self.command_id = command_id
        self.wall_s = 0.0
        self.self_s = {}          # layer -> seconds
        self.calls = {}           # wrapped name -> [count, total seconds]
        self.n_scalars = None     # of the last LMI system built
        self.block_order_sum = 0
        self.ipm = []             # (kind, iterations, status, seconds)
        self.search_successes = 0
        self.govern_s = []        # one duration per govern call
        self.govern_active = 0

    def count(self, name) -> int:
        return self.calls.get(name, (0, 0.0))[0]

    def total_s(self, name) -> float:
        return self.calls.get(name, (0, 0.0))[1]


class Tracer:
    """Collects spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.stack = []
        self.spans = []
        self.next_id = 0
        self.stats = None

    def begin(self, command_id) -> None:
        self.stats = CommandStats(command_id)

    def end(self) -> CommandStats:
        stats, self.stats = self.stats, None
        return stats

    def call(self, name, attr, layer, fine, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(self.next_id, name)
        self.next_id += 1
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self._close(frame, layer, fine, parent, t0, t1)
        self._observe(attr, args, result, frame, t1 - t0)
        return result

    def _close(self, frame, layer, fine, parent, t0, t1):
        dur = t1 - t0
        stats = self.stats
        stats.self_s[layer] = stats.self_s.get(layer, 0.0) + dur - frame.child_s
        entry = stats.calls.setdefault(frame.name, [0, 0.0])
        entry[0] += 1
        entry[1] += dur
        if parent is None:
            stats.wall_s += dur
        else:
            parent.child_s += dur
            if fine:
                agg = parent.fine.setdefault(frame.name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur
        if not fine:
            self.spans.append({
                "id": frame.id,
                "parent": None if parent is None else parent.id,
                "command": stats.command_id,
                "name": frame.name,
                "layer": layer,
                "start": t0 - self.origin,
                "end": t1 - self.origin,
                "fine": {k: {"count": c, "total_s": s}
                         for k, (c, s) in frame.fine.items()},
            })

    def _observe(self, attr, args, result, frame, dur):
        stats = self.stats
        if attr in _BUILDS:
            stats.n_scalars = result.n_scalars
            stats.block_order_sum = sum(blk.order for blk in result.blocks)
        elif attr == "solve_conic":
            m = len(args[1])
            if m > stats.n_scalars + 1:
                kind = "search"
            elif m == stats.n_scalars + 1:
                kind = "phase1"
            else:
                kind = "phase2"
            stats.ipm.append((kind, result.iterations, result.status, dur))
        elif attr == "solve_certified":
            if any(kind == "search" for kind, *_ in stats.ipm) and \
                    result.status == "infeasible":
                stats.search_successes += 1
        elif attr == "govern":
            stats.govern_s.append(dur)
            if "JointEllipsoid.joint_quad_many" in frame.fine:
                stats.govern_active += 1


def _resolve(owner):
    """(object to patch, label prefix): "sdp" for a module, the class name
    for a method."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        return getattr(obj, cls), cls
    return obj, module.rsplit(".", 1)[-1]


def _wrapper(tracer, name, attr, layer, fine, fn):
    def wrapped(*args, **kwargs):
        return tracer.call(name, attr, layer, fine, fn, args, kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, layer, fine in TARGETS:
            obj, prefix = _resolve(owner)
            fn = getattr(obj, attr)
            label = f"{prefix}.{attr}"
            saved.append((obj, attr, fn))
            setattr(obj, attr, _wrapper(tracer, label, attr, layer, fine, fn))
        yield tracer
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)
