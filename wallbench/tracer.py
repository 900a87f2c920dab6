"""Outside-in layer tracer: exclusive (self) wall time per platform layer.

The tracer replaces the public entry points of each layer, at class
level, with wrappers that push a frame on a ``perf_counter_ns`` stack on
entry and pop it on exit.  A frame's self time is its duration minus the
durations of the frames opened inside it, so the self times of all
frames, plus the root frame the benchmark opens around its timed loop
(``harness``), add up to the loop's wall time.

Every wrapper calls through to the original and re-raises whatever it
raises; the wrapped program computes exactly what the unwrapped one does
(the benchmark checks this with its determinism witnesses).  Context
managers (``span``/``stage_span``) are timed on creation, enter and exit,
so the code running *inside* a span is charged to its own layer, not to
``obs``.

The patches are installed before a platform is built, because some
layers capture bound methods at construction, and removed after that
platform is discarded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
from collections import defaultdict

#: The root frame the benchmark opens around its timed loop.
HARNESS = "harness"

#: (layer, module, class, methods) — the boundary of every layer but the
#: pipeline stages, which are discovered (see :func:`stage_boundaries`).
BOUNDARIES: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("core.op", "repro.federation.platform", "FederatedPlatform",
     ("publish", "request_details", "subscribe")),
    ("core.gateway", "repro.core.gateway", "LocalCooperationGateway",
     ("persist", "get_response")),
    ("bus", "repro.bus.broker", "ServiceBus",
     ("publish", "publish_many", "dispatch")),
    ("federation.link", "repro.federation.link", "Link",
     ("call", "call_batch")),
    ("federation.index", "repro.federation.index", "FederatedIndexStore",
     ("store", "accept_remote", "flush")),
    ("crypto", "repro.crypto.cipher", "SealedBox", ("seal", "open")),
    ("xacml", "repro.xacml.pdp", "PolicyDecisionPoint",
     ("evaluate_policy_set", "evaluate_policy")),
    ("audit", "repro.audit.log", "AuditLog", ("append",)),
    ("storage", "repro.storage.engine", "JsonlRecordLog",
     ("append", "append_many")),
    ("storage", "repro.storage.segment", "SegmentedLog",
     ("append", "append_many")),
    ("storage", "repro.runtime.batching", "BatchWriter",
     ("append", "append_many", "flush")),
    ("obs", "repro.obs.telemetry", "InMemoryTelemetry",
     ("count", "gauge", "observe", "profile")),
    ("sched", "repro.sched.scheduler", "TenantScheduler",
     ("submit", "admit", "note_publish", "note_fanout", "drain")),
)

#: Context-manager entry points, timed on creation, enter and exit.
CONTEXT_BOUNDARIES: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("obs", "repro.obs.telemetry", "InMemoryTelemetry",
     ("span", "stage_span")),
)

#: Classes whose appends are durable commits (storage.records_per_commit).
RECORD_LOGS = {"JsonlRecordLog", "SegmentedLog"}

STAGE_MODULE = "repro.runtime.interceptors"


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def stage_boundaries() -> list[tuple[str, type]]:
    """``(core.stage.<name>, class)`` for every ``*Interceptor`` stage.

    ``<name>`` is the class name without the suffix, in snake case
    (``PolicyDecideInterceptor`` -> ``policy_decide``): the stages'
    own ``name`` attributes repeat across the two pipelines.
    """
    module = importlib.import_module(STAGE_MODULE)
    stages = []
    for name, cls in sorted(vars(module).items()):
        if not (inspect.isclass(cls) and name.endswith("Interceptor")):
            continue
        if cls.__module__ != module.__name__ or "intercept" not in vars(cls):
            continue
        if getattr(cls, "_is_protocol", False):
            continue
        stages.append((f"core.stage.{_snake(name[:-len('Interceptor')])}", cls))
    return stages


def layer_names() -> list[str]:
    """Every traced layer, in report order."""
    names: list[str] = []
    for layer, *_ in BOUNDARIES:
        if layer not in names:
            names.append(layer)
    names[1:1] = [layer for layer, _ in stage_boundaries()]
    return names


class _TracedContext:
    """A context manager whose enter and exit are charged to a layer."""

    __slots__ = ("_tracer", "_layer", "_inner")

    def __init__(self, tracer: "LayerTracer", layer: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._inner = inner

    def __enter__(self):
        self._tracer.enter(self._layer)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.exit(count=False)

    def __exit__(self, *exc_info):
        self._tracer.enter(self._layer)
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._tracer.exit(count=False)


class LayerTracer:
    """Exclusive-time accounting over a stack of layer frames."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Work counts measured at the boundaries (bytes, records, commits).
        self.counts: dict[str, int] = defaultdict(int)
        #: Boundaries named in the tables that the program does not have.
        self.missing: list[str] = []
        self._stack: list[list] = []  # [layer, start_ns, child_ns]
        self._patches: list[tuple[type, str, object]] = []

    # -- accounting -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter_ns(), 0])

    def exit(self, count: bool = True) -> None:
        end = time.perf_counter_ns()
        layer, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if count:
            self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def reset(self) -> None:
        """Forget everything recorded so far (set-up calls included)."""
        if self._stack:
            raise RuntimeError("tracer reset with open frames")
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary method; a no-op while already installed."""
        if self._patches:
            return
        self.missing = []
        for layer, module_name, class_name, methods in BOUNDARIES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(cls, method, layer, self._plain)
        for layer, module_name, class_name, methods in CONTEXT_BOUNDARIES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(cls, method, layer, self._context)
        for layer, cls in stage_boundaries():
            self._patch(cls, "intercept", layer, self._plain)

    def uninstall(self) -> None:
        """Put every original method back."""
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)

    def _patch(self, cls: type, method: str, layer: str, make) -> None:
        original = vars(cls).get(method)
        if original is None:
            self.missing.append(f"{cls.__name__}.{method}")
            return
        wrapper = make(original, layer, cls.__name__, method)
        setattr(cls, method, functools.wraps(original)(wrapper))
        self._patches.append((cls, method, original))

    def _plain(self, original, layer: str, class_name: str, method: str):
        enter, exit_ = self.enter, self.exit
        counts = self.counts
        if layer == "crypto":
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_()
                # seal(plaintext, sequence) -> token; open(token) -> plaintext
                if method == "seal":
                    plaintext = args[1] if len(args) > 1 else kwargs["plaintext"]
                else:
                    plaintext = result
                counts["crypto.bytes"] += len(plaintext.encode())
                return result
            return wrapper
        if class_name in RECORD_LOGS:
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_()
                if method == "append_many":
                    records = len(args[1] if len(args) > 1 else kwargs["records"])
                else:
                    records = 1
                if records:
                    counts["storage.records"] += records
                    counts["storage.commits"] += 1
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    def _context(self, original, layer: str, class_name: str, method: str):
        enter, exit_ = self.enter, self.exit
        tracer = self

        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                inner = original(*args, **kwargs)
            finally:
                exit_()
            return _TracedContext(tracer, layer, inner)
        return wrapper
