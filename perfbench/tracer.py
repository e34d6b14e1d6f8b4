"""Outside-in tracing of cubacode's public functions.

The tracer wraps the functions in ``TRACED`` from the benchmark's side and
changes no program file.  cubacode imports functions by name (``bench``,
``fock`` and the package root each bind ``fidelity_details``), so wrapping
rebinds every attribute of every loaded ``cubacode`` module that holds the
original object.

Spans are kept in memory.  Each records its name, start, end, parent span,
thread and the id of the command it belongs to.  A span opened on a worker
thread with no open span of its own gets as parent the innermost open span
of the thread that runs the command (for the thread pool of ``bench``, that
is ``cli.main``).  Self time is a span's duration minus the part of its
interval that its children cover; children on several threads are merged
first, so work done in parallel is not subtracted twice.  Durations of
spans on different threads add up, so a layer's time can exceed the wall
time of a parallel pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LOSS = ("loss_1mode", "loss_2mode")
ALL = ("loss_1mode", "loss_2mode", "closed_form")


@dataclass(frozen=True)
class Traced:
    """A traced function: ``module`` and dotted ``attr`` inside it, and the
    workloads that call it.  The self-test requires calls on exactly those
    workloads, which pins the split the workloads rely on."""

    module: str
    attr: str
    loads: Tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TRACED = (
    Traced("cli", "main", ALL),
    Traced("bench", "suggest_cutoff", LOSS),
    Traced("fock", "fidelity_details", LOSS),
    Traced("fock", "coherent_fock", ALL),
    Traced("fock", "single_mode_loss_kraus", LOSS),
    Traced("fock", "auto_loss_l_max", LOSS),
    Traced("klcheck", "kl_report", ("closed_form",)),
    Traced("klcheck", "code_parameters", ("closed_form",)),
    Traced("klcheck", "lowdin_inverse_sqrt", ALL),
    Traced("moments", "weighted_moment", ("closed_form",)),
    Traced("moments", "moment_match_degree", ("closed_form",)),
    Traced("moments", "code_size_bounds", ("closed_form",)),
    Traced("stabilizer", "verify_ztype", ("closed_form",)),
    Traced("stabilizer", "AnnihilationPolynomial.fock_operator", ("closed_form",)),
    Traced("catalog", "build_catalog_code", ALL),
    Traced("constellation", "normalize_energy", ALL),
)


def _fidelity_attrs(args, kwargs, result) -> dict:
    # Computed from the returned FidelityResult, not measured: dimension
    # cutoff^modes, loss branches (l_max+1)^modes, and the bytes of the
    # stacked branch images 16 * dim * K * branches.
    code = args[0] if args else kwargs["code"]
    dim = result.cutoff ** code.modes
    branches = (result.kraus_l_max + 1) ** code.modes
    return {"dim": dim, "branches": branches, "bytes": 16 * dim * code.dim * branches}


_RESULT_ATTRS: Dict[str, Callable] = {
    "fock.fidelity_details": _fidelity_attrs,
    "klcheck.kl_report": lambda args, kwargs, result: {"blocks": len(result.matrices)},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    command: Optional[int]
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Wraps ``TRACED`` on ``install`` and restores the originals on
    ``uninstall``.  ``command(label)`` opens the span that a command's
    spans share."""

    package = "cubacode"

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._command: Optional[Span] = None
        self._command_stack: list = []
        self._patches: List[Tuple[object, str, object, str]] = []
        self.missing: List[str] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span hangs under the command thread's
        # innermost open span.
        outer = stack or self._command_stack
        parent = outer[-1].id if outer else None
        with self._lock:
            self._ids += 1
            span_id = self._ids
        span = Span(span_id, name, time.perf_counter(), 0.0, parent,
                    threading.get_ident(), self._command.id if self._command else None)
        stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def command(self, label: str):
        """Open the span that every span of one command shares."""
        span = self._open(f"command:{label}")
        span.command = span.id
        self._command = span
        self._command_stack = self._stack()
        try:
            yield span
        finally:
            self._command = None
            self._command_stack = []
            self._close(span)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = _RESULT_ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def _modules(self) -> list:
        prefix = self.package + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def install(self):
        """Rebind every module attribute holding a traced object."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        self.missing = []
        for item in TRACED:
            module = sys.modules.get(f"{self.package}.{item.module}")
            owner, _, leaf = item.attr.rpartition(".")
            holder = module
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None) if holder is not None else None
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                # The function was removed or renamed: it records no calls.
                self.missing.append(item.name)
                continue
            wrapper = self._wrap(item.name, original)
            if owner:
                # A method: the class is one object however it was imported.
                self._patches.append((holder, leaf, original, item.name))
                setattr(holder, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, item.name))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def bindings(self) -> Dict[str, int]:
        """How many attributes each traced name is rebound at."""
        counts: Dict[str, int] = {}
        for _, _, _, name in self._patches:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def take(self) -> List[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of each span: duration minus the union of its children's
    intervals clipped to the span."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s.id] = (s.end - s.start) - covered
    return out
