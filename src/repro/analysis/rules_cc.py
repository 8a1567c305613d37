"""CC rule family: concurrency invariants of the service layer.

The asyncio solve server (``server/dispatch.py``), the fork-based
resident ``WorkerPool`` (``perf/pool.py``) and the thread-shared caches
(``server/cache.py``, ``server/warm.py``, ``resilience/breaker.py``)
share one failure mode: a blocked event loop, a racing store, or a
dropped task corrupts *scheduling* — and through it answer ordering —
without any test asserting on values noticing.  These rules encode the
project's concurrency discipline statically; the runtime counterpart is
:mod:`repro.resilience.sanitize` (``lubt chaos --sanitize``).

All CC inference is **lexical** (per-file AST, no cross-module call
graph).  Helper-under-lock patterns — a method whose *callers* hold the
lock — are expected to carry a documented ``noqa: CC002`` escape; the
RL900 audit keeps those escapes honest.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import FileContext, Rule, register

register(Rule(
    "CC001", "blocking-call-in-async",
    "No blocking call inside an `async def` body.",
    doc="""time.sleep, os.fsync, fork/wait, subprocess, socket ops,
solve_* entry points, and WorkerPool construction / pool·thread joins
block the event loop for every connected client — one slow solve stalls
heartbeats, timeouts and accepts.  Route blocking work through
loop.run_in_executor(...) / asyncio.to_thread(...) (the called lambda or
function is sync context, so this rule does not fire inside it).""",
))

register(Rule(
    "CC002", "unlocked-shared-store",
    "No store to a lock-guarded attribute outside `with self._lock:`.",
    doc="""Per class, any attribute assigned somewhere inside a
`with self.<lock>:` block is inferred to be lock-guarded shared state;
a write to it (attribute/subscript store, augmented assign, or mutating
method call) outside a lock region in any method except __init__ is a
race.  The inference is lexical: a helper whose callers hold the lock
needs a documented `noqa: CC002` escape.""",
))

register(Rule(
    "CC003", "fork-unsafety",
    "No raw os.fork, and no thread/process spawn while holding a lock.",
    doc="""Forking while another thread holds a lock duplicates the lock
in its held state into the child, which deadlocks on first acquire (the
owning thread does not exist there).  Worker processes must be spawned
via the multiprocessing context in perf/pool.py, and never from inside a
`with <lock>:` region.""",
))

register(Rule(
    "CC004", "unawaited-coroutine",
    "Calling a coroutine function without awaiting it does nothing.",
    doc="""A bare statement call of an `async def` (or a known-awaitable
API such as asyncio.sleep or StreamWriter.drain) builds a coroutine
object and drops it — the body never runs, and Python only reports the
'never awaited' warning at GC time, if at all.""",
))

register(Rule(
    "CC005", "fire-and-forget-task",
    "asyncio.create_task result must be retained.",
    doc="""The event loop keeps only a weak reference to running tasks:
an unretained create_task/ensure_future result can be garbage-collected
mid-flight, and its exceptions are silently lost.  Store the task
(e.g. on self) and await/cancel it on teardown.""",
))

register(Rule(
    "CC006", "swallowed-cancellation",
    "No `except CancelledError` that fails to re-raise.",
    doc="""Swallowing CancelledError breaks cooperative teardown —
aclose()/wait_closed() hang on a task that refused to die.  Re-raise
after cleanup, or mark a documented teardown boundary (where the server
deliberately absorbs loop-shutdown cancellation) with a
`noqa: CC006` comment.""",
))

# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
_LOCKISH_NAME = re.compile(r"(?:^|_)(?:lock|mutex|mu)\d*$", re.IGNORECASE)
_LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition"}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_self_attr(node: ast.AST) -> str | None:
    """First attribute above ``self`` in a chain (``self.X...`` -> X)."""
    prev: str | None = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            prev = node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and prev is not None:
        return prev
    return None


# ----------------------------------------------------------------------
# CC001 — blocking calls in async context
# ----------------------------------------------------------------------
_BLOCKING_DOTTED = {
    "time.sleep",
    "os.fsync", "os.fork", "os.forkpty", "os.system",
    "os.wait", "os.waitpid",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection",
}
#: Blocking no matter the receiver: raw socket/file-descriptor ops.
_BLOCKING_ATTRS = {"sendall", "recv", "recv_into", "accept", "fsync"}
#: Blocking when the receiver looks like a pool/thread/process handle.
_POOL_ATTRS = {"close", "join", "submit", "map_many", "shutdown"}
_POOLISH = re.compile(r"pool|thread|proc|worker", re.IGNORECASE)


def _blocking_reason(node: ast.Call) -> str | None:
    func = node.func
    dotted = _dotted(func)
    if dotted is not None:
        if dotted in _BLOCKING_DOTTED:
            return f"{dotted}()"
        tail = dotted.rsplit(".", 1)[-1]
        if tail.startswith("solve_") or tail == "map_many":
            return f"{tail}() (solver entry point)"
        if tail == "WorkerPool":
            return "WorkerPool() construction (forks workers)"
    if isinstance(func, ast.Attribute):
        if func.attr in _BLOCKING_ATTRS:
            return f".{func.attr}()"
        recv = _dotted(func.value)
        if func.attr in _POOL_ATTRS and recv is not None and _POOLISH.search(recv):
            return f"{recv}.{func.attr}() (pool/thread operation)"
    return None


# ----------------------------------------------------------------------
# CC004 — known awaitables
# ----------------------------------------------------------------------
_AWAITABLE_DOTTED = {
    "asyncio.sleep", "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
    "asyncio.open_connection", "asyncio.start_server", "asyncio.to_thread",
}
_AWAITABLE_ATTRS = {"drain", "wait_closed"}

# ----------------------------------------------------------------------
# CC005 — task spawns
# ----------------------------------------------------------------------
_TASK_SPAWN_ATTRS = {"create_task", "ensure_future"}


class _CcVisitor(ast.NodeVisitor):
    """CC001 / CC003 (os.fork part) / CC004 / CC005 / CC006 in one walk."""

    def __init__(self, ctx: FileContext, async_names: frozenset[str]) -> None:
        self.ctx = ctx
        self.async_names = async_names
        #: Innermost function kind: True = async, False = sync.
        self._func_stack: list[bool] = []

    @property
    def _in_async(self) -> bool:
        return bool(self._func_stack) and self._func_stack[-1]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(False)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(True)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._func_stack.append(False)
        self.generic_visit(node)
        self._func_stack.pop()

    # -- CC001 + CC003(os.fork) ---------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted in ("os.fork", "os.forkpty"):
            self.ctx.report(
                "CC003",
                node,
                f"raw {dotted}() duplicates held locks into the child; "
                "spawn workers through the multiprocessing context in "
                "perf/pool.py",
            )
        if self._in_async:
            reason = _blocking_reason(node)
            if reason is not None:
                self.ctx.report(
                    "CC001",
                    node,
                    f"blocking call {reason} inside `async def` stalls the "
                    "event loop; route through loop.run_in_executor(...) "
                    "or asyncio.to_thread(...)",
                )
        self.generic_visit(node)

    # -- CC004 / CC005 -------------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            func = call.func
            dotted = _dotted(func)
            tail = dotted.rsplit(".", 1)[-1] if dotted else None
            if tail in _TASK_SPAWN_ATTRS:
                self.ctx.report(
                    "CC005",
                    node,
                    f"{dotted}(...) result dropped — the loop holds only a "
                    "weak reference; retain the task and await/cancel it "
                    "on teardown",
                )
            elif (
                (dotted in _AWAITABLE_DOTTED)
                or (isinstance(func, ast.Attribute)
                    and func.attr in _AWAITABLE_ATTRS)
                or (tail is not None and tail in self.async_names
                    and self._receiver_is_self_or_bare(func))
            ):
                what = dotted if dotted is not None else tail
                self.ctx.report(
                    "CC004",
                    node,
                    f"coroutine {what}(...) is never awaited — the body "
                    "never runs; add `await` (or schedule it as a task "
                    "and retain the handle)",
                )
        self.generic_visit(node)

    @staticmethod
    def _receiver_is_self_or_bare(func: ast.AST) -> bool:
        """Name-based coroutine matching only applies to ``foo()`` and
        ``self.foo()`` — ``other.foo()`` may be an unrelated sync method
        that merely shares a local coroutine's name (Thread.start vs an
        async ``start``)."""
        if isinstance(func, ast.Name):
            return True
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        )

    # -- CC006 ---------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is not None and self._mentions_cancelled(node.type):
            reraises = any(
                isinstance(sub, ast.Raise)
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if not reraises:
                self.ctx.report(
                    "CC006",
                    node,
                    "CancelledError swallowed — cooperative teardown "
                    "hangs; re-raise after cleanup, or mark a documented "
                    "teardown boundary with `noqa: CC006`",
                )
        self.generic_visit(node)

    @staticmethod
    def _mentions_cancelled(type_node: ast.AST) -> bool:
        for sub in ast.walk(type_node):
            if isinstance(sub, ast.Attribute) and sub.attr == "CancelledError":
                return True
            if isinstance(sub, ast.Name) and sub.id == "CancelledError":
                return True
        return False


# ----------------------------------------------------------------------
# CC002 — per-class lock-discipline inference
# ----------------------------------------------------------------------
def _lock_attrs_of(cls: ast.ClassDef) -> set[str]:
    """Attributes of ``self`` that hold a lock: lock-ish names, or
    anything assigned a Lock/RLock/Condition constructor."""
    locks: set[str] = set()
    for sub in ast.walk(cls):
        if not isinstance(sub, ast.Assign):
            continue
        for target in sub.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if _LOCKISH_NAME.search(target.attr):
                locks.add(target.attr)
                continue
            value = sub.value
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted is not None and (
                    dotted.rsplit(".", 1)[-1] in _LOCK_CONSTRUCTORS
                ):
                    locks.add(target.attr)
    return locks


def _with_holds_lock(node: ast.With, locks: set[str]) -> bool:
    for item in node.items:
        expr = item.context_expr
        # `with self._lock:` — also accept `.acquire_timeout(...)`-style
        # context helper calls on the lock attribute.
        if isinstance(expr, ast.Call):
            expr = expr.func
        root = _root_self_attr(expr)
        if root in locks:
            return True
    return False


def _lockish_with(node: ast.With) -> bool:
    """Any `with` whose context expression names something lock-like
    (for CC003: don't spawn while holding *any* lock)."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        dotted = _dotted(expr)
        if dotted is not None and any(
            _LOCKISH_NAME.search(part) for part in dotted.split(".")
        ):
            return True
    return False


def _stored_roots(stmt: ast.stmt) -> list[tuple[str, ast.AST]]:
    """``self.X``-rooted attribute names written by this statement alone
    (no recursion into child statements)."""
    out: list[tuple[str, ast.AST]] = []
    targets: list[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        for t in elts:
            root = _root_self_attr(t)
            if root is not None:
                out.append((root, t))
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        if isinstance(call.func, ast.Attribute):
            from repro.analysis.rules_rl import MUTATING_METHODS

            if call.func.attr in MUTATING_METHODS:
                root = _root_self_attr(call.func.value)
                if root is not None:
                    out.append((root, call))
    return out


_CTOR_METHODS = {"__init__", "__new__", "__post_init__", "__del__"}
_SPAWNISH = re.compile(r"^(Thread|Process|WorkerPool)$")


class _LockDiscipline:
    """Two-pass CC002 (+ CC003 spawn-under-lock) over one class body."""

    def __init__(self, ctx: FileContext, cls: ast.ClassDef) -> None:
        self.ctx = ctx
        self.cls = cls
        self.locks = _lock_attrs_of(cls)

    def run(self) -> None:
        if not self.locks:
            return
        guarded: set[str] = set()
        # Pass 1: collect attrs written somewhere under the lock.
        for sub in ast.walk(self.cls):
            if isinstance(sub, ast.With) and _with_holds_lock(sub, self.locks):
                for inner in sub.body:
                    for stmt in ast.walk(inner):
                        if isinstance(stmt, ast.stmt):
                            for root, _node in _stored_roots(stmt):
                                guarded.add(root)
        guarded -= self.locks
        if not guarded:
            return
        # Pass 2: flag writes to guarded attrs outside any lock region.
        for method in self.cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _CTOR_METHODS:
                continue
            self._walk(method.body, guarded, locked=False)

    def _walk(self, body: list[ast.stmt], guarded: set[str], locked: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.With):
                inner_locked = locked or _with_holds_lock(stmt, self.locks)
                self._walk(stmt.body, guarded, inner_locked)
                continue
            if not locked:
                for root, node in _stored_roots(stmt):
                    if root in guarded:
                        self.ctx.report(
                            "CC002",
                            node,
                            f"store to lock-guarded attribute "
                            f"'self.{root}' outside a `with self."
                            f"{'/'.join(sorted(self.locks))}:` region "
                            "(inferred from guarded writes elsewhere in "
                            "this class)",
                        )
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._walk([child], guarded, locked)
                else:
                    # statement lists hide inside compound nodes
                    for field in ("body", "orelse", "finalbody", "handlers"):
                        sub = getattr(child, field, None)
                        if isinstance(sub, list):
                            self._walk(
                                [s for s in sub if isinstance(s, ast.stmt)],
                                guarded,
                                locked,
                            )


def _check_spawn_under_lock(tree: ast.Module, ctx: FileContext) -> None:
    for sub in ast.walk(tree):
        if not (isinstance(sub, ast.With) and _lockish_with(sub)):
            continue
        for inner in sub.body:
            for node in ast.walk(inner):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func)
                tail = dotted.rsplit(".", 1)[-1] if dotted else None
                if tail is not None and _SPAWNISH.match(tail):
                    ctx.report(
                        "CC003",
                        node,
                        f"{tail}(...) spawned while holding a lock — a "
                        "fork here duplicates the held lock into the "
                        "child; spawn outside the `with` region",
                    )


def run_cc_checks(tree: ast.Module, ctx: FileContext) -> None:
    """Entry point the engine calls once per parsed file."""
    async_names = frozenset(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    )
    _CcVisitor(ctx, async_names).visit(tree)
    _check_spawn_under_lock(tree, ctx)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _LockDiscipline(ctx, node).run()
