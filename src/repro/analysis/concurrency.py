"""Lock-aware static analysis: the R8–R10 concurrency rules.

The pass reasons about locks the way the rest of repolint reasons about
schemas: build a model first, then let simple rules query it.

**Lock inference** (:func:`build_class_models`): for every class, find the
lock fields — ``self.X = threading.Lock()`` / ``RLock()`` /
``create_lock(...)`` / ``SanitizedLock(...)`` assignments — then map each
lock to the attributes it guards.  Guards come from two sources, union'd:

* the ``# guards: attr, attr`` annotation on the lock's assignment line
  (the declared contract), and
* inference: every ``self.Y`` attribute *mutated* lexically inside a
  ``with self.X:`` body is taken to be guarded by ``X``.

**R8 ``unguarded-shared-mutation``** — a mutation of a guarded attribute
outside any ``with <its lock>`` block (including under the *wrong* lock).
``__init__``/``__new__`` are exempt: no other thread can hold a reference
during construction.

**R9 ``lock-order-inversion``** — a :class:`ProjectRule`: each file
contributes its lock fields and nested-``with`` acquisition edges
(``A held while acquiring B``); the finalize phase resolves foreign lock
references across files, builds the global acquisition digraph over
``Class.attr`` nodes, and flags every cycle (the static ABBA shape the
runtime sanitizer in :mod:`repro.locks` confirms
dynamically).

**R10 ``blocking-call-under-lock``** — ``sleep``/``join()``/file and
network I/O/subprocesses, or acquiring a *foreign* object's lock, inside
a ``with <lock>`` body on hot paths (``LintConfig.blocking_paths``).
Holding a lock across I/O serializes every other client on that lock for
the duration; holding it across a foreign lock acquisition creates the
nested-lock edges R9 exists to police.

Known, deliberate limits (documented in docs/static-analysis.md):

* Inference is lexical.  A mutation reached only via a helper called
  under the lock is invisible; annotate with ``# guards:`` to close the
  gap.
* R8 sees ``self``-attribute mutations only; writes to *foreign*
  objects' attributes (``entry.hits += 1``) are out of scope — give the
  foreign object its own lock and accessor methods instead.
* R9 resolves foreign locks by parameter/local type hints first, then by
  a project-unique lock-field name; an unresolvable reference drops the
  edge rather than guessing.
* A suppressed (``# repolint: ignore[lock-order-inversion]``)
  acquisition line drops its edges from the global graph.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .model import Severity, SuppressionIndex, Violation, parse_suppressions
from .rules import Rule, RuleContext

__all__ = [
    "ALL_PROJECT_RULES",
    "BlockingCallUnderLockRule",
    "ClassLockModel",
    "FileLockSummary",
    "LockEdge",
    "LockOrderInversionRule",
    "LockRef",
    "ProjectRule",
    "UnguardedSharedMutationRule",
    "build_class_models",
]


# -- lock-field detection -----------------------------------------------------

#: constructor names (last dotted component) that create a lock
_LOCK_CTORS = frozenset({"Lock", "RLock", "SanitizedLock", "create_lock"})

#: ``# guards: a, b`` trailing the lock assignment line
_GUARDS_RE = re.compile(r"#\s*guards:\s*([A-Za-z0-9_,\s]+)")

#: method names that mutate their receiver in place
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "appendleft",
    "popleft", "sort", "reverse", "set",
})

#: module roots whose calls block on I/O (R10)
_BLOCKING_MODULES = frozenset({"subprocess", "socket", "requests", "urllib"})

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _last_name(node: ast.AST | None) -> str | None:
    """Final dotted component of a name chain (``threading.RLock`` -> RLock)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted_name(node: ast.AST) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_lock_ctor(value: ast.expr) -> bool:
    if isinstance(value, ast.IfExp):
        return _is_lock_ctor(value.body) and _is_lock_ctor(value.orelse)
    return (
        isinstance(value, ast.Call)
        and _last_name(value.func) in _LOCK_CTORS
    )


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _body_nodes(stmts: Sequence[ast.stmt]) -> list[ast.AST]:
    """All nodes lexically inside ``stmts``, skipping nested scopes."""
    out: list[ast.AST] = []

    def descend(node: ast.AST) -> None:
        if isinstance(node, _SCOPE_NODES):
            return
        out.append(node)
        for child in ast.iter_child_nodes(node):
            descend(child)

    for stmt in stmts:
        descend(stmt)
    return out


def _own_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """Expressions belonging directly to ``stmt``: its test/targets/value,
    but nothing from nested statement bodies or nested scopes."""
    out: list[ast.expr] = []

    def descend(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)) or isinstance(
                child, ast.Lambda
            ):
                continue
            if isinstance(child, ast.expr):
                out.append(child)
            descend(child)

    descend(stmt)
    return out


def _child_blocks(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    """Nested statement blocks of ``stmt`` (if/else, try, loops, match)."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(stmt, "handlers", ()) or ():
        yield handler.body
    for case in getattr(stmt, "cases", ()) or ():
        yield case.body


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        node for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _function_scopes(
    tree: ast.Module,
) -> list[tuple[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef, str | None]]:
    """Every lexical scope with a statement body: the module, each method
    (paired with its class name), each free function."""
    scopes: list[
        tuple[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef, str | None]
    ] = [(tree, None)]
    method_ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for method in _methods(node):
                method_ids.add(id(method))
                scopes.append((method, node.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and id(node) not in method_ids
        ):
            scopes.append((node, None))
    return scopes


# -- picklable cross-file summaries (R9 map phase) ----------------------------

#: a reference to a lock at an acquisition site:
#: ``("self", owning_class, attr)`` or ``("other", receiver_repr, attr)``
LockRef = tuple[str, str, str]


@dataclass(frozen=True)
class LockEdge:
    """``held`` was held when ``acquired`` was taken (nested ``with``)."""

    held: LockRef
    acquired: LockRef
    line: int
    col: int
    where: str
    suppressed: bool = False


@dataclass(frozen=True)
class FileLockSummary:
    """Everything R9 needs from one file; must stay picklable for --jobs."""

    path: str
    #: class name -> its lock-field attribute names
    class_locks: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: nested-with acquisition edges observed in this file
    edges: tuple[LockEdge, ...] = ()
    #: (receiver_name, class_name) hints: annotated params / local ctor calls
    type_hints: tuple[tuple[str, str], ...] = ()


# -- per-class lock model -----------------------------------------------------


@dataclass
class ClassLockModel:
    """One class's locks and the attributes each guards."""

    class_name: str
    #: lock attr -> guarded attrs (annotation union inference)
    guards: dict[str, set[str]] = field(default_factory=dict)
    #: lock attr -> line of its assignment (for reports)
    lock_lines: dict[str, int] = field(default_factory=dict)

    @property
    def lock_fields(self) -> frozenset[str]:
        return frozenset(self.guards)

    def guard_for(self, attr: str) -> str | None:
        """The lock guarding ``attr``, or None if unguarded."""
        for lock, attrs in sorted(self.guards.items()):
            if attr in attrs:
                return lock
        return None


def _annotation_guards(ctx: RuleContext, line: int) -> set[str]:
    text = ctx.lines[line - 1] if 1 <= line <= len(ctx.lines) else ""
    m = _GUARDS_RE.search(text)
    if not m:
        return set()
    return {part.strip() for part in m.group(1).split(",") if part.strip()}


@dataclass
class _WithLock:
    """One lock reference among a with-statement's context managers."""

    lock_attr: str | None  # self lock attr, None for foreign locks
    ref: LockRef
    line: int
    col: int


def _with_lock_items(node: ast.With, class_name: str | None) -> list[_WithLock]:
    """Lock references among a with-statement's context managers.

    Recognizes ``with self.X:`` (self lock) and ``with obj.the_lock:``
    where the attribute *looks like* a lock (contains "lock",
    case-insensitive) — the heuristic that lets R9/R10 see cross-object
    acquisitions without a full type system.
    """
    out: list[_WithLock] = []
    for item in node.items:
        expr = item.context_expr
        attr = _self_attr(expr)
        if attr is not None:
            ref: LockRef = ("self", class_name or "<module>", attr)
            out.append(_WithLock(attr, ref, expr.lineno, expr.col_offset))
            continue
        if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
            receiver = ast.unparse(expr.value)
            ref = ("other", receiver, expr.attr)
            out.append(_WithLock(None, ref, expr.lineno, expr.col_offset))
    return out


def _mutated_attr(node: ast.AST) -> str | None:
    """``self.X`` attribute this node mutates, or None.

    Forms: ``self.X = v``, ``self.X op= v``, ``self.X[k] = v``,
    ``self.X.attr = v``, ``del self.X[...]``, ``self.X.append(...)`` and
    the other in-place mutators.
    """
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if target is None:
                continue
            attr = _self_attr(target)
            if attr is not None:
                return attr
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                attr = _self_attr(target.value)
                if attr is not None:
                    return attr
    if isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                return attr
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                attr = _self_attr(target.value)
                if attr is not None:
                    return attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        attr = _self_attr(node.func.value)
        if attr is not None:
            return attr
    return None


def build_class_models(
    tree: ast.Module, ctx: RuleContext
) -> dict[str, ClassLockModel]:
    """Map each class owning lock field(s) to its :class:`ClassLockModel`."""
    models: dict[str, ClassLockModel] = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        model = ClassLockModel(class_name=cls.name)
        # pass 1: lock fields (``self.X = <lock ctor>`` in any method)
        for method in _methods(cls):
            for node in _body_nodes(method.body):
                if not isinstance(node, ast.Assign):
                    continue
                if not _is_lock_ctor(node.value):
                    continue
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    model.guards.setdefault(attr, set()).update(
                        _annotation_guards(ctx, node.lineno)
                    )
                    model.lock_lines[attr] = node.lineno
        if not model.guards:
            continue
        # pass 2: infer guarded attrs from ``with self.X:`` bodies
        for method in _methods(cls):
            for node in _body_nodes(method.body):
                if not isinstance(node, ast.With):
                    continue
                for wl in _with_lock_items(node, cls.name):
                    if wl.lock_attr not in model.guards:
                        continue
                    for inner in _body_nodes(node.body):
                        attr = _mutated_attr(inner)
                        if attr is not None and attr not in model.guards:
                            model.guards[wl.lock_attr].add(attr)
        models[cls.name] = model
    return models


# -- R8: unguarded-shared-mutation --------------------------------------------


class UnguardedSharedMutationRule(Rule):
    id = "unguarded-shared-mutation"
    summary = (
        "mutation of a lock-guarded attribute outside a `with <lock>` "
        "block in a class that owns a lock"
    )

    #: construction is single-threaded by definition
    EXEMPT_METHODS = frozenset({"__init__", "__new__"})

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        models = build_class_models(tree, ctx)
        if not models:
            return
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name not in models:
                continue
            model = models[cls.name]
            for method in _methods(cls):
                if method.name in self.EXEMPT_METHODS:
                    continue
                yield from self._visit(ctx, model, method.body, frozenset())

    def _visit(
        self,
        ctx: RuleContext,
        model: ClassLockModel,
        body: Sequence[ast.stmt],
        held: frozenset[str],
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, _SCOPE_NODES):
                continue
            if isinstance(stmt, ast.With):
                locks = {
                    wl.lock_attr
                    for wl in _with_lock_items(stmt, model.class_name)
                    if wl.lock_attr in model.guards
                }
                yield from self._visit(ctx, model, stmt.body, held | locks)
                continue
            yield from self._check_stmt(ctx, model, stmt, held)
            for block in _child_blocks(stmt):
                yield from self._visit(ctx, model, block, held)

    def _check_stmt(
        self,
        ctx: RuleContext,
        model: ClassLockModel,
        stmt: ast.stmt,
        held: frozenset[str],
    ) -> Iterator[Violation]:
        candidates: list[ast.AST] = [stmt]
        candidates.extend(
            node for node in _own_exprs(stmt) if isinstance(node, ast.Call)
        )
        for node in candidates:
            attr = _mutated_attr(node)
            if attr is None or attr in model.guards:
                continue  # re-binding the lock itself is not a data race
            lock = model.guard_for(attr)
            if lock is None or lock in held:
                continue
            if held:
                detail = (
                    f"while holding {', '.join(sorted(held))} — the wrong "
                    f"lock; {attr!r} is guarded by {lock!r}"
                )
            else:
                detail = f"without holding {lock!r}, which guards it"
            yield self.violation(
                ctx, node,
                f"{model.class_name}.{attr} mutated {detail} "
                f"(lock defined at line {model.lock_lines.get(lock, '?')}); "
                f"wrap the mutation in `with self.{lock}:` or suppress "
                "with a written reason",
            )


# -- R10: blocking-call-under-lock --------------------------------------------


class BlockingCallUnderLockRule(Rule):
    id = "blocking-call-under-lock"
    summary = (
        "sleep/join/I-O or a foreign lock acquisition inside a "
        "`with <lock>` body on a hot path"
    )

    def check(self, tree: ast.Module, ctx: RuleContext) -> Iterator[Violation]:
        if not ctx.matches(ctx.config.blocking_paths):
            return
        # from-import aliasing: ``from time import sleep [as s]``
        sleep_aliases = {"sleep"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        sleep_aliases.add(alias.asname or alias.name)
        seen: set[tuple[int, int, str]] = set()
        for scope, class_name in _function_scopes(tree):
            for node in _body_nodes(scope.body):
                if not isinstance(node, ast.With):
                    continue
                locks = _with_lock_items(node, class_name)
                held = next(
                    (wl for wl in locks if wl.lock_attr is not None), None
                )
                if held is None:
                    continue
                for violation in self._check_body(ctx, node, held, sleep_aliases):
                    key = (violation.line, violation.col, violation.message)
                    if key not in seen:
                        seen.add(key)
                        yield violation

    def _check_body(
        self,
        ctx: RuleContext,
        with_node: ast.With,
        held: _WithLock,
        sleep_aliases: set[str],
    ) -> Iterator[Violation]:
        for node in _body_nodes(with_node.body):
            if isinstance(node, ast.With) and node is not with_node:
                for wl in _with_lock_items(node, None):
                    if wl.ref[0] == "other":
                        yield self.violation(
                            ctx, node,
                            f"foreign lock `{wl.ref[1]}.{wl.ref[2]}` acquired "
                            f"while holding self.{held.lock_attr}; nested "
                            "cross-object locking creates the deadlock edges "
                            "lock-order-inversion polices — release first",
                            severity=Severity.WARNING,
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            reason = self._blocking_reason(node, sleep_aliases)
            if reason is not None:
                yield self.violation(
                    ctx, node,
                    f"{reason} inside `with self.{held.lock_attr}:`; every "
                    "other client of this lock stalls for the duration — "
                    "move the blocking work outside the critical section",
                )

    def _blocking_reason(
        self, call: ast.Call, sleep_aliases: set[str]
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in sleep_aliases:
                return f"blocking call {func.id}()"
            if func.id == "open":
                return "file I/O open()"
            if func.id == "urlopen":
                return "network I/O urlopen()"
            return None
        dotted = _dotted_name(func)
        if dotted:
            root, leaf = dotted[0], dotted[-1]
            if leaf == "sleep" and root == "time":
                return "blocking call time.sleep()"
            if root in _BLOCKING_MODULES:
                return f"blocking call {'.'.join(dotted)}()"
            if dotted == ("os", "system"):
                return "blocking call os.system()"
        # thread.join() — zero args distinguishes it from str.join(iterable)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and not call.args
            and not call.keywords
        ):
            return f"blocking call {ast.unparse(func)}()"
        return None


# -- ProjectRule base + R9 ----------------------------------------------------


class ProjectRule:
    """A rule needing the whole project: per-file ``collect`` (map) and a
    global ``finalize`` (reduce).

    ``collect`` must return a **picklable** summary — under ``--jobs N``
    it runs in worker processes and the summaries travel back to the
    parent for ``finalize``.
    """

    id: str = ""
    summary: str = ""

    def collect(self, tree: ast.Module, ctx: RuleContext) -> object:
        raise NotImplementedError

    def finalize(self, summaries: Sequence[object]) -> list[Violation]:
        raise NotImplementedError


class LockOrderInversionRule(ProjectRule):
    id = "lock-order-inversion"
    summary = (
        "cycle in the cross-module static lock-acquisition graph "
        "(the ABBA deadlock shape)"
    )

    # -- map phase ------------------------------------------------------------

    def collect(self, tree: ast.Module, ctx: RuleContext) -> FileLockSummary:
        models = build_class_models(tree, ctx)
        class_locks = tuple(
            (name, tuple(sorted(model.lock_fields)))
            for name, model in sorted(models.items())
        )
        suppressions = parse_suppressions(ctx.source)
        edges: list[LockEdge] = []
        hints: list[tuple[str, str]] = []
        for scope, class_name in _function_scopes(tree):
            self._collect_hints(scope, hints)
            self._collect_edges(
                scope.body, class_name, [], edges, suppressions
            )
        return FileLockSummary(
            path=ctx.path,
            class_locks=class_locks,
            edges=tuple(edges),
            type_hints=tuple(sorted(set(hints))),
        )

    def _collect_hints(
        self,
        scope: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
        hints: list[tuple[str, str]],
    ) -> None:
        """(receiver, ClassName) bindings: annotated params and local ctors."""
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                list(scope.args.posonlyargs)
                + list(scope.args.args)
                + list(scope.args.kwonlyargs)
            ):
                name = _last_name(arg.annotation)
                if name and name[0].isupper():
                    hints.append((arg.arg, name))
        for node in _body_nodes(scope.body):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                ctor = _last_name(node.value.func)
                if ctor and ctor[0].isupper():
                    hints.append((node.targets[0].id, ctor))

    def _collect_edges(
        self,
        body: Sequence[ast.stmt],
        class_name: str | None,
        held: list[LockRef],
        edges: list[LockEdge],
        suppressions: SuppressionIndex,
    ) -> None:
        where = class_name or "<module>"
        for stmt in body:
            if isinstance(stmt, _SCOPE_NODES):
                continue
            if isinstance(stmt, ast.With):
                locks = _with_lock_items(stmt, class_name)
                for wl in locks:
                    for held_ref in held:
                        if held_ref == wl.ref:
                            continue  # re-entrant RLock, not an edge
                        edges.append(
                            LockEdge(
                                held=held_ref,
                                acquired=wl.ref,
                                line=wl.line,
                                col=wl.col,
                                where=where,
                                suppressed=suppressions.suppresses(
                                    wl.line, self.id
                                ),
                            )
                        )
                self._collect_edges(
                    stmt.body,
                    class_name,
                    held + [wl.ref for wl in locks],
                    edges,
                    suppressions,
                )
                continue
            for block in _child_blocks(stmt):
                self._collect_edges(block, class_name, held, edges, suppressions)

    # -- reduce phase ---------------------------------------------------------

    def finalize(self, summaries: Sequence[object]) -> list[Violation]:
        file_summaries = [s for s in summaries if isinstance(s, FileLockSummary)]

        # project-wide lock-field name -> owning classes
        owners: dict[str, set[str]] = {}
        for summary in file_summaries:
            for cls, locks in summary.class_locks:
                for lock in locks:
                    owners.setdefault(lock, set()).add(cls)

        # digraph over "Class.attr" nodes, with the first site per edge
        graph: dict[str, set[str]] = {}
        sites: dict[tuple[str, str], tuple[str, int, int, str]] = {}
        for summary in file_summaries:
            hints = dict(summary.type_hints)
            for edge in summary.edges:
                if edge.suppressed:
                    continue
                a = self._resolve(edge.held, hints, owners)
                b = self._resolve(edge.acquired, hints, owners)
                if a is None or b is None or a == b:
                    continue
                graph.setdefault(a, set()).add(b)
                key = (a, b)
                site = (summary.path, edge.line, edge.col, edge.where)
                if key not in sites or site < sites[key]:
                    sites[key] = site

        violations: list[Violation] = []
        for cycle in self._cycles(graph):
            edge_keys = [
                (cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            ]
            anchor = min(
                edge_keys, key=lambda k: sites.get(k, ("~", 0, 0, ""))
            )
            path, line, col, where = sites.get(anchor, ("<unknown>", 1, 0, "?"))
            chain = " -> ".join(cycle + (cycle[0],))
            violations.append(
                Violation(
                    rule_id=self.id,
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"lock-order cycle {chain}: two call paths acquire "
                        "these locks in opposite orders, which deadlocks "
                        "under concurrency; pick one global order "
                        f"(edge observed in {where})"
                    ),
                    snippet="",
                    severity=Severity.ERROR,
                )
            )
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        return violations

    def _resolve(
        self,
        ref: LockRef,
        hints: dict[str, str],
        owners: dict[str, set[str]],
    ) -> str | None:
        kind, owner, attr = ref
        if kind == "self":
            return f"{owner}.{attr}"
        # foreign: receiver type from hints first, unique owner second
        receiver = owner.split(".")[0].split("(")[0]
        cls = hints.get(receiver)
        if cls is not None:
            return f"{cls}.{attr}"
        candidates = owners.get(attr, set())
        if len(candidates) == 1:
            return f"{next(iter(candidates))}.{attr}"
        return None  # ambiguous or unknown: drop the edge, never guess

    def _cycles(self, graph: dict[str, set[str]]) -> list[tuple[str, ...]]:
        """Elementary cycles, each found exactly once from its minimal
        node (only nodes > start are expanded), canonically rotated."""
        cycles: set[tuple[str, ...]] = set()

        def dfs(
            start: str, node: str, path: list[str], on_path: set[str]
        ) -> None:
            for nxt in sorted(graph.get(node, ())):
                if nxt == start:
                    cycle = tuple(path)
                    idx = cycle.index(min(cycle))
                    cycles.add(cycle[idx:] + cycle[:idx])
                elif nxt not in on_path and nxt > start:
                    path.append(nxt)
                    on_path.add(nxt)
                    dfs(start, nxt, path, on_path)
                    on_path.discard(nxt)
                    path.pop()

        for start in sorted(graph):
            dfs(start, start, [start], {start})
        return sorted(cycles)


#: Project-rule registry, in reporting order.
ALL_PROJECT_RULES: tuple[ProjectRule, ...] = (LockOrderInversionRule(),)
