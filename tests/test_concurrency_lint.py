"""Concurrency lint rules (R8–R10): lock inference, fixture positives and
negatives, the cross-file R9 graph, and the `# guards:` annotation
convention."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis import LintEngine, SchemaCatalog
from repro.analysis.concurrency import (
    ALL_PROJECT_RULES,
    LockOrderInversionRule,
    build_class_models,
)
from repro.analysis.rules import DEFAULT_CONFIG, LintConfig, RuleContext

#: inside LintConfig.blocking_paths (ui) — R10 active
UI = "src/repro/ui/fake.py"
#: outside blocking_paths — R10 scoped off
NEUTRAL = "src/repro/simulators/fake.py"


@pytest.fixture(scope="module")
def engine():
    # SchemaCatalog() empty: the concurrency rules don't need schemas,
    # and skipping build_default_catalog keeps the module fast
    return LintEngine(catalog=SchemaCatalog())


def lint(engine, source, path=UI):
    return engine.lint_source(textwrap.dedent(source), path)


def fired(engine, source, path=UI):
    return sorted({v.rule_id for v in lint(engine, source, path)})


def ctx_for(source, path=UI):
    source = textwrap.dedent(source)
    return ast.parse(source), RuleContext(
        path=path,
        source=source,
        lines=source.splitlines(),
        catalog=SchemaCatalog(),
        config=DEFAULT_CONFIG,
    )


# -- lock inference -----------------------------------------------------------


class TestLockInference:
    def test_with_body_mutations_infer_guards(self):
        tree, ctx = ctx_for(
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                def add(self, x):
                    with self._lock:
                        self._items.append(x)
            """
        )
        models = build_class_models(tree, ctx)
        assert models["C"].guards == {"_lock": {"_items"}}

    def test_guards_annotation_seeds_model_without_inference(self):
        tree, ctx = ctx_for(
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _count, _names
                    self._count = 0
                    self._names = []
            """
        )
        models = build_class_models(tree, ctx)
        assert models["C"].guards == {"_lock": {"_count", "_names"}}

    def test_create_lock_and_sanitized_lock_ctors_recognized(self):
        tree, ctx = ctx_for(
            """
            from repro.locks import create_lock, SanitizedLock
            class A:
                def __init__(self):
                    self._lock = create_lock("A")  # guards: _x
            class B:
                def __init__(self, monitor):
                    self._lock = SanitizedLock("B", monitor)  # guards: _y
            """
        )
        models = build_class_models(tree, ctx)
        assert models["A"].guards == {"_lock": {"_x"}}
        assert models["B"].guards == {"_lock": {"_y"}}

    def test_class_without_lock_has_no_model(self):
        tree, ctx = ctx_for(
            """
            class C:
                def __init__(self):
                    self._items = []
                def add(self, x):
                    self._items.append(x)
            """
        )
        assert build_class_models(tree, ctx) == {}

    def test_nested_function_mutations_not_inferred(self):
        # a closure mutating self under the with is a different execution
        # time — inference must stay lexical to its own scope
        tree, ctx = ctx_for(
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cbs = []
                def schedule(self):
                    with self._lock:
                        def cb():
                            self._cbs.append(1)
                        return cb
            """
        )
        models = build_class_models(tree, ctx)
        assert models["C"].guards == {"_lock": set()}


# -- R8: unguarded-shared-mutation --------------------------------------------


class TestUnguardedSharedMutation:
    def test_mutation_outside_lock_fires(self, engine):
        violations = [
            v
            for v in lint(
                engine,
                """
                import threading
                class C:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []
                    def good(self, x):
                        with self._lock:
                            self._items.append(x)
                    def bad(self, x):
                        self._items.append(x)
                """,
            )
            if v.rule_id == "unguarded-shared-mutation"
        ]
        assert len(violations) == 1
        assert "C._items" in violations[0].message
        assert "_lock" in violations[0].message

    def test_annotated_guard_fires_without_any_locked_use(self, engine):
        # the # guards: contract alone is enough — no with-body needed
        assert "unguarded-shared-mutation" in fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _count
                    self._count = 0
                def bump(self):
                    self._count += 1
            """,
        )

    def test_all_locked_is_silent(self, engine):
        assert fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _count
                    self._count = 0
                def bump(self):
                    with self._lock:
                        self._count += 1
            """,
        ) == []

    def test_init_is_exempt(self, engine):
        assert fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = []
                    self._items.append("seed")
            """,
        ) == []

    def test_wrong_lock_held_fires_and_names_the_right_one(self, engine):
        violations = [
            v
            for v in lint(
                engine,
                """
                import threading
                class C:
                    def __init__(self):
                        self._a = threading.Lock()  # guards: _x
                        self._b = threading.Lock()  # guards: _y
                        self._x = 0
                        self._y = 0
                    def bad(self):
                        with self._b:
                            self._x += 1
                """,
            )
            if v.rule_id == "unguarded-shared-mutation"
        ]
        assert len(violations) == 1
        assert "wrong" in violations[0].message
        assert "'_a'" in violations[0].message

    def test_unguarded_attr_in_lock_owning_class_silent(self, engine):
        # owning a lock does not make every attribute guarded
        assert fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _shared
                    self._shared = {}
                    self._scratch = []
                def work(self, x):
                    self._scratch.append(x)
            """,
        ) == []

    def test_mutation_in_branch_under_lock_silent(self, engine):
        assert fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = []
                def add(self, x):
                    with self._lock:
                        if x is not None:
                            self._items.append(x)
            """,
        ) == []

    def test_del_and_subscript_and_augassign_forms_fire(self, engine):
        violations = [
            v
            for v in lint(
                engine,
                """
                import threading
                class C:
                    def __init__(self):
                        self._lock = threading.Lock()  # guards: _m, _n
                        self._m = {}
                        self._n = 0
                    def bad(self, k, v):
                        self._m[k] = v
                        del self._m[k]
                        self._n += 1
                """,
            )
            if v.rule_id == "unguarded-shared-mutation"
        ]
        assert len(violations) == 3

    def test_suppression_with_reason_silences(self, engine):
        assert fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = []
                def helper(self, x):
                    # repolint: ignore[unguarded-shared-mutation] -- caller holds _lock
                    self._items.append(x)
            """,
        ) == []


# -- R10: blocking-call-under-lock --------------------------------------------


class TestBlockingCallUnderLock:
    def test_time_sleep_under_lock_fires(self, engine):
        assert "blocking-call-under-lock" in fired(
            engine,
            """
            import threading, time
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def slow(self):
                    with self._lock:
                        time.sleep(0.5)
            """,
        )

    def test_from_import_sleep_alias_fires(self, engine):
        assert "blocking-call-under-lock" in fired(
            engine,
            """
            import threading
            from time import sleep as snooze
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def slow(self):
                    with self._lock:
                        snooze(0.5)
            """,
        )

    def test_open_and_thread_join_fire(self, engine):
        rule_hits = [
            v
            for v in lint(
                engine,
                """
                import threading
                class C:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._t = threading.Thread(target=print)
                    def bad(self):
                        with self._lock:
                            open("/tmp/x")
                            self._t.join()
                """,
            )
            if v.rule_id == "blocking-call-under-lock"
        ]
        assert len(rule_hits) == 2

    def test_str_join_is_silent(self, engine):
        # str.join takes the iterable positionally; Thread.join() does not
        assert fired(
            engine,
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def render(self, parts):
                    with self._lock:
                        return ", ".join(parts)
            """,
        ) == []

    def test_sleep_outside_lock_silent(self, engine):
        assert fired(
            engine,
            """
            import threading, time
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def ok(self):
                    time.sleep(0.5)
                    with self._lock:
                        pass
            """,
        ) == []

    def test_path_scoping_config_driven(self, engine):
        src = """
        import threading, time
        class C:
            def __init__(self):
                self._lock = threading.Lock()
            def slow(self):
                with self._lock:
                    time.sleep(0.5)
        """
        assert fired(engine, src, path=NEUTRAL) == []
        scoped = LintEngine(
            catalog=SchemaCatalog(),
            config=LintConfig(blocking_paths=("repro/simulators/",)),
        )
        assert "blocking-call-under-lock" in fired(scoped, src, path=NEUTRAL)

    def test_foreign_lock_acquisition_under_self_lock_warns(self, engine):
        violations = [
            v
            for v in lint(
                engine,
                """
                import threading
                class C:
                    def __init__(self, other):
                        self._lock = threading.Lock()
                        self.other = other
                    def bad(self):
                        with self._lock:
                            with self.other._peer_lock:
                                pass
                """,
            )
            if v.rule_id == "blocking-call-under-lock"
        ]
        assert len(violations) == 1
        assert "foreign lock" in violations[0].message


# -- R9: lock-order-inversion -------------------------------------------------

A_SRC = """
import threading
class Alpha:
    def __init__(self):
        self._alock = threading.Lock()
    def ab(self, b: Beta):
        with self._alock:
            with b._block:
                pass
"""

B_INVERTED_SRC = """
import threading
class Beta:
    def __init__(self):
        self._block = threading.Lock()
    def ba(self, a: Alpha):
        with self._block:
            with a._alock:
                pass
"""

B_ORDERED_SRC = """
import threading
class Beta:
    def __init__(self):
        self._block = threading.Lock()
    def ba(self, a: Alpha):
        with a._alock:
            with self._block:
                pass
"""


class TestLockOrderInversion:
    def test_cross_file_inversion_fires_once(self, engine):
        violations = [
            v
            for v in engine.lint_sources(
                [
                    ("src/repro/ui/alpha.py", textwrap.dedent(A_SRC)),
                    ("src/repro/ui/beta.py", textwrap.dedent(B_INVERTED_SRC)),
                ]
            )
            if v.rule_id == "lock-order-inversion"
        ]
        assert len(violations) == 1
        assert "Alpha._alock" in violations[0].message
        assert "Beta._block" in violations[0].message

    def test_consistent_order_is_silent(self, engine):
        violations = [
            v
            for v in engine.lint_sources(
                [
                    ("src/repro/ui/alpha.py", textwrap.dedent(A_SRC)),
                    ("src/repro/ui/beta.py", textwrap.dedent(B_ORDERED_SRC)),
                ]
            )
            if v.rule_id == "lock-order-inversion"
        ]
        assert violations == []

    def test_single_file_inversion_via_lint_source(self, engine):
        source = """
        import threading
        class A:
            def __init__(self):
                self._l1 = threading.Lock()
                self._l2 = threading.Lock()
            def one(self):
                with self._l1:
                    with self._l2:
                        pass
            def two(self):
                with self._l2:
                    with self._l1:
                        pass
        """
        assert "lock-order-inversion" in fired(engine, source)

    def test_reentrant_same_lock_is_not_an_edge(self, engine):
        assert fired(
            engine,
            """
            import threading
            class A:
                def __init__(self):
                    self._lock = threading.RLock()
                def re(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        ) == []

    def test_suppressed_acquisition_drops_the_edge(self, engine):
        suppressed = B_INVERTED_SRC.replace(
            "with a._alock:",
            "with a._alock:  # repolint: ignore[lock-order-inversion] -- replay path, documented order exception",
        )
        violations = [
            v
            for v in engine.lint_sources(
                [
                    ("src/repro/ui/alpha.py", textwrap.dedent(A_SRC)),
                    ("src/repro/ui/beta.py", textwrap.dedent(suppressed)),
                ]
            )
            if v.rule_id == "lock-order-inversion"
        ]
        assert violations == []

    def test_unresolvable_foreign_lock_drops_edge_not_guesses(self, engine):
        # two classes own `_lock`, receiver has no type hint: ambiguous
        violations = [
            v
            for v in engine.lint_sources(
                [
                    (
                        "src/repro/ui/x.py",
                        textwrap.dedent(
                            """
                            import threading
                            class X:
                                def __init__(self):
                                    self._lock = threading.Lock()
                                def go(self, peer):
                                    with self._lock:
                                        with peer._lock:
                                            pass
                            """
                        ),
                    ),
                    (
                        "src/repro/ui/y.py",
                        textwrap.dedent(
                            """
                            import threading
                            class Y:
                                def __init__(self):
                                    self._lock = threading.Lock()
                            """
                        ),
                    ),
                ]
            )
            if v.rule_id == "lock-order-inversion"
        ]
        assert violations == []

    def test_local_ctor_binding_resolves_receiver(self):
        # x = Beta(); with x._block under self._alock — hint via local ctor
        rule = LockOrderInversionRule()
        src_a = textwrap.dedent(
            """
            import threading
            class Alpha:
                def __init__(self):
                    self._alock = threading.Lock()
                def ab(self):
                    x = Beta()
                    with self._alock:
                        with x._block:
                            pass
            """
        )
        tree_a, ctx_a = ctx_for(src_a, path="src/repro/ui/a.py")
        tree_b, ctx_b = ctx_for(B_INVERTED_SRC, path="src/repro/ui/b.py")
        violations = rule.finalize(
            [rule.collect(tree_a, ctx_a), rule.collect(tree_b, ctx_b)]
        )
        assert len(violations) == 1

    def test_three_way_cycle_detected(self, engine):
        files = []
        order = [("A", "B"), ("B", "C"), ("C", "A")]
        for i, (first, second) in enumerate(order):
            files.append(
                (
                    f"src/repro/ui/f{i}.py",
                    textwrap.dedent(
                        f"""
                        import threading
                        class Cls{first}:
                            def __init__(self):
                                self._lock_{first.lower()} = threading.Lock()
                            def go(self, peer: Cls{second}):
                                with self._lock_{first.lower()}:
                                    with peer._lock_{second.lower()}:
                                        pass
                        """
                    ),
                )
            )
        violations = [
            v
            for v in engine.lint_sources(files)
            if v.rule_id == "lock-order-inversion"
        ]
        assert len(violations) == 1
        assert "ClsA._lock_a" in violations[0].message

    def test_summaries_are_picklable(self):
        import pickle

        rule = LockOrderInversionRule()
        tree, ctx = ctx_for(A_SRC, path="src/repro/ui/a.py")
        summary = rule.collect(tree, ctx)
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_registered_as_project_rule(self):
        assert [r.id for r in ALL_PROJECT_RULES] == ["lock-order-inversion"]
