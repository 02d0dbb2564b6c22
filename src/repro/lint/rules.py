"""The five invariant rules.

Each rule is a function ``(FileContext) -> None`` appending
:class:`~repro.lint.findings.Finding` objects to the context.  Rules are
registered in :data:`RULES` with the documentation the CLI and
``docs/lint.md`` surface.  Every rule is motivated by an invariant this
repo's tests pin dynamically — the linter is the static half of the same
contract (see the package docstring and ``docs/lint.md`` for the full
catalogue with history).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .project import (
    AttrType,
    ProjectIndex,
    SIZED_BUILTINS,
    parse_annotation,
)

__all__ = ["RULES", "RuleInfo", "FileContext", "run_rules"]


# ----------------------------------------------------------------------
# shared context
# ----------------------------------------------------------------------
@dataclass
class FileContext:
    """One file being linted: AST + resolved module facts."""

    path: str        # as reported in findings (relative when possible)
    module: str      # dotted module guess, e.g. "repro.core.runtime"
    tree: ast.Module
    index: ProjectIndex
    findings: List[Finding] = field(default_factory=list)

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )


def _name_of(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _expr_key(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """Identity key for narrowing: ``x`` or ``self.x`` (nothing deeper)."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
    ):
        return (node.value.id, node.attr)
    return None


def _terminates(stmts: Sequence[ast.stmt]) -> bool:
    """Does the block end control flow (return/raise/continue/break)?"""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


# ======================================================================
# RL001 — truthiness guard on sized objects
# ======================================================================
class _TruthinessChecker:
    """Flags truthiness tests on possibly-None values of sized classes.

    The FIFO-regression pattern: ``scheduler or FifoScheduler()`` with
    ``scheduler: Optional[Scheduler]`` silently replaces an *empty* (and
    therefore falsy, because ``Scheduler.__len__`` exists) scheduler with
    FIFO.  Two variants fire:

    * **or-default** (``x or default`` in value position) on
      ``Optional[T]`` for any project class or builtin container ``T`` —
      even a class without ``__len__`` today is one innocuous
      ``__len__``/``__bool__`` addition away from the FIFO bug, which is
      exactly how the original regression was born.
    * **bool-test** (``if x:`` / ``while x:`` / ``not x`` / boolean
      operands) on ``Optional[T]`` where ``T`` *is* sized — the test
      conflates "absent" with "empty" right now.

    Inference is annotation-driven (parameters, annotated assignments,
    constructor calls, class attribute types) with ``is None`` /
    ``is not None`` narrowing, so the required ``is not None`` spelling
    both fixes the finding and documents intent.
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.index = ctx.index

    # -- type lookup ---------------------------------------------------
    def _type_of(
        self,
        node: ast.expr,
        env: Dict[Tuple[str, ...], AttrType],
    ) -> Optional[AttrType]:
        key = _expr_key(node)
        if key is None:
            return None
        return env.get(key)

    def _infer_value(
        self, value: ast.expr, env: Dict[Tuple[str, ...], AttrType]
    ) -> Optional[AttrType]:
        if isinstance(value, (ast.Name, ast.Attribute)):
            return self._type_of(value, env)
        if isinstance(value, ast.Call):
            name = _name_of(value.func)
            if name is not None and (
                name in self.index.classes or name in SIZED_BUILTINS
            ):
                return AttrType(name, False)
            return None
        if isinstance(value, ast.IfExp):
            if isinstance(value.orelse, ast.Constant) and value.orelse.value is None:
                body_t = self._infer_value(value.body, env)
                return AttrType(body_t.cls if body_t else None, True)
            if isinstance(value.body, ast.Constant) and value.body.value is None:
                else_t = self._infer_value(value.orelse, env)
                return AttrType(else_t.cls if else_t else None, True)
            if (
                isinstance(value.test, ast.Compare)
                and len(value.test.ops) == 1
                and isinstance(value.test.ops[0], (ast.Is, ast.IsNot))
            ):
                chosen = self._infer_value(value.body, env) or self._infer_value(
                    value.orelse, env
                )
                if chosen is not None:
                    return AttrType(chosen.cls, False)
            return None
        if isinstance(value, (ast.List, ast.ListComp)):
            return AttrType("list", False)
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return AttrType("dict", False)
        if isinstance(value, (ast.Set, ast.SetComp)):
            return AttrType("set", False)
        if isinstance(value, ast.Tuple):
            return AttrType("tuple", False)
        if isinstance(value, ast.Constant):
            if isinstance(value.value, str):
                return AttrType("str", False)
            if value.value is None:
                return AttrType(None, True)
        return None

    # -- flagging ------------------------------------------------------
    def _maybe_none(
        self,
        node: ast.expr,
        env: Dict[Tuple[str, ...], AttrType],
        narrowed: Set[Tuple[str, ...]],
    ) -> Optional[AttrType]:
        t = self._type_of(node, env)
        if t is None or not t.optional or t.cls is None:
            return None
        key = _expr_key(node)
        if key in narrowed:
            return None
        return t

    def _check_test(
        self,
        node: ast.expr,
        env: Dict[Tuple[str, ...], AttrType],
        narrowed: Set[Tuple[str, ...]],
    ) -> None:
        """Flag a truth-tested expression when Optional *and* sized."""
        t = self._maybe_none(node, env, narrowed)
        if t is None:
            return
        if self.index.is_sized(t.cls):
            self.ctx.report(
                "RL001",
                node,
                f"truthiness test on Optional[{t.cls}] — {t.cls} defines "
                "__len__/__bool__, so this conflates 'absent' with "
                "'empty'; test `is not None` (and emptiness separately "
                "if needed)",
            )

    def _check_or_default(
        self,
        node: ast.expr,
        env: Dict[Tuple[str, ...], AttrType],
        narrowed: Set[Tuple[str, ...]],
    ) -> None:
        """Flag ``x or default`` for Optional project/builtin types."""
        t = self._maybe_none(node, env, narrowed)
        if t is None:
            return
        if self.index.is_sized(t.cls):
            self.ctx.report(
                "RL001",
                node,
                f"`{ast.unparse(node)} or ...` on Optional[{t.cls}] — "
                f"{t.cls} defines __len__/__bool__, so an *empty* "
                f"{t.cls} is silently replaced by the default (the PR 1 "
                "`scheduler or FifoScheduler()` regression); use "
                "`x if x is not None else default`",
            )
        elif self.index.is_project_class(t.cls):
            self.ctx.report(
                "RL001",
                node,
                f"`{ast.unparse(node)} or ...` on Optional[{t.cls}] — "
                "or-defaulting keys on truthiness, which silently breaks "
                f"the day {t.cls} grows __len__/__bool__ (how the FIFO "
                "regression was born); use `x if x is not None else "
                "default`",
            )

    # -- narrowing facts from a test expression ------------------------
    def _narrow_facts(
        self, test: ast.expr
    ) -> Tuple[Set[Tuple[str, ...]], Set[Tuple[str, ...]]]:
        """(keys non-None when test is True, keys non-None when False)."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            key = _expr_key(test.left)
            right = test.comparators[0]
            is_none_cmp = isinstance(right, ast.Constant) and right.value is None
            if key is not None and is_none_cmp:
                if isinstance(test.ops[0], ast.IsNot):
                    return {key}, set()
                if isinstance(test.ops[0], ast.Is):
                    return set(), {key}
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            true_facts: Set[Tuple[str, ...]] = set()
            for operand in test.values:
                t, _ = self._narrow_facts(operand)
                true_facts |= t
            return true_facts, set()
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            t, f = self._narrow_facts(test.operand)
            return f, t
        return set(), set()

    # -- expression walk -----------------------------------------------
    def _walk_expr(
        self,
        node: ast.expr,
        env: Dict[Tuple[str, ...], AttrType],
        narrowed: Set[Tuple[str, ...]],
        as_test: bool = False,
    ) -> None:
        if isinstance(node, ast.BoolOp):
            running = set(narrowed)
            n = len(node.values)
            for i, operand in enumerate(node.values):
                value_position = not as_test and i == n - 1
                if not value_position:
                    if isinstance(node.op, ast.Or) and not as_test and i < n - 1:
                        self._check_or_default(operand, env, running)
                    else:
                        self._check_test(operand, env, running)
                self._walk_expr(operand, env, running, as_test=False)
                true_facts, false_facts = self._narrow_facts(operand)
                # Later operands only evaluate when this one was truthy
                # (and) / falsy (or).
                running |= true_facts if isinstance(node.op, ast.And) else false_facts
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self._check_test(node.operand, env, narrowed)
            self._walk_expr(node.operand, env, narrowed)
            return
        if isinstance(node, ast.IfExp):
            self._check_test(node.test, env, narrowed)
            self._walk_expr(node.test, env, narrowed, as_test=True)
            true_facts, false_facts = self._narrow_facts(node.test)
            self._walk_expr(node.body, env, narrowed | true_facts)
            self._walk_expr(node.orelse, env, narrowed | false_facts)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._walk_expr(gen.iter, env, narrowed)
                for cond in gen.ifs:
                    self._check_test(cond, env, narrowed)
                    self._walk_expr(cond, env, narrowed, as_test=True)
            if isinstance(node, ast.DictComp):
                self._walk_expr(node.key, env, narrowed)
                self._walk_expr(node.value, env, narrowed)
            else:
                self._walk_expr(node.elt, env, narrowed)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child, env, narrowed)
            elif isinstance(child, ast.keyword):
                self._walk_expr(child.value, env, narrowed)

    # -- statement walk ------------------------------------------------
    def _walk_block(
        self,
        stmts: Sequence[ast.stmt],
        env: Dict[Tuple[str, ...], AttrType],
        narrowed: Set[Tuple[str, ...]],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are visited separately
            if isinstance(stmt, ast.Assign):
                self._walk_expr(stmt.value, env, narrowed)
                inferred = self._infer_value(stmt.value, env)
                for target in stmt.targets:
                    key = _expr_key(target)
                    if key is not None:
                        narrowed.discard(key)
                        if inferred is not None:
                            env[key] = inferred
                        else:
                            env.pop(key, None)
                continue
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._walk_expr(stmt.value, env, narrowed)
                key = _expr_key(stmt.target)
                ann = parse_annotation(stmt.annotation)
                if key is not None:
                    narrowed.discard(key)
                    if ann is not None:
                        env[key] = ann
                continue
            if isinstance(stmt, ast.If):
                self._check_test(stmt.test, env, narrowed)
                self._walk_expr(stmt.test, env, narrowed, as_test=True)
                true_facts, false_facts = self._narrow_facts(stmt.test)
                self._walk_block(stmt.body, env, narrowed | true_facts)
                self._walk_block(stmt.orelse, env, narrowed | false_facts)
                # ``if x is None: return`` narrows the rest of the block.
                if _terminates(stmt.body):
                    narrowed |= false_facts
                if stmt.orelse and _terminates(stmt.orelse):
                    narrowed |= true_facts
                continue
            if isinstance(stmt, ast.While):
                self._check_test(stmt.test, env, narrowed)
                self._walk_expr(stmt.test, env, narrowed, as_test=True)
                true_facts, _ = self._narrow_facts(stmt.test)
                self._walk_block(stmt.body, env, narrowed | true_facts)
                self._walk_block(stmt.orelse, env, set(narrowed))
                continue
            if isinstance(stmt, ast.Assert):
                self._check_test(stmt.test, env, narrowed)
                self._walk_expr(stmt.test, env, narrowed, as_test=True)
                true_facts, _ = self._narrow_facts(stmt.test)
                narrowed |= true_facts
                continue
            if isinstance(stmt, ast.For):
                self._walk_expr(stmt.iter, env, narrowed)
                key = _expr_key(stmt.target)
                if key is not None:
                    env.pop(key, None)
                    narrowed.discard(key)
                self._walk_block(stmt.body, env, set(narrowed))
                self._walk_block(stmt.orelse, env, set(narrowed))
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._walk_expr(item.context_expr, env, narrowed)
                self._walk_block(stmt.body, env, narrowed)
                continue
            if isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, env, set(narrowed))
                for handler in stmt.handlers:
                    self._walk_block(handler.body, env, set(narrowed))
                self._walk_block(stmt.orelse, env, set(narrowed))
                self._walk_block(stmt.finalbody, env, set(narrowed))
                continue
            # Remaining statements: walk embedded expressions.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, env, narrowed)

    # -- entry ---------------------------------------------------------
    def check_function(
        self, fn: ast.FunctionDef, owner_class: Optional[str]
    ) -> None:
        env: Dict[Tuple[str, ...], AttrType] = {}
        args = fn.args
        all_args = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        for a in all_args:
            ann = parse_annotation(a.annotation)
            if ann is not None:
                env[(a.arg,)] = ann
        if owner_class is not None and all_args:
            self_name = all_args[0].arg
            info = self.index.classes.get(owner_class)
            if info is not None:
                for attr, t in info.attr_types.items():
                    env[(self_name, attr)] = t
        self._walk_block(fn.body, env, set())


def rule_rl001(ctx: FileContext) -> None:
    checker = _TruthinessChecker(ctx)

    def visit(node: ast.AST, owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                checker.check_function(child, owner)
                visit(child, None)
            else:
                visit(child, owner)

    visit(ctx.tree, None)
    # Module-level statements (rare, but config code counts too).
    module_env: Dict[Tuple[str, ...], AttrType] = {}
    checker._walk_block(
        [
            s
            for s in ctx.tree.body
            if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ],
        module_env,
        set(),
    )


# ======================================================================
# RL002 — determinism (seeded randomness, no wall clock, ordered sinks)
# ======================================================================
#: time-module attributes that read the host clock.
_WALLCLOCK_TIME_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: numpy.random constructors that take an explicit seed — allowed.
_SEEDED_NP_RANDOM = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "PCG64", "Philox", "MT19937", "BitGenerator",
}
#: random-module constructors returning a seedable instance — allowed.
_SEEDED_RANDOM = {"Random", "SystemRandom"}

#: Ordering-sensitive sinks: TDG edge insertion, event scheduling,
#: submission.  Feeding them from unordered iteration makes the run
#: depend on hash order.
_ORDER_SINKS = {
    "add_edge", "register_batch", "schedule", "schedule_at", "defer",
    "push", "submit", "submit_all",
}

#: Path suffixes where wall-clock reads are legitimate.  Exactly one
#: source module qualifies: ``repro.obs.timing``, the observability
#: layer's timing seam — everything else in ``src/`` (the campaign
#: runner's timing blocks included) imports its ``now``/``unix_now``
#: helpers instead of reading the clock directly, so host time stays
#: auditable through a single choke point.
WALLCLOCK_WHITELIST = (
    "repro/obs/timing.py",
)
_WALLCLOCK_DIR_HINTS = ("benchmarks/", "tools/", "examples/")


def _wallclock_allowed(path: str) -> bool:
    norm = path.replace("\\", "/")
    if any(norm.endswith(suffix) for suffix in WALLCLOCK_WHITELIST):
        return True
    return any(hint in norm for hint in _WALLCLOCK_DIR_HINTS)


class _ImportMap:
    """Which local names refer to the random/time/datetime modules."""

    def __init__(self, tree: ast.Module) -> None:
        self.random_modules: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_modules: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.from_random: Set[str] = set()
        self.from_time: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(local)
                    elif alias.name in ("numpy", "numpy.random"):
                        if alias.name == "numpy.random" and alias.asname:
                            self.numpy_random_modules.add(alias.asname)
                        else:
                            self.numpy_modules.add(local)
                    elif alias.name == "time":
                        self.time_modules.add(local)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_RANDOM:
                            self.from_random.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random_modules.add(
                                alias.asname or alias.name
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_NP_RANDOM:
                            self.from_random.add(alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALLCLOCK_TIME_ATTRS:
                            self.from_time.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(alias.asname or alias.name)


def rule_rl002(ctx: FileContext) -> None:
    imports = _ImportMap(ctx.tree)
    wallclock_ok = _wallclock_allowed(ctx.path)
    in_core_or_sim = ctx.module.startswith(("repro.core", "repro.sim"))

    def flag_random_call(call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            base = func.value
            # random.<fn>(...)
            if (
                isinstance(base, ast.Name)
                and base.id in imports.random_modules
                and func.attr not in _SEEDED_RANDOM
            ):
                ctx.report(
                    "RL002", call,
                    f"module-level `random.{func.attr}()` shares global "
                    "RNG state — use a seeded `random.Random(seed)` "
                    "instance",
                )
                return
            # np.random.<fn>(...) / numpy.random-as-name
            if func.attr not in _SEEDED_NP_RANDOM:
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in imports.numpy_modules
                ) or (
                    isinstance(base, ast.Name)
                    and base.id in imports.numpy_random_modules
                ):
                    ctx.report(
                        "RL002", call,
                        f"module-level `numpy.random.{func.attr}()` uses "
                        "global RNG state — use "
                        "`numpy.random.default_rng(seed)`",
                    )
        elif isinstance(func, ast.Name) and func.id in imports.from_random:
            ctx.report(
                "RL002", call,
                f"`{func.id}()` imported from the random module uses "
                "global RNG state — use a seeded generator instance",
            )

    def flag_wallclock_call(call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in imports.time_modules
                and func.attr in _WALLCLOCK_TIME_ATTRS
            ):
                ctx.report(
                    "RL002", call,
                    f"wall-clock read `time.{func.attr}()` outside the "
                    "timing/bench whitelist — simulated results must not "
                    "depend on host time",
                )
                return
            if func.attr in _WALLCLOCK_DATETIME_ATTRS:
                if isinstance(base, ast.Name) and (
                    base.id in imports.datetime_classes
                    or base.id in imports.datetime_modules
                ):
                    ctx.report(
                        "RL002", call,
                        f"wall-clock read `{base.id}.{func.attr}()` outside "
                        "the timing/bench whitelist",
                    )
                    return
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in imports.datetime_modules
                ):
                    ctx.report(
                        "RL002", call,
                        f"wall-clock read `datetime.{base.attr}."
                        f"{func.attr}()` outside the timing/bench "
                        "whitelist",
                    )
        elif isinstance(func, ast.Name) and func.id in imports.from_time:
            ctx.report(
                "RL002", call,
                f"wall-clock read `{func.id}()` outside the timing/bench "
                "whitelist",
            )

    def is_unordered_expr(node: ast.expr, set_names: Set[str]) -> Optional[str]:
        """Describe why the expression iterates in hash/unordered order."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set display"
        if isinstance(node, ast.Call):
            fname = _name_of(node.func)
            if fname in ("set", "frozenset"):
                return f"`{fname}(...)`"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "values"
            ):
                return "`.values()` of a mapping"
        if isinstance(node, ast.Name) and node.id in set_names:
            return f"`{node.id}` (assigned from a set)"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            left = is_unordered_expr(node.left, set_names)
            right = is_unordered_expr(node.right, set_names)
            return left or right
        return None

    def sink_name(call: ast.Call) -> Optional[str]:
        name = _name_of(call.func)
        return name if name in _ORDER_SINKS else None

    # Pass A: random + wall clock, everywhere.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            flag_random_call(node)
            if not wallclock_ok:
                flag_wallclock_call(node)

    # Pass B: unordered iteration feeding ordering-sensitive sinks, only
    # inside the deterministic engine (repro.core / repro.sim).
    if not in_core_or_sim:
        return

    def check_function_body(fn: ast.AST) -> None:
        set_names: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and is_unordered_expr(
                    node.value, set()
                ):
                    set_names.add(target.id)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                sink = sink_name(node)
                if sink is not None:
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        why = is_unordered_expr(arg, set_names)
                        if why is not None:
                            ctx.report(
                                "RL002", arg,
                                f"{why} feeds ordering-sensitive sink "
                                f"`{sink}()` — iterate a deterministic "
                                "order (sorted(...) or an "
                                "insertion-ordered structure)",
                            )
            elif isinstance(node, ast.For):
                why = is_unordered_expr(node.iter, set_names)
                if why is None:
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call) and sink_name(inner):
                        ctx.report(
                            "RL002", node,
                            f"iteration over {why} drives "
                            f"`{sink_name(inner)}()` — loop order must be "
                            "deterministic (sort first)",
                        )
                        break

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.FunctionDef):
            check_function_body(node)


# ======================================================================
# RL003 — __slots__ discipline
# ======================================================================
def rule_rl003(ctx: FileContext) -> None:
    index = ctx.index

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = index.classes.get(node.name)
        if info is None or info.path != ctx.path:
            continue

        # --- undeclared self.X assignments on fully-slotted chains ----
        if index.fully_slotted(node.name):
            declared = index.declared_members(node.name)
            # dunders every slotted instance still supports
            declared |= {"__dict__", "__weakref__"}
            for method in info.methods.values():
                self_name = None
                args = method.args
                all_args = list(args.posonlyargs) + list(args.args)
                if all_args:
                    self_name = all_args[0].arg
                if self_name is None:
                    continue
                for stmt in ast.walk(method):
                    targets: List[ast.expr] = []
                    if isinstance(stmt, ast.Assign):
                        targets = list(stmt.targets)
                    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                        targets = [stmt.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name
                            and target.attr not in declared
                        ):
                            ctx.report(
                                "RL003", target,
                                f"assignment to undeclared slot "
                                f"`self.{target.attr}` on fully-slotted "
                                f"class {node.name} — declare it in "
                                "__slots__ (or as a dataclass field)",
                            )
                    # object.__setattr__(self, "X", ...) on frozen classes
                    if (
                        isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)
                        and _name_of(stmt.value.func) == "__setattr__"
                        and len(stmt.value.args) >= 2
                    ):
                        recv, attr_arg = stmt.value.args[0], stmt.value.args[1]
                        if (
                            isinstance(recv, ast.Name)
                            and recv.id == self_name
                            and isinstance(attr_arg, ast.Constant)
                            and isinstance(attr_arg.value, str)
                            and attr_arg.value not in declared
                        ):
                            ctx.report(
                                "RL003", stmt.value,
                                f"object.__setattr__ to undeclared slot "
                                f"`{attr_arg.value}` on fully-slotted "
                                f"class {node.name}",
                            )

        # --- cache slots out of eq/hash/pickle ------------------------
        if not info.cache_slots:
            continue
        cache = info.cache_slots
        missing = cache - (info.slots or set()) - set(info.attr_types) - info.declared
        for name in sorted(missing):
            ctx.report(
                "RL003", node,
                f"cache slot `{name}` declared but not a field/slot of "
                f"{node.name}",
            )
        if "__getstate__" not in index.declared_members(node.name):
            ctx.report(
                "RL003", node,
                f"{node.name} declares cache slots "
                f"({', '.join(sorted(cache))}) but no __getstate__ — "
                "default pickling would serialise the caches (and drag "
                "their owner graph across the campaign worker boundary)",
            )
        for dunder in ("__eq__", "__hash__", "__reduce__", "__getstate__"):
            method = info.methods.get(dunder)
            if method is None:
                continue
            for inner in ast.walk(method):
                referenced = None
                if isinstance(inner, ast.Attribute) and inner.attr in cache:
                    referenced = inner.attr
                elif (
                    isinstance(inner, ast.Constant)
                    and isinstance(inner.value, str)
                    and inner.value in cache
                ):
                    referenced = inner.value
                if referenced is not None:
                    ctx.report(
                        "RL003", inner,
                        f"cache slot `{referenced}` referenced in "
                        f"{node.name}.{dunder} — cache slots must stay "
                        "out of equality, hashing and pickle state",
                    )


# ======================================================================
# RL004 — parallel-array lockstep
# ======================================================================
def _manifest_universe(index: ProjectIndex) -> Dict[str, List[str]]:
    """attr name -> manifest (first manifest claiming the name wins)."""
    out: Dict[str, List[str]] = {}
    for info in index.manifest_classes:
        for name in info.manifest or ():
            out.setdefault(name, info.manifest)  # type: ignore[arg-type]
    return out


def rule_rl004(ctx: FileContext) -> None:
    index = ctx.index
    if not index.manifest_classes:
        return
    universe = _manifest_universe(index)

    # --- the manifest class itself --------------------------------------
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = index.classes.get(node.name)
        if info is None or info.manifest is None or info.path != ctx.path:
            continue
        manifest = set(info.manifest)
        init = info.methods.get("__init__")
        if init is not None:
            assigned: Set[str] = set()
            for stmt in ast.walk(init):
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                    ):
                        assigned.add(target.attr)
            for name in sorted(manifest - assigned):
                ctx.report(
                    "RL004", init,
                    f"manifest array `{name}` of {node.name} is not "
                    "initialised in __init__",
                )
        for mname, method in info.methods.items():
            grown = _grown_attrs(method, manifest, op="append")
            if grown and grown != manifest:
                missing = ", ".join(sorted(manifest - grown))
                ctx.report(
                    "RL004", method,
                    f"{node.name}.{mname} appends to "
                    f"{len(grown)}/{len(manifest)} manifest arrays — "
                    f"missing: {missing}; parallel arrays must grow in "
                    "lockstep",
                )

    # --- bulk-extend / trim paths anywhere ------------------------------
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for op, verb in (("extend", "bulk-extends"), ("delslice", "slice-trims")):
            touched = _grown_attrs(node, set(universe), op=op)
            if not touched:
                continue
            # Which manifest does this function target?  The one owning
            # the touched names (they all belong to the same manifest in
            # practice; pick the first).
            manifest = set(universe[next(iter(touched))])
            relevant = touched & manifest
            if len(relevant) >= 2 and relevant != manifest:
                missing = ", ".join(sorted(manifest - relevant))
                ctx.report(
                    "RL004", node,
                    f"{node.name} {verb} {len(relevant)}/{len(manifest)} "
                    f"manifest arrays — missing: {missing}; parallel "
                    "arrays must grow and shrink in lockstep",
                )


def _grown_attrs(
    fn: ast.AST, names: Set[str], op: str
) -> Set[str]:
    """Manifest attrs grown (append/extend) or trimmed (del-slice) in fn.

    Tracks simple aliases (``v = obj.X``) and for-loops over alias
    tuples (``for arr in (a, b, obj.c): del arr[cut:]``).
    """
    aliases: Dict[str, Set[str]] = {}

    def attr_names(expr: ast.expr) -> Set[str]:
        if isinstance(expr, ast.Attribute) and expr.attr in names:
            return {expr.attr}
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id, set())
        if isinstance(expr, (ast.Tuple, ast.List)):
            out: Set[str] = set()
            for elt in expr.elts:
                out |= attr_names(elt)
            return out
        return set()

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                mapped = attr_names(node.value)
                if mapped:
                    aliases[target.id] = mapped
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            mapped = attr_names(node.iter)
            if mapped:
                aliases[node.target.id] = mapped

    grown: Set[str] = set()
    for node in ast.walk(fn):
        if op in ("append", "extend"):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == op
            ):
                grown |= attr_names(node.func.value)
        elif op == "delslice":
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        grown |= attr_names(target.value)
    return grown


# ======================================================================
# RL005 — pickle-boundary safety
# ======================================================================
#: Callables producing values that survive the worker boundary intact.
_PICKLE_SAFE_CALLS = {
    "dict", "list", "tuple", "sorted", "str", "int", "float", "bool",
    "round", "min", "max", "sum", "len", "abs", "repr", "format",
}


def _bad_payload_expr(node: ast.expr) -> Optional[str]:
    """Why this expression must not cross the Scenario/record boundary."""
    if isinstance(node, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression (unpicklable, single-shot)"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set (unordered: record serialisation becomes " "nondeterministic)"
    if isinstance(node, ast.Call):
        name = _name_of(node.func)
        if name in ("set", "frozenset"):
            return f"`{name}(...)` (unordered: nondeterministic serialisation)"
        if name in ("open", "iter"):
            return f"`{name}(...)` (unpicklable handle/iterator)"
    return None


def _walk_payload(ctx: FileContext, node: ast.expr, where: str) -> None:
    bad = _bad_payload_expr(node)
    if bad is not None:
        ctx.report(
            "RL005", node,
            f"{where} built from {bad} — Scenario payloads and campaign "
            "records must hold picklable, worker-stable values (JSON "
            "scalars and dict/list/tuple compositions of them)",
        )
        return
    if isinstance(node, ast.Dict):
        for value in node.values:
            if value is not None:
                _walk_payload(ctx, value, where)
    elif isinstance(node, (ast.List, ast.Tuple)):
        for elt in node.elts:
            _walk_payload(ctx, elt, where)
    elif isinstance(node, ast.Call):
        name = _name_of(node.func)
        if name in _PICKLE_SAFE_CALLS:
            for arg in node.args:
                _walk_payload(ctx, arg, where)


#: Names whose dict-display assignments are record constructions.
_RECORD_NAMES = {"record", "metrics", "stats", "meta", "timing"}


def rule_rl005(ctx: FileContext) -> None:
    in_campaign = ctx.module.startswith("repro.campaign")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            callee = _name_of(node.func)
            if callee == "Scenario" or callee == "with_params":
                for kw in node.keywords:
                    if kw.value is not None:
                        _walk_payload(
                            ctx, kw.value,
                            f"Scenario payload `{kw.arg or '**'}`",
                        )
                for arg in node.args:
                    _walk_payload(ctx, arg, "Scenario payload")
            elif callee == "product":
                for kw in node.keywords:
                    if kw.arg == "params":
                        _walk_payload(ctx, kw.value, "Matrix params")
        if not in_campaign:
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id in _RECORD_NAMES
                and isinstance(node.value, ast.Dict)
            ):
                _walk_payload(ctx, node.value, f"record `{target.id}`")
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in _RECORD_NAMES
            ):
                _walk_payload(ctx, node.value, "record field")


# ======================================================================
# registry
# ======================================================================
@dataclass(frozen=True)
class RuleInfo:
    """One rule: id, checker, and the documentation the CLI surfaces."""

    rule_id: str
    title: str
    check: object  # Callable[[FileContext], None]
    rationale: str


RULES: Dict[str, RuleInfo] = {
    "RL001": RuleInfo(
        "RL001",
        "truthiness guard on sized objects",
        rule_rl001,
        "`x or default` / `if x:` on Optional values of classes defining "
        "__len__ conflates 'absent' with 'empty' — the "
        "`scheduler or FifoScheduler()` regression that nulled every "
        "scheduler-axis sweep from PR 1 to PR 4.  Require `is not None`.",
    ),
    "RL002": RuleInfo(
        "RL002",
        "determinism: seeded RNG, no wall clock, ordered sinks",
        rule_rl002,
        "Simulated results must be bit-identical across runs, workers and "
        "hosts: no global-state RNG calls, no host-clock reads outside "
        "the timing/bench whitelist, and no set-ordered iteration feeding "
        "edge insertion, event scheduling or submission in "
        "repro.core/repro.sim.",
    ),
    "RL003": RuleInfo(
        "RL003",
        "__slots__ discipline and cache-slot hygiene",
        rule_rl003,
        "Fully-slotted classes must declare every attribute they assign "
        "(an undeclared slot raises only on the first untested path), and "
        "cache slots (compare=False, init=False fields or _CACHE_SLOTS) "
        "must stay out of __eq__/__hash__/__getstate__/__reduce__ or "
        "pickles drag whatever they cache across the campaign worker "
        "boundary.",
    ),
    "RL004": RuleInfo(
        "RL004",
        "parallel-array lockstep",
        rule_rl004,
        "TaskGraph's struct-of-arrays storage only works if every array "
        "in its _ARRAY_MANIFEST grows and shrinks together; a path that "
        "appends/extends/trims a strict subset desynchronises gid "
        "indexing for every downstream reader.",
    ),
    "RL005": RuleInfo(
        "RL005",
        "pickle-boundary safety",
        rule_rl005,
        "Scenario payloads and campaign records cross multiprocessing "
        "and JSONL boundaries: lambdas/generators break pickling, sets "
        "serialise in nondeterministic order and break the bit-identical "
        "record contract.",
    ),
}


def run_rules(ctx: FileContext, selected: Optional[Set[str]] = None) -> None:
    for rule_id, info in RULES.items():
        if selected is not None and rule_id not in selected:
            continue
        info.check(ctx)  # type: ignore[operator]
