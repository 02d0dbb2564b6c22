"""Project-wide class registry — the linter's lightweight type model.

Pass 1 of the linter walks every file once and records, per class:

* base-class names (resolved by simple name across the project),
* whether it defines ``__len__`` / ``__bool__`` itself,
* its ``__slots__`` (explicit tuples or ``dataclass(slots=True)`` fields),
* declared members (fields, methods, properties, class attributes),
* cache slots (dataclass fields with ``compare=False, init=False``, or an
  explicit ``_CACHE_SLOTS`` class attribute),
* an ``_ARRAY_MANIFEST`` declaration, if any,
* per-attribute types inferred from class-level annotations and simple
  ``__init__`` assignments.

Pass 2 (the rules) queries this index: "is ``Scheduler`` sized?", "does
``Task`` declare ``gid`` as a slot?", "which arrays are in
``TaskGraph``'s manifest?".  Resolution is deliberately name-based and
conservative — unknown external bases make a chain "open" (RL003 then
skips it) and never make a class sized (RL001 only fires on positive
knowledge).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["ClassInfo", "ProjectIndex", "AttrType", "parse_annotation"]

#: Builtin container types whose instances are falsy when empty.
SIZED_BUILTINS = {
    "list", "dict", "set", "frozenset", "tuple", "str", "bytes",
    "bytearray", "deque", "defaultdict", "OrderedDict", "Counter",
}

#: Decorator names that make a class a dataclass.
_DATACLASS_NAMES = {"dataclass"}


@dataclass(frozen=True, slots=True)
class AttrType:
    """A (class name, may-be-None) pair — everything RL001 needs."""

    cls: Optional[str]  # simple class name, or None when unknown
    optional: bool = False


def _name_of(node: ast.expr) -> Optional[str]:
    """Trailing simple name of a Name/Attribute chain (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def parse_annotation(node: Optional[ast.expr]) -> Optional[AttrType]:
    """Interpret an annotation AST: ``X`` / ``Optional[X]`` / ``X | None`` /
    ``Union[X, None]`` / the same spelled as string literals."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = _name_of(node)
        if name == "None":
            return AttrType(None, True)
        return AttrType(name, False)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = parse_annotation(node.left)
        right = parse_annotation(node.right)
        optional = (
            _is_none_expr(node.left)
            or _is_none_expr(node.right)
            or bool(left and left.optional)
            or bool(right and right.optional)
        )
        named = [p.cls for p in (left, right) if p is not None and p.cls is not None]
        if len(named) == 1:
            return AttrType(named[0], optional)
        return AttrType(None, optional)
    if isinstance(node, ast.Subscript):
        outer = _name_of(node.value)
        inner = node.slice
        if outer == "Optional":
            base = parse_annotation(inner)
            if base is None:
                return AttrType(None, True)
            return AttrType(base.cls, True)
        if outer == "Union":
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            optional = any(_is_none_expr(e) for e in elts)
            named = [
                t.cls
                for e in elts
                if not _is_none_expr(e)
                for t in (parse_annotation(e),)
                if t is not None and t.cls is not None
            ]
            if len(named) == 1:
                return AttrType(named[0], optional)
            return AttrType(None, optional)
        # Generic container annotation: List[int], Dict[str, X], ...
        if outer in ("List", "Dict", "Set", "FrozenSet", "Tuple", "Deque",
                     "list", "dict", "set", "frozenset", "tuple", "deque",
                     "DefaultDict", "defaultdict", "OrderedDict", "Counter"):
            return AttrType(outer.lower() if outer[0].isupper() else outer, False)
        return AttrType(None, False)
    return None


def _is_none_expr(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _string_elements(node: ast.expr) -> Optional[List[str]]:
    """Elements of a tuple/list display of string constants, else None."""
    if isinstance(node, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return None


@dataclass(slots=True)
class ClassInfo:
    """Everything the rules need to know about one class definition."""

    name: str
    module: str
    path: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    is_dataclass: bool = False
    dataclass_slots: bool = False
    has_len: bool = False
    has_bool: bool = False
    #: Explicit ``__slots__`` entries, or None when the class declares none
    #: (a ``dataclass(slots=True)`` stores its field names here instead).
    slots: Optional[Set[str]] = None
    #: Names the class body declares: fields, methods, properties, attrs.
    declared: Set[str] = field(default_factory=set)
    #: Dataclass cache slots (``compare=False, init=False`` fields) plus
    #: anything listed in an explicit ``_CACHE_SLOTS`` class attribute.
    cache_slots: Set[str] = field(default_factory=set)
    #: ``_ARRAY_MANIFEST`` entries, or None when not declared.
    manifest: Optional[List[str]] = None
    manifest_lineno: int = 0
    #: method name -> FunctionDef node (sync and async).
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attribute name -> inferred type (class annotations + __init__).
    attr_types: Dict[str, AttrType] = field(default_factory=dict)


class ProjectIndex:
    """Name-keyed registry of every class in the scanned file set."""

    def __init__(self) -> None:
        #: simple class name -> ClassInfo (first definition wins; the
        #: project has no duplicate class names that matter to the rules).
        self.classes: Dict[str, ClassInfo] = {}
        #: classes declaring an _ARRAY_MANIFEST, for RL004.
        self.manifest_classes: List[ClassInfo] = []

    # ------------------------------------------------------------------
    def add_file(self, path: str, module: str, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = self._build_class(node, path, module)
                self.classes.setdefault(info.name, info)
                if info.manifest is not None:
                    self.manifest_classes.append(info)

    # ------------------------------------------------------------------
    def _build_class(
        self, node: ast.ClassDef, path: str, module: str
    ) -> ClassInfo:
        info = ClassInfo(name=node.name, module=module, path=path,
                         lineno=node.lineno)
        for base in node.bases:
            base_name = _name_of(base)
            if base_name is not None:
                info.bases.append(base_name)
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if _name_of(target) in _DATACLASS_NAMES:
                info.is_dataclass = True
                if isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if (
                            kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            info.dataclass_slots = True
        field_names: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.declared.add(stmt.name)
                if isinstance(stmt, ast.FunctionDef):
                    info.methods[stmt.name] = stmt
                if stmt.name == "__len__":
                    info.has_len = True
                elif stmt.name == "__bool__":
                    info.has_bool = True
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                info.declared.add(name)
                field_names.add(name)
                ann = parse_annotation(stmt.annotation)
                if ann is not None:
                    info.attr_types[name] = ann
                if self._is_cache_field(stmt.value):
                    info.cache_slots.add(name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    info.declared.add(name)
                    if name == "__slots__":
                        elems = _string_elements(stmt.value)
                        if elems is not None:
                            info.slots = set(elems)
                    elif name == "_ARRAY_MANIFEST":
                        elems = _string_elements(stmt.value)
                        if elems is not None:
                            info.manifest = elems
                            info.manifest_lineno = stmt.lineno
                    elif name == "_CACHE_SLOTS":
                        elems = _string_elements(stmt.value)
                        if elems is not None:
                            info.cache_slots.update(elems)
        if info.dataclass_slots and info.slots is None:
            info.slots = set(field_names)
        init = info.methods.get("__init__")
        if init is not None:
            self._infer_init_attrs(info, init)
        return info

    @staticmethod
    def _is_cache_field(value: Optional[ast.expr]) -> bool:
        """``field(..., compare=False, init=False)`` marks a cache slot."""
        if not (
            isinstance(value, ast.Call) and _name_of(value.func) == "field"
        ):
            return False
        flags = {"compare": None, "init": None}
        for kw in value.keywords:
            if kw.arg in flags and isinstance(kw.value, ast.Constant):
                flags[kw.arg] = kw.value.value
        return flags["compare"] is False and flags["init"] is False

    # ------------------------------------------------------------------
    def _infer_init_attrs(self, info: ClassInfo, init: ast.FunctionDef) -> None:
        """Infer ``self.X`` types from simple ``__init__`` assignments."""
        params: Dict[str, AttrType] = {}
        args = init.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ann = parse_annotation(a.annotation)
            if ann is not None:
                params[a.arg] = ann
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            inferred = self._infer_value(stmt.value, params)
            if inferred is not None and attr not in info.attr_types:
                info.attr_types[attr] = inferred

    def _infer_value(
        self, value: ast.expr, params: Dict[str, AttrType]
    ) -> Optional[AttrType]:
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, ast.Call):
            name = _name_of(value.func)
            if name is not None and (
                name in self.classes or name in SIZED_BUILTINS
            ):
                return AttrType(name, False)
            return None
        if isinstance(value, ast.IfExp):
            # ``x if x is not None else Default()`` -> non-optional;
            # ``Thing() if cond else None`` -> Optional[Thing].
            body_t = self._infer_value(value.body, params)
            else_t = self._infer_value(value.orelse, params)
            if _is_none_expr(value.orelse):
                if body_t is not None:
                    return AttrType(body_t.cls, True)
                return AttrType(None, True)
            if _is_none_expr(value.body):
                if else_t is not None:
                    return AttrType(else_t.cls, True)
                return AttrType(None, True)
            if (
                isinstance(value.test, ast.Compare)
                and len(value.test.ops) == 1
                and isinstance(value.test.ops[0], (ast.Is, ast.IsNot))
            ):
                chosen = body_t or else_t
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

    # ------------------------------------------------------------------
    # resolution queries
    # ------------------------------------------------------------------
    def mro_names(self, name: str, _seen: Optional[Set[str]] = None) -> List[str]:
        """Project-resolvable ancestor chain (self first, cycles guarded)."""
        seen = _seen if _seen is not None else set()
        if name in seen:
            return []
        seen.add(name)
        info = self.classes.get(name)
        if info is None:
            return [name]
        out = [name]
        for base in info.bases:
            out.extend(self.mro_names(base, seen))
        return out

    def is_sized(self, name: str) -> bool:
        """Does the class (or any project-resolvable ancestor) define
        ``__len__`` or ``__bool__``?  Builtin containers count."""
        if name in SIZED_BUILTINS:
            return True
        for ancestor in self.mro_names(name):
            info = self.classes.get(ancestor)
            if info is not None and (info.has_len or info.has_bool):
                return True
        return False

    def is_project_class(self, name: str) -> bool:
        return name in self.classes

    def fully_slotted(self, name: str) -> bool:
        """True when every class in the chain is slotted and the chain is
        fully project-resolvable (unknown bases may add ``__dict__``)."""
        for ancestor in self.mro_names(name):
            if ancestor == "object":
                continue
            info = self.classes.get(ancestor)
            if info is None:
                return False
            if info.slots is None:
                return False
        return True

    def declared_members(self, name: str) -> Set[str]:
        """Slots + declared members across the project-resolvable chain."""
        out: Set[str] = set()
        for ancestor in self.mro_names(name):
            info = self.classes.get(ancestor)
            if info is not None:
                out |= info.declared
                if info.slots is not None:
                    out |= info.slots
        return out
