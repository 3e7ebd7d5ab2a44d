"""``hot-path``: replay hot paths keep ``__slots__`` and dispatch-free loops.

PR 2/4/6 bought their speedups partly by giving every per-access object
``__slots__`` (no dict allocation per instance, faster attribute loads) and
by eliminating per-item ``isinstance`` dispatch from the replay loops.  Both
regress silently — a new helper class or a convenient type check costs a few
percent that no test fails on.  This rule pins them:

* every class in the hot modules (``repro.bpu.*`` structures and the vector
  engine) must declare ``__slots__`` or be a ``@dataclass(slots=True)``;
  ``typing.Protocol`` / enum / exception classes are exempt (never
  instantiated per access);
* no ``isinstance`` call inside a loop in the vector replay module
  (``repro.sim.vector``) or the ``repro.bpu`` structures.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.framework import ModuleUnit, Project, Rule, register_rule
from repro.lint.rules._ast import (
    dataclass_slots,
    finding_at,
    has_own_slots,
)

#: Modules whose classes are allocated on the per-access/per-span hot path.
SLOTS_SCOPE = ("repro.bpu.", "repro.sim.vector")

#: Optimized replay modules that must stay free of per-item isinstance.
LOOP_SCOPE = ("repro.bpu.", "repro.sim.vector")

#: Base classes whose subclasses are exempt from the slots requirement.
_EXEMPT_BASES = frozenset({
    "Protocol", "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "NamedTuple", "TypedDict", "Exception", "BaseException",
})


def _is_exempt(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        try:
            name = ast.unparse(base).split(".")[-1]
        except Exception:  # pragma: no cover - unparse of odd bases
            continue
        if name in _EXEMPT_BASES or name.endswith("Error"):
            return True
    return False


def _check_slots(unit: ModuleUnit) -> Iterator[Finding]:
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_exempt(node):
            continue
        if has_own_slots(node) or dataclass_slots(node):
            continue
        yield finding_at(
            RULE, unit, node,
            f"class {node.name} in hot module {unit.module} lacks "
            "__slots__; per-access objects must not allocate a __dict__ "
            "(declare __slots__ or use @dataclass(slots=True))")


def _check_loops(unit: ModuleUnit) -> Iterator[Finding]:
    loops = [node for node in ast.walk(unit.tree)
             if isinstance(node, (ast.For, ast.AsyncFor, ast.While))]
    seen: set[int] = set()
    for loop in loops:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance":
                if id(node) in seen:
                    continue
                seen.add(id(node))
                yield finding_at(
                    RULE, unit, node,
                    "isinstance() inside a replay-path loop reintroduces "
                    "per-item dispatch; hoist the type decision out of the "
                    "loop (registry protocol, enum tag, or pre-split "
                    "columns)")


def _check(project: Project) -> Iterator[Finding]:
    for unit in project.in_scope(SLOTS_SCOPE):
        yield from _check_slots(unit)
    for unit in project.in_scope(LOOP_SCOPE):
        yield from _check_loops(unit)


RULE = register_rule(Rule(
    id="hot-path",
    severity=Severity.WARNING,
    description="hot-path hygiene: __slots__ on repro.bpu/vector classes, "
                "no per-item isinstance in optimized replay loops",
    check=_check,
))
