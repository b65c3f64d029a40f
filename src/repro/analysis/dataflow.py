"""Dataflow vocabulary over the mini-IR: operand roles and dominator tree.

The error-propagation model asks two structural questions of a function:

* **Where can a corrupted value flow?** — answered by def-use edges, which
  :mod:`repro.analysis.summaries` collects per function as :class:`Use`
  records. Every use carries a semantic *role* (data operand, stored value,
  store/load address, branch condition, call argument, returned value,
  emitted output, duplication check), because the masking classification
  depends on how a consumer uses the value, not just which consumer it is.
* **How much of a function does a branch control?** — approximated from the
  dominator tree: the blocks dominated by a ``condbr``'s successors bound
  the region whose execution a corrupted condition can redirect.

Both are purely static, deterministic in the module text, and cheap
(linear in instructions / near-linear in blocks), so they are rebuilt per
function during summary construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.function import Function
from repro.ir.instructions import Instruction

__all__ = [
    "Use",
    "dominator_tree",
    "dominated_blocks",
    "loop_depth",
]

#: Use roles, in the vocabulary the masking classification consumes.
ROLE_DATA = "data"  # plain data operand of a computation
ROLE_STORE_VALUE = "store-value"  # the value being written to memory
ROLE_STORE_ADDR = "store-addr"  # the address a store writes through
ROLE_LOAD_ADDR = "load-addr"  # the address a load reads through
ROLE_BRANCH_COND = "branch-cond"  # condbr condition (control sink)
ROLE_SELECT_COND = "select-cond"  # select condition (data-level control)
ROLE_CALL_ARG = "call-arg"  # argument passed to a callee
ROLE_RET_VALUE = "ret-value"  # value returned to the caller
ROLE_EMIT = "emit"  # program output (the SDC comparison stream)
ROLE_CHECK = "check"  # duplication check operand (detector)


@dataclass(frozen=True)
class Use:
    """One use of a value: the consuming instruction and the operand role."""

    user: Instruction
    #: Operand position within the user (phi incomings use their list index).
    index: int
    #: One of the ``ROLE_*`` constants.
    role: str


def _role_of(user: Instruction, index: int) -> str:
    """Semantic role of operand ``index`` of ``user``."""
    op = user.opcode
    if op == "store":
        return ROLE_STORE_VALUE if index == 0 else ROLE_STORE_ADDR
    if op == "load":
        return ROLE_LOAD_ADDR
    if op == "condbr":
        return ROLE_BRANCH_COND
    if op == "select" and index == 0:
        return ROLE_SELECT_COND
    if op == "call":
        return ROLE_CALL_ARG
    if op == "ret":
        return ROLE_RET_VALUE
    if op == "emit":
        return ROLE_EMIT
    if op in ("check", "checkrange"):
        return ROLE_CHECK
    return ROLE_DATA


def dominator_tree(fn: Function) -> dict[str, str | None]:
    """Immediate dominators of a function's blocks (entry maps to ``None``).

    Classic iterative dataflow over reverse postorder (Cooper–Harvey–
    Kennedy). Unreachable blocks are absent from the result.
    """
    entry = fn.entry.name
    # Reverse postorder over the intra-function CFG.
    order: list[str] = []
    seen: set[str] = set()

    def dfs(name: str) -> None:
        seen.add(name)
        for succ in fn.blocks[name].successors():
            if succ not in seen:
                dfs(succ)
        order.append(name)

    dfs(entry)
    rpo = list(reversed(order))
    rpo_index = {name: i for i, name in enumerate(rpo)}
    preds: dict[str, list[str]] = {name: [] for name in rpo}
    for name in rpo:
        for succ in fn.blocks[name].successors():
            if succ in rpo_index:
                preds[succ].append(name)

    idom: dict[str, str | None] = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for name in rpo:
            if name == entry:
                continue
            candidates = [p for p in preds[name] if p in idom]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(name) != new:
                idom[name] = new
                changed = True
    idom[entry] = None
    return idom


def dominated_blocks(idom: dict[str, str | None], root: str) -> set[str]:
    """Blocks dominated by ``root`` (inclusive), from an idom map."""
    out = {root}
    changed = True
    while changed:
        changed = False
        for name, parent in idom.items():
            if parent in out and name not in out:
                out.add(name)
                changed = True
    return out


def _dominates(idom: dict[str, str | None], a: str, b: str) -> bool:
    """True if ``a`` dominates ``b`` (walking b's idom chain)."""
    node: str | None = b
    while node is not None:
        if node == a:
            return True
        node = idom[node]
    return False


def loop_depth(fn: Function) -> dict[str, int]:
    """Natural-loop nesting depth per reachable block (0 = not in a loop).

    Back edges are CFG edges ``P → H`` where ``H`` dominates ``P``; the
    natural loop of such an edge is ``H`` plus every block that reaches
    ``P`` backwards without passing through ``H``. Depth counts how many
    distinct loop headers' loops contain a block — the error-propagation
    model uses the *difference* in depth along a def-use edge to amplify
    loop-invariant fan-out.
    """
    idom = dominator_tree(fn)
    preds: dict[str, list[str]] = {name: [] for name in idom}
    for name in idom:
        for succ in fn.blocks[name].successors():
            if succ in idom:
                preds[succ].append(name)
    loops: dict[str, set[str]] = {}
    for tail in idom:
        for head in fn.blocks[tail].successors():
            if head not in idom or not _dominates(idom, head, tail):
                continue
            body = loops.setdefault(head, {head})
            stack = [tail]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(p for p in preds[node] if p not in body)
    depth = {name: 0 for name in idom}
    for body in loops.values():
        for name in body:
            depth[name] += 1
    return depth
