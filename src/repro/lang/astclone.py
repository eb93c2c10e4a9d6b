"""Structural cloning of AST subtrees.

:func:`repro.verify.memsafety.isolate_process` re-checks a pruned copy
of the program, and the checker annotates nodes *in place* (``.type``,
``.resolved_type``), so the isolated program needs its own node
objects — but nothing deeper.  ``copy.deepcopy`` re-creates the entire
reachable graph: every :class:`~repro.lang.source.Span`, every interned
string, every elaborated :class:`~repro.lang.types.Type`, plus the
bookkeeping memo dict — orders of magnitude more allocation than the
tree itself.

:func:`clone_tree` copies exactly what can be mutated: AST
:class:`~repro.lang.ast.Node` instances and the ``list``/``tuple``/
``dict`` containers between them.  Leaves — spans, semantic types,
strings, numbers — are shared with the original tree.  Sharing is
sound because annotation is attribute *assignment* on a node (which
lands in the clone's own ``__dict__``), never mutation of a leaf
value.

Spans in particular are shared, never dropped: every cloned node keeps
its ``span`` attribute pointing at the original
:class:`~repro.lang.source.Span`, so IR lowered from a clone (e.g.
``ir.AltArm.span``, which deadlock reports and counterexamples print)
carries the *original* file coordinates — an isolated re-check in
:mod:`repro.verify.memsafety` diagnoses against the user's source, not
a synthetic copy.
"""

from __future__ import annotations

from repro.lang.ast import Node


_CONTAINERS = (Node, list, tuple, dict)


def _clone_value(value):
    if isinstance(value, Node):
        return clone_tree(value)
    if isinstance(value, list):
        return [_clone_value(item) if isinstance(item, _CONTAINERS) else item
                for item in value]
    if isinstance(value, tuple):
        return tuple(_clone_value(item) if isinstance(item, _CONTAINERS)
                     else item for item in value)
    if isinstance(value, dict):
        return {key: _clone_value(item) if isinstance(item, _CONTAINERS)
                else item for key, item in value.items()}
    return value  # span / type / scalar: immutable under re-checking, share


def clone_tree(node: Node) -> Node:
    """A fresh copy of an AST subtree whose nodes can be independently
    re-annotated; non-node leaf values are shared with the original."""
    clone = object.__new__(type(node))
    clone.__dict__ = {
        name: _clone_value(value) if isinstance(value, _CONTAINERS) else value
        for name, value in node.__dict__.items()
    }
    return clone
