"""Simple undirected graph parsing and validation.

Graphs are read from whitespace-separated edge-list text. Node names are
arbitrary tokens; internal ids are assigned in first-appearance order and
all reporting translates back to the external names.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np


COMMENT_PREFIX = "#"


class GraphParseError(ValueError):
    """Edge-list text violates the simple-graph format."""


@dataclass(frozen=True)
class ParseDiagnostics:
    """Bookkeeping from a parse: lines skipped or collapsed."""

    duplicate_edges: int = 0
    comment_lines: int = 0
    blank_lines: int = 0


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected unweighted graph.

    Internal node ids are contiguous 0..n-1. ``adjacency[i]`` is the sorted
    tuple of neighbors of node i; symmetry and absence of self-loops are
    guaranteed by construction. The cached properties are built on first use.
    """

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    diagnostics: ParseDiagnostics = field(default_factory=ParseDiagnostics, repr=False)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adjacency)

    @cached_property
    def degree_array(self) -> np.ndarray:
        """degrees as an int64 array, for vectorised per-node terms."""
        return np.array(self.degrees, dtype=np.int64)

    @cached_property
    def degree_range(self) -> list[float]:  # 0.0, 1.0, ..., the largest degree
        return [float(k) for k in range(max(self.degrees) + 1)]

    def edges(self):
        """All edges as (i, j) internal-id pairs with i < j, sorted."""
        for i in range(self.n):
            for j in self.adjacency[i]:
                if j > i:
                    yield (i, j)

    def to_edge_list(self) -> str:
        """Canonical edge-list text: one edge per line, internal-id order.

        Re-parsing the result gives the same named nodes and edges if no
        node is isolated (edge lists cannot express isolated nodes).
        """
        names = self.names
        lines = [f"{names[i]} {names[j]}" for i, nb in enumerate(self.adjacency)
                 for j in nb[bisect_right(nb, i):]]  # sorted neighbours after i
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_edges(
        edges,
        names: list[str] | None = None,
        n: int | None = None,
    ) -> "Graph":
        """Build a validated Graph from (i, j) internal-id pairs (ids >= 0).

        ``names`` defaults to the decimal ids. ``n`` may extend the node set
        beyond the highest endpoint (isolated nodes).
        """
        adj: list[list[int]] = [[] for _ in range(n or 0)]
        max_id = -1
        for i, j in edges:
            if i == j or i < 0 or j < 0:
                raise GraphParseError(f"self-loop on node id {i}" if i == j
                                      else f"negative node id {min(i, j)}")
            top = i if i > j else j
            if top > max_id:
                max_id = top
                if top >= len(adj):
                    adj.extend([] for _ in range(top + 1 - len(adj)))
            adj[i].append(j)
            adj[j].append(i)
        if n is None:
            n = max_id + 1
        if n == 0:
            raise GraphParseError("graph has no nodes")
        if max_id >= n:
            raise GraphParseError(f"edge endpoint {max_id} exceeds n={n}")
        if names is None:
            names = [str(i) for i in range(n)]
        if len(names) != n:
            raise GraphParseError(f"expected {n} names, got {len(names)}")
        # an edge given twice, in either orientation, repeats a neighbour
        adjacency = tuple(tuple(sorted(set(nb))) for nb in adj)
        m = sum(map(len, adjacency)) // 2
        return Graph(n=n, m=m, adjacency=adjacency, names=tuple(names))


def parse_edge_list(text: str, node_list: list[str] | None = None) -> Graph:
    """Parse edge-list text into a validated Graph.

    Each non-blank line not starting with COMMENT_PREFIX must hold exactly two
    whitespace-separated node tokens. Duplicate edge lines (either
    orientation) are collapsed by Graph.from_edges and counted in the
    diagnostics as the edge lines beyond the graph's m. ``node_list``
    pre-registers distinct node names in order, which is the only way to
    introduce isolated nodes; a repeated name is refused.
    """
    ids: dict[str, int] = {}  # in first-appearance order, so list(ids) is the names
    for name in node_list or ():
        if name in ids:
            raise GraphParseError(f"node list repeats the name {name!r}")
        ids[name] = len(ids)
    edges = []
    comments = 0
    blanks = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            blanks += 1
            continue
        if tokens[0].startswith(COMMENT_PREFIX):
            comments += 1
            continue
        if len(tokens) != 2:
            raise GraphParseError(
                f"line {lineno}: expected 2 node tokens, got {len(tokens)}"
            )
        u, v = tokens
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop on node {u!r}")
        edges.append((ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids))))

    g = Graph.from_edges(edges, names=list(ids), n=len(ids))
    return replace(g, diagnostics=ParseDiagnostics(
        duplicate_edges=len(edges) - g.m, comment_lines=comments, blank_lines=blanks))
