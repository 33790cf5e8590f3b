"""Simple undirected graph parsing and validation.

Graphs are read from whitespace-separated edge-list text. Node names are
arbitrary tokens; internal ids are assigned in first-appearance order and
all reporting translates back to the external names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def node_bits(flags: np.ndarray) -> int:
    """The nodes i with flags[i] true as the set bits of one int."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


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
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set when j neighbours i; n^2/8 bytes in all."""
        return tuple(sum(1 << j for j in nb) for nb in self.adjacency)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adjacency)

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
        lines = [f"{self.names[i]} {self.names[j]}" for i, j in self.edges()]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_edges(
        edges,
        names: list[str] | None = None,
        n: int | None = None,
        diagnostics: ParseDiagnostics | None = None,
    ) -> "Graph":
        """Build a validated Graph from (i, j) internal-id pairs.

        ``names`` defaults to the decimal ids. ``n`` may extend the node set
        beyond the highest endpoint (isolated nodes).
        """
        edge_set = set()
        max_id = -1
        for i, j in edges:
            if i == j:
                raise GraphParseError(f"self-loop on node id {i}")
            a, b = (i, j) if i < j else (j, i)
            edge_set.add((a, b))
            if b > max_id:
                max_id = b
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
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in edge_set:
            adj[a].append(b)
            adj[b].append(a)
        adjacency = tuple(tuple(sorted(nb)) for nb in adj)
        return Graph(
            n=n,
            m=len(edge_set),
            adjacency=adjacency,
            names=tuple(names),
            diagnostics=diagnostics or ParseDiagnostics(),
        )


def parse_edge_list(
    text: str,
    comment_prefix: str = "#",
    node_list: list[str] | None = None,
) -> Graph:
    """Parse edge-list text into a validated Graph.

    Each non-comment, non-blank line must hold exactly two whitespace-separated
    node tokens. Duplicate edge lines (either orientation) are collapsed and
    counted in the diagnostics. ``node_list`` pre-registers node names in
    order, which is the only way to introduce isolated nodes.
    """
    ids: dict[str, int] = {}
    names: list[str] = []
    if node_list is not None:
        for name in node_list:
            if name not in ids:
                ids[name] = len(names)
                names.append(name)

    def intern(tok: str) -> int:
        i = ids.get(tok)
        if i is None:
            i = len(names)
            ids[tok] = i
            names.append(tok)
        return i

    edges = []
    seen = set()
    duplicates = 0
    comments = 0
    blanks = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            blanks += 1
            continue
        if stripped.startswith(comment_prefix):
            comments += 1
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise GraphParseError(
                f"line {lineno}: expected 2 node tokens, got {len(tokens)}"
            )
        u, v = tokens
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop on node {u!r}")
        i, j = intern(u), intern(v)
        key = (i, j) if i < j else (j, i)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        edges.append(key)

    return Graph.from_edges(
        edges,
        names=names,
        n=len(names),
        diagnostics=ParseDiagnostics(
            duplicate_edges=duplicates, comment_lines=comments, blank_lines=blanks
        ),
    )
