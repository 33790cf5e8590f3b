"""Simple undirected graph parsing, validation, and adjacency queries.

Graphs are read from whitespace-separated edge-list text. Node names are
arbitrary tokens; internal ids are assigned in first-appearance order and
all reporting translates back to the external names.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field


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
    guaranteed by construction.
    """

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    ids: dict[str, int] = field(repr=False)
    diagnostics: ParseDiagnostics = field(default_factory=ParseDiagnostics, repr=False)

    def __eq__(self, other: object) -> bool:
        """Name-level identity: same named nodes and same named edges.

        Internal id assignment and parse diagnostics are representation
        details, not part of graph identity.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and set(self.names) == set(other.names)
            and self.named_edges() == other.named_edges()
        )

    def named_edges(self) -> frozenset:
        return frozenset(
            frozenset((self.names[i], self.names[j])) for i, j in self.edges()
        )

    def degree(self, i: int) -> int:
        self._check_id(i)
        return len(self.adjacency[i])

    def has_edge(self, i: int, j: int) -> bool:
        """Symmetric adjacency test; always False on the diagonal."""
        self._check_id(i)
        self._check_id(j)
        if i == j:
            return False
        adj = self.adjacency[i]
        k = bisect_left(adj, j)
        return k < len(adj) and adj[k] == j

    def edges(self):
        """All edges as (i, j) internal-id pairs with i < j, sorted."""
        for i in range(self.n):
            for j in self.adjacency[i]:
                if j > i:
                    yield (i, j)

    def to_edge_list(self) -> str:
        """Canonical edge-list text: one edge per line, internal-id order.

        Re-parsing the result yields an equal Graph provided the graph has
        no isolated nodes (edge lists cannot express them).
        """
        lines = [f"{self.names[i]} {self.names[j]}" for i, j in self.edges()]
        return "\n".join(lines) + ("\n" if lines else "")

    def _check_id(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"node id {i} out of range for graph with n={self.n}")

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
        n_nodes = max_id + 1 if n is None else n
        if n_nodes == 0:
            raise GraphParseError("graph has no nodes")
        if n is not None and max_id >= n:
            raise GraphParseError(f"edge endpoint {max_id} exceeds n={n}")
        if names is None:
            names = [str(i) for i in range(n_nodes)]
        if len(names) != n_nodes:
            raise GraphParseError(f"expected {n_nodes} names, got {len(names)}")
        adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for a, b in edge_set:
            adj[a].append(b)
            adj[b].append(a)
        adjacency = tuple(tuple(sorted(nb)) for nb in adj)
        return Graph(
            n=n_nodes,
            m=len(edge_set),
            adjacency=adjacency,
            names=tuple(names),
            ids={name: i for i, name in enumerate(names)},
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
