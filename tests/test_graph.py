import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesoscale.datasets import dataset_text, load_dataset
from mesoscale.graph import Graph, GraphParseError, ParseDiagnostics, parse_edge_list


def test_two_edge_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.m == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_karate_counts():
    g = load_dataset("karate")
    assert g.n == 34
    assert g.m == 78


def test_dolphins_counts():
    g = load_dataset("dolphins")
    assert g.n == 62
    assert g.m == 159


def test_bundled_dataset_hashes_are_stable():
    digests = {
        name: hashlib.sha256(dataset_text(name).encode()).hexdigest()
        for name in ("karate", "dolphins")
    }
    assert digests["karate"] == KARATE_SHA256
    assert digests["dolphins"] == DOLPHINS_SHA256


# pinned when the data files were frozen; any edit to them must be deliberate
KARATE_SHA256 = "391c2f4c599cf68170474a44293dadeff6abe0749198360b947fed9159e45351"
DOLPHINS_SHA256 = "dbef4edc4461d4a4e081447e6cd0d141a81bbb531f80dc007be671af3a1480c9"


def test_self_loop_rejected_with_line_number():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("3 3")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\nx x")


def test_wrong_token_count_rejected_with_line_number():
    with pytest.raises(GraphParseError, match="line 2.*got 3"):
        parse_edge_list("0 1\n0 1 2")
    with pytest.raises(GraphParseError, match="line 1.*got 1"):
        parse_edge_list("loner")


def test_graph_without_nodes_rejected():
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(GraphParseError, match="no nodes"):
            parse_edge_list(text)
    with pytest.raises(GraphParseError, match="no nodes"):
        Graph.from_edges([])
    assert Graph.from_edges([], n=4).n == 4  # edgeless but not empty


def test_negative_node_id_rejected():
    # a negative id would index adjacency from its end: node 2 would list
    # itself and a neighbour -1 that does not exist
    for edges, bad in (([(-1, 2), (0, 1)], -1), ([(0, 1), (1, -3)], -3)):
        with pytest.raises(GraphParseError, match=f"negative node id {bad}$"):
            Graph.from_edges(edges)


def test_duplicate_edges_collapse_and_are_counted():
    g = parse_edge_list("a b\nb a\na b\nb c")
    assert g.m == 2
    assert g.diagnostics.duplicate_edges == 2


def test_parse_diagnostics_count_duplicates_comments_and_blanks():
    text = "# header\na b\n\nb a\n  \t\nc a\na b\n # indented\na c\n\n"
    g = parse_edge_list(text, node_list=["c", "d"])
    assert (g.n, g.m) == (4, 2)
    assert g.diagnostics == ParseDiagnostics(
        duplicate_edges=3, comment_lines=2, blank_lines=3)


def test_comments_and_blank_lines_skipped():
    g = parse_edge_list("# header\n\n0 1\n   \n# tail\n1 2\n")
    assert (g.n, g.m) == (3, 2)
    assert g.diagnostics.comment_lines == 2
    assert g.diagnostics.blank_lines == 2


def test_names_assigned_in_first_appearance_order():
    g = parse_edge_list("carol bob\nbob alice")
    assert g.names == ("carol", "bob", "alice")


def test_node_list_sidecar_allows_isolated_nodes():
    g = parse_edge_list("a b", node_list=["a", "b", "lonely"])
    assert g.n == 3
    assert g.adjacency[2] == ()


def test_node_list_with_a_repeated_name_rejected():
    with pytest.raises(GraphParseError, match="repeats the name 'a'"):
        parse_edge_list("a c", node_list=["a", "c", "a"])


def test_has_edge_pair_sum_is_twice_m():
    g = load_dataset("karate")
    neighbours = [set(adj) for adj in g.adjacency]
    total = sum(
        j in neighbours[i] for i in range(g.n) for j in range(g.n)
    )
    assert total == 2 * g.m


@st.composite
def edge_sets(draw):
    """Edge sets relabeled to contiguous ids, so no node is isolated
    (round-tripping through edge-list text cannot express isolated nodes)."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    used = sorted({v for e in edges for v in e})
    compact = {v: k for k, v in enumerate(used)}
    return sorted((compact[i], compact[j]) for i, j in edges)


def named_edges(g):
    return {frozenset((g.names[i], g.names[j])) for i, j in g.edges()}


@given(edge_sets())
@settings(max_examples=100)
def test_round_trip_through_canonical_text(edges):
    g = Graph.from_edges(edges)
    again = parse_edge_list(g.to_edge_list())
    for other in (again, parse_edge_list(again.to_edge_list())):
        assert (other.n, other.m) == (g.n, g.m)
        assert set(other.names) == set(g.names)
        assert named_edges(other) == named_edges(g)


@given(edge_sets())
@settings(max_examples=50)
def test_adjacency_symmetric_and_m_consistent(edges):
    g = Graph.from_edges(edges)
    assert sum(len(a) for a in g.adjacency) == 2 * g.m
    for i in range(g.n):
        for j in g.adjacency[i]:
            assert i in g.adjacency[j]
            assert i != j
