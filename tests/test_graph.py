import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siotrust.graph import (
    GraphFormatError,
    STATS_HEADER,
    build_graph,
    compute_stats,
    load_edge_list,
    load_features,
    sample_roles,
    stats_csv,
)

from conftest import make_graph


def small_graphs():
    """Small graphs with isolated nodes, several components and triangles outside the largest."""
    rng = random.Random(11)
    graphs = [
        make_graph(4, []),  # edgeless
        make_graph(6, [(0, 1), (1, 2), (2, 3)]),  # isolated nodes 4 and 5
        make_graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8), (5, 8)]),
        make_graph(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]),  # several components
        # a 4-cycle is the largest component; the triangle 5-6-7 lies outside it
        make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 5)]),
        # two largest components with interleaved nodes, a path and a triangle:
        # the one holding node 0 is measured
        make_graph(6, [(0, 3), (3, 5), (1, 2), (2, 4), (4, 1)]),
        make_graph(6, [(1, 3), (3, 5), (0, 2), (2, 4), (4, 0)]),
    ]
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        graphs.append(make_graph(n, edges))
    return graphs


class TestLoadEdgeList:
    def test_triangle(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 3

    def test_duplicate_edges_collapse(self):
        g = load_edge_list("0 1\n0 1\n")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_reversed_duplicate_collapses(self):
        g = load_edge_list("0 1\n1 0\n")
        assert g.edge_count == 1

    def test_comments_and_blanks_skipped(self):
        g = load_edge_list("# header\n\n0 1\n# trailing\n1 2\n")
        assert g.edge_count == 2

    def test_self_loops_dropped(self):
        g = load_edge_list("0 0\n0 1\n")
        assert g.edge_count == 1
        assert not g.has_edge(0, 0)

    def test_dense_remap_keeps_original_ids(self):
        g = load_edge_list("10 30\n30 20\n")
        assert g.original_ids == (10, 20, 30)
        assert g.node_count == 3

    def test_malformed_line_names_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list("0 1\n0 x\n")

    def test_wrong_token_count(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_edge_list("0 1 2\n")

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            load_edge_list("0 -1\n")

    @pytest.mark.parametrize("text,message", [
        ("0 1\n  0\tx  \n", "line 2: node ids must be integers: '0\\tx'"),
        ("  # note\n0 1 2\n", "line 2: expected two node ids, got 3 tokens"),
        ("0 1\n\n 1  -2 \n", "line 3: node ids must be non-negative"),
        ("#0 1\n   \n", "empty edge list"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            load_edge_list(text)
        assert str(exc.value) == message

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError, match="empty"):
            load_edge_list("")
        with pytest.raises(GraphFormatError, match="empty"):
            load_edge_list("# only comments\n")

    def test_round_trip_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 9)
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
            if not edges:
                edges = {(0, 1)}
            g = build_graph(edges)
            again = load_edge_list("".join(f"{v} {u}\n" for u, v in sorted(edges, reverse=True)))
            assert again.adjacency == g.adjacency
            assert again.original_ids == g.original_ids


class TestLoadFeatures:
    def test_attach(self):
        g = load_edge_list("0 1\n")
        g = load_features("0 1 0\n1 0 1\n", g)
        assert g.features == ((1, 0), (0, 1))

    def test_missing_nodes_get_zero_vectors(self):
        g = load_edge_list("0 1\n1 2\n")
        g = load_features("0 1 1\n", g)
        assert g.features == ((1, 1), (0, 0), (0, 0))

    def test_empty_file_gives_zero_length_vectors(self):
        g = load_edge_list("0 1\n")
        g = load_features("", g)
        assert g.features == ((), ())

    def test_unknown_node_rejected(self):
        g = load_edge_list("0 1\n")
        with pytest.raises(GraphFormatError, match="not in graph"):
            load_features("5 1\n", g)

    def test_ragged_rows_rejected(self):
        g = load_edge_list("0 1\n")
        with pytest.raises(GraphFormatError, match="ragged"):
            load_features("0 1 0\n1 1\n", g)

    def test_non_binary_flags_rejected(self):
        g = load_edge_list("0 1\n")
        with pytest.raises(GraphFormatError, match="0 or 1"):
            load_features("0 2\n", g)

    def test_original_ids_used(self):
        g = load_edge_list("10 20\n")
        g = load_features("20 1\n", g)
        assert g.features == ((0,), (1,))


class TestComputeStats:
    def test_triangle(self, triangle):
        st_ = compute_stats(triangle)
        assert st_.avg_degree == 2.0
        assert st_.diameter == 1
        assert st_.avg_path_length == 1.0
        assert st_.avg_clustering == 1.0
        assert st_.components == 1

    def test_path_graph(self, path3):
        st_ = compute_stats(path3)
        assert st_.diameter == 2
        assert abs(st_.avg_path_length - 4.0 / 3.0) < 1e-12
        assert st_.avg_clustering == 0.0

    def test_complete_graphs(self):
        for n in range(3, 8):
            g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            st_ = compute_stats(g)
            assert st_.diameter == 1
            assert st_.avg_path_length == 1.0
            assert st_.avg_clustering == 1.0

    def test_avg_degree_invariant(self, fb_graph):
        st_ = compute_stats(fb_graph)
        assert st_.avg_degree == 2 * st_.edge_count / st_.node_count

    def test_disconnected_measured_on_largest_component(self):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        st_ = compute_stats(g)
        assert st_.components == 2
        assert st_.diameter == 2
        assert abs(st_.avg_path_length - 4.0 / 3.0) < 1e-12

    def test_floyd_warshall_oracle_small_graphs(self):
        for g in small_graphs():
            st_ = compute_stats(g)
            nodes = list(g.nodes())
            inf = float("inf")
            dist = {(u, v): (0 if u == v else (1 if g.has_edge(u, v) else inf))
                    for u in nodes for v in nodes}
            for k in nodes:
                for i in nodes:
                    for j in nodes:
                        through = dist[(i, k)] + dist[(k, j)]
                        if through < dist[(i, j)]:
                            dist[(i, j)] = through
            # a component is the set of nodes at a finite distance; measured on
            # the largest, ties going to the one with the smallest node
            comps = {frozenset(v for v in nodes if dist[(u, v)] < inf) for u in nodes}
            assert st_.components == len(comps)
            comp = sorted(min(comps, key=lambda c: (-len(c), min(c))))
            pairs = [dist[(u, v)] for u in comp for v in comp if u != v]
            if pairs:
                assert st_.diameter == max(pairs)
                assert abs(st_.avg_path_length - sum(pairs) / len(pairs)) < 1e-12
            else:
                assert (st_.diameter, st_.avg_path_length) == (0, 0.0)

    def test_brute_force_clustering_oracle_small_graphs(self):
        for g in small_graphs():
            total = 0.0
            for v in g.nodes():  # summed in node order, as compute_stats sums
                nbrs = g.neighbors(v)
                deg = len(nbrs)
                if deg >= 2:
                    links = sum(1 for a, b in combinations(nbrs, 2) if g.has_edge(a, b))
                    total += 2.0 * links / (deg * (deg - 1))
            assert compute_stats(g).avg_clustering == total / g.node_count

    def test_facebook_like_values_pinned(self, fb_graph):
        # recorded with the per-node dict BFS that the bitset BFS replaced
        st_ = compute_stats(fb_graph)
        assert st_.diameter == 3
        assert st_.avg_path_length == 2.3062584331428764
        assert st_.avg_clustering == 0.4665673143885878
        assert st_.components == 1

    def test_stats_csv_shape(self, triangle):
        text = stats_csv(compute_stats(triangle))
        lines = text.splitlines()
        assert lines[0] == STATS_HEADER
        assert lines[1].split(",")[0] == "3"


class TestSampleRoles:
    def test_full_fraction_selects_everyone(self, triangle):
        roles = sample_roles(triangle, 1.0, random.Random(1))
        assert roles.trustors == (0, 1, 2)
        assert roles.trustees == (0, 1, 2)

    def test_forty_percent_of_347(self, fb_graph):
        roles = sample_roles(fb_graph, 0.4, random.Random(3))
        assert len(roles.trustors) == 139
        assert len(roles.trustees) == 139

    def test_same_seed_same_assignment(self, fb_graph):
        a = sample_roles(fb_graph, 0.4, random.Random(5))
        b = sample_roles(fb_graph, 0.4, random.Random(5))
        assert a == b

    def test_disjoint_flag(self, fb_graph):
        roles = sample_roles(fb_graph, 0.4, random.Random(5), disjoint=True)
        assert not set(roles.trustors) & set(roles.trustees)

    def test_disjoint_impossible(self, triangle):
        with pytest.raises(ValueError, match="disjoint"):
            sample_roles(triangle, 1.0, random.Random(1), disjoint=True)

    @given(st.floats(max_value=0.0, allow_nan=False), st.integers(0, 100))
    def test_invalid_fraction(self, fraction, seed):
        g = load_edge_list("0 1\n1 2\n2 0\n")
        with pytest.raises(ValueError):
            sample_roles(g, fraction, random.Random(seed))

    def test_membership_in_graph(self, syn50_graph):
        roles = sample_roles(syn50_graph, 0.4, random.Random(9))
        nodes = set(syn50_graph.nodes())
        assert set(roles.trustors) <= nodes
        assert set(roles.trustees) <= nodes


@settings(max_examples=30)
@given(st.integers(3, 7))
def test_complete_graph_property(n):
    g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    st_ = compute_stats(g)
    assert (st_.diameter, st_.avg_path_length, st_.avg_clustering) == (1, 1.0, 1.0)


def test_single_node_graph():
    g = load_edge_list("0 0\n")
    assert g.node_count == 1
    assert g.edge_count == 0
    st_ = compute_stats(g)
    assert (st_.diameter, st_.avg_path_length, st_.avg_clustering) == (0, 0.0, 0.0)


def test_diameter_bounds_average_path_length():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 10)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4}
        edges.update((i, i + 1) for i in range(n - 1))  # keep it connected
        st_ = compute_stats(make_graph(n, edges))
        assert st_.components == 1
        assert st_.diameter >= st_.avg_path_length
