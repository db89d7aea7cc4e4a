"""Social-network topology loading, connectivity statistics, and role sampling.

Edge lists follow the SNAP convention: one "u v" pair per line, lines
starting with `#` ignored. Node ids are remapped to a dense 0..N-1 range on
load; the original ids are retained, because feature files refer to them.
Self-loops are dropped and duplicate edges collapse to one undirected edge.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional


class GraphFormatError(ValueError):
    """Malformed edge-list or feature input."""


class SocialGraph(NamedTuple):
    """Undirected social topology with optional per-node feature bit-vectors.

    Immutable after construction and safe to share across concurrent runs.
    `adjacency[n]` is the sorted tuple of n's neighbors (dense ids);
    `original_ids[n]` maps a dense id back to the source file's id.
    """

    adjacency: tuple[tuple[int, ...], ...]
    original_ids: tuple[int, ...]
    features: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def nodes(self) -> range:
        return range(self.node_count)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self.adjacency[node]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v


class GraphStats(NamedTuple):
    node_count: int
    edge_count: int
    avg_degree: float
    diameter: int
    avg_path_length: float
    avg_clustering: float
    components: int


class RoleAssignment(NamedTuple):
    """Sampled trustor and trustee node sets (dense ids, sorted)."""

    trustors: tuple[int, ...]
    trustees: tuple[int, ...]


STATS_HEADER = "nodes,edges,avg_degree,diameter,avg_path_length,avg_clustering,components"


def build_graph(edge_pairs: Iterable[tuple[int, int]]) -> SocialGraph:
    """Build a graph from original-id edge pairs, remapping to dense ids.

    The pairs must not be empty; `load_edge_list`, the one caller, rejects
    an empty list first.
    """
    edges = set()
    nodes = set()
    for u, v in edge_pairs:
        nodes.add(u)
        nodes.add(v)
        if u == v:
            continue
        edges.add((u, v) if u < v else (v, u))
    original = tuple(sorted(nodes))
    dense = {orig: i for i, orig in enumerate(original)}
    adj: list[list[int]] = [[] for _ in original]
    for u, v in edges:
        adj[dense[u]].append(dense[v])
        adj[dense[v]].append(dense[u])
    return SocialGraph(
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        original_ids=original,
    )


def load_edge_list(source: str) -> SocialGraph:
    """Parse a SNAP-style edge list from its text.

    Each non-empty, non-comment line must hold exactly two non-negative
    integers. Malformed lines raise GraphFormatError naming the line number.
    """
    pairs = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected two node ids, got {len(tokens)} tokens")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: node ids must be integers: {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: node ids must be non-negative")
        pairs.append((u, v))
    if not pairs:
        raise GraphFormatError("empty edge list")
    return build_graph(pairs)


def load_features(source: str, graph: SocialGraph) -> SocialGraph:
    """Attach per-node 0/1 feature vectors ("nodeId f1 ... fk" per line).

    Node ids refer to the original ids of the edge list. Nodes absent from
    the file get all-zero vectors; unknown ids and ragged rows are errors.
    """
    dense = {orig: i for i, orig in enumerate(graph.original_ids)}
    rows: dict[int, tuple[int, ...]] = {}
    width: Optional[int] = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            node = int(tokens[0])
            flags = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: feature rows must be integers") from None
        if node not in dense:
            raise GraphFormatError(f"line {lineno}: node {node} not in graph")
        if any(f not in (0, 1) for f in flags):
            raise GraphFormatError(f"line {lineno}: feature flags must be 0 or 1")
        if width is None:
            width = len(flags)
        elif len(flags) != width:
            raise GraphFormatError(f"line {lineno}: ragged row, expected {width} flags, got {len(flags)}")
        rows[dense[node]] = flags
    width = width or 0
    zero = tuple([0] * width)
    features = tuple(rows.get(n, zero) for n in graph.nodes())
    return SocialGraph(adjacency=graph.adjacency, original_ids=graph.original_ids, features=features)


def _flood(masks: list[int], source: int, whole: int) -> tuple[int, int, int]:
    """Bitset BFS from `source`, one level at a time.

    The next frontier is the OR of the frontier's masks minus the nodes
    already reached. Stops once `whole` is reached, or when a level adds no
    node (with `whole` 0, that is the source's component). Returns the
    reached mask, the sum of the distances to its nodes, and the last level.
    """
    seen = frontier = 1 << source
    total = level = 0
    while seen != whole:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            break
        level += 1
        seen |= frontier
        total += level * frontier.bit_count()
    return seen, total, level


def compute_stats(graph: SocialGraph) -> GraphStats:
    """Connectivity statistics: bitset BFS all-pairs paths, local clustering average.

    Each node's adjacency is an int bitmask, and one traversal, `_flood`,
    finds both the components and the distances. Each component is flooded
    from its lowest node not yet reached; the first largest is kept, and
    its diameter and average path length are measured from every one of its
    nodes, the flood's own source included. The component count flags
    disconnected inputs. Clustering averages over all nodes, with degree < 2
    nodes contributing zero; the links among a node's neighbours are the
    popcounts of their masks ANDed with the node's mask, each link counted
    twice. The graph has a node, as every graph `load_edge_list` builds does.
    """
    n = graph.node_count
    masks = [sum(1 << nbr for nbr in nbrs) for nbrs in graph.adjacency]
    unseen = (1 << n) - 1
    components = largest = 0
    while unseen:
        source = (unseen & -unseen).bit_length() - 1
        comp, total, level = _flood(masks, source, 0)
        unseen ^= comp
        components += 1
        if comp.bit_count() > largest.bit_count():
            largest, lowest, total_dist, diameter = comp, source, total, level
    for source in range(lowest + 1, n):
        if largest >> source & 1:
            _, total, level = _flood(masks, source, largest)
            total_dist += total
            diameter = max(diameter, level)
    # every source in the component reaches every other node in it
    size = largest.bit_count()
    pair_count = size * (size - 1)
    avg_path = total_dist / pair_count if pair_count else 0.0

    clustering_sum = 0.0
    for nbrs, mask in zip(graph.adjacency, masks):
        deg = len(nbrs)
        if deg < 2:
            continue
        links = sum((masks[u] & mask).bit_count() for u in nbrs) // 2
        clustering_sum += 2.0 * links / (deg * (deg - 1))

    edge_count = graph.edge_count
    return GraphStats(
        node_count=n,
        edge_count=edge_count,
        avg_degree=2.0 * edge_count / n,
        diameter=diameter,
        avg_path_length=avg_path,
        avg_clustering=clustering_sum / n,
        components=components,
    )


def stats_csv(stats: GraphStats) -> str:
    """Header plus one CSV row for the stats report."""
    row = (
        f"{stats.node_count},{stats.edge_count},{stats.avg_degree:.6g},"
        f"{stats.diameter},{stats.avg_path_length:.6g},{stats.avg_clustering:.6g},"
        f"{stats.components}"
    )
    return STATS_HEADER + "\n" + row + "\n"


def role_count(graph: SocialGraph, fraction: float, disjoint: bool = False) -> int:
    """Size of each of sample_roles' two samples, round(fraction * N).

    Raises ValueError for a fraction outside (0, 1], or when `disjoint`
    samples of that size cannot fit in the graph.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = graph.node_count
    count = round(fraction * n)
    if disjoint and 2 * count > n:
        raise ValueError(f"cannot draw disjoint roles: 2 * {count} > {n} nodes")
    return count


def sample_roles(
    graph: SocialGraph,
    fraction: float,
    rng: random.Random,
    disjoint: bool = False,
) -> RoleAssignment:
    """Sample trustor and trustee sets of size round(fraction * N).

    The two samples are independent and may overlap unless `disjoint` is
    set. Deterministic for a given rng state.
    """
    count = role_count(graph, fraction, disjoint)
    n = graph.node_count
    trustors = sorted(rng.sample(range(n), count))
    if disjoint:
        remaining = sorted(set(range(n)) - set(trustors))
        trustees = sorted(rng.sample(remaining, count))
    else:
        trustees = sorted(rng.sample(range(n), count))
    return RoleAssignment(trustors=tuple(trustors), trustees=tuple(trustees))
