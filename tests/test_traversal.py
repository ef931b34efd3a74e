"""The depth-first search against networkx, on graphs up to 10^4 vertices,
and the parity union-find against the search.

networkx is a test-only dependency; the checks compare bridges, blocks,
components and balance with independent implementations.  networkx works on
simple graphs, so parallel edges are merged into one vertex pair there: a
pair carrying two edges is never a bridge, and all of a pair's edges share
its block.
"""

import math
import random
from collections import defaultdict

import pytest

from lineconsistency import (
    Recipe,
    blocks,
    find_isthmi,
    find_negative_circle,
    generate_line_consistent,
    is_balanced_fast,
    new_signed_graph,
    random_recipe,
    random_signed_graph,
)
from lineconsistency._traversal import Forest

nx = pytest.importorskip("networkx")


def large_recipe(parts, seed):
    rng = random.Random(seed)
    return Recipe(
        negative_circles=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        closing_paths=tuple(rng.choice((2, 4)) for _ in range(parts)),
        induced_paths=tuple(rng.choice((2, 4)) for _ in range(parts)),
        isthmus_paths=tuple(rng.randint(1, 4) for _ in range(parts)),
        pendant_positives=parts,
        scaffold_tree=2 * parts,
    )


def with_chords(graph, chords, seed):
    """``graph`` plus ``chords`` random edges, parallel ones included."""
    rng = random.Random(seed)
    extra = [
        (f"c{i}", *rng.sample(graph.vertices, 2), rng.choice("+-"))
        for i in range(chords)
    ]
    return new_signed_graph(graph.vertices, list(graph.edges) + extra)


# (n, m, negative share) of random multigraphs, sparse to dense, so that
# bridges, small blocks and one large block all occur; random_signed_graph
# lists every vertex pair, so these stay at 10^3 vertices
RANDOM_SHAPES = [
    (12, 14, 0.3), (60, 70, 0.5), (300, 290, 0.1), (1_000, 1_100, 0.05),
    (1_000, 2_000, 0.0),
]


def graphs():
    for i, (n, m, share) in enumerate(RANDOM_SHAPES):
        yield f"random-{n}-{m}", random_signed_graph(n, m, share, 100 + i)
    for seed in range(20):
        yield f"recipe-{seed}", generate_line_consistent(random_recipe(seed), seed)
    for parts in (40, 500):
        graph = generate_line_consistent(large_recipe(parts, parts), 7)
        yield f"large-recipe-{len(graph.vertices)}", graph
        yield f"large-recipe-chords-{len(graph.vertices)}", with_chords(graph, parts, 1)


def simple_graph(graph):
    """The underlying simple graph and, per vertex pair, its edge ids."""
    pairs = defaultdict(list)
    for e in graph.edges:
        pairs[frozenset((e.u, e.v))].append(e.id)
    simple = nx.Graph()
    simple.add_nodes_from(graph.vertices)
    simple.add_edges_from(tuple(pair) for pair in pairs)
    return simple, pairs


GRAPHS = list(graphs())
IDS = [name for name, _ in GRAPHS]


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_bridges_match_networkx(name, graph):
    simple, pairs = simple_graph(graph)
    expected = set()
    for u, v in nx.bridges(simple):
        ids = pairs[frozenset((u, v))]
        if len(ids) == 1:
            expected.update(ids)
    assert find_isthmi(graph) == expected


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_blocks_match_networkx(name, graph):
    simple, pairs = simple_graph(graph)
    expected = {
        frozenset(eid for u, v in block for eid in pairs[frozenset((u, v))])
        for block in nx.biconnected_component_edges(simple)
    }
    found = blocks(graph)
    assert {b.edges for b in found if b.edges} == expected
    isolated = {v for v in graph.vertices if not graph.degree(v)}
    assert {next(iter(b.vertices)) for b in found if not b.edges} == isolated
    keys = [(sorted(b.vertices), sorted(b.edges)) for b in found]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_components_match_networkx(name, graph):
    simple, _ = simple_graph(graph)
    expected = sorted(nx.connected_components(simple), key=min)
    assert graph.traversal.components == expected


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_balance_matches_bipartite_subdivision(name, graph):
    # a circle's length after subdividing each positive edge once has the
    # parity of its negative edge count; two parallel negative edges merge,
    # but their digon is positive anyway
    subdivided = nx.Graph()
    subdivided.add_nodes_from(graph.vertices)
    for e in graph.edges:
        if e.sign.is_negative:
            subdivided.add_edge(e.u, e.v)
        else:
            subdivided.add_edge(e.u, ("mid", e.id))
            subdivided.add_edge(("mid", e.id), e.v)
    balanced = nx.is_bipartite(subdivided)
    assert is_balanced_fast(graph) == balanced
    circle = find_negative_circle(graph)
    assert (circle is None) == balanced
    if circle is not None:
        assert graph.sign_of_walk(circle).is_negative


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_block_labels_give_blocks_and_bridges(name, graph):
    label, sizes = graph.traversal.block_labels
    members = defaultdict(set)
    for k, b in enumerate(label):
        members[b].add(graph.edge_ids[k])
    assert sorted(map(len, members.values())) == sorted(sizes)
    assert {frozenset(m) for m in members.values()} \
        == {b.edges for b in blocks(graph) if b.edges}
    # an edge is a bridge exactly when it is alone in its block
    assert {graph.edge_ids[k] for k, b in enumerate(label) if sizes[b] == 1} \
        == find_isthmi(graph)


def find_chains(forest):
    """The number of vertices on each vertex's find chain up ``forest.up``."""
    up, lengths = forest.up, []
    for v in range(len(up)):
        length = 1
        while up[v] != v:
            v = up[v]
            length += 1
        lengths.append(length)
    return lengths


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_forest_matches_the_search(name, graph):
    bridges = sorted(map(graph._edge_number, find_isthmi(graph)))
    others = sorted(set(range(len(graph.edge_ids))) - set(bridges))
    forest = Forest(graph)
    assert forest.balanced == is_balanced_fast(graph)
    assert max(find_chains(forest)) <= math.log2(max(len(graph.vertices), 1)) + 1
    members = defaultdict(set)
    for v, x in enumerate(graph.vertex_ids):
        members[forest.root(v)].add(x)
    assert sorted(members.values(), key=min) == graph.traversal.components
    # merged last, bridges close no circle, and a non-bridge after them does;
    # balance does not depend on the order of merging
    assert Forest(graph, bridges).closed == []
    for k in others[:1] + others[-1:]:
        last = Forest(graph, bridges + [k])
        assert (last.closed, last.balanced) == ([k], forest.balanced)
    assert Forest(graph, others[::-1]).balanced == forest.balanced


def test_forest_unbalanced_component_holds_the_least_unbalanced_vertex():
    # three triangles, the first balanced, the other two not; the last
    # triangle's conflict comes first in edge order
    graph = new_signed_graph("abcdefghi", [
        ("e1", "a", "b", "-"), ("e2", "b", "c", "-"), ("e3", "c", "a", "+"),
        ("e7", "d", "e", "-"), ("e8", "e", "f", "+"), ("e9", "f", "d", "+"),
        ("e4", "g", "h", "-"), ("e5", "h", "i", "+"), ("e6", "i", "g", "+")])
    forest = Forest(graph)
    assert not forest.balanced
    assert forest.unbalanced_component() == ([3, 4, 5], [6, 7, 8])
    assert Forest(new_signed_graph("ab", [("e", "a", "b", "-")])).unbalanced_component() \
        is None


def path_graph(edges, descending):
    """A positive path of ``edges`` edges whose edge ids ascend along it, or
    descend, so that the union-find merges it from one end or the other."""
    ids = [f"e{k:06d}" for k in range(edges)]
    if descending:
        ids.reverse()
    vertices = [f"p{i:06d}" for i in range(edges + 1)]
    return new_signed_graph(vertices, [
        (eid, vertices[i], vertices[i + 1], "+") for i, eid in enumerate(ids)])


@pytest.mark.parametrize("shape", ["path-ascending", "path-descending", "star", "recipe"])
def test_forest_find_chains_stay_logarithmic(shape):
    """Union by size keeps every find chain within log2(n) + 1 vertices, so
    the union-find has no quadratic cliff on long paths merged from either
    end or on stars, counted instead of timed."""
    edges = 2 ** 15
    if shape.startswith("path"):
        graph = path_graph(edges, shape == "path-descending")
    elif shape == "star":
        graph = new_signed_graph(["c"] + [f"l{i:06d}" for i in range(edges)], [
            (f"e{i:06d}", "c", f"l{i:06d}", "+") for i in range(edges)])
    else:
        graph = generate_line_consistent(large_recipe(1_000, 3), 3)
    lengths = find_chains(Forest(graph))
    assert max(lengths) <= math.log2(len(graph.vertices)) + 1
