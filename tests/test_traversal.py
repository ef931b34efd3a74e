"""The depth-first search against networkx, on graphs up to 10^4 vertices.

networkx is a test-only dependency; the checks compare bridges, blocks,
components and balance with independent implementations.  networkx works on
simple graphs, so parallel edges are merged into one vertex pair there: a
pair carrying two edges is never a bridge, and all of a pair's edges share
its block.
"""

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
