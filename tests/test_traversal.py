"""The depth-first search and the parity union-find against networkx, on
graphs up to 10^4 vertices: the search's blocks and components, and the
forest's balance, components, bridges and the unbalanced component it names,
against networkx components 2-coloured by parity.

networkx is a test-only dependency; the checks compare bridges, blocks,
components and balance with independent implementations.  networkx works on
simple graphs, so parallel edges are merged into one vertex pair there: a
pair carrying two edges is never a bridge, and all of a pair's edges share
its block.
"""

import math
import random
from collections import defaultdict, deque
from types import SimpleNamespace

import pytest
from oracles import differential_corpus

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
from lineconsistency._traversal import Forest, Traversal
from lineconsistency.analysis import _condition_ii_clause, _degrees, _local_clauses

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


def component_ids(graph):
    """The search's components, from vertex numbers to vertex-id sets."""
    return [set(map(graph.vertex_ids.__getitem__, run)) for run in graph.traversal.components]


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
    assert component_ids(graph) == expected


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_the_search_reads_no_sign(name, graph):
    """The search needs only the vertex count, the endpoint columns and the
    incidence lists: on a namespace holding just those it gives the graph's
    block labels and components."""
    columns = SimpleNamespace(vertex_ids=graph.vertex_ids, tail=graph.tail, ends=graph.ends,
                              incidence=graph.incidence)
    search = Traversal(columns)
    assert search.block_labels == graph.traversal.block_labels
    assert search.components == graph.traversal.components


def bipartite_subdivision(graph):
    """Balance by definition, from networkx: a circle's length after
    subdividing each positive edge once has the parity of its negative edge
    count; two parallel negative edges merge, but their digon is positive
    anyway."""
    subdivided = nx.Graph()
    subdivided.add_nodes_from(graph.vertices)
    for e in graph.edges:
        if e.sign.is_negative:
            subdivided.add_edge(e.u, e.v)
        else:
            subdivided.add_edge(e.u, ("mid", e.id))
            subdivided.add_edge(("mid", e.id), e.v)
    return nx.is_bipartite(subdivided)


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_balance_matches_bipartite_subdivision(name, graph):
    balanced = bipartite_subdivision(graph)
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
    assert forest.balanced == bipartite_subdivision(graph)
    assert max(find_chains(forest)) <= math.log2(max(len(graph.vertices), 1)) + 1
    members = defaultdict(set)
    for v, x in enumerate(graph.vertex_ids):
        members[forest.root(v)].add(x)
    assert sorted(members.values(), key=min) == component_ids(graph)
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
    assert forest.unbalanced_component() == [6, 7, 8]
    assert Forest(new_signed_graph("ab", [("e", "a", "b", "-")])).unbalanced_component() \
        is None


def unbalanced_component_by_networkx(graph):
    """The edge numbers, ascending, of the unbalanced component holding the
    least vertex, or None: networkx's components, each 2-coloured by
    switching parity in a breadth-first search from its least vertex, and
    unbalanced when an edge's sign contradicts the colours of its ends."""
    simple, _ = simple_graph(graph)
    signed = defaultdict(list)
    for e in graph.edges:
        signed[e.u].append((e.v, e.sign.is_negative))
        signed[e.v].append((e.u, e.sign.is_negative))
    for component in sorted(nx.connected_components(simple), key=min):
        start = min(component)
        parity, queue = {start: 0}, deque([start])
        while queue:
            v = queue.popleft()
            for w, odd in signed[v]:
                if w not in parity:
                    parity[w] = parity[v] ^ odd
                    queue.append(w)
        inside = [e for e in graph.edges if e.u in component]
        if any(parity[e.u] ^ parity[e.v] != e.sign.is_negative for e in inside):
            return sorted(graph._edge_number(e.id) for e in inside)
    return None


def deep_root_graph():
    """Three components by vertex order: a positive edge; b0..b7, a circle
    with one negative edge and two pendant edges; and a triangle with one
    negative edge.
    Merged in edge-id order with union by size, ties going to the root of
    the lesser endpoint, the circle's tree is rooted at b1, not at its least
    vertex b0, and b7's find chain b7, b5, b3, b1 has height 3."""
    return new_signed_graph(["a0", "a1"] + [f"b{i}" for i in range(8)] + ["c0", "c1", "c2"], [
        ("d0", "a0", "a1", "+"),
        ("e1", "b0", "b6", "+"), ("e2", "b1", "b2", "+"), ("e3", "b1", "b6", "+"),
        ("e4", "b3", "b4", "+"), ("e5", "b5", "b7", "+"), ("e6", "b3", "b5", "+"),
        ("e7", "b1", "b3", "+"), ("e8", "b0", "b7", "-"),
        ("f1", "c0", "c1", "-"), ("f2", "c1", "c2", "+"), ("f3", "c2", "c0", "+")])


def unbalanced_roots(graph, forest):
    return {forest.root(graph.tail[k]) for k in forest.conflicts}


def assert_unbalanced_component_matches_networkx(graph):
    """Merged in edge order and in condition ii's order (its tested edges
    last, in reverse vertex order), the forest names the unbalanced
    component that an independent parity 2-colouring finds; the number of
    unbalanced components is returned."""
    expected = unbalanced_component_by_networkx(graph)
    tested, _ = _local_clauses(graph, _degrees(graph), _condition_ii_clause)
    for forest in (Forest(graph), Forest(graph, list(reversed(tested)))):
        assert forest.unbalanced_component() == expected, graph
    return len(unbalanced_roots(graph, forest))


@pytest.mark.parametrize("name, graph", GRAPHS, ids=IDS)
def test_unbalanced_component_matches_networkx(name, graph):
    assert_unbalanced_component_matches_networkx(graph)


def test_unbalanced_component_matches_networkx_on_disjoint_circles():
    """1-6 disjoint circles under shuffled ids, often several of them
    unbalanced, in no particular id order."""
    counts = list(map(assert_unbalanced_component_matches_networkx,
                      differential_corpus("circles")))
    assert sum(count > 1 for count in counts) > 50


def test_unbalanced_component_under_a_deep_root():
    graph = deep_root_graph()
    forest = Forest(graph)
    assert max(find_chains(forest)) == 4
    b0 = graph._vertex("b0")
    assert graph.vertex_ids[forest.root(b0)] == "b1"
    assert assert_unbalanced_component_matches_networkx(graph) == 2
    assert min(graph.tail[k] for k in forest.unbalanced_component()) == b0


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


def test_forest_closes_the_first_non_bridge_last_in_reverse_order():
    """Merged last in the reverse of their order, the last of some chosen
    edges to close a circle is the first of them that is not a bridge, and
    none closes one when all are bridges: condition ii names the tested edge
    that is not an isthmus so.  The chosen edges are a random sample in
    random order, and every positive edge in edge order."""
    rng = random.Random(18)
    graphs = [random_signed_graph(n, min(s % 31, n * (n - 1)), s % 5 / 4, s)
              for s in range(80) for n in [2 + s % 12]]
    graphs += [generate_line_consistent(random_recipe(s), s) for s in range(30)]
    named = 0
    for graph in graphs:
        m = len(graph.edge_ids)
        bridges = set(map(graph._edge_number, find_isthmi(graph)))
        positive = [k for k in range(m) if not graph.negative[k]]
        for chosen in (rng.sample(range(m), rng.randint(0, m)), positive):
            first = next((k for k in chosen if k not in bridges), None)
            closed = Forest(graph, chosen[::-1]).closed
            assert closed[-1:] == ([] if first is None else [first]), (graph, chosen)
            named += first is not None and len(closed) > 1
    assert named > 50
