"""Independent brute-force oracles used to freeze expected values.

These deliberately share no code with the library's enumeration: a circle is
found as an edge subset forming a connected 2-regular subgraph.  Exponential,
for tiny graphs only.  The slot-list sampler, the edge-value recipe builder
and the document writers are the references for the seeded generators and
the JSON writers; the edge-value line graph, structural classifier and DOT
writer are the references for the column-built ones; the string-dict
circle search is the reference for the one on the integer columns; condition
ii reading isthmi from the whole graph's depth-first search is the reference
for the one read from the parity union-find; conditions i and iii and
corollary 3 reading isthmi as a set of ids, with degrees, negative degrees and
the local clause counted from the edge values, are the references for the
ones reading the block labels and the shared local pass.  Every reference
reads balance from its definition, a plain two-colouring of the subdivided
graph (``balanced_by_subdivision``), never from the library's union-find.  The
witnesses' circles are checked by definition, against networkx on the
subdivided graph, and the witnesses are built from them as the paper builds
them.
"""

import itertools
import json
import random
from collections import Counter, defaultdict

from lineconsistency.analysis import (
    NEGATIVE_DEGREE_ABOVE_2,
    POSITIVE_EDGE_NOT_ISTHMUS,
    TWO_POSITIVE_EDGES,
    UNBALANCED,
    ComponentReport,
    StructureReport,
    Verdict,
    blocks,
    find_isthmi,
)
from lineconsistency.core import (
    Circle,
    Edge,
    MarkedGraph,
    MarkedVertex,
    Sign,
    SignedEdge,
    SignedGraph,
    new_marked_graph,
    new_signed_graph,
    sign_product,
)
from lineconsistency.cycles import (
    DEFAULT_CIRCLE_CAP,
    CircleLimitError,
    ConsistencyResult,
)
from lineconsistency.generate import (
    Recipe,
    exhaustive_signed_graphs,
    generate_line_consistent,
    random_recipe,
    random_signed_graph,
)
from lineconsistency.linegraph import circle_image, line_circle, line_edge_id


def circle_edge_sets(graph):
    """Every circle of ``graph`` as a frozenset of edge ids, by brute force."""
    triples = graph.edge_triples()
    found = []
    for r in range(2, len(triples) + 1):
        for subset in itertools.combinations(triples, r):
            degree = {}
            for _, u, v in subset:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            adjacency = {x: set() for x in degree}
            for _, u, v in subset:
                adjacency[u].add(v)
                adjacency[v].add(u)
            start = next(iter(degree))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(degree):
                found.append(frozenset(eid for eid, _, _ in subset))
    return found


def vertices_of_edge_set(graph, edge_set):
    vertices = set()
    for eid in edge_set:
        e = graph.edge(eid)
        vertices.update((e.u, e.v))
    return vertices


def balanced_bruteforce(graph):
    """Every circle has positive edge-sign product."""
    for edge_set in circle_edge_sets(graph):
        if sign_product(graph.edge(eid).sign for eid in edge_set).is_negative:
            return False
    return True


def consistent_bruteforce(marked):
    """Every circle has positive vertex-sign product."""
    for edge_set in circle_edge_sets(marked):
        vertices = vertices_of_edge_set(marked, edge_set)
        if sign_product(marked.mark(v) for v in vertices).is_negative:
            return False
    return True


def random_signed_graph_by_slots(n, m, negative_probability, seed):
    """The slot-list sampler ``generate.random_signed_graph`` replaced: it
    lists every sorted vertex pair twice and samples the list itself."""
    vertices = tuple(f"v{i}" for i in range(n))
    slots = sorted(itertools.combinations(vertices, 2)) * 2
    rng = random.Random(seed)
    chosen = sorted(rng.sample(slots, m)) if m else []
    edges = tuple(
        SignedEdge(
            f"e{j}",
            u,
            v,
            Sign.NEGATIVE if rng.random() < negative_probability else Sign.POSITIVE,
        )
        for j, (u, v) in enumerate(chosen)
    )
    return SignedGraph(vertices, edges)


def write_signed_graph_by_document(graph):
    """The writer ``io.write_signed_graph`` replaced: a document of dicts
    serialised by ``json.dumps``."""
    document = {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "sign": e.sign.value}
            for e in graph.edges
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_marked_graph_by_document(marked):
    """The writer ``io.write_marked_graph`` replaced, as above."""
    document = {
        "vertices": [
            {"id": mv.id, "sign": mv.sign.value} for mv in marked.vertices
        ],
        "edges": [{"id": e.id, "u": e.u, "v": e.v} for e in marked.edges],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def generate_line_consistent_by_edges(recipe, seed):
    """The recipe builder ``generate.generate_line_consistent`` replaced: one
    ``SignedEdge`` value per edge, with the same random draws in the same
    order."""
    rng = random.Random(seed)
    vertices, edges, slots = [], [], []

    def vertex():
        vertices.append(f"n{len(vertices)}")
        return vertices[-1]

    def edge(u, v, sign):
        edges.append(SignedEdge(f"e{len(edges)}", u, v, sign))

    def circle(signs):
        ring = [vertex() for _ in signs]
        for i, sign in enumerate(signs):
            edge(ring[i], ring[(i + 1) % len(ring)], sign)
        return ring

    minus, plus = Sign.NEGATIVE, Sign.POSITIVE
    for length in recipe.negative_circles:
        slots.extend(circle([minus] * length))
    for length in recipe.closing_paths:
        slots.extend(circle([minus] * length + [plus])[1:length])
    for length in recipe.induced_paths:
        ring = circle([minus] * length + [plus, plus])
        slots.extend(ring[1:length])
        slots.append(ring[length + 1])
    for length in recipe.isthmus_paths:
        chain = [vertex() for _ in range(length + 1)]
        for u, v in zip(chain, chain[1:]):
            edge(u, v, minus)
        slots.extend(chain)
    for anchor in rng.sample(slots, recipe.pendant_positives):
        current = anchor
        for _ in range(rng.randint(1, 2)):
            nxt = vertex()
            edge(current, nxt, plus)
            current = nxt
    if recipe.scaffold_tree:
        tree = [vertex()]
        for _ in range(recipe.scaffold_tree):
            nxt = vertex()
            edge(rng.choice(tree), nxt, plus)
            tree.append(nxt)
    return SignedGraph(tuple(vertices), tuple(edges))


def export_dot_by_values(graph, report=None):
    """The DOT writer ``io.export_dot`` replaced: it read edge values and
    marks through ``mark()``."""
    def quote(identifier):
        return '"%s"' % identifier.replace("\\", "\\\\").replace('"', '\\"')

    def node_line(vertex):
        if isinstance(graph, MarkedGraph):
            label = quote(f"{vertex} [{graph.mark(vertex).value}]")
            return f"{quote(vertex)} [label={label}];"
        return f"{quote(vertex)};"

    lines = ["graph {"]
    clustered = set()
    for i, comp in enumerate(report.components if report is not None else ()):
        lines.append(f"  subgraph cluster_{i} {{")
        label = comp.kind
        if comp.is_block:
            label += " (block)"
        if comp.case:
            label += f" (case {comp.case})"
        lines.append(f'    label="{label}";')
        for v in comp.vertices:
            lines.append(f"    {node_line(v)}")
            clustered.add(v)
        lines.append("  }")
    for v in graph.vertex_ids:
        if v not in clustered:
            lines.append(f"  {node_line(v)}")
    for e in graph.edges:
        sign = getattr(e, "sign", None)
        style = "dashed" if sign is not None and sign.is_negative else "solid"
        lines.append(f"  {quote(e.u)} -- {quote(e.v)} [label={quote(e.id)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def line_graph_by_values(graph):
    """The builder ``linegraph.line_graph`` replaced: a ``MarkedVertex`` per
    edge and an ``Edge`` per pair of edges at each vertex, read from the
    graph's edge values."""
    vertices = [MarkedVertex(e.id, e.sign) for e in graph.edges]
    edges = []
    for v in graph.vertices:
        for a, b in itertools.combinations(graph.incident_edges(v), 2):
            edges.append(Edge(line_edge_id(a.id, b.id, v), a.id, b.id))
    return MarkedGraph(tuple(vertices), tuple(edges))


def _components(vertices, edge_triples):
    """Vertex sets of the components, by least vertex, by plain search."""
    adjacency = {v: [] for v in vertices}
    for _, u, v in edge_triples:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen, found = set(), []
    for root in sorted(vertices):
        if root in seen:
            continue
        component, stack = {root}, [root]
        while stack:
            for y in adjacency[stack.pop()]:
                if y not in component:
                    component.add(y)
                    stack.append(y)
        seen |= component
        found.append(component)
    return found


def _classify_kind_by_ids(component, negative_degree):
    degrees = {v: negative_degree[v] for v in component}
    if len(component) == 1 and not any(degrees.values()):
        return "single-vertex", ()
    if all(d == 2 for d in degrees.values()):
        return "circle", ()
    ones = sorted(v for v, d in degrees.items() if d == 1)
    if all(d in (1, 2) for d in degrees.values()) and len(ones) == 2:
        return "nontrivial-path", tuple(ones)
    return "other", ()


def _subdivided(graph):
    """The networkx graph with each positive edge of ``graph`` subdivided once
    and each negative edge twice; segment j of edge e ends at (e.id, j)."""
    import networkx as nx

    subdivided = nx.Graph()
    subdivided.add_nodes_from(graph.vertices)
    for e in graph.edges:
        nx.add_path(subdivided, [e.u, *((e.id, j) for j in range(1 + e.sign.is_negative)), e.v])
    return subdivided


def _subdivided_blocks(graph):
    """(isthmi, block_of, balanced) by definition, from networkx, reading
    nothing of the library's search: each positive edge is subdivided once
    and each negative edge twice.  An edge is an isthmus when its first
    segment is a bridge, and its block is the biconnected component holding
    that segment.  A circle's length there is even exactly when it has an
    even number of negative edges, so the graph is balanced exactly when the
    subdivided graph is bipartite (Harary 1953)."""
    import networkx as nx

    subdivided = _subdivided(graph)
    bridges = set(map(frozenset, nx.bridges(subdivided)))
    component_of = {frozenset(segment): i for i, component in
                    enumerate(nx.biconnected_component_edges(subdivided))
                    for segment in component}
    first = {e.id: frozenset((e.u, (e.id, 0))) for e in graph.edges}
    isthmi = frozenset(eid for eid, segment in first.items() if segment in bridges)
    members = defaultdict(set)
    for eid, segment in first.items():
        members[component_of[segment]].add(eid)
    block_of = {eid: frozenset(members[component_of[segment]]) for eid, segment in first.items()}
    return isthmi, block_of, nx.is_bipartite(subdivided)


def classify_structure_by_values(graph):
    """The classifier ``analysis.classify_structure`` replaced: edge values,
    id sets per block and a second search for the negative components.  The
    isthmi, blocks and balance are defined afresh (``_subdivided_blocks``), so
    a fault in the library's block labels moves the classifier alone."""
    negative_triples = [(e.id, e.u, e.v) for e in graph.edges if e.sign.is_negative]
    negative_degree = Counter(x for _, u, v in negative_triples for x in (u, v))
    isthmi, block_of, balanced = _subdivided_blocks(graph)

    components = _components(graph.vertices, negative_triples)
    component_of = {v: i for i, component in enumerate(components) for v in component}
    negative_edges = [[] for _ in components]
    inside_edges = [[] for _ in components]
    for e in graph.edges:
        i = component_of[e.u]
        if e.sign.is_negative:
            negative_edges[i].append(e.id)
        elif i == component_of[e.v]:
            inside_edges[i].append(e)

    reports = []
    for component, comp_edges, inside in zip(components, negative_edges, inside_edges):
        vertices = tuple(sorted(component))
        edge_set = frozenset(comp_edges)
        kind, endpoints = _classify_kind_by_ids(component, negative_degree)
        violations = []
        is_block = path_form = case = None
        endpoints_divalent = endpoint_extras_ok = None

        def extras_at(v):
            return [e for e in graph.incident_edges(v) if e.id not in edge_set]

        def check_extras(word, inner):
            for v in inner:
                extras = extras_at(v)
                if len(extras) > 1:
                    violations.append(f"more than one extra edge at {word} vertex {v!r}")
                elif extras and not (
                    extras[0].sign.is_positive and extras[0].id in isthmi
                ):
                    violations.append(
                        f"extra edge at {word} vertex {v!r} is not a positive isthmus"
                    )

        if kind == "other":
            violations.append(
                "negative component is not a circle, path, or single vertex"
            )
        elif kind == "circle":
            is_block = block_of[comp_edges[0]] == edge_set
            if not is_block:
                violations.append("circle component is not a block")
            check_extras("circle", vertices)
        elif kind == "nontrivial-path":
            for v in endpoints:
                if graph.degree(v) > 2:
                    violations.append(f"path endpoint {v!r} is not at most divalent")
            check_extras("path", (v for v in vertices if v not in endpoints))
            if not inside:
                path_form = "induced"
            elif (
                len(inside) == 1
                and inside[0].sign.is_positive
                and frozenset((inside[0].u, inside[0].v)) == frozenset(endpoints)
                and block_of[inside[0].id] == edge_set | {inside[0].id}
            ):
                path_form = "closes-circle-block"
            else:
                violations.append("path is neither induced nor closes a circle block")
            block = block_of[comp_edges[0]]
            if len(block) > 1 and edge_set <= block:
                case = "a"
                endpoints_divalent = all(graph.degree(v) == 2 for v in endpoints)
            elif edge_set <= isthmi and all(
                e.id in isthmi for v in endpoints for e in graph.incident_edges(v)
            ):
                case = "b"
                endpoint_extras_ok = all(
                    e.sign.is_positive and e.id in isthmi
                    for v in endpoints
                    for e in extras_at(v)
                )
            else:
                violations.append(
                    "path is neither inside a nontrivial block nor an "
                    "isthmus path with block-free endpoints"
                )

        reports.append(ComponentReport(
            kind=kind,
            vertices=vertices,
            edges=tuple(comp_edges),
            ok=not violations,
            violations=tuple(violations),
            is_block=is_block,
            path_form=path_form,
            case=case,
            endpoints=endpoints,
            endpoints_divalent=endpoints_divalent,
            endpoint_extras_positive_isthmi=endpoint_extras_ok,
        ))

    overall = balanced and all(r.ok for r in reports)
    return StructureReport(
        balanced=balanced, components=tuple(reports), line_consistent=overall
    )


_TILDE_VERTICES = ("s", "x@y", "y", "x", "y@s")
_TILDE_EDGES = ("p", "q", "r", "p~q", "q~r", "1", "2", "2@x", "r@x", "q~r@x")


def _tilde_graph(seed):
    """A random multigraph on ids holding '~' and '@': some have line-graph
    edge ids that collide."""
    rng = random.Random(seed)
    vertices = rng.sample(_TILDE_VERTICES, rng.randint(2, 4))
    edges = [(eid, *rng.sample(vertices, 2), rng.choice("+-"))
             for eid in rng.sample(_TILDE_EDGES, rng.randint(0, 7))]
    return new_signed_graph(vertices, edges)


def random_marked_multigraph(seed):
    """A random marked multigraph of 1-8 vertices and up to 14 edges, with
    parallel edges, a random share of negative vertices, and ids whose order
    differs from the order of construction."""
    rng = random.Random(seed)
    vertices = rng.sample([f"v{i}" for i in range(20)], rng.randint(1, 8))
    edges = [(f"e{rng.randrange(100)}.{j}", *rng.sample(vertices, 2))
             for j in range(rng.randint(0, 14) if len(vertices) > 1 else 0)]
    share = rng.random()
    return new_marked_graph(
        [(v, "-" if rng.random() < share else "+") for v in vertices], edges)


def _disjoint_circles(seed):
    """1-6 disjoint circles of 2-7 vertices, each with one or more negative
    edges and up to two positive chords, under shuffled vertex and edge ids:
    several components are unbalanced, in no particular id order."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, 7) for _ in range(rng.randint(1, 6))]
    names = [f"v{x}" for x in rng.sample(range(10 * sum(sizes)), sum(sizes))]
    edges = []
    for i, size in enumerate(sizes):
        ring = names[sum(sizes[:i]):sum(sizes[:i + 1])]
        negative = [rng.random() < 0.4 for _ in ring]
        negative[rng.randrange(size)] = True
        edges += [(u, w, "-" if odd else "+")
                  for u, w, odd in zip(ring, ring[1:] + ring[:1], negative)]
        if size > 2:
            edges += [(*rng.sample(ring, 2), "+") for _ in range(rng.randint(0, 2))]
    ids = rng.sample(range(10 * len(edges)), len(edges))
    return new_signed_graph(names, [(f"e{k}", *edge) for k, edge in zip(ids, edges)])


def _negative_paths(seed):
    """3-40 shuffled vertices, runs of them joined by negative paths of 1-4
    edges, and up to n random extra edges, about one in ten negative: many
    vertices of negative degree 2 have their positive edge tested, often
    several in one graph, with bridges and non-bridges among them in any
    vertex order."""
    rng = random.Random(seed)
    n = rng.randint(3, 40)
    names = [f"v{x}" for x in rng.sample(range(10 * n), n)]
    edges, start = [], 0
    while start < n - 1:
        end = min(start + rng.randint(1, 4), n - 1)
        edges += [(names[i], names[i + 1], "-") for i in range(start, end)]
        start = end + 1
    edges += [(*rng.sample(names, 2), "-" if rng.random() < 0.1 else "+")
              for _ in range(rng.randint(0, n))]
    ids = rng.sample(range(10 * len(edges)), len(edges))
    return new_signed_graph(names, [(f"e{k}", *edge) for k, edge in zip(ids, edges)])


def _tested_edges():
    """Hand-made graphs where condition ii tests positive edges."""
    return [
        # the positive isthmus p tested from both of its ends: consistent
        new_signed_graph("abcdef", [
            ("p", "a", "b", "+"), ("n1", "a", "c", "-"), ("n2", "a", "d", "-"),
            ("n3", "b", "e", "-"), ("n4", "b", "f", "-")]),
        # the tested p is parallel to the negative n1: not an isthmus, though
        # the digon it closes is negative too
        new_signed_graph("abc", [
            ("p", "a", "b", "+"), ("n1", "a", "b", "-"), ("n2", "a", "c", "-")]),
        # the isthmus p is tested at a before z fails a local clause
        new_signed_graph("abcdzxyw", [
            ("p", "a", "b", "+"), ("n1", "a", "c", "-"), ("n2", "a", "d", "-"),
            ("m1", "z", "x", "-"), ("m2", "z", "y", "-"), ("m3", "z", "w", "-")]),
        # the non-isthmus p is tested at a before z fails a local clause
        new_signed_graph("abcdzxyw", [
            ("p", "a", "b", "+"), ("q", "b", "c", "+"), ("n1", "a", "c", "-"),
            ("n2", "a", "d", "-"), ("m1", "z", "x", "-"), ("m2", "z", "y", "-"),
            ("m3", "z", "w", "-")]),
    ]


def flipped_recipe(seed):
    """A line-consistent recipe graph with one edge of an all-negative circle
    made positive, as the benchmark's witness workload flips its inputs: the
    circle turns negative, so the graph is unbalanced, and on most seeds no
    local clause of condition ii fails."""
    graph = generate_line_consistent(Recipe(
        negative_circles=(4, 6, 8), closing_paths=(2, 4), induced_paths=(2, 4),
        isthmus_paths=(1, 3), pendant_positives=4, scaffold_tree=8), seed)
    negative = graph.negative_subgraph()
    degree = Counter(x for e in negative.edges for x in (e.u, e.v))
    circle = next(run for run in negative.traversal.components
                  if len(run) > 2 and all(degree[negative.vertices[v]] == 2 for v in run))
    flip = next(k for k, a in enumerate(graph.tail) if graph.negative[k] and a in circle)
    return new_signed_graph(graph.vertices, [
        (e.id, e.u, e.v, "+" if k == flip else e.sign.value) for k, e in enumerate(graph.edges)])


def differential_corpus(family):
    """The graphs column-built code is compared with its reference on."""
    if family == "exhaustive":
        return exhaustive_signed_graphs(4, 5)
    if family == "random":
        return (random_signed_graph(n, min(s % 23, n * (n - 1)), s % 11 / 10, s)
                for s in range(300) for n in [2 + s % 9])
    if family == "recipes":
        return (generate_line_consistent(random_recipe(s), s) for s in range(200))
    if family == "crossval":
        # the shapes of the crossval-small benchmark: 2-7 vertices, up to 12
        # edges, negative shares from 0 to 1, and one recipe graph in eight
        return (generate_line_consistent(random_recipe(i), i) if i % 8 == 7 else
                random_signed_graph(n, min(i // 6 % 13, n * (n - 1)), i // 3 % 7 / 6, i)
                for i in range(480) for n in [2 + i % 6])
    if family == "collisions":
        return [
            # the star whose line edges p~q~r@s collide
            new_signed_graph("sabcd", [("p", "s", "a", "+"), ("q~r", "s", "b", "+"),
                                       ("p~q", "s", "c", "+"), ("r", "s", "d", "+")]),
            # edges 1, 2 meet at x@y and 1, 2@x at y: both named 1~2@x@y
            new_signed_graph(["x@y", "y", "c", "d"], [
                ("1", "x@y", "y", "+"), ("2", "x@y", "c", "-"), ("2@x", "y", "d", "+")]),
        ] + [_tilde_graph(s) for s in range(300)]
    if family == "circles":
        return (_disjoint_circles(s) for s in range(400))
    if family == "tested-edges":
        return _tested_edges()
    if family == "negative-paths":
        return (_negative_paths(s) for s in range(2000))
    if family == "flipped":
        return (flipped_recipe(s) for s in range(40))
    raise ValueError(family)


def balanced_by_subdivision(graph):
    """Balance by definition, read from the edge values alone: with each
    positive edge subdivided once and each negative edge twice, as in
    ``_subdivided``, a circle is even exactly when it has an even number of
    negative edges, so the graph is balanced exactly when a breadth-first
    two-colouring of the subdivided graph meets no edge whose ends share a
    colour (Harary 1953).  Plain dicts, not networkx, so it stays cheap enough for
    every exhaustive graph."""
    adjacency = defaultdict(list)
    for e in graph.edges:
        path = [e.u, *((e.id, j) for j in range(1 + e.sign.is_negative)), e.v]
        for x, y in zip(path, path[1:]):
            adjacency[x].append(y)
            adjacency[y].append(x)
    colour = {}
    for root in adjacency:
        if root in colour:
            continue
        colour[root], queue = 0, [root]
        for x in queue:  # queue grows as the search reaches vertices
            for y in adjacency[x]:
                if y not in colour:
                    colour[y] = colour[x] ^ 1
                    queue.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def check_condition_ii_by_search(graph):
    """The condition ii the parity union-find replaced: degrees from the
    incidence lists, isthmi from the graph's depth-first search and balance
    from its definition."""
    negative, incidence = graph.negative, graph.incidence
    negative_degree = Counter()
    for k, (a, e) in enumerate(zip(graph.tail, graph.ends)):
        if negative[k]:
            negative_degree.update((a, a ^ e))
    for i in sorted(negative_degree):
        count, incident = negative_degree[i], incidence[i]
        if count > 2:
            return Verdict(False, NEGATIVE_DEGREE_ABOVE_2, vertex=graph.vertices[i])
        if len(incident) - count > 1:
            return Verdict(False, TWO_POSITIVE_EDGES, vertex=graph.vertices[i])
        if count == 2 and len(incident) == 3:
            edge = next(graph.edge_ids[k] for k in incident if not negative[k])
            if edge not in find_isthmi(graph):
                return Verdict(False, POSITIVE_EDGE_NOT_ISTHMUS,
                               vertex=graph.vertices[i], edge=edge)
    return Verdict(True) if balanced_by_subdivision(graph) else Verdict(False, UNBALANCED)


def _degree_sign_clause_by_edges(graph):
    """The local clause of conditions i and iii, counted from the edge
    values at every vertex in vertex order up to the first that fails:
    (degree, mixed, failed).  ``degree`` counts each vertex's edges by id,
    and ``mixed`` maps each vertex of degree 3 with two negative edges
    before the failure to the id of its positive edge."""
    degree, negatives, positive = Counter(), Counter(), {}
    for e in graph.edges:
        for x in (e.u, e.v):
            degree[x] += 1
            if e.sign.is_negative:
                negatives[x] += 1
            else:
                positive[x] = e.id
    mixed = {}
    for v in graph.vertices:
        if not negatives[v] or degree[v] < 3:
            continue
        if degree[v] == 3 and negatives[v] == 2:
            mixed[v] = positive[v]
        else:
            clause = ("degree-3 vertex signs invalid" if degree[v] == 3
                      else "degree>3 not totally positive")
            return degree, mixed, Verdict(False, clause, vertex=v)
    return degree, mixed, None


def check_condition_i_by_isthmi(graph):
    _, mixed, failed = _degree_sign_clause_by_edges(graph)
    isthmi = find_isthmi(graph)
    for v, eid in mixed.items():
        if eid not in isthmi:
            return Verdict(False, "degree-3 positive edge not an isthmus", vertex=v, edge=eid)
    return failed or (Verdict(True) if balanced_by_subdivision(graph)
                      else Verdict(False, UNBALANCED))


def check_condition_iii_by_isthmi(graph):
    degree, _, failed = _degree_sign_clause_by_edges(graph)
    if failed:
        return failed
    isthmi = find_isthmi(graph)
    if not balanced_by_subdivision(graph):
        return Verdict(False, "unbalanced after deleting positive isthmi")
    for e in graph.edges:
        if e.sign.is_positive and e.id in isthmi:
            degree[e.u] -= 1
            degree[e.v] -= 1
    for e in graph.edges:
        for x in (e.u, e.v) if e.sign.is_negative else ():
            if degree[x] > 2:
                return Verdict(False, "negative-edge endpoint degree exceeds 2 "
                               "after deleting positive isthmi", vertex=x)
    return Verdict(True)


def check_corollary_3_by_isthmi(graph):
    if len(graph.vertices) < 4 or len(graph.traversal.components) != 1:
        return None
    if find_isthmi(graph) or 2 in Counter(x for e in graph.edges for x in (e.u, e.v)).values():
        return None
    return not any(graph.negative)


def _base_multigraph(graph, without=None):
    """The networkx multigraph of ``graph``'s edges, but the edge ``without``."""
    import networkx as nx

    base = nx.MultiGraph()
    base.add_nodes_from(graph.vertices)
    base.add_edges_from((e.u, e.v) for e in graph.edges if e.id != without)
    return base


def _negative_edges_on(graph, circle):
    """The number of negative edges on ``circle``, after asserting that it
    runs along edges of ``graph``, read from its edge values."""
    edges = {e.id: e for e in graph.edges}
    ends = zip(circle.vertices, circle.vertices[1:] + circle.vertices[:1])
    assert all({edges[eid].u, edges[eid].v} == set(pair)
               for eid, pair in zip(circle.edges, ends)), circle
    return sum(edges[eid].sign.is_negative for eid in circle.edges)


def assert_negative_circle_by_definition(graph, circle):
    """``circle`` is None exactly on a balanced graph; else it is a negative
    circle of the graph inside the unbalanced component that holds the least
    vertex, with at most 2 * ecc + 1 edges, where ecc is that vertex's
    breadth-first eccentricity in its component: the most that two paths
    down a breadth-first tree from it and one edge can make.  A component is
    unbalanced exactly when its subdivided graph is not bipartite (Harary
    1953); all of it is read from networkx."""
    import networkx as nx

    subdivided = _subdivided(graph)
    if nx.is_bipartite(subdivided):
        assert circle is None, graph
        return
    vertices = set(graph.vertices)
    component = min((c & vertices for c in nx.connected_components(subdivided)
                     if not nx.is_bipartite(subdivided.subgraph(c))), key=min)
    assert _negative_edges_on(graph, circle) % 2 == 1, circle
    assert set(circle.vertices) <= component, circle
    distances = nx.single_source_shortest_path_length(_base_multigraph(graph), min(component))
    assert len(circle) <= 2 * max(distances.values()) + 1, circle


def assert_shortest_circle_through(graph, edge, circle):
    """``circle`` is a circle of the graph through the edge ``edge`` with
    1 + the networkx distance between its ends in the graph without it."""
    import networkx as nx

    e = graph.edge(edge)
    _negative_edges_on(graph, circle)
    assert edge in circle.edges, circle
    rest = _base_multigraph(graph, without=edge)
    assert len(circle) == 1 + nx.shortest_path_length(rest, e.u, e.v), circle


def clause_witness_from(graph, failed, circle):
    """The paper's witness of a failed clause of condition ii: the triangle
    of edges at the vertex, read from the incidence lists, for the local
    clauses; else ``circle``'s image, ``circle`` being a negative circle
    for an unbalanced graph, or a circle through the failing positive edge,
    with the spare negative edge at the vertex interposed when it is
    positive."""
    v, clause = failed.vertex, failed.failed_clause
    if clause == UNBALANCED:
        return circle_image(circle)
    incident = graph.incidence[graph._vertex(v)]
    positive = [graph.edge_ids[k] for k in incident if not graph.negative[k]]
    negative = [graph.edge_ids[k] for k in incident if graph.negative[k]]
    if clause == NEGATIVE_DEGREE_ABOVE_2:
        return line_circle(tuple(negative[:3]), (v, v, v))
    if clause == TWO_POSITIVE_EDGES:
        return line_circle((negative[0], positive[0], positive[1]), (v, v, v))
    if graph.sign_of_walk(circle).is_negative:
        return circle_image(circle)
    spare = next(eid for eid in negative if eid not in circle.edges)
    j = circle.vertices.index(v)
    return line_circle(
        circle.edges[j:] + circle.edges[:j] + (spare,),
        circle.vertices[j + 1:] + circle.vertices[:j + 1] + (v,),
    )


def spliced_graph(n, seed):
    """``random_signed_graph(n // 2, n, 0.0, seed)`` with its first edge x-y
    on a circle replaced by the path x-u (+), u-w (-), w-y (+): unbalanced
    only through that path, and every local clause of condition ii holds."""
    graph = random_signed_graph(n // 2, n, 0.0, seed)
    isthmi = find_isthmi(graph)
    cut = next(t for t in graph.edge_triples() if t[0] not in isthmi)
    return new_signed_graph(graph.vertices + ("u", "w"), [
        *((eid, a, b, "+") for eid, a, b in graph.edge_triples() if eid != cut[0]),
        ("s1", cut[1], "u", "+"), ("s2", "u", "w", "-"), ("s3", "w", cut[2], "+")])


def _parallel_groups(edge_triples):
    groups = defaultdict(list)
    for eid, u, v in edge_triples:
        groups[(min(u, v), max(u, v))].append(eid)
    return {pair: sorted(eids) for pair, eids in sorted(groups.items())}


def _simple_adjacency(vertex_ids, edge_triples):
    pair_edges = _parallel_groups(edge_triples)
    adj = {x: [] for x in vertex_ids}
    for u, v in pair_edges:
        adj[u].append(v)
        adj[v].append(u)
    return {x: tuple(sorted(ws)) for x, ws in adj.items()}, pair_edges


def _vertex_cycles_through(adj, start, banned):
    """Elementary vertex cycles (length >= 3) through ``start`` avoiding
    ``banned``, by an unpruned search over every simple path; each once
    (path[1] < path[-1])."""
    path = [start]
    on_path = {start}
    stack = [iter(adj[start])]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            on_path.discard(path.pop())
            continue
        if w == start:
            if len(path) >= 3 and path[1] < path[-1]:
                yield tuple(path)
            continue
        if w in on_path or w in banned:
            continue
        path.append(w)
        on_path.add(w)
        stack.append(iter(adj[w]))


def circles_through_by_ids(graph, targets, max_circles):
    """The enumerator ``cycles.circles_through`` replaced: string-dict
    adjacency per block, every parallel-edge choice expanded."""
    count = 0

    def emit(circle):
        nonlocal count
        count += 1
        if count > max_circles:
            raise CircleLimitError(f"more than {max_circles} circles")
        return circle

    target_set = set(graph.vertex_ids if targets is None else targets)
    touched = [(b.vertices, b.edges) for b in blocks(graph)
               if not b.vertices.isdisjoint(target_set)]
    by_id = {eid: (eid, *graph._endpoints(graph._edge_number(eid)))
             for _, block_edges in touched for eid in block_edges}
    for (u, v), eids in _parallel_groups(by_id.values()).items():
        if len(eids) < 2:
            continue
        if u not in target_set and v not in target_set:
            continue
        for a, b in itertools.combinations(eids, 2):
            yield emit(Circle((a, b), (u, v)).canonical())

    for block_vertices, block_edges in touched:
        if len(block_edges) < 3:
            continue
        block_targets = sorted(block_vertices & target_set)
        adj, pair_edges = _simple_adjacency(block_vertices, map(by_id.get, block_edges))
        for i, t in enumerate(block_targets):
            banned = set(block_targets[:i])
            for vertex_cycle in _vertex_cycles_through(adj, t, banned):
                pairs = zip(vertex_cycle, vertex_cycle[1:] + vertex_cycle[:1])
                choices = [pair_edges[(min(a, b), max(a, b))] for a, b in pairs]
                for combo in itertools.product(*choices):
                    yield emit(Circle(combo, vertex_cycle).canonical())


def _first_circle_through(adj, pair_edges, target, banned):
    for w in adj[target]:
        pair = (min(target, w), max(target, w))
        if len(pair_edges[pair]) >= 2 and w not in banned:
            return Circle(tuple(pair_edges[pair][:2]), pair).canonical()
    for vertex_cycle in _vertex_cycles_through(adj, target, banned):
        pairs = zip(vertex_cycle, vertex_cycle[1:] + vertex_cycle[:1])
        edges = tuple(pair_edges[(min(a, b), max(a, b))][0] for a, b in pairs)
        return Circle(edges, vertex_cycle).canonical()
    return None


def is_consistent_oracle_by_ids(marked, *, max_circles=DEFAULT_CIRCLE_CAP):
    """The oracle ``cycles.is_consistent_oracle`` replaced: an unpruned fast
    pass, then ``circles_through_by_ids``, signing every emitted circle."""
    targets = tuple(itertools.compress(marked.vertex_ids, marked.marks))
    if not targets:
        return ConsistencyResult(True, None)
    target_set = set(targets)
    adj, pair_edges = _simple_adjacency(marked.vertex_ids, marked.edge_triples())
    for t in targets:
        circle = _first_circle_through(adj, pair_edges, t, target_set - {t})
        if circle is not None:
            return ConsistencyResult(False, circle)
    for circle in circles_through_by_ids(marked, targets, max_circles):
        if sign_product(marked.mark(v) for v in circle.vertices).is_negative:
            return ConsistencyResult(False, circle)
    return ConsistencyResult(True, None)
