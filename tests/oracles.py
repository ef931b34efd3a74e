"""Independent brute-force oracles used to freeze expected values.

These deliberately share no code with the library's enumeration: a circle is
found as an edge subset forming a connected 2-regular subgraph.  Exponential,
for tiny graphs only.  The slot-list sampler, the edge-value recipe builder
and the document writers are the references for the seeded generators and
the JSON writers; the edge-value line graph, structural classifier and DOT
writer are the references for the column-built ones; the string-dict
circle search is the reference for the one on the integer columns; condition
ii and the negative circle read from the whole graph's depth-first search are
the references for the ones read from the parity union-find.
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
    _circle_through_edge,
    blocks,
    find_isthmi,
    is_balanced_fast,
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


def classify_structure_by_values(graph):
    """The classifier ``analysis.classify_structure`` replaced: edge values,
    id sets per block and a second search for the negative components."""
    negative_triples = [(e.id, e.u, e.v) for e in graph.edges if e.sign.is_negative]
    negative_degree = Counter(x for _, u, v in negative_triples for x in (u, v))
    isthmi = find_isthmi(graph)
    block_of = {eid: b.edges for b in blocks(graph) for eid in b.edges}

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
                and inside[0].endpoints == frozenset(endpoints)
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

    balanced = is_balanced_fast(graph)
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
    raise ValueError(family)


def check_condition_ii_by_search(graph):
    """The condition ii the parity union-find replaced: degrees from the
    incidence lists, isthmi and balance from the graph's depth-first search."""
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
            if edge not in graph.traversal.bridges:
                return Verdict(False, POSITIVE_EDGE_NOT_ISTHMUS,
                               vertex=graph.vertices[i], edge=edge)
    return Verdict(True) if graph.traversal.balanced else Verdict(False, UNBALANCED)


def find_negative_circle_by_search(graph):
    """The fundamental circle of the first conflict of the whole graph's
    depth-first search, canonical, or None when balanced."""
    cycle = graph.traversal.negative_cycle()
    return None if cycle is None else Circle(*cycle).canonical()


def clause_witness_by_search(graph, failed):
    """The witness of a failed clause of condition ii, with the edges at the
    vertex read from the incidence lists and the negative circle from
    ``find_negative_circle_by_search``."""
    v, clause = failed.vertex, failed.failed_clause
    if clause == UNBALANCED:
        return circle_image(find_negative_circle_by_search(graph))
    incident = graph.incidence[graph._vertex(v)]
    positive = [graph.edge_ids[k] for k in incident if not graph.negative[k]]
    negative = [graph.edge_ids[k] for k in incident if graph.negative[k]]
    if clause == NEGATIVE_DEGREE_ABOVE_2:
        return line_circle(tuple(negative[:3]), (v, v, v))
    if clause == TWO_POSITIVE_EDGES:
        return line_circle((negative[0], positive[0], positive[1]), (v, v, v))
    circle = _circle_through_edge(graph, graph._edge_number(failed.edge))
    if graph.sign_of_walk(circle).is_negative:
        return circle_image(circle)
    spare = next(eid for eid in negative if eid not in circle.edges)
    j = circle.vertices.index(v)
    return line_circle(
        circle.edges[j:] + circle.edges[:j] + (spare,),
        circle.vertices[j + 1:] + circle.vertices[:j + 1] + (v,),
    )


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
    blocks = [b for b in graph.traversal.blocks if not b[0].isdisjoint(target_set)]
    by_id = {eid: (eid, *graph._endpoints(graph._edge_number(eid)))
             for b in blocks for eid in b[1]}
    for (u, v), eids in _parallel_groups(by_id.values()).items():
        if len(eids) < 2:
            continue
        if u not in target_set and v not in target_set:
            continue
        for a, b in itertools.combinations(eids, 2):
            yield emit(Circle((a, b), (u, v)).canonical())

    for block_vertices, block_edges in blocks:
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
    targets = marked.negative_vertex_ids
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
