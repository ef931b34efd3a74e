"""Known answers and output checks that do not use the program under test.

Every function here reads the plain JSON document the program is given
(``{"vertices": [...], "edges": [{"id", "u", "v", "sign"}, ...]}``) and
nothing from ``lineconsistency``.  Answers come either from how an input was
built, confirmed by a certificate computed here, or from the definition:
signed cycles of the marked line graph, enumerated with networkx.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def edge_table(doc: dict) -> dict:
    """edge id -> (u, v, sign)."""
    return {e["id"]: (e["u"], e["v"], e["sign"]) for e in doc["edges"]}


def _incident(doc: dict) -> dict:
    incident = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        incident[e["u"]].append(e)
        incident[e["v"]].append(e)
    return incident


def is_balanced(doc: dict) -> bool:
    """Every circle has an even number of negative edges.

    Union-find over vertices, each keeping the parity of the signed path to
    its root; a balanced graph never closes an edge against that parity.
    """
    parent = {v: v for v in doc["vertices"]}
    parity = {v: 0 for v in doc["vertices"]}

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        root, acc = v, 0
        for x in reversed(path):
            acc ^= parity[x]
            parity[x] = acc
            parent[x] = root
        return root

    for e in doc["edges"]:
        u, v = e["u"], e["v"]
        odd = 1 if e["sign"] == "-" else 0
        ru, rv = find(u), find(v)
        if ru == rv:
            if parity[u] ^ parity[v] != odd:
                return False
        else:
            parent[ru] = rv
            parity[ru] = parity[u] ^ parity[v] ^ odd
    return True


def _components(vertices, edges) -> list:
    """Connected components as (vertices, edge ids), in vertex order."""
    incident = defaultdict(list)
    for e in edges:
        incident[e["u"]].append((e["id"], e["v"]))
        incident[e["v"]].append((e["id"], e["u"]))
    seen = set()
    components = []
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        stack, members, ids = [root], [root], set()
        while stack:
            for eid, w in incident[stack.pop()]:
                ids.add(eid)
                if w not in seen:
                    seen.add(w)
                    members.append(w)
                    stack.append(w)
        components.append((members, ids))
    return components


def negative_components(doc: dict) -> list:
    """Components of the spanning negative subgraph as (vertices, edge ids)."""
    return _components(
        doc["vertices"], [e for e in doc["edges"] if e["sign"] == "-"]
    )


def negative_census(doc: dict) -> Counter:
    """Negative-subgraph components by kind, named as ``decompose`` names them."""
    degree = Counter()
    for e in doc["edges"]:
        if e["sign"] == "-":
            degree[e["u"]] += 1
            degree[e["v"]] += 1
    census = Counter()
    for vertices, edges in negative_components(doc):
        degrees = [degree[v] for v in vertices]
        if not edges:
            census["single-vertex"] += 1
        elif all(d == 2 for d in degrees):
            census["circle"] += 1
        elif set(degrees) <= {1, 2} and degrees.count(1) == 2:
            census["nontrivial-path"] += 1
        else:
            census["other"] += 1
    return census


def negative_triple_vertex(doc: dict):
    """A vertex with three incident edges of negative product, or None.

    Three edges at one vertex are a triangle of the line graph whose sign is
    their product, so such a vertex certifies "not line consistent".
    """
    for v, edges in _incident(doc).items():
        negative = sum(e["sign"] == "-" for e in edges)
        positive = len(edges) - negative
        if negative >= 3 or (negative >= 1 and positive >= 2):
            return v
    return None


def is_path(doc: dict) -> bool:
    """Connected, acyclic and of maximum degree 2: its line graph is a path."""
    return (
        len(doc["edges"]) == len(doc["vertices"]) - 1
        and all(len(edges) <= 2 for edges in _incident(doc).values())
        and len(_components(doc["vertices"], doc["edges"])) == 1
    )


def program_line_edge_ids(doc: dict) -> list:
    """Line-graph edge ids in the program's ``a~b@shared`` text form."""
    ids = []
    for v, edges in _incident(doc).items():
        for a, b in itertools.combinations(sorted(e["id"] for e in edges), 2):
            ids.append(f"{a}~{b}@{v}")
    return ids


def has_line_id_collision(doc: dict) -> bool:
    """Two distinct line-graph edges would get the same text id."""
    ids = program_line_edge_ids(doc)
    return len(ids) != len(set(ids))


def line_graph_consistent(doc: dict) -> bool:
    """Line consistency by definition, on a line graph with structural ids.

    Only circles through a negative vertex can be negative.  Three edges at
    one vertex and two parallel edges are circles of the line graph, checked
    first.  Then negative line vertices are taken in order; each one's
    circles are searched inside its blocks as simple paths between two of its
    neighbours, and the vertex is deleted, so every circle is examined once.
    Exponential; meant for the small graphs of the cross-validation workload.
    """
    import networkx as nx

    if negative_triple_vertex(doc) is not None:
        return False
    table = edge_table(doc)
    shared = Counter()
    for edges in _incident(doc).values():
        for a, b in itertools.combinations([e["id"] for e in edges], 2):
            shared[frozenset((a, b))] += 1
    negative = {eid for eid, (_, _, sign) in table.items() if sign == "-"}
    for pair, multiplicity in shared.items():
        # two edges with both endpoints in common: a digon of the line graph
        if multiplicity == 2 and len(pair & negative) == 1:
            return False
    graph = nx.Graph()
    graph.add_nodes_from(table)
    graph.add_edges_from(tuple(pair) for pair in shared)
    for t in sorted(negative):
        for block in nx.biconnected_components(graph):
            if t not in block or len(block) < 3:
                continue
            rest = graph.subgraph(block - {t})
            ends = sorted(w for w in graph[t] if w in block)
            # a path between two positive neighbours that meets no negative
            # vertex closes a circle whose only negative vertex is t
            positive_part = graph.subgraph(block - negative)
            part_of = {
                w: i
                for i, part in enumerate(nx.connected_components(positive_part))
                for w in part
            }
            parts = [part_of[w] for w in ends if w not in negative]
            if len(parts) != len(set(parts)):
                return False
            for a, b in itertools.combinations(ends, 2):
                for path in nx.all_simple_paths(rest, a, b):
                    if len(negative.intersection(path)) % 2 == 0:
                        return False
        graph.remove_node(t)
    return True


class CertificateError(Exception):
    """An input does not have the property its construction promised."""


def known_answer(kind: str, doc: dict) -> bool:
    """Whether the input is line consistent, from its construction or by
    definition; construction claims are confirmed by a certificate."""
    if kind in ("recipe", "recipe-decompose"):
        # line consistent by construction; balance and the absence of a
        # negative triple at one vertex are necessary conditions
        if not is_balanced(doc):
            raise CertificateError(f"{kind} input is unbalanced")
        if negative_triple_vertex(doc) is not None:
            raise CertificateError(f"{kind} input has a negative triple")
        return True
    if kind == "path":
        if not is_path(doc):
            raise CertificateError("path input is not a path")
        return True
    if kind == "flipped":
        # an odd circle maps to a negative circle of the line graph
        if is_balanced(doc):
            raise CertificateError("flipped input is balanced")
        return False
    if kind in ("random-sparse", "star"):
        if negative_triple_vertex(doc) is None:
            raise CertificateError(f"{kind} input has no negative triple")
        return False
    return line_graph_consistent(doc)


def witness_error(table: dict, witness) -> str | None:
    """Why ``witness`` is not a negative circle of the line graph, or None.

    Its vertices must be distinct input edges, consecutive ones must share
    the endpoint named in the line-edge id between them, and an odd number of
    them must be negative.
    """
    if not isinstance(witness, dict):
        return "witness is not an object"
    vertices, edges = witness.get("vertices"), witness.get("edges")
    if not isinstance(vertices, list) or not isinstance(edges, list):
        return "witness lacks vertex or edge lists"
    k = len(vertices)
    if k < 2 or len(edges) != k:
        return f"witness has {k} vertices and {len(edges)} edges"
    if len(set(vertices)) != k or len(set(edges)) != k:
        return "witness repeats a vertex or an edge"
    if any(v not in table for v in vertices):
        return "witness vertex is not an input edge"
    for i, (a, b) in enumerate(zip(vertices, vertices[1:] + vertices[:1])):
        common = set(table[a][:2]) & set(table[b][:2])
        allowed = {f"{x}~{y}@{s}" for s in common for x, y in ((a, b), (b, a))}
        if edges[i] not in allowed:
            return f"line edge {edges[i]!r} does not join {a!r} and {b!r}"
    if sum(table[v][2] == "-" for v in vertices) % 2 == 0:
        return "witness circle is positive"
    return None


def check_output_problems(stdout: str, expected: bool, table: dict) -> list:
    """Problems with the output of ``check --witness`` against the answer."""
    verdicts, witnesses, problems = {}, {}, []
    for line in stdout.splitlines():
        method, _, rest = line.partition(": ")
        if rest == "line consistent":
            verdicts[method] = True
        elif rest.startswith("NOT line consistent"):
            verdicts[method] = False
        elif rest.startswith("witness "):
            try:
                witnesses[method] = json.loads(rest[len("witness "):])
            except json.JSONDecodeError:
                problems.append(f"method {method} printed a witness that is not JSON")
        else:
            problems.append(f"unexpected output line {line!r}")
    if not verdicts:
        problems.append("no verdict printed")
    for method, verdict in sorted(verdicts.items()):
        if verdict != expected:
            problems.append(f"method {method} answered {verdict}")
        elif not verdict:
            if method not in witnesses:
                problems.append(f"method {method} printed no witness")
                continue
            error = witness_error(table, witnesses[method])
            if error:
                problems.append(f"method {method}: {error}")
    return problems


def decompose_output_problems(stdout: str, expected: bool, census: dict) -> list:
    """Problems with the output of ``decompose`` against the answer."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    problems = []
    if report["line_consistent"] != expected:
        problems.append(f"report says line_consistent={report['line_consistent']}")
    kinds = Counter(c["kind"] for c in report["components"])
    if dict(kinds) != census:
        problems.append(f"components {dict(kinds)} differ from census {census}")
    return problems
