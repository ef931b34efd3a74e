"""Test-corpus generators: exhaustive small graphs, seeded random multigraphs,
and guaranteed line-consistent graphs assembled from the structural form.

Exhaustive and random generation cap parallel multiplicity at 2: digons
already exercise everything multigraph-specific, and the cap keeps the
definitional oracle feasible on every generated graph.  The seeded generators
fill the graph's columns directly and build no edge values.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from numbers import Integral, Real

from .core import GraphError, SignedGraph


def _multiplicity_vectors(num_pairs, budget):
    """Vectors in {0,1,2}^num_pairs with sum <= budget, lexicographic order."""
    if num_pairs == 0:
        yield ()
        return
    for first in range(3):
        if first > budget:
            break
        for rest in _multiplicity_vectors(num_pairs - 1, budget - first):
            yield (first,) + rest


def exhaustive_signed_graphs(max_vertices: int, max_edges: int):
    """Every loopless multigraph with up to the given bounds, every signing.

    Parallel multiplicity is capped at 2.  Graphs are labeled (no isomorphism
    reduction) and the stream is deterministic: vertex counts ascending, then
    multiplicity vectors lexicographically, then sign patterns.
    """
    if not 1 <= max_vertices <= 7:
        raise GraphError("bounds exceeded: max_vertices must be between 1 and 7")
    if max_edges < 0:
        raise GraphError("bounds exceeded: max_edges must be nonnegative")
    for n in range(1, max_vertices + 1):
        vertices = tuple(f"v{i}" for i in range(n))
        pairs = list(itertools.combinations(vertices, 2))
        for multiplicities in _multiplicity_vectors(len(pairs), max_edges):
            slots = [
                pair
                for pair, count in zip(pairs, multiplicities)
                for _ in range(count)
            ]
            ids = [f"e{j}" for j in range(len(slots))]
            us, vs = [u for u, _ in slots], [v for _, v in slots]
            for negative in itertools.product((False, True), repeat=len(slots)):
                yield SignedGraph._from_columns(vertices, ids, us, vs, negative)


def _pairs_at(vertices: tuple, ranks: list) -> list:
    """The pairs at ``ranks`` of ``sorted(itertools.combinations(vertices,
    2))``, without listing the n(n - 1)/2 pairs.

    The pairs led by ``vertices[i]`` pair it with the n - 1 - i vertices
    after it; they form one run, the runs follow their leaders' sorted
    order, and within a run the partners are sorted.  The leaders are then
    visited by position, with a Fenwick tree over the sorted vertices that
    holds exactly the ones after the leader, so each pair takes O(log n).
    """
    n = len(vertices)
    by_name = sorted(range(n), key=vertices.__getitem__)
    place = [0] * n  # place[i]: the sorted position of vertices[i]
    for q, i in enumerate(by_name):
        place[i] = q
    starts = list(itertools.accumulate((n - 1 - i for i in by_name), initial=0))
    wanted = defaultdict(list)  # leader -> (slot in ranks, place in its run)
    for slot, r in enumerate(ranks):
        q = bisect.bisect_right(starts, r) - 1
        wanted[by_name[q]].append((slot, r - starts[q]))
    tree = [k & -k for k in range(n + 1)]  # every sorted position present
    pairs = [None] * len(ranks)
    for i in range(n):
        k = place[i] + 1
        while k <= n:
            tree[k] -= 1
            k += k & -k
        for slot, t in wanted.get(i, ()):
            q, step = 0, 1 << n.bit_length()
            while step:  # q: the sorted position of the t-th present vertex
                if q + step <= n and tree[q + step] <= t:
                    q += step
                    t -= tree[q]
                step >>= 1
            pairs[slot] = (vertices[i], vertices[by_name[q]])
    return pairs


def random_signed_graph(
    n: int, m: int, negative_probability: float, seed: int
) -> SignedGraph:
    """A seeded random loopless multigraph with parallel multiplicity <= 2.

    The edges are m of the 2 * C(n, 2) slots, each sorted vertex pair
    twice, drawn by ``random.sample`` as indices and sorted; ``_pairs_at``
    turns the indices into pairs, unless there are so few pairs that listing
    them is cheaper.  O(n log n + m log n) either way."""
    if not isinstance(n, Integral) or not isinstance(m, Integral):
        raise GraphError("impossible parameters: vertex and edge counts must be integers")
    if not isinstance(negative_probability, Real):
        raise GraphError("impossible parameters: negative_probability must be a real number")
    if n < 0:
        raise GraphError("impossible parameters: negative vertex count")
    if m < 0:
        raise GraphError("impossible parameters: negative edge count")
    if m > 0 and n < 2:
        raise GraphError("impossible parameters: edges need at least 2 vertices")
    if not 0.0 <= negative_probability <= 1.0:
        raise GraphError("negative_probability must be within [0, 1]")
    vertices = tuple(f"v{i}" for i in range(n))
    pairs = n * (n - 1) // 2
    if m > 2 * pairs:
        raise GraphError(
            f"impossible parameters: at most {2 * pairs} edges "
            f"(parallel multiplicity 2) on {n} vertices"
        )
    rng = random.Random(seed)
    # slot j is sorted pair j % pairs; sample draws the same indices, with
    # the same random numbers, from a range as from a list of the slots
    ranks = sorted(j % pairs for j in rng.sample(range(2 * pairs), m))
    if pairs <= 2 * m + 64:  # few pairs: listing them costs no more than the tree
        listed = sorted(itertools.combinations(vertices, 2))
        chosen = [listed[r] for r in ranks]
    else:
        chosen = _pairs_at(vertices, ranks)
    negative = [rng.random() < negative_probability for _ in chosen]
    return SignedGraph._from_columns(
        vertices, [f"e{j}" for j in range(m)],
        [u for u, _ in chosen], [v for _, v in chosen], negative,
    )


@dataclass(frozen=True)
class Recipe:
    """Structure recipe for building line-consistent signed graphs.

    Circle-shaped parts (all-negative circles, and negative paths closed into
    a circle block) must have even negative length: an odd negative count
    would make the circle negative, hence the graph unbalanced.

    - negative_circles: lengths of all-negative circle blocks (even, >= 2).
    - closing_paths: negative path lengths closed by one positive edge into a
      circle block (even, >= 2).
    - induced_paths: negative path lengths embedded in a positive circle via
      two positive edges (even, >= 2).
    - isthmus_paths: lengths of all-negative paths made entirely of isthmi
      (>= 1).
    - pendant_positives: positive isthmus paths (length 1-2) hung on eligible
      vertices, at most one per vertex.
    - scaffold_tree: edge count of one standalone all-positive random tree.
    """

    negative_circles: tuple = ()
    closing_paths: tuple = ()
    induced_paths: tuple = ()
    isthmus_paths: tuple = ()
    pendant_positives: int = 0
    scaffold_tree: int = 0

    def __post_init__(self):
        for name in ("negative_circles", "closing_paths", "induced_paths"):
            for length in getattr(self, name):
                if length < 2 or length % 2:
                    raise GraphError(
                        f"unsatisfiable recipe: {name} length {length} "
                        "must be even and at least 2"
                    )
        for length in self.isthmus_paths:
            if length < 1:
                raise GraphError(
                    "unsatisfiable recipe: isthmus path length must be >= 1"
                )
        if self.pendant_positives < 0 or self.scaffold_tree < 0:
            raise GraphError("unsatisfiable recipe: negative count")


class _Builder:
    """A graph's columns, grown path by path: vertex i is ``n{i}`` and edge j
    is ``e{j}``."""

    def __init__(self):
        self.vertices = []
        self.us, self.vs, self.negative = [], [], []
        self.slots = []  # vertices that may take one extra positive isthmus

    def vertex(self):
        v = f"n{len(self.vertices)}"
        self.vertices.append(v)
        return v

    def path(self, vertices, negative):
        """Join consecutive ``vertices``, edge i negative when ``negative[i]``."""
        self.us += vertices[:-1]
        self.vs += vertices[1:]
        self.negative += negative

    def circle(self, negative):
        ring = [self.vertex() for _ in negative]
        self.path(ring + ring[:1], negative)
        return ring

    def graph(self):
        ids = [f"e{j}" for j in range(len(self.us))]
        return SignedGraph._from_columns(
            self.vertices, ids, self.us, self.vs, self.negative
        )


def generate_line_consistent(recipe: Recipe, seed: int) -> SignedGraph:
    """Build a signed graph that is line consistent by construction.

    Every part follows the structural form: all-negative circle blocks,
    negative paths closing or embedded in circle blocks, isthmus paths, and
    positive isthmus attachments kept to at most one per eligible vertex.
    """
    rng = random.Random(seed)
    b = _Builder()

    for length in recipe.negative_circles:
        ring = b.circle([True] * length)
        b.slots.extend(ring)
    for length in recipe.closing_paths:
        # circle of length+1 edges: `length` negatives, one positive closing
        ring = b.circle([True] * length + [False])
        b.slots.extend(ring[1:length])  # internal path vertices only
    for length in recipe.induced_paths:
        # circle of length+2 edges: the path, then two positive edges
        ring = b.circle([True] * length + [False, False])
        b.slots.extend(ring[1:length])  # internal path vertices
        b.slots.append(ring[length + 1])  # the all-positive circle vertex
    for length in recipe.isthmus_paths:
        chain = [b.vertex() for _ in range(length + 1)]
        b.path(chain, [True] * length)
        b.slots.extend(chain)  # endpoints included: their extra is an isthmus

    if recipe.pendant_positives > len(b.slots):
        raise GraphError(
            f"unsatisfiable recipe: {recipe.pendant_positives} pendant "
            f"attachments but only {len(b.slots)} eligible vertices"
        )
    for anchor in rng.sample(b.slots, recipe.pendant_positives):
        current = anchor
        for _ in range(rng.randint(1, 2)):
            nxt = b.vertex()
            b.path([current, nxt], [False])
            current = nxt

    if recipe.scaffold_tree:
        tree = [b.vertex()]
        for _ in range(recipe.scaffold_tree):
            nxt = b.vertex()
            b.path([rng.choice(tree), nxt], [False])
            tree.append(nxt)

    return b.graph()


def random_recipe(seed: int) -> Recipe:
    """A varied, always-satisfiable recipe derived from the seed."""
    rng = random.Random(seed)
    circles = tuple(
        rng.choice((2, 4, 6)) for _ in range(rng.randint(0, 2))
    )
    closing = tuple(rng.choice((2, 4)) for _ in range(rng.randint(0, 2)))
    induced = tuple(rng.choice((2, 4)) for _ in range(rng.randint(0, 2)))
    isthmus = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
    slots = (
        sum(circles)
        + sum(max(0, k - 1) for k in closing)
        + sum(k for k in induced)  # k-1 internals plus the positive vertex
        + sum(k + 1 for k in isthmus)
    )
    pendants = rng.randint(0, min(3, slots)) if slots else 0
    tree = rng.randint(0, 3)
    return Recipe(
        negative_circles=circles,
        closing_paths=closing,
        induced_paths=induced,
        isthmus_paths=isthmus,
        pendant_positives=pendants,
        scaffold_tree=tree,
    )
