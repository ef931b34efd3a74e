import random
import tracemalloc

import pytest

from lineconsistency import Recipe, core, generate_line_consistent, write_signed_graph


@pytest.fixture
def built_edge_values(monkeypatch):
    """The ids of the SignedEdge, Edge and MarkedVertex values built while the
    test runs, in order."""
    built = []
    for cls in (core.SignedEdge, core.Edge, core.MarkedVertex):
        def counted(self, *args, init=cls.__init__, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.id)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.fixture(scope="session")
def large_document():
    """The text write_signed_graph writes for a seeded line-consistent graph
    of 19,969 edges, made of the parts of every kind a recipe has."""
    rng, parts = random.Random(7), 760
    recipe = Recipe(
        negative_circles=tuple(rng.choice((2, 4, 6, 8)) for _ in range(parts)),
        closing_paths=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        induced_paths=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        isthmus_paths=tuple(rng.randint(1, 6) for _ in range(parts)),
        pendant_positives=2 * parts,
        scaffold_tree=4 * parts,
    )
    return write_signed_graph(generate_line_consistent(recipe, 7))


@pytest.fixture
def traced_peak():
    """A function giving the peak of the memory ``call()`` allocates, as
    tracemalloc counts it, from a start at zero."""
    def peak(call) -> int:
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
