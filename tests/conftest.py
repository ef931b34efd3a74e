import pytest

from lineconsistency import core


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
