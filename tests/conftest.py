import pytest

from lineconsistency import core


@pytest.fixture
def built_edge_values(monkeypatch):
    """The ids of the SignedEdge values built while the test runs, in order."""
    built = []
    edge_post_init = core.SignedEdge.__post_init__

    def counted(self):
        built.append(self.id)
        edge_post_init(self)

    monkeypatch.setattr(core.SignedEdge, "__post_init__", counted)
    return built
