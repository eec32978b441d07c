import pytest

from coline import oracle
from coline.characterize import load_catalog
from coline.sweep import SweepConfig, enumerate_classes, run_sweep


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


def _serve_sweep_range(patcher, classes):
    """Answer ``iter_graph_classes(8, 10)`` from ``classes``, for tests of
    what is done with the classes rather than of the walk, which
    ``test_class_enumeration_8_10_is_pinned`` checks."""
    walk = oracle.iter_graph_classes

    def served(max_vertices, max_edges):
        if (max_vertices, max_edges) == (8, 10):
            return iter(classes)
        return walk(max_vertices, max_edges)

    patcher.setattr(oracle, "iter_graph_classes", served)


@pytest.fixture(scope="session")
def full_sweep(catalog, classes_sweep_range):
    """The acceptance-range sweep: every class on <= 8 non-isolated
    vertices with <= 10 edges, every check run, on the classes of
    ``classes_sweep_range``."""
    config = SweepConfig(max_vertices=8, max_edges=10, worker_count=1)
    with pytest.MonkeyPatch.context() as patcher:
        _serve_sweep_range(patcher, classes_sweep_range)
        return run_sweep(config, catalog)


@pytest.fixture(scope="session")
def classes_up_to_6():
    """All isomorphism classes without isolated vertices on <= 6 vertices."""
    return list(enumerate_classes(6, 15))


@pytest.fixture(scope="session")
def classes_up_to_7():
    """All isomorphism classes without isolated vertices on <= 7 vertices."""
    return list(enumerate_classes(7, 21))


@pytest.fixture(scope="session")
def classes_7_9():
    return list(enumerate_classes(7, 9))


@pytest.fixture(scope="session")
def classes_sweep_range():
    return list(enumerate_classes(8, 10))


@pytest.fixture
def served_sweep_range(monkeypatch, classes_sweep_range):
    """The 8/10 walk served from the session's class list for one test."""
    _serve_sweep_range(monkeypatch, classes_sweep_range)
