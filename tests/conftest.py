from itertools import islice

import pytest

from coline import oracle
from coline.characterize import load_catalog
from coline.sweep import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


def _serve_sweep_range(patcher, tree):
    """Answer ``iter_class_tree(8, 10, root)`` from ``tree``, the whole
    8/10 walk's ``(class, generators)`` pairs in its order, for tests of
    what is done with the classes rather than of the walk, which
    ``test_class_enumeration_8_10_is_pinned`` checks.  The walk is
    depth-first, so the subtree below a class is the run after it of
    classes with more edges.  ``iter_graph_classes(8, 10)`` is served too,
    being the walk from the top."""
    walk = oracle.iter_class_tree
    position = {g: i for i, (g, _) in enumerate(tree)}

    def subtree(start):
        top = tree[start][0].m
        yield tree[start]
        for pair in islice(tree, start + 1, None):
            if pair[0].m <= top:
                return
            yield pair

    def served(max_vertices, max_edges, root=None):
        if (max_vertices, max_edges) != (8, 10):
            return walk(max_vertices, max_edges, root)
        return iter(tree) if root is None else subtree(position[root[0]])

    patcher.setattr(oracle, "iter_class_tree", served)


@pytest.fixture(scope="session")
def full_sweep(catalog, class_tree_sweep_range):
    """The acceptance-range sweep: every class on <= 8 non-isolated
    vertices with <= 10 edges, every check run, on the subtrees of
    ``class_tree_sweep_range``."""
    config = SweepConfig(max_vertices=8, max_edges=10, worker_count=1)
    with pytest.MonkeyPatch.context() as patcher:
        _serve_sweep_range(patcher, class_tree_sweep_range)
        return run_sweep(config, catalog)


@pytest.fixture(scope="session")
def classes_up_to_6():
    """All isomorphism classes without isolated vertices on <= 6 vertices."""
    return list(oracle.iter_graph_classes(6, 15))


@pytest.fixture(scope="session")
def classes_up_to_7():
    """All isomorphism classes without isolated vertices on <= 7 vertices."""
    return list(oracle.iter_graph_classes(7, 21))


@pytest.fixture(scope="session")
def classes_7_9():
    return list(oracle.iter_graph_classes(7, 9))


@pytest.fixture(scope="session")
def class_tree_sweep_range():
    """The 8/10 walk's ``(class, generators)`` pairs, in its order."""
    return list(oracle.iter_class_tree(8, 10))


@pytest.fixture(scope="session")
def classes_sweep_range(class_tree_sweep_range):
    return [g for g, _ in class_tree_sweep_range]


@pytest.fixture
def served_sweep_range(monkeypatch, class_tree_sweep_range):
    """The 8/10 walk served from the session's list for one test."""
    _serve_sweep_range(monkeypatch, class_tree_sweep_range)
