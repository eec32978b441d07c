import pytest

from coline.characterize import load_catalog
from coline.sweep import SweepConfig, enumerate_classes, run_sweep


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def full_sweep(catalog):
    """The acceptance-range sweep: every class on <= 8 non-isolated
    vertices with <= 10 edges, every check run."""
    config = SweepConfig(max_vertices=8, max_edges=10, worker_count=1)
    return run_sweep(config, catalog)


@pytest.fixture(scope="session")
def classes_up_to_6():
    """All isomorphism classes without isolated vertices on <= 6 vertices."""
    return list(enumerate_classes(6, 15))


@pytest.fixture(scope="session")
def classes_sweep_range():
    return list(enumerate_classes(8, 10))
