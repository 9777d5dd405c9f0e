"""The package namespace is exactly what the submodules export."""

import cdexchange
from cdexchange import bounds, cli, economy, simulate, stats

SUBMODULES = (bounds, cli, economy, simulate, stats)


def test_package_reexports_exactly_the_submodule_exports():
    exported = set().union(*(m.__all__ for m in SUBMODULES))
    # importing the package binds each submodule's name too
    submodules = {m.__name__.rpartition(".")[2] for m in SUBMODULES}
    public = {name for name in vars(cdexchange) if not name.startswith("_")}
    assert public - submodules == exported
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(cdexchange, name) is getattr(module, name)


def test_removed_names_are_gone():
    for name in ("dirichlet_log_density", "PointOffSimplex", "embedded_chain_step"):
        assert not hasattr(cdexchange, name)
        assert all(not hasattr(m, name) for m in SUBMODULES)
