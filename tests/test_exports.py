import importlib

MODULES = ["sigma2", "sigma2.elliptic", "sigma2.sigma", "sigma2.strata",
           "sigma2.heat", "sigma2.inversion", "sigma2.lattice",
           "sigma2.spectral", "sigma2.verify"]


def test_every_export_resolves():
    missing = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            try:
                getattr(mod, attr)
            except AttributeError:
                missing.append(f"{name}.{attr}")
    assert not missing
