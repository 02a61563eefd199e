import pytest

MODULES = ("bench", "bits", "cli", "distinguisher", "feistel", "prbg", "prf", "statcheck",
           "stats")


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_exported_name(module):
    # A name deleted from a module but left in its __all__ fails here.
    exec(f"from feistel_lab.{module} import *", {})
