import pytest

from diracindex.cli import main
# the sampled-element helpers live with the verify-all stages that seed them
from diracindex.report import random_multivector, random_two_form  # noqa: F401


@pytest.fixture(scope="session")
def verify_all_twice(tmp_path_factory):
    """Two in-process verify-all runs, each as (exit code, document bytes),
    shared by the tests that read them."""
    out = tmp_path_factory.mktemp("verify_all")
    runs = []
    for k in (1, 2):
        path = out / f"r{k}.json"
        runs.append((main(["verify-all", "--out", str(path)]), path.read_bytes()))
    return runs
