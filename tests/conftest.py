import os
from pathlib import Path

import pytest

import rootrand
from rootrand import GeneratorConfig


@pytest.fixture(scope="session")
def child_env():
    """Environment for child interpreters: PYTHONPATH starts with the
    directory rootrand was imported from, so they run the same checkout."""
    env = dict(os.environ)
    src = str(Path(rootrand.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def desk_config():
    return GeneratorConfig()


@pytest.fixture(scope="session")
def worked_config():
    # Single hand-picked pair: cube roots of 5 and 17, digits 51 onward.
    return GeneratorConfig(
        n_pairs=1,
        rounds=1,
        precision_digits=100,
        skip_digits=50,
        c1=(5,),
        c2=(17,),
        degrees=(3,),
    )
