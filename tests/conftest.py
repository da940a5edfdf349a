import os
from pathlib import Path

import pytest

import rootrand
import rootrand.generator as generator_mod
import rootrand.roots as roots_mod
from rootrand import GeneratorConfig

# Every floor-root function this interpreter can run: gmpy2's only where it imports.
FLOOR_FUNCTIONS = (roots_mod._decimal_floor, roots_mod._integer_floor) + (
    (roots_mod._gmpy2_floor,) if roots_mod._HAVE_GMPY2 else ())


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


@pytest.fixture(scope="session")
def floor_functions():
    return FLOOR_FUNCTIONS


@pytest.fixture(params=FLOOR_FUNCTIONS, ids=lambda floor: floor.__name__.strip("_").removesuffix("_floor"))
def floor_backend(request, monkeypatch):
    """Run the test once on each floor-root function in FLOOR_FUNCTIONS.

    The function is bound as _floor_root in roots, and the shared stream
    caches start empty, so each leg computes its roots again. Worker pools
    inherit the binding only because they start by fork, the default start
    method on Linux up to Python 3.13; a spawned or forkserver worker would
    import roots afresh and use the default. On the integer leg the decimal
    root raises, and the test must have called _newton_nth_root, so that
    leg cannot pass on decimal or cached bits.
    Yields the bound function.
    """
    floor = request.param
    monkeypatch.setattr(roots_mod, "_floor_root", floor)
    monkeypatch.setattr(generator_mod, "_shared", {})
    if floor is not roots_mod._integer_floor:
        yield floor
        return
    newton, calls = roots_mod._newton_nth_root, []

    def counted(x, r):
        calls.append(r)
        return newton(x, r)

    def decimal_root(p, r, depth):
        raise AssertionError("the integer leg reached the decimal root")

    monkeypatch.setattr(roots_mod, "_newton_nth_root", counted)
    monkeypatch.setattr(roots_mod, "_newton_floor", decimal_root)
    yield floor
    assert calls, "the integer leg computed no root"
