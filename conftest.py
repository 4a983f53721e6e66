"""Repo-level pytest configuration.

Makes ``src/`` importable even when the package has not been installed
(e.g. a fresh checkout without network access for ``pip install -e .``).

Registers the hypothesis profiles.  ``tier1`` (the default) is
derandomized and keeps no example database, so every run replays the
same examples.  ``--hypothesis-profile=random`` draws fresh examples
and multiplies every test's example budget by ``RANDOM_EXAMPLE_SCALE``
so the search for new counterexamples keeps running.
"""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RANDOM_EXAMPLE_SCALE = 5

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "random", derandomize=False, max_examples=100 * RANDOM_EXAMPLE_SCALE
)
settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    """Under the random profile, scale the budgets tests pin themselves."""
    if config.getoption("hypothesis_profile", None) != "random":
        return
    for item in items:
        test = getattr(item, "obj", None)
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        # Tests that pin no budget already run the profile's larger one.
        if pinned is not None and pinned.max_examples < settings.default.max_examples:
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=pinned.max_examples * RANDOM_EXAMPLE_SCALE
            )


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="Regenerate the golden regression fixtures under tests/golden/ "
        "instead of comparing against them.",
    )
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="Run benchmarks at a reduced scale (CI smoke mode): smaller "
        "datasets and fewer repetitions, same assertions.",
    )
