"""Test-suite configuration: pinned hypothesis profiles.

CI runs the property suites as a separate job step under the ``ci``
profile (derandomized, bounded examples) so a flaky shrink there can
never mask a tier-1 failure; local runs default to ``dev``, which
keeps hypothesis' usual randomized exploration (minus wall-clock
deadlines, since simulation-heavy examples vary too much for them).
The ``slow`` marker tags long-running tests (``-m "not slow"`` skips
them); the ``properties`` marker tags the property suites, which CI's
tier-1 step deselects (``-m "not properties"``) and its property step
selects.
"""

import os

from hypothesis import settings

settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=25
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a long-running test")
    config.addinivalue_line(
        "markers", "properties: a hypothesis property suite"
    )
