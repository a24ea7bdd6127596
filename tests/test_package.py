"""The top-level ``repro`` namespace loads its names on first access."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_isolated(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return done.stdout


class TestLazyNamespace:
    def test_simulator_import_skips_the_static_analyses(self):
        loaded = run_isolated("""
            import sys
            import repro.experiments, repro.sim.runtime
            print(sorted(
                name for name in sys.modules
                if name.startswith(("repro.analysis", "repro.reductions"))
            ))
        """)
        assert loaded.strip() == "[]"

    def test_star_import_binds_every_public_name(self):
        missing = run_isolated("""
            namespace = {}
            exec("from repro import *", namespace)
            import repro
            print([n for n in repro.__all__ if n not in namespace])
        """)
        assert missing.strip() == "[]"

    def test_names_and_subpackages_resolve_on_access(self):
        from repro.analysis import check_pair
        from repro.reductions import encode_formula

        assert repro.check_pair is check_pair
        assert repro.reductions.encode_formula is encode_formula
        assert "check_pair" in dir(repro)
