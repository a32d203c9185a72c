"""Keep the benchmark's smoke test out of the repository's default test run.

The smoke test spawns server processes and runs every workload twice, so
it is collected only when a path inside this directory is named on the
command line (``pytest benchmarks/e2e/test_e2e_smoke.py``).
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    if collection_path.name != "test_e2e_smoke.py":
        return None
    named = [Path(arg.split("::")[0]).resolve() for arg in config.args]
    if any(path == HERE or HERE in path.parents for path in named):
        return None
    return True
