"""The end-to-end benchmark's tracer wraps program callables by name.

``benchmarks/e2e/trace.py`` patches every callable that ``wire_targets``
and ``program_targets`` list.  A renamed or deleted one makes
``Tracer.install`` fail, yet only the benchmark's smoke test, which the
default run skips, would notice.  This guard resolves each of them.
"""

from benchmarks.e2e.trace import program_targets, wire_targets
from repro.crypto.nondeterministic import NonDeterministicScheme
from repro.crypto.searchable import SSEScheme


def test_every_traced_name_resolves_to_a_callable():
    targets = wire_targets() + program_targets([NonDeterministicScheme, SSEScheme])
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _span_name, _annotate in targets
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []
