"""Every polylift function the benchmark tracer wraps exists.

perfbench/spans.py names its boundaries as (module, function) strings and
counts pivots through simplex._pivot and simplex._run_phase; a rename would
break a traced benchmark run without failing any test here.  The tracer's
module is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


def test_every_traced_function_exists():
    names = [(module, fn) for module, fn, _ in _boundaries()]
    names += [("simplex", "_pivot"), ("simplex", "_run_phase")]
    missing = [(module, fn) for module, fn in names
               if not callable(getattr(importlib.import_module(f"polylift.{module}"), fn, None))]
    assert missing == []
