"""Run one `grassmap` command line with a span recorder around each layer.

Usage: python3 perfbench/traced.py TRACE_ID SPANS_OUT -- <grassmap arguments>

The recorder wraps every public function of the program's modules, plus the
methods in METHODS, and records one span per call: id, parent span id, name,
start and end (perf_counter_ns); all spans of one invocation share TRACE_ID.
Spans stay in memory and are written to SPANS_OUT as one JSON document when
the command returns.  The program itself is not modified; this file only
replaces attributes after import.

A module that imports a function by name (`localization` takes
`enumerate_fixed_graphs`, `embed_tree` and `embedding_weight_delta`;
`closedform` takes `exact_div`) holds a second binding of it, so every binding
of the same object in every program module is replaced, not only the one in
the defining module.  A name that no longer exists is skipped: its metrics
then read calls=0.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import resource
import sys
import time

MODULES = ("fixedgraphs", "weights", "localization", "qpoly", "closedform", "cli")

# Methods are not module-level functions, so the public-function scan misses
# them; these two carry per-layer metrics of their own.
METHODS = (
    ("weights", "WeightMultiset", "sign_counts"),
    ("qpoly", "QPolynomial", "to_json_dict"),
)

# Spans whose end also records the size of the result and the peak RSS.
SIZED = {"fixedgraphs.enumerate_fixed_graphs"}


class Recorder:
    """Spans as (id, parent id, name index, start ns, end ns) tuples."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.sizes: dict[int, dict] = {}
        self.stack: list[int] = [0]
        self.ids = itertools.count(1)

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        record, stack, ids, clock = self.spans.append, self.stack, self.ids, time.perf_counter_ns
        sizes = self.sizes if name in SIZED else None

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, index, start, end))
            if sizes is not None:
                sizes[sid] = {
                    "args": list(args),
                    "items": len(result) if hasattr(result, "__len__") else None,
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                }
            return result

        traced.__wrapped__ = fn
        return traced


def _public_functions(module) -> dict[str, object]:
    """Functions defined in `module` under a public name, `@cache`d ones too."""
    found = {}
    for attr, obj in vars(module).items():
        target = getattr(obj, "__wrapped__", obj)
        if attr.startswith("_") or not inspect.isfunction(target):
            continue
        if target.__module__ != module.__name__:
            continue  # imported from elsewhere; wrapped where it is defined
        if inspect.isgeneratorfunction(target):
            continue  # a span would close before the generator runs
        found[attr] = obj
    return found


def install(recorder: Recorder) -> None:
    """Wrap every binding of each traced callable."""
    modules = {short: importlib.import_module(f"grassmap.{short}") for short in MODULES}
    package = [m for key, m in sys.modules.items() if key == "grassmap" or key.startswith("grassmap.")]
    for short, module in modules.items():
        for attr, obj in _public_functions(module).items():
            name = f"{short}.{attr}"
            wrapped = recorder.wrap(name, obj)
            for holder in package:
                for key, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, key, wrapped)
    for short, cls_name, meth in METHODS:
        cls = getattr(modules[short], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is not None:
            setattr(cls, meth, recorder.wrap(f"{short}.{meth}", fn))


def main() -> int:
    trace_id, out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_ID SPANS_OUT -- <grassmap arguments>")
    import grassmap.cli

    recorder = Recorder()
    install(recorder)
    try:
        code = grassmap.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        doc = {"trace_id": trace_id, "names": recorder.names,
               "spans": recorder.spans, "sizes": recorder.sizes}
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))  # json.dump would encode in pure Python
    return code


if __name__ == "__main__":
    sys.exit(main())
