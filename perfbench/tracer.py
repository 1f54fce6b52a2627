"""Run one k3glue CLI command with every function in layers.LAYERS traced.

    python3 perfbench/tracer.py SPANS_OUT -- <k3glue arguments>

Behaves like `python3 -m k3glue <arguments>` (same stdout, stderr and
exit code) and writes the spans it kept in memory to SPANS_OUT as JSON
when the command ends. The wrappers are installed from here, by
rebinding names in every k3glue module namespace; nothing in the
package is edited.
"""

import functools
import json
import sys
import time

from layers import FUNCTIONS, SCAN


def _size(args, kwargs, name):
    if name == SCAN:
        return kwargs["order"] if "order" in kwargs else args[2]
    if name.startswith("matrices.") and args:
        return max(args[0].rows, args[0].cols)
    return 0


def install(modules, spans):
    """Wrap each listed function wherever a k3glue module or class binds it."""
    stack = [-1]
    clock = time.perf_counter_ns

    def wrap(fid, fn):
        name = FUNCTIONS[fid]
        sized = name == SCAN or name.startswith("matrices.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            size = _size(args, kwargs, name) if sized else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, parent, start, clock(), size)
                stack.pop()

        return traced

    for fid, name in enumerate(FUNCTIONS):
        mod, fn_name = name.split(".")
        # sys.modules, not attribute access: the package rebinds
        # `k3glue.certify` to the function of that name
        original = getattr(modules[f"k3glue.{mod}"], fn_name)
        wrapper = wrap(fid, original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("k3glue"):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            setattr(value, cattr, wrapper)


def main():
    out_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: tracer.py SPANS_OUT -- <k3glue arguments>")
    import k3glue.cli  # noqa: F401  (imports every k3glue module)

    modules = {k: v for k, v in sys.modules.items() if k == "k3glue" or k.startswith("k3glue.")}
    spans = []
    install(modules, spans)
    try:
        code = modules["k3glue.cli"].main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    sys.exit(code)


if __name__ == "__main__":
    main()
