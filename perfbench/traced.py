"""Run one votedim CLI command with spans around the package's layers.

    python3 perfbench/traced.py SPANS.json -- analyze --data builtin:2014

The package is not edited: the public functions of ``sweep``,
``decompose``, ``lowerbound`` and ``data`` are replaced on their modules
by timing wrappers before the command starts.  Every call between layers,
and inside ``sweep`` (``expr_table`` -> ``win_table``, ``presence_table`` ->
``_pattern``), looks the function up on its module at call time, so the
wrappers see it.  Spans (name, start, end, parent, counts) stay in memory
and are written to SPANS.json when the command exits; stdout, stderr and
the exit code are the command's own.
"""

from __future__ import annotations

import json
import sys
import threading
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, _perf(), None, stack[-1] if stack else None, {}]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = _perf()
        self._stack().pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``counts(args, kwargs, result)`` returns extra counters for the
        span; it runs after the span has closed.
        """
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _certificate_counts(args, kwargs, cert) -> dict:
    """Splits the search tried: all of them, or up to and including the hit."""
    a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    delta = (a.mask | b.mask) ^ (a.mask & b.mask)
    positions = [j for j in range(delta.bit_length()) if delta >> j & 1]
    if cert is None:
        return {"splits": (1 << (len(positions) - 1)) if positions else 0, "certified": 0}
    # The search enumerates selectors over all but the last position, in
    # ascending binary order; the hit's selector is its index.
    index = sum(1 << i for i, j in enumerate(positions[:-1]) if cert.x.mask >> j & 1)
    return {"splits": index + 1, "certified": 1}


def install(tracer: Tracer) -> None:
    from votedim import data, decompose, lowerbound, sweep

    def table_bytes(args, kwargs, result):
        return {"bytes": max(1, (1 << _arg(args, kwargs, 0, "game").n) >> 3)}

    def items(args, kwargs, result):
        return {"items": len(result)}

    def set_bits(args, kwargs, result):
        return {"items": result.bit_count()}

    def masks(args, kwargs, result):
        return {"masks": len(_arg(args, kwargs, 1, "masks"))}

    def decomposition(args, kwargs, dec):
        return {
            "gap_count": dec.gap.count,
            "core_size": len(dec.common_core_players()),
            "frontier_count": len(dec.frontier),
        }

    tracer.wrap(sweep, "win_table", "sweep.win_table", table_bytes)
    tracer.wrap(sweep, "_pattern", "sweep.pattern")
    tracer.wrap(sweep, "full_table", "sweep.full_table")
    tracer.wrap(sweep, "down_closure", "sweep.closure")
    tracer.wrap(sweep, "up_closure", "sweep.closure")
    tracer.wrap(sweep, "expr_table", "sweep.expr_table")
    tracer.wrap(sweep, "_maximal_bits", "sweep.maximal", set_bits)
    tracer.wrap(sweep, "table_members", "sweep.table_members", items)
    tracer.wrap(sweep, "players_in_all", "sweep.players_in_all")
    tracer.wrap(sweep, "min_member_weight", "sweep.min_member_weight")
    tracer.wrap(sweep, "equivalent", "sweep.equivalent")
    tracer.wrap(sweep, "evaluate_many", "sweep.evaluate_many", masks)
    tracer.wrap(decompose, "gap_summary", "decompose.gap_summary")
    tracer.wrap(
        decompose, "union_as_intersection", "decompose.union_as_intersection", decomposition
    )
    tracer.wrap(lowerbound, "find_certificate", "lowerbound.find_certificate", _certificate_counts)
    tracer.wrap(data, "build_eu_rule", "data.build_eu_rule")


def main() -> None:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced.py SPANS.json -- VOTEDIM-ARGS...")
    start = _perf()
    import votedim.cli

    import_s = _perf() - start
    tracer = Tracer()
    install(tracer)
    root = tracer.open("cli")
    try:
        votedim.cli.main.main(args=argv, prog_name="votedim")
    finally:
        tracer.close(root)
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "spans": tracer.spans}, f)


if __name__ == "__main__":
    main()
