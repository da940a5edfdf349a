"""One measurement in a fresh interpreter, so no cache survives from an earlier run.

    python3 perfbench/child.py RESULT_JSON JOB_JSON

JOB_JSON holds ``mode`` and the CLI ``argv``:

- ``run``: run the CLI command untraced;
- ``replay``: run it in one process with a span around every call into a
  layer (primes, roots, generator, stats, cli), then derive the per-layer
  metrics. Replay jobs also carry ``workload`` and ``block``.

gmpy2 is blocked before rootrand is imported, so the pure-integer root
backend is the one measured. Times are CLOCK_MONOTONIC readings, which the
parent can compare with its own.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import resource
import statistics
import sys
import time

sys.modules["gmpy2"] = None  # makes `import gmpy2` raise ImportError
from spec import ROOT_GRID, SKIP, SRC, generator_config, root_metric, stream_bits  # noqa: E402

sys.path.insert(0, str(SRC))
import rootrand.cli  # noqa: E402

IMPORTED = time.monotonic()

LAYERS = ("primes", "roots", "generator", "stats", "cli")
PROBE_PRIME = 1_000_003  # larger than any prime a workload roots, so probes start cold


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def run_cli(main, argv) -> dict:
    self0, kids0 = _cpu()
    start = time.monotonic()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = main(argv)
    end = time.monotonic()
    self1, kids1 = _cpu()
    return {
        "rc": rc,
        "start": start,
        "end": end,
        "self_cpu": self1 - self0,
        "child_cpu": kids1 - kids0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans: (layer, name, start, end, parent index, args)."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (layer, name, start, end, stack[-1], args)

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer, memo: dict):
    """Wrap every public function where another layer calls it.

    Each module's bindings of another layer's functions are replaced, so
    calls inside a layer stay untraced. primes is also wrapped in its own
    namespace because generator calls it through the module object.
    StreamCache.prefix is the generator entry point stats uses.
    """
    mods = {name: sys.modules[f"rootrand.{name}"] for name in LAYERS}
    roots_fn = mods["roots"].root_fractional_digits

    def remembering_root(p, r, first, count):
        digits = roots_fn(p, r, first, count)
        memo[(p, r, first, count)] = digits
        return digits

    for layer, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or layer == "cli":
                continue
            traced = tracer.wrap(layer, attr, remembering_root if fn is roots_fn else fn)
            for other in mods.values():
                if other is not mod and getattr(other, attr, None) is fn:
                    setattr(other, attr, traced)
            if layer == "primes":
                setattr(mod, attr, traced)
    cache_cls = mods["generator"].StreamCache
    cache_cls.prefix = tracer.wrap("generator", "prefix", cache_cls.prefix)
    return tracer.wrap("cli", "main", mods["cli"].main)


# ---------------------------------------------------------------------------
# replay analysis


def _layer_times(spans):
    """Outermost spans per layer and each span's self time within its layer."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    outermost = [s[4] < 0 or spans[s[4]][0] != s[0] for s in spans]
    # Attribute self time to the outermost span of the same layer above it.
    top = list(range(len(spans)))
    for i, s in enumerate(spans):
        if not outermost[i]:
            top[i] = top[s[4]]
    layer_self: dict[int, float] = {}
    for i, t in enumerate(own):
        layer_self[top[i]] = layer_self.get(top[i], 0.0) + t
    return outermost, layer_self


def _median_call(fn, args_list, budget_s=0.5, most=9):
    times = []
    spent = 0.0
    for args in args_list[:most]:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        if spent > budget_s:
            break
    return statistics.median(times)


def roots_metrics(spans, outermost) -> dict:
    roots = sys.modules["rootrand.roots"]
    calls = [s for i, s in enumerate(spans) if outermost[i] and s[1] == "root_fractional_digits"]
    groups: dict = {}
    seen = set()
    repeats = 0
    depth_total = 0
    for s in calls:
        p, r, first, count = s[5]
        depth = first + count - 1
        groups.setdefault((r, depth), []).append(s)
        repeats += (p, r) in seen
        seen.add((p, r))
        depth_total += depth
    busy = sum(s[3] - s[2] for s in calls)
    newton = 0.0
    for (r, depth), group in groups.items():
        # Newton's share is timed on a sample: the public integer root of the
        # scaled radicand, the same call root_fractional_digits makes.
        radicands = [(s[5][0] * 10 ** (r * depth), r) for s in group[:9]]
        newton += _median_call(roots.int_nth_root, radicands) * len(group)
    out = {
        "roots.calls": len(calls),
        "roots.busy_s": busy,
        "roots.newton_s": newton,
        "roots.convert_s": busy - newton,
        "roots.digits_per_s": depth_total / busy if busy else 0.0,
        "roots.repeat_share": repeats / len(calls) if calls else 0.0,
    }
    probes = []
    for r, precision in ROOT_GRID:
        group = groups.get((r, precision))
        if group:
            value = statistics.median(s[3] - s[2] for s in group)
        else:
            # Not run by this workload: one cold call on a prime no workload uses.
            probes.append(root_metric(r, precision))
            value = _median_call(roots.root_fractional_digits,
                                 [(PROBE_PRIME, r, SKIP + 1, precision - SKIP)], most=1)
        out[root_metric(r, precision)] = value
    return out, probes


def generator_metrics(w: dict, block: int, memo: dict) -> tuple[dict, bool]:
    """Rebuild the stream from the replay's digit windows with the public
    schedule / operator_O / concat, time each, and check it against the CLI's."""
    gen = sys.modules["rootrand.generator"]
    need = stream_bits(w)
    first, count = SKIP + 1, w["precision"] - SKIP
    chunks, total, entries = [], 0, 0
    schedule_s = compare_s = 0.0
    complete = True
    b = block
    while total < need and complete:
        t0 = time.perf_counter()
        entries_list = gen.schedule(generator_config(w, b))
        schedule_s += time.perf_counter() - t0
        for e in entries_list:
            left = memo.get((e.left, e.root_degree, first, count))
            right = memo.get((e.right, e.root_degree, first, count))
            if left is None or right is None:
                complete = False
                break
            t0 = time.perf_counter()
            bits = gen.operator_O(left, right)
            compare_s += time.perf_counter() - t0
            chunks.append(bits)
            total += bits.size
            entries += 1
            if total >= need:
                break
        b += 1
    t0 = time.perf_counter()
    stream = gen.concat(chunks)
    concat_s = time.perf_counter() - t0
    # generate_bits returns the prefix the CLI run left in the shared cache.
    ok = complete and bool((gen.generate_bits(generator_config(w, block), need) == stream[:need]).all())
    digits = entries * count
    return {
        "generator.entries": entries,
        "generator.digits_compared": digits,
        "generator.bits": total,
        "generator.tie_rate": 1 - total / digits if digits else 0.0,
        "generator.schedule_s": schedule_s,
        "generator.compare_s": compare_s,
        "generator.concat_s": concat_s,
    }, ok


def span_cost(n: int = 20_000) -> float:
    """Seconds one traced call adds over an untraced one."""

    def noop(*args):
        return args

    traced = Tracer().wrap("calibration", "noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop(1, 2)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced(1, 2)
    return max(0.0, (time.perf_counter() - t0 - plain) / n)


SUITES = ("transitions", "dyads", "triads", "tetrads", "pentads")


def replay_metrics(tracer: Tracer, memo: dict, w: dict, block: int) -> dict:
    spans = tracer.spans
    outermost, layer_self = _layer_times(spans)
    tops = {layer: [i for i, s in enumerate(spans) if outermost[i] and s[0] == layer] for layer in LAYERS}
    (main_span,) = tops["cli"]
    replay_s = spans[main_span][3] - spans[main_span][2]

    def self_s(name, match=lambda s: True):
        return sum(layer_self[i] for i in tops["stats"] if spans[i][1] == name and match(spans[i]))

    out = {
        "primes.calls": len(tops["primes"]),
        "primes.busy_s": sum(spans[i][3] - spans[i][2] for i in tops["primes"]),
        "generator.self_s": sum(layer_self[i] for i in tops["generator"]),
        "stats.distribution_s": self_s("ones_count_distribution"),
        "stats.pair_table_s": self_s("pair_frequency_table"),
        "stats.strings": sum(spans[i][5][2] for i in tops["stats"] if spans[i][1] == "batch_test")
        + sum(spans[i][5][1] for i in tops["stats"] if spans[i][1] == "ones_count_distribution"),
        "cli.self_s": layer_self[main_span],
        "trace.spans": len(spans),
    }
    for suite in SUITES:
        out[f"stats.busy_s.{suite}"] = self_s("batch_test", lambda s: s[5][1] == suite)
    roots_out, probes = roots_metrics(spans, outermost)
    out.update(roots_out)
    gen_out, stream_ok = generator_metrics(w, block, memo)
    out.update(gen_out)
    return {"metrics": out, "probes": probes, "replay_s": replay_s, "stream_ok": stream_ok,
            "span_cost_share": len(spans) * span_cost() / replay_s}


def main() -> int:
    result_path, job = sys.argv[1], json.loads(sys.argv[2])
    cli = sys.modules["rootrand.cli"]
    if not os.path.samefile(os.path.dirname(os.path.dirname(cli.__file__)), SRC):
        print(f"rootrand was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    roots, gen = sys.modules["rootrand.roots"], sys.modules["rootrand.generator"]
    out = {
        "imported": IMPORTED,
        "pid": os.getpid(),
        "backend": "gmpy2" if roots._HAVE_GMPY2 else "fallback",
        # Both process-wide caches start empty, as they do for a CLI user.
        "cold": not roots._digit_cache and not gen._shared,
    }
    if job["mode"] == "run":
        out.update(run_cli(cli.main, job["argv"]))
    elif job["mode"] == "replay":
        tracer, memo = Tracer(), {}
        out.update(run_cli(install(tracer, memo), job["argv"]))
        out.update(replay_metrics(tracer, memo, job["workload"], job["block"]))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
