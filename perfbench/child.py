"""One figure run of ``python -m repro`` in a fresh process.

Usage: ``child.py SPAWNED MODE [CLI ARGS...]``, with ``src`` on
``PYTHONPATH``.  ``SPAWNED`` is the parent's ``time.monotonic()`` just
before it spawned this process; ``MODE`` is ``setup`` (import the CLI and
stop), ``plain`` or ``traced``.  Prints one JSON object to stdout.
"""

import sys
import time

spawned = float(sys.argv[1])
import repro.harness.cli as cli  # noqa: E402  (setup ends here)
ready = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from repro.widx.offload import OffloadOutcome  # noqa: E402


def main() -> None:
    mode, argv = sys.argv[2], sys.argv[3:]
    result = {"setup_s": ready - spawned}
    if mode == "setup":
        print(json.dumps(result))
        return

    # Keep a handle on the run's cache and campaign result; neither hook
    # adds work inside the timed region.
    captured = {}

    class Cache(cli.MeasurementCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured["cache"] = self

    class Campaign(cli.Campaign):
        def run(self, *args, **kwargs):
            captured["campaign"] = super().run(*args, **kwargs)
            return captured["campaign"]

    cli.MeasurementCache, cli.Campaign = Cache, Campaign
    recorder = saved = None
    if mode == "traced":
        import spans
        recorder = spans.SpanRecorder()
        saved = spans.install(recorder)

    out = io.StringIO()
    stdout, sys.stdout = sys.stdout, sys.stderr
    started = time.perf_counter()
    exit_code = cli.main(argv, out=out)
    result["wall_s"] = time.perf_counter() - started
    sys.stdout = stdout
    if saved is not None:
        spans.uninstall(saved)

    cache = captured["cache"]
    campaign = captured["campaign"]
    stats = json.dumps(cache.merged_stats().to_dict(), sort_keys=True)
    # cache._measurements holds every point this run measured.
    unvalidated = sum(1 for value in cache._measurements.values()
                      if isinstance(value, OffloadOutcome)
                      and value.validated is not True)
    if recorder is not None:
        unvalidated += sum(1 for span in recorder.spans
                           if span["counts"].get("validated") == 0)
    result.update({
        "exit_code": exit_code,
        "text": out.getvalue(),
        "stats_digest": hashlib.sha256(stats.encode("utf-8")).hexdigest(),
        "unvalidated": unvalidated,
        "campaign": {
            "points": campaign.total_points,
            "measured": campaign.measured_points,
            "retries": campaign.retries,
            "failed": len(campaign.failures),
            "failures": [failure.describe() for failure in campaign.failures],
        },
        "spans": recorder.spans if recorder is not None else None,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
