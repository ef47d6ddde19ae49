"""Serve kernels with the live telemetry endpoint and read it back.

Run:
    python examples/serve_with_dashboard.py

Walks the request-scoped telemetry loop end to end: starts a
`KernelServer` (telemetry on by default) next to a
`TelemetryHTTPServer`, pushes a burst of adder requests through the
batcher, then scrapes the endpoint like a dashboard would —
`/healthz`, `/metrics` (Prometheus text and JSON), `/flight?last=N` —
and prints the per-kernel latency quantiles plus the last few flight
records.  The console equivalent of the scrape loop:

    repro top http://127.0.0.1:<port>

against a server started with:

    python -m repro serve --metrics-port <port>
"""

import asyncio

from repro.obs.flight import get_flight_recorder
from repro.obs.httpexport import TelemetryHTTPServer, fetch_json, render_top
from repro.serve import ServeRequest
from repro.serve.server import KernelServer

REQUESTS = 256
WIDTH = 16


async def main() -> None:
    recorder = get_flight_recorder()
    recorder.clear()

    async with KernelServer(max_batch_size=64) as server:
        http = TelemetryHTTPServer(health=server.stats)
        await http.start()
        try:
            requests = [
                ServeRequest(
                    id=f"req-{i:03d}", kernel="adder", width=WIDTH,
                    operands={"a": (i,), "b": (i * 3 + 1,)},
                )
                for i in range(REQUESTS)
            ]
            results = await server.submit_many(requests)
            ok = sum(1 for r in results if r.outputs)
            print(f"served {ok}/{REQUESTS} adder requests "
                  f"through {http.url}\n")

            # What `repro top` does each poll: three JSON fetches, one
            # rendered screen.  (fetch_json is blocking stdlib urllib,
            # fine for an example; `repro top` runs it in a plain
            # process.)
            loop = asyncio.get_running_loop()
            base = http.url
            health = await loop.run_in_executor(
                None, fetch_json, f"{base}/healthz")
            metrics = await loop.run_in_executor(
                None, fetch_json, f"{base}/metrics?format=json")
            flights = await loop.run_in_executor(
                None, fetch_json, f"{base}/flight?last=5")
            print(render_top(metrics, health, flights["records"]))

            # The same latency summary, read in-process: the registry's
            # P2 streaming quantiles per kernel.
            summary = metrics["serve_request_latency_seconds"]
            for child in summary["children"]:
                if child["labels"].get("kernel") == "adder":
                    quantiles = {
                        q: f"{v * 1e6:.0f}us"
                        for q, v in child["quantiles"].items()
                    }
                    print(f"\nadder wall latency quantiles: {quantiles}")

            # And the raw flight records behind /flight: stage-by-stage
            # timelines for the most recent requests.
            print("\nlast 3 flight records:")
            for record in recorder.last(3):
                print(" ", record.describe())
        finally:
            await http.stop()


if __name__ == "__main__":
    asyncio.run(main())
